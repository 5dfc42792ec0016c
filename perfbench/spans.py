"""In-memory spans around the calls into each vitmap layer.

The tracer wraps public functions in the namespaces the CLI calls them from
(``vitmap.cli`` imports names directly, so that is where they are patched),
records one span per call with its name, start, end, parent and op id, and
restores the originals afterwards. A wrapped name that no longer exists is
skipped and the metrics that depend on it are left out.

Counts read from a call's arguments or result (evaluations, steps, bytes)
are computed by ``Tracer.settle`` after the op has finished, outside its
timing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


def _search_note(args, out):
    return {"evaluations": out.evaluations_used, "logged": len(out.all_evaluated),
            "hits": sum(1 for e in out.all_evaluated if e.from_cache)}


def _steps(args, out):
    return {"steps": len(out.steps)}


# (module, attribute, span name, note). A note maps a call's (args, result)
# to the counts recorded on its span.
TARGETS = (
    ("vitmap.cli", "parse_model", "model_ir.parse", None),
    ("vitmap.cli", "build_dag", "model_ir.build_dag", None),
    ("vitmap.cli", "fuse_qkv", "model_ir.fuse_qkv",
     lambda args, out: {"fired": int(out is not args[0])}),
    ("vitmap.cli", "batch_expand", "model_ir.batch_expand",
     lambda args, out: {"nodes": len(out.nodes), "matmuls": len(out.matmuls())}),
    ("vitmap.cli", "analyze", "model_ir.analyze", None),
    ("vitmap.cli", "parse_hardware", "hw.parse", None),
    ("vitmap.cli", "graph_latency", "hw.graph_latency", None),
    ("vitmap.cli", "enumerate_space", "dse.enumerate",
     lambda args, out: {"points": out.feasible_size()}),
    ("vitmap.cli", "exhaustive_search", "dse.search", _search_note),
    ("vitmap.cli", "heuristic_search", "dse.search", _search_note),
    ("vitmap.dse", "latency_batch", "dse.latency_batch",
     lambda args, out: {"points": len(out)}),
    ("vitmap.cli", "pareto_front", "dse.pareto", None),
    ("vitmap.cli", "evaluations_to_csv", "dse.csv", None),
    ("vitmap.cli", "pareto_to_csv", "dse.csv", None),
    ("vitmap.cli", "compare_searches", "dse.compare", None),
    ("vitmap.cli", "schedule_row_parallel", "layout.schedule",
     _steps),
    ("vitmap.cli", "schedule_softmax", "layout.schedule",
     _steps),
    ("vitmap.cli", "schedule_layernorm", "layout.schedule",
     _steps),
    ("vitmap.layout.Schedule", "to_json", "layout.to_json", None),
    ("vitmap.cli", "build_manifest", "manifest.build",
     lambda args, out: {"schedule_bytes": len(
         json.dumps(out["schedules"], indent=2, sort_keys=True))}),
    ("vitmap.cli", "manifest_to_json", "manifest.to_json",
     lambda args, out: {"bytes": len(out)}),
    ("vitmap.approx.ApproxConfig", "from_doc", "approx.config", None),
)


def _resolve(path: str):
    """Module or class named by a dotted path; None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Spans kept in memory: [name, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()  # span names with a live target
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
               self.op, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
            if note is not None:
                self._pending.append((attrs, note, args, out))
            return out
        return wrapper

    @contextmanager
    def installed_wrappers(self):
        """Patch every target that exists for the duration of the block."""
        undo = []
        try:
            for owner_path, attr, name, note in TARGETS:
                owner = _resolve(owner_path)
                raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, note))
                else:
                    new = self._wrap(raw, name, note)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                self.installed.add(name)
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def settle(self) -> None:
        """Record the counts of the calls made since the last settle."""
        for attrs, note, args, out in self._pending:
            attrs.update(note(args, out))
        self._pending.clear()

    def write(self, path) -> None:
        names = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(names, rec)), sort_keys=True) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


LAYERS = ("model_ir", "hw", "dse", "layout", "manifest", "approx", "cli")
KERNELS = ("softmax", "layernorm", "gelu", "exp", "isqrt")
# Spans reported as "<span>_ms", the mean time per op spent in them.
TIMED = ("model_ir.parse", "model_ir.build_dag", "model_ir.fuse_qkv", "model_ir.batch_expand",
         "model_ir.analyze", "hw.parse", "hw.graph_latency", "dse.enumerate", "dse.search",
         "dse.pareto", "dse.csv", "dse.compare", "layout.schedule", "layout.to_json",
         "manifest.build", "manifest.to_json", "approx.config", "approx.error_report")
# metric: (span, attribute, scale) reported as the attribute's mean per op.
COUNTED = {
    "dse.evaluations": ("dse.search", "evaluations", 1),
    "dse.space_points": ("dse.enumerate", "points", 1),
    "layout.schedule_steps": ("layout.schedule", "steps", 1),
    "manifest.kb": ("manifest.to_json", "bytes", 1 / 1024),
    "manifest.schedule_kb": ("manifest.build", "schedule_bytes", 1 / 1024),
    "model_ir.nodes": ("model_ir.batch_expand", "nodes", 1),
    "model_ir.matmuls": ("model_ir.batch_expand", "matmuls", 1),
}
# Spans the benchmark opens itself, so they exist whatever vitmap provides.
OWN_SPANS = {"cli.main", "approx.pass", "approx.error_report"} | {f"approx.{k}" for k in KERNELS}


def derive(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Times and counts are means per op; ratios are ratios of totals, 0 when
    their base is 0. Metrics whose spans had no live target are absent.
    """
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = {}
    attr: dict[tuple[str, str], float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, _, _, attrs), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            attr[(name, key)] = attr.get((name, key), 0.0) + value
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    search_self = sum(s for rec, s in zip(spans, own) if rec[0] == "dse.search")

    def per_op(x):
        return x / ops if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def a(name, key):
        return attr.get((name, key), 0.0)

    table = {f"{span}_ms": (span, lambda span=span: per_op(total.get(span, 0.0)) * 1e3)
             for span in TIMED}
    for metric, (span, key, scale) in COUNTED.items():
        table[metric] = (span, lambda span=span, key=key, scale=scale:
                         per_op(a(span, key)) * scale)
    table.update({
        "dse.us_per_eval": ("dse.search", lambda: ratio(total.get("dse.search", 0.0) * 1e6,
                                                        a("dse.search", "evaluations"))),
        "dse.cache_hit_ratio": ("dse.search", lambda: ratio(a("dse.search", "hits"),
                                                            a("dse.search", "logged"))),
        "dse.kernel_ns_per_point": ("dse.latency_batch", lambda: ratio(
            total.get("dse.latency_batch", 0.0) * 1e9, a("dse.latency_batch", "points"))),
        "dse.materialise_ms": ("dse.search", lambda: per_op(search_self) * 1e3),
        "model_ir.fusion_applied_ratio": ("model_ir.fuse_qkv", lambda: ratio(
            a("model_ir.fuse_qkv", "fired"), calls.get("model_ir.fuse_qkv", 0))),
    })
    for k in KERNELS:
        span = f"approx.{k}"
        table[f"{span}_melem_s"] = (span, lambda span=span: ratio(
            a(span, "elems"), total.get(span, 0.0) * 1e6))
    for layer in LAYERS:
        table[f"{layer}.self_ms"] = (None, lambda layer=layer: per_op(layer_self[layer]) * 1e3)
    live = tracer.installed | OWN_SPANS
    return {key: fn() for key, (dep, fn) in table.items() if dep is None or dep in live}
