"""The benchmark's workloads: seeded inputs, the ops of one cycle, and checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned and been checked. One cycle runs each of the
workload's inputs once, so every input is equally represented in the
statistics of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import checks

PRESETS = ("deit-tiny", "deit-small", "deit-base")
# Synthetic ViT shapes: each seed pairs these values up differently, so the
# set of shapes changes with the seed while its totals stay put.
SYN_TOKENS = (65, 145, 197, 257)
SYN_HEADS = (3, 4, 6, 12)
SYN_HEAD_DIMS = (32, 48, 64, 64)
SYN_LAYERS = (4, 6, 8, 12)
# A search space small enough that a warm-up op takes milliseconds.
WARMUP_CAPS = ["--tn-cap", "8", "--tm-cap", "128"]

WHY = {
    "compile-heuristic": "default user path: vitmap compile, heuristic search, batch 1 and 64, "
                         "3 DeiT presets + 4 seeded ViT shapes; closed loop, 1 client",
    "search-report": "vitmap search --mode both on deit-tiny: exhaustive search sets peak memory, "
                     "every evaluation becomes a CSV row, plus Pareto and comparison; closed loop, "
                     "1 client",
    "approx-kernels": "five fixed-point kernels on a deit-base layer plus error_report in Q8.8 "
                      "and Q4.4: the only path into approx; closed loop, 1 client",
}


def preset_doc(name: str) -> dict:
    from importlib import resources

    return json.loads(resources.files("vitmap.presets")
                      .joinpath(name.replace("-", "_") + ".json").read_text())


def board_doc(seed: int) -> dict:
    """The VU9P board at a seeded clock within 0.5 % of 200 MHz."""
    doc = preset_doc("vu9p")
    rng = random.Random(f"board-{seed}")
    doc["frequency_hz"] = float(round(200e6 * (1 + rng.uniform(-0.005, 0.005))))
    return doc


def synthetic_models(seed: int) -> list[dict]:
    rng = random.Random(f"models-{seed}")
    cols = [rng.sample(vals, len(vals))
            for vals in (SYN_TOKENS, SYN_HEADS, SYN_HEAD_DIMS, SYN_LAYERS)]
    return [
        {"schema_version": 1, "name": f"synthetic-{i}", "embed_dim": heads * dh,
         "num_heads": heads, "num_layers": layers, "num_tokens": tokens,
         "mlp_ratio": 4.0, "batch": 1, "data_width_bits": 16}
        for i, (tokens, heads, dh, layers) in enumerate(zip(*cols))
    ]


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Op:
    key: str
    argv: list
    out_dir: Path
    model: dict = None
    batch: int = 1


@dataclass
class OpResult:
    problems: list
    artifact_bytes: int = 0
    design_latency_s: list = field(default_factory=list)
    known_defect: bool = False


def run_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class CliWorkload:
    """Ops that are one ``vitmap.cli.main`` call each."""

    top_span = "cli.main"

    def __init__(self, work: Path, seed: int):
        import vitmap.cli

        self.cli = vitmap.cli
        self.work, self.seed = work, seed
        self.hw = board_doc(seed)
        self.hw_path = self.write_input("board.json", self.hw)
        self.digests: dict[str, str] = {}
        self.formats: set[str] = set()
        self.ops = self.build_ops()

    def write_input(self, name: str, doc: dict) -> str:
        path = self.work / "inputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return str(path)

    def compile_op(self, key, model_name, model, batch, extra=()) -> Op:
        out = self.work / "out" / key
        argv = ["compile", "--model", model_name, "--hw", self.hw_path, "--batch", str(batch),
                "--seed", str(self.seed), "--out-dir", str(out), *extra]
        return Op(key, argv, out, model, batch)

    def warmup(self) -> None:
        op = self.ops[0]
        out = self.work / "out" / "warmup"
        argv = [a if a != str(op.out_dir) else str(out) for a in op.argv] + WARMUP_CAPS
        if run_cli(self.cli, argv) != 0:
            raise RuntimeError(f"warm-up op failed: vitmap {' '.join(argv)}")

    def execute(self, op: Op, tracer=None) -> int:
        return run_cli(self.cli, op.argv)

    def check(self, op: Op) -> OpResult:
        raw = (op.out_dir / "manifest.json").read_bytes()
        manifest = json.loads(raw)
        problems = checks.check_manifest(manifest, op.model, self.hw, op.batch)
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(op.key, digest) != digest:
            problems.append("manifest differs from the first compile of the same input")
        self.formats.add(manifest["approx"]["format"])
        defect = any(p.startswith("batch-rows:") for p in problems)
        return OpResult([p for p in problems if not p.startswith("batch-rows:")],
                        tree_bytes(op.out_dir), [manifest["latency"]["total_s"]], defect)

    def approx_err_ulp(self) -> float:
        """Largest error_report error of the approximation the manifests name."""
        from vitmap.approx import ApproxConfig

        worst = 0.0
        for fmt in sorted(self.formats):
            cfg = ApproxConfig.from_doc({"schema_version": 1, "format": fmt})
            worst = max([worst, *report_errors_ulp(cfg, self.seed).values()])
        return worst


class CompileHeuristic(CliWorkload):
    def build_ops(self):
        ops = []
        models = [(name, name, preset_doc(name)) for name in PRESETS]
        for doc in synthetic_models(self.seed):
            models.append((doc["name"], self.write_input(doc["name"] + ".json", doc), doc))
        for key, arg, doc in models:
            for batch in (1, 64):
                ops.append(self.compile_op(f"{key}-b{batch}", arg, doc, batch))
        return ops


class SearchReport(CliWorkload):
    def build_ops(self):
        return [self.search_op("deit-tiny", preset_doc("deit-tiny"))]

    def search_op(self, model_name: str, model: dict) -> Op:
        out = self.work / "out" / "search"
        argv = ["search", "--model", model_name, "--hw", self.hw_path, "--mode", "both",
                "--seed", str(self.seed), "--out-dir", str(out)]
        return Op(model["name"], argv, out, model)

    def warmup(self):
        # The reference compile is the warm-up; the search's exhaustive best
        # must equal its result.
        op = self.ops[0]
        model_name = op.argv[op.argv.index("--model") + 1]
        ref = self.compile_op("reference", model_name, op.model, 1, ["--exhaustive"])
        if run_cli(self.cli, ref.argv) != 0:
            raise RuntimeError("reference compile --exhaustive failed")
        self.reference = json.loads((ref.out_dir / "manifest.json").read_text())
        self.formats.add(self.reference["approx"]["format"])
        shutil.rmtree(ref.out_dir)

    def check(self, op: Op) -> OpResult:
        problems = checks.check_search_report(op.out_dir, op.model, self.hw, self.reference)
        bests = [json.loads((op.out_dir / f"search_{m}.json").read_text())["best"]["latency_s"]
                 for m in ("exhaustive", "heuristic")]
        return OpResult(problems, tree_bytes(op.out_dir), bests)


# --------------------------------------------------------------------------
# fixed-point kernels
# --------------------------------------------------------------------------

REPORT_FNS = ("isqrt", "exp", "softmax", "gelu", "layernorm")
GOLDEN_SAMPLES = {"softmax": 3, "layernorm": 2, "exp": 256, "gelu": 256, "isqrt": 256}


def report_errors_ulp(cfg, seed: int, tracer=None) -> dict:
    """error_report's max error per function, in LSBs of the output format."""
    from vitmap.approx import error_report

    out = {}
    for fn in REPORT_FNS:
        with tracer.span("approx.error_report") if tracer else contextlib.nullcontext():
            rep = error_report(fn, cfg, seed=seed)
        out[fn] = rep.max_abs / checks.lsb(fn, cfg.fmt.frac_bits)
    return out


class ApproxKernels:
    """One op is one pass of the five kernels over a deit-base layer."""

    top_span = "approx.pass"
    LAYER = {"tokens": 197, "embed_dim": 768, "heads": 12, "ffn": 3072}

    def __init__(self, work: Path, seed: int):
        import numpy as np

        from vitmap import approx

        self.np, self.approx = np, approx
        self.work, self.seed = work, seed
        self.hw = board_doc(seed)
        self.cfgs = {f: approx.ApproxConfig.from_doc({"schema_version": 1, "format": f})
                     for f in ("Q8.8", "Q4.4")}
        self.cfg = self.cfgs["Q8.8"]
        fmt = self.cfg.fmt
        t, d, h, ffn = (self.LAYER[k] for k in ("tokens", "embed_dim", "heads", "ffn"))
        rng = np.random.default_rng(seed)
        scores = fmt.quantize(rng.normal(0.0, 2.0, (h * t, t)))
        ln_in = fmt.quantize(rng.normal(0.0, 1.0, (t, d)))
        self.inputs = {
            "softmax": scores,
            "exp": np.maximum(scores - scores.max(axis=1, keepdims=True),
                              int(fmt.quantize(self.cfg.exp_domain_lo))),
            "layernorm": ln_in,
            "gelu": fmt.quantize(rng.normal(0.0, 1.5, (t, ffn))),
            "isqrt": np.maximum(np.abs(ln_in), 1),
        }
        self.sample_rng = random.Random(f"golden-{seed}")
        self.ops = [Op("deit-base-layer", [], work / "out")]
        self.design_latency_s = self.nonlinear_latency_s()

    def warmup(self) -> None:
        """The first pass, checked in full against the float64 oracles."""
        outputs, reports = self.run_pass(None)
        self.reference = self.digest(outputs)
        self.reference_problems = (self.oracle_problems(outputs)
                                   + self.golden(outputs) + self.report_problems(reports))
        self.report_ulp = max(v for r in reports.values() for v in r.values())

    def run_pass(self, tracer):
        a, cfg = self.approx, self.cfg
        one = cfg.fmt.one
        span = tracer.span if tracer else (lambda *_, **__: contextlib.nullcontext())
        kernels = {
            "softmax": lambda x: a.softmax_approx(x, cfg),
            "exp": lambda x: a.pade_exp(x, cfg),
            "layernorm": lambda x: a.layernorm_approx(x, one, 0, cfg),
            "gelu": lambda x: a.gelu_pwl(x, cfg),
            "isqrt": lambda x: a.isqrt_approx(x, cfg),
        }
        outputs = {}
        for name, fn in kernels.items():
            with span(f"approx.{name}", elems=int(self.inputs[name].size)):
                outputs[name] = fn(self.inputs[name])
        reports = {f: report_errors_ulp(c, self.seed, tracer) for f, c in self.cfgs.items()}
        return outputs, reports

    def execute(self, op: Op, tracer=None) -> int:
        self.last = self.run_pass(tracer)
        return 0

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for name in sorted(outputs):
            h.update(self.np.ascontiguousarray(outputs[name]).tobytes())
        return h.hexdigest()

    def golden(self, outputs) -> list:
        sample = {}
        for name, count in GOLDEN_SAMPLES.items():
            arr = self.inputs[name]
            n = arr.shape[0] if name in ("softmax", "layernorm") else arr.size
            sample[name] = self.sample_rng.sample(range(n), count)
        return checks.golden_problems(self.inputs, outputs, self.cfg, sample)

    def oracle_problems(self, outputs) -> list:
        np, a, fmt = self.np, self.approx, self.cfg.fmt
        x = {k: fmt.dequantize(v) for k, v in self.inputs.items()}
        got = {
            "softmax": a.softmax_out_to_float(outputs["softmax"]),
            "exp": a.softmax_out_to_float(outputs["exp"]),
            "layernorm": fmt.dequantize(outputs["layernorm"]),
            "gelu": fmt.dequantize(outputs["gelu"]),
            "isqrt": fmt.dequantize(outputs["isqrt"]),
        }
        ref = {
            "softmax": a.exact_softmax(x["softmax"]),
            "exp": a.exact_exp(x["exp"]),
            "layernorm": a.exact_layernorm(x["layernorm"], eps=self.cfg.ln_eps / fmt.one),
            "gelu": a.exact_gelu(x["gelu"]),
            "isqrt": a.exact_isqrt(x["isqrt"]),
        }
        ulp = {k: float(np.abs(got[k] - ref[k]).max()) / checks.lsb(k, fmt.frac_bits)
               for k in got}
        cos = {k: float((got[k] * ref[k]).sum()
                        / math.sqrt((got[k] ** 2).sum() * (ref[k] ** 2).sum())) for k in got}
        sm = got["softmax"]
        sum_err = float(np.abs(sm.sum(axis=1) - 1.0).max())
        order = np.argsort(self.inputs["softmax"], axis=1, kind="stable")
        order_ok = bool(np.all(np.diff(np.take_along_axis(sm, order, axis=1), axis=1) >= 0))
        return checks.oracle_problems(ulp, cos, sum_err, order_ok)

    def report_problems(self, reports) -> list:
        return [p for f, r in reports.items() for p in checks.report_problems(f, r)]

    def check(self, op: Op) -> OpResult:
        outputs, reports = self.last
        problems = list(self.reference_problems)
        if self.digest(outputs) != self.reference:
            problems.append("kernel outputs differ from the first pass on the same inputs")
        problems += self.golden(outputs) + self.report_problems(reports)
        nbytes = sum(v.nbytes for v in outputs.values())
        return OpResult(problems, nbytes, [self.design_latency_s])

    def nonlinear_latency_s(self) -> float:
        """Modelled time of the pass's non-linear work on the board."""
        from vitmap.hw import nonlinear_cycles, parse_hardware

        hw = parse_hardware(self.hw)
        elems = (self.inputs[k].size for k in ("softmax", "layernorm", "gelu"))
        return sum(nonlinear_cycles(int(e), hw) for e in elems) / hw.frequency_hz

    def approx_err_ulp(self) -> float:
        return self.report_ulp


WORKLOADS = {
    "compile-heuristic": CompileHeuristic,
    "search-report": SearchReport,
    "approx-kernels": ApproxKernels,
}

# What a fresh interpreter does before the first op of each workload.
SETUP_CODE = {
    "cli": (
        "from vitmap import cli\n"
        "from vitmap.approx import ApproxConfig\n"
        "load = getattr(cli, '_load_doc', None)\n"
        "for name in {presets!r}:\n"
        "    if load: load(name, 'model')\n"
        "ApproxConfig.from_doc({{'schema_version': 1}})\n"
        "cli.build_parser()\n"
    ),
    "approx": (
        "from vitmap import approx\n"
        "for f in ('Q8.8', 'Q4.4'):\n"
        "    approx.ApproxConfig.from_doc({'schema_version': 1, 'format': f})\n"
    ),
}


def setup_code(workload: str) -> str:
    if workload == "approx-kernels":
        return SETUP_CODE["approx"]
    presets = {"compile-heuristic": PRESETS, "search-report": PRESETS[:1]}[workload]
    return SETUP_CODE["cli"].format(presets=presets)
