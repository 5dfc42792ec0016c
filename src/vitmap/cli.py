"""Command-line pipeline: compile, search, schedule, approx-report, emit.

Every failure is tagged with its pipeline stage and mapped to a distinct
exit code, so callers can tell a malformed model document from an
infeasible search space without parsing messages.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .approx import ApproxConfig, error_report
from .dse import (
    SearchConfig,
    SpaceCaps,
    compare_searches,
    enumerate_space,
    evaluations_to_csv,
    exact_search,
    exhaustive_search,
    heuristic_search,
    pareto_front,
    pareto_to_csv,
    search_summary_json,
)
from .errors import StageError, VitmapError, json_object
from .hw import graph_latency, parse_hardware
from .layout import ScheduleDescriptor, ScheduleKind
# Not called here: ScheduleDescriptor.expand runs the generators. The names
# stay importable from this module because perfbench's tracer resolves them
# here, so its layout.schedule span reads 0 calls for compile instead of
# vanishing.
from .layout import (  # noqa: F401
    schedule_layernorm,
    schedule_row_parallel,
    schedule_softmax,
)
from .manifest import (
    build_manifest,
    emit_template_params,
    manifest_to_json,
    template_params_from_manifest,
)
from .model_ir import analyze, batch_expand, build_dag, fuse_qkv, parse_model

STAGE_EXIT_CODES = {
    "model": 2,
    "hardware": 3,
    "search": 4,
    "schedule": 5,
    "emit": 6,
    "approx": 7,
}

_PRESETS = ("deit-tiny", "deit-small", "deit-base", "vu9p")  # presets/deit_tiny.json, ...


@functools.cache  # the package's location, found on the first preset read
def _preset_dir():
    return resources.files("vitmap.presets")


def _load_doc(spec: str, stage: str) -> dict:
    """Read a JSON document from a path or a built-in preset name."""
    try:
        path = Path(spec)
        if spec in _PRESETS:
            path = _preset_dir() / f"{spec.replace('-', '_')}.json"
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise StageError(stage, f"cannot read {spec}: {exc}") from exc


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except VitmapError as exc:
        raise StageError(stage, str(exc)) from exc


def _open_out(path: Path):
    """``path`` opened for writing text, its directory created first if missing."""
    if not path.parent.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8")


def _write(path: Path, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _space(args, dag, hw):
    return enumerate_space(dag, hw, SpaceCaps(
        tn_max=args.tn_cap, tm_max=args.tm_cap, pn_max=args.pn_cap,
        tn_step=args.tn_step, tm_step=args.tm_step))


def _with_flags(stage: str, doc, what: str, flags: dict) -> dict:
    """Document ``doc`` with the command-line values in ``flags`` that were given laid over it."""
    given = {key: value for key, value in flags.items() if value is not None}
    return {**_stage(stage, json_object, doc, what), **given}


def _search_config(args) -> SearchConfig:
    doc = _load_doc(args.search_config, "search") if args.search_config else {}
    doc = {"seed": args.seed, **_with_flags("search", doc, "search config", {
        "set_size": args.set_size, "iterations": args.iterations,
        "preservation_size": args.preservation, "max_evaluations": args.max_evals})}
    return _stage("search", SearchConfig.from_doc, doc)


def _check_exhaustive_cap(args, space) -> None:
    size = space.feasible_size()
    if size > args.exhaustive_cap and not args.force:
        raise StageError("search", f"space has {size} points > cap "
                                   f"{args.exhaustive_cap}; pass --force to override")


def _front_end(args, model_doc: dict):
    """Parse and lower the inputs every command starts from.

    Returns ``(spec, batch, dag, hw, fusion)``: ``batch`` is the effective
    batch (``--batch`` or the model's), ``dag`` is fused and batch-expanded,
    and ``fusion`` says whether QKV fusion was ``applied``, ``skipped``
    (the fused weights exceed on-chip capacity) or ``disabled`` (``--no-fuse``).
    """
    spec = _stage("model", parse_model, model_doc)
    dag = _stage("model", build_dag, spec)
    hw = _stage("hardware", parse_hardware, _load_doc(args.hw, "hardware"))
    fusion = "disabled"
    if args.fuse:
        fused = _stage("model", fuse_qkv, dag, hw)
        fusion = "skipped" if fused is dag else "applied"
        dag = fused
    batch = args.batch if args.batch is not None else spec.batch
    dag = _stage("model", batch_expand, dag, batch)
    return spec, batch, dag, hw, fusion


def _build_schedules(spec, batch: int, hw) -> dict[ScheduleKind, ScheduleDescriptor]:
    """Closed-form schedules per op kind over every batch row.

    One bank feeds one kernel per step, so every kind runs ``banks`` kernels.
    """
    rows = spec.num_tokens * batch
    bn = hw.ddr_banks
    return {
        kind: ScheduleDescriptor(kind, rows, bn, bn,
                                 spec.num_heads if kind is ScheduleKind.SOFTMAX else 0)
        for kind in ScheduleKind
    }


def cmd_compile(args) -> int:
    model_doc = _load_doc(args.model, "model")
    spec, batch, dag, hw, fusion = _front_end(args, model_doc)

    space = _stage("search", _space, args, dag, hw)
    if args.exhaustive:
        _check_exhaustive_cap(args, space)
        result = _stage("search", exhaustive_search, dag, hw, space)
        mode = "exhaustive"
    else:
        result = _stage("search", exact_search, dag, hw, space)
        mode = "exact"

    tiles = result.best.tiles
    cost = _stage("search", graph_latency, dag, tiles, hw)
    schedules = _stage("schedule", _build_schedules, spec, batch, hw)
    approx_cfg = _approx_config(args)
    fmt = approx_cfg.fmt
    if fmt.total_bits != hw.data_width_bits:  # the board's pm was computed from its width
        raise StageError("approx", f"format {fmt.name} is {fmt.total_bits} bits wide, but "
                                   f"hardware {hw.name} has data_width_bits "
                                   f"{hw.data_width_bits}")
    manifest = build_manifest(
        model_doc=model_doc, hw=hw, tiles=tiles, graph_cost=cost,
        schedules={kind.value: desc.to_doc() for kind, desc in schedules.items()},
        approx_summary=approx_cfg.describe(),
        seed=args.seed, tool_version=__version__,
        compile_meta={"batch": batch, "qkv_fusion": fusion},
        search_meta={
            "mode": mode,
            "space_size": space.feasible_size(),
            "evaluations_used": result.evaluations_used,
            "best_latency_s": result.best.latency_s,
        },
    )
    out_dir = Path(args.out_dir)
    _write(out_dir / "manifest.json", manifest_to_json(manifest))
    report = analyze(dag)
    _write(out_dir / "analysis.json", report.to_json())
    _write(out_dir / "analysis.csv", report.to_csv())
    print(f"compiled {spec.name}: tiles pn={tiles.pn} pm={tiles.pm} "
          f"tn={tiles.tn} tm={tiles.tm}, latency {cost.total_latency_s:.6g} s "
          f"({result.evaluations_used} evaluations)")
    return 0


def cmd_search(args) -> int:
    _, _, dag, hw, _ = _front_end(args, _load_doc(args.model, "model"))
    space = _stage("search", _space, args, dag, hw)
    out_dir = Path(args.out_dir)

    results = {}
    cfg = _search_config(args) if args.mode != "exhaustive" else None
    if args.mode in ("exhaustive", "both"):
        _check_exhaustive_cap(args, space)
        results["exhaustive"] = _stage("search", exhaustive_search, dag, hw, space)
    if cfg is not None:
        results["heuristic"] = _stage("search", heuristic_search, dag, hw, space, cfg)

    fronts = {}
    for name, result in results.items():
        with _open_out(out_dir / f"evals_{name}.csv") as fh:
            evaluations_to_csv(result, fh)
        _write(out_dir / f"search_{name}.json", search_summary_json(result))
        fronts[name] = pareto_front(result.all_evaluated)
        _write(out_dir / f"pareto_{name}.csv", pareto_to_csv(fronts[name]))
        print(f"{name}: best latency {result.best.latency_s:.6g} s at "
              f"pn={result.best.tiles.pn} tn={result.best.tiles.tn} "
              f"tm={result.best.tiles.tm} ({result.evaluations_used} evaluations)")
    if args.mode == "both":
        report = compare_searches(results["exhaustive"], results["heuristic"],
                                  fronts["exhaustive"])
        _write(out_dir / "comparison.json", report.to_json())
        print(f"comparison: evaluation ratio {report.evaluation_ratio:.4f}, "
              f"latency gap {report.best_latency_gap_rel:.4%}, "
              f"pareto coverage {report.pareto_coverage:.1%}")
    return 0


_SCHEDULE_NAMES = {
    ScheduleKind.MATMUL_ROW_PARALLEL: "row_parallel",
    ScheduleKind.GELU: "gelu",
    ScheduleKind.SOFTMAX: "softmax",
    ScheduleKind.LAYERNORM: "layernorm",
}


def cmd_schedule(args) -> int:
    spec, batch, _, hw, _ = _front_end(args, _load_doc(args.model, "model"))
    out_dir = Path(args.out_dir)
    for kind, desc in _stage("schedule", _build_schedules, spec, batch, hw).items():
        sched = _stage("schedule", desc.expand)
        name = _SCHEDULE_NAMES[kind]
        _write(out_dir / f"schedule_{name}.json", sched.to_json())
        print(f"{name}: {len(sched.steps)} steps, kernels={sched.kernels} banks={sched.banks}")
    return 0


def _approx_config(args) -> ApproxConfig:
    doc = _load_doc(args.approx_config, "approx") if args.approx_config else {"schema_version": 1}
    doc = _with_flags("approx", doc, "approx config", {"format": args.format})
    return _stage("approx", ApproxConfig.from_doc, doc)


def cmd_approx_report(args) -> int:
    cfg = _approx_config(args)
    out_dir = Path(args.out_dir)
    for fn in ("isqrt", "exp", "softmax", "gelu"):
        rep = _stage("approx", error_report, fn, cfg,
                     samples=args.samples, seed=args.seed, exact=args.exact)
        _write(out_dir / f"approx_{fn}.json", rep.to_json())
        print(f"{fn}: max_abs={rep.max_abs:.3e} max_rel={rep.max_rel:.3e} "
              f"mean_abs={rep.mean_abs:.3e}")
    return 0


def cmd_emit(args) -> int:
    manifest = _load_doc(args.manifest, "emit")
    params = _stage("emit", template_params_from_manifest, manifest)
    out = Path(args.out_dir) / "template_params.env"
    _write(out, emit_template_params(params))
    print(f"emitted {out}")
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitmap",
        description="Map transformer models onto a tiled multi-kernel accelerator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, hw=True):
        p.add_argument("--model", required=True,
                       help="model JSON path or preset (deit-tiny/small/base)")
        if hw:
            p.add_argument("--hw", required=True, help="hardware JSON path or preset (vu9p)")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    def add_space(p):
        p.add_argument("--tn-cap", type=int, default=None)
        p.add_argument("--tm-cap", type=int, default=None)
        p.add_argument("--pn-cap", type=int, default=None)
        p.add_argument("--tn-step", type=int, default=1)
        p.add_argument("--tm-step", type=int, default=1)
        p.add_argument("--exhaustive-cap", type=int, default=1_000_000,
                       help="refuse exhaustive search above this many points")
        p.add_argument("--force", action="store_true",
                       help="run exhaustive search past the safety cap")
        p.add_argument("--no-fuse", dest="fuse", action="store_false",
                       help="disable QKV weight fusion")

    def add_heuristic(p):
        """Add the heuristic search's options; return their actions."""
        return [
            p.add_argument("--search-config", default=None, help="SearchConfig JSON file"),
            p.add_argument("--set-size", type=int, default=None),
            p.add_argument("--iterations", type=int, default=None),
            p.add_argument("--preservation", type=int, default=None),
            p.add_argument("--max-evals", type=int, default=None),
        ]

    p = sub.add_parser("compile", help="full pipeline: parse, search, schedule, manifest")
    add_common(p)
    add_space(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="evaluate every feasible point instead of the exact pn-pinned search")
    p.add_argument("--batch", type=int, default=None, help="override the model batch size")
    p.add_argument("--format", default=None, help="fixed-point format, e.g. Q8.8")
    p.add_argument("--approx-config", default=None, help="approximation config JSON")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("search", help="run and log the design-space searches")
    add_common(p)
    add_space(p)
    heuristic = {a.dest: a.option_strings[0] for a in add_heuristic(p)}
    p.add_argument("--mode", choices=("exhaustive", "heuristic", "both"), default="both")
    p.set_defaults(func=cmd_search, batch=None, heuristic_flags=heuristic)

    p = sub.add_parser("schedule", help="emit the expanded static schedules")
    add_common(p)
    p.set_defaults(func=cmd_schedule, batch=None, fuse=True)

    p = sub.add_parser("approx-report", help="measure approximation error vs oracles")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--format", default=None, help="fixed-point format, e.g. Q4.4")
    p.add_argument("--approx-config", default=None)
    p.add_argument("--exact", action="store_true",
                   help="swap the oracle in for the approximation (zero-error check)")
    p.set_defaults(func=cmd_approx_report)

    # No abbreviations, so --out is rejected rather than read as --out-dir.
    p = sub.add_parser("emit", help="write template parameters from a manifest",
                       allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_emit)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parsed command line; usage errors exit with code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "exhaustive":
        unused = [flag for dest, flag in args.heuristic_flags.items()
                  if getattr(args, dest) is not None]
        if unused:
            parser.error(f"search: {', '.join(unused)}: not allowed with --mode exhaustive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    except VitmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
