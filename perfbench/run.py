#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of vitmap.

Runs one workload in this process, closed loop with one client, for a
fixed time, checks every op's output, and prints the metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every other cycle runs with spans around
the calls into each vitmap layer and the metrics are the per-layer ones.

    python3 perfbench/run.py --workload compile-heuristic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

``--all`` runs every workload untraced and traced, each in its own process,
and prints a table of all metrics. The program is imported from ``src/`` of
the checkout that holds this file; the benchmark exits with status 2 when it
is not there. Scratch files go to ``.bench_out/`` and span files to
``.bench_traces/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import util as importlib_util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_CYCLES = 2
SETUP_SAMPLES = 9

import stats  # noqa: E402  (sibling modules of this script)
from workloads import WHY, WORKLOADS, OpResult, setup_code  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def environment() -> str:
    import numpy

    numba = "importable" if importlib_util.find_spec("numba") else "not importable"
    return (f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, numba {numba}")


def measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready for an op."""
    code = ("import sys\n" + setup_code(workload)
            + "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first spawn only warms caches
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up interpreter failed with exit code {proc.returncode}")
        if i:
            samples.append(elapsed)
    return samples


def run_op(wl, op, tracer) -> tuple[float, OpResult]:
    if op.out_dir.exists():
        shutil.rmtree(op.out_dir)
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = wl.execute(op)
        else:
            tracer.op += 1
            with tracer.installed_wrappers(), tracer.span(wl.top_span):
                rc = wl.execute(op, tracer)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.settle()
        return elapsed, wl.check(op) if rc == 0 else OpResult([f"exit code {rc}"])
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, OpResult([f"raised {exc!r}"])


def result_line(attempted: int, failed: int, values: dict) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vitmap.cli  # noqa: F401  (timed: every CLI call pays this import)
    import_ms = (time.perf_counter() - start) * 1e3
    import vitmap
    if Path(vitmap.__file__).resolve().parent != SRC / "vitmap":
        print(f"error: imported vitmap from {vitmap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, derive

    setup = None if trace else measure_setup(name)
    work = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    tracer = Tracer()
    ops = []  # (key, traced, seconds, result) per op, in run order
    try:
        wl = WORKLOADS[name](work, seed)
        try:
            wl.warmup()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            print(result_line(1, 1, {}))
            print(f"error: warm-up failed: {exc}", file=sys.stderr)
            return 0
        cycle = 0
        loop_start = time.perf_counter()
        while cycle < MIN_CYCLES or time.perf_counter() - loop_start < seconds:
            traced = trace and cycle % 2 == 1
            for op in wl.ops:
                elapsed, res = run_op(wl, op, tracer if traced else None)
                ops.append((op.key, traced, elapsed, res))
            cycle += 1
        approx_ulp = wl.approx_err_ulp()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t for _, traced, t, _ in ops if not traced]
    traced_times = [t for _, traced, t, _ in ops if traced]
    results = [(key, res) for key, _, _, res in ops]

    failed = [(key, r.problems) for key, r in results if r.problems]
    defect_keys = sorted({key for key, r in results if r.known_defect})
    print(f"workload {name}, seed {seed}: {len(results)} ops in {cycle} cycles of "
          f"{len(wl.ops)} inputs, closed loop, 1 client; {len(failed)} failed")
    print(f"  why: {WHY[name]}")
    print(f"  environment: {environment()}")
    for key, problems in failed[:5]:
        print(f"  FAILED {key}: {'; '.join(problems[:3])}")
    if name.startswith("compile"):
        print(f"  known defect, schedules ignore the effective batch: schedule rows != "
              f"tokens x batch on {len(defect_keys)} of {len(wl.ops)} inputs")

    if trace:
        tracer.write(spans_path(name, seed))
        values = derive(tracer, tracer.op + 1)
        values["cli.import_ms"] = import_ms
        values["trace.overhead_ms"] = (
            statistics.median(traced_times) - statistics.median(times)) * 1e3
        values["check.batch_rows_mismatch"] = len(defect_keys)
        for k, v in values.items():
            print(f"  {k:<32} {v:14.6g} {UNITS[k]}")
        print(f"  traced ops {len(traced_times)}, untraced ops {len(times)}; "
              f"spans in {spans_path(name, seed).relative_to(ROOT)}")
    else:
        tail, pct, beyond = stats.tail(times)
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_mb,
            "artifact_kb": sum(r.artifact_bytes for _, r in results) / len(results) / 1024,
            "design_latency_ms": stats.geomean([x * 1e3 for _, r in results
                                          for x in r.design_latency_s]),
            "approx_err_ulp": approx_ulp,
        }
        counts = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "op_p50_ms": f"n={len(times)} ops",
            "op_tail_ms": f"p{pct:.1f}, n={len(times)} ops, {beyond} beyond",
            "peak_rss_mb": "1 process",
            "artifact_kb": f"mean over {len(results)} ops",
            "design_latency_ms": f"geometric mean over {len(results)} ops",
            "approx_err_ulp": "max over kernels",
        }
        for k, v in values.items():
            print(f"  {k:<20} {v:14.6g} {UNITS[k]:<4} ({counts[k]})")
    print(result_line(len(results), len(failed), values))
    return 0


def spans_path(name: str, seed: int) -> Path:
    path = ROOT / ".bench_traces" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    return path


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    table = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            table[(name, trace)] = result
    def value(name, trace, metric):
        return table.get((name, trace), {}).get("metrics", {}).get(metric, {}).get("value")

    def row(label, cells):
        print(f"{label:<24}" + "".join(f"{'-' if v is None else f'{v:.6g}':>20}" for v in cells))

    print("\nend-to-end metrics (untraced runs)")
    print(f"{'metric':<24}" + "".join(f"{n:>20}" for n in WORKLOADS))
    for m in SPEC["end_to_end"]:
        row(f"{m['name']} [{m['unit']}]", [value(n, 0, m["name"]) for n in WORKLOADS])
    row("trace.overhead_ms [ms]", [value(n, 1, "trace.overhead_ms") for n in WORKLOADS])
    print(f"{'failed/attempted':<24}" + "".join(
        f"{table[(n, 0)]['failed']}/{table[(n, 0)]['attempted']}".rjust(20) if (n, 0) in table
        else "-".rjust(20) for n in WORKLOADS))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vitmap" / "__init__.py").is_file():
        print(f"error: no vitmap sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
