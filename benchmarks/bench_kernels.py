#!/usr/bin/env python3
"""Timings of the search's cost scorer and the fixed-point kernels.

The scorer line times the exact ``latency_batch`` on points sampled from
deit-base's search space (98 matmuls in 6 shape classes) and reports
nanoseconds per point; it first checks that a few of its latencies equal
``graph_latency``'s. The table lines time the public exp, softmax, GELU
and isqrt functions on a deit-base layer's shapes (Q8.8) through the
config's whole-domain tables against their ``_fixmath`` kernels called
directly, and check the two agree bit for bit; the tables are built in the
warmup round. The layernorm line times its kernel on the same layer. Each
of these five lines also gives one call's tracemalloc peak and its ratio to
the bytes the call returns (1.0x when the output is the only full-size array).
The search lines time ``exact_search`` against ``heuristic_search`` (default
config) on deit-base's full space at batch 1 and 64. The output lines take
deit-tiny's exhaustive log (372,527 evaluations) through ``pareto_front``
and ``evaluations_to_csv`` (into a temporary file) and report each one's
wall time and tracemalloc peak, the export's also with the file's bytes and
bytes per row; the CSV's bytes are checked against the same rows formatted
by ``csv.writer``, each numerator summed in Python ints from the cost
classes. Two more lines, each with wall time and tracemalloc
peak, time ``pareto_front`` on that log followed by a shuffled copy of it
flagged as cache hits (every third copy at half its latency; the front must
stay the log's), and ``compare_searches`` on deit-tiny's exhaustive and
default heuristic search, the two logs of ``vitmap search --mode both``.
The ``exhaustive_search (deit-tiny)`` and ``heuristic_search (deit-tiny)``
lines time those two searches themselves, each with its tracemalloc peak
and the rows it logs.
The front-end lines time, on deit-tiny (where QKV fusion fires) and
deit-base (where it is skipped) at batch 1 and 64, ``build_dag``,
``fuse_qkv``, ``batch_expand``, ``analyze`` and ``graph_latency`` at the
exact search's tiles, whose total must equal the search's best latency bit
for bit. The compile lines give the median of 30 in-process ``vitmap
compile`` calls per DeiT preset at batch 1 and 64, each into a fresh
temporary directory, and check that every call writes the same manifest
bytes. The write lines time, on the same
two inputs, ``manifest_to_json`` and ``AnalysisReport.to_json``, the two JSON
files of a compile, with the bytes each writes; each text must equal the
file ``vitmap compile`` wrote.
vitmap is imported from ``src/`` of this checkout.

    python3 benchmarks/bench_kernels.py [--points N] [--repeat K]
"""

import argparse
import contextlib
import csv
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vitmap import _latency  # noqa: E402
from vitmap import approx  # noqa: E402
from vitmap.approx import ApproxConfig, _fixmath  # noqa: E402
from vitmap.cli import main as vitmap_main  # noqa: E402
from vitmap.dse import (  # noqa: E402
    EvaluationLog,
    SearchConfig,
    compare_searches,
    enumerate_space,
    evaluations_to_csv,
    exact_search,
    exhaustive_search,
    heuristic_search,
    pareto_front,
)
from vitmap.hw import TileParams, graph_latency, parse_hardware  # noqa: E402
from vitmap.manifest import manifest_to_json  # noqa: E402
from vitmap.model_ir import analyze, batch_expand, build_dag, fuse_qkv, parse_model  # noqa: E402


def best_of(fn, repeat):
    """Fastest of ``repeat`` timed calls, with the last call's result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def traced_peak(fn):
    """tracemalloc's peak, in bytes, over one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def preset(name):
    return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())


def preset_dag(model, batch):
    """``model``'s DAG at ``batch`` and the vu9p board."""
    hw = parse_hardware(preset("vu9p.json"))
    dag = build_dag(parse_model(preset(model.replace("-", "_") + ".json")))
    return batch_expand(fuse_qkv(dag, hw), batch), hw


def bench_scorer(count, repeat, rng):
    dag, hw = preset_dag("deit-base", 1)
    pn, tn, tm = enumerate_space(dag, hw).point_arrays()
    idx = rng.integers(0, pn.shape[0], count)
    pn, tn, tm = pn[idx], tn[idx], tm[idx]
    arrays = _latency.extract_cost_arrays(dag, hw)
    t, lats = best_of(lambda: _latency.latency_batch(arrays, tn, tm, pn), repeat)
    for i in range(0, count, max(1, count // 16)):
        tiles = TileParams(int(pn[i]), hw.pack_factor, int(tn[i]), int(tm[i]))
        assert lats[i] == graph_latency(dag, tiles, hw).total_latency_s, tiles
    print(f"{f'latency_batch ({count} pts)':<28}  {t * 1e3:9.3f} ms "
          f"({t * 1e9 / count:.1f} ns/point)")


def bench_front_end(repeat):
    hw = parse_hardware(preset("vu9p.json"))
    for model in ("deit-tiny", "deit-base"):
        spec = parse_model(preset(model.replace("-", "_") + ".json"))
        t_build, built = best_of(lambda: build_dag(spec), repeat)
        t_fuse, fused = best_of(lambda: fuse_qkv(built, hw), repeat)
        for batch in (1, 64):
            t_expand, dag = best_of(lambda: batch_expand(fused, batch), repeat)
            t_analyze, _ = best_of(lambda: analyze(dag), repeat)
            best = exact_search(dag, hw, enumerate_space(dag, hw)).best
            t_cost, cost = best_of(lambda: graph_latency(dag, best.tiles, hw), repeat)
            assert cost.total_latency_s == best.latency_s, (model, batch, best.tiles)
            print(f"{f'front end ({model} b{batch})':<28}  build: {t_build * 1e3:6.3f} ms  "
                  f"fuse ({'fires' if fused is not built else 'skipped'}): "
                  f"{t_fuse * 1e3:6.3f} ms  expand: {t_expand * 1e3:6.3f} ms  "
                  f"analyze: {t_analyze * 1e3:6.3f} ms  graph_latency: {t_cost * 1e3:6.3f} ms  "
                  f"({len(dag.nodes)} nodes)")


def bench_compile(calls=30):
    """Median of ``calls`` in-process compiles per preset and batch, each into a
    fresh temporary directory; every call must write the same manifest."""
    for model in ("deit-tiny", "deit-small", "deit-base"):
        for batch in (1, 64):
            argv = ["compile", "--model", model, "--hw", "vu9p", "--batch", str(batch)]
            times, manifests = [], set()
            for _ in range(calls):
                with tempfile.TemporaryDirectory() as tmp, \
                        contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    assert vitmap_main([*argv, "--out-dir", tmp]) == 0
                    times.append(time.perf_counter() - start)
                    manifests.add((Path(tmp) / "manifest.json").read_bytes())
            assert len(manifests) == 1, (model, batch)
            print(f"{f'compile ({model} b{batch})':<28}  {statistics.median(times) * 1e3:7.3f} ms "
                  f"(median of {calls} calls)")


def bench_writes(repeat):
    for batch in (1, 64):
        dag, _ = preset_dag("deit-base", batch)
        report = analyze(dag)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            assert vitmap_main(["compile", "--model", "deit-base", "--hw", "vu9p",
                                "--batch", str(batch), "--out-dir", tmp]) == 0
            files = {name: (Path(tmp) / name).read_text(encoding="utf-8")
                     for name in ("manifest.json", "analysis.json")}
        manifest = json.loads(files["manifest.json"])
        t_manifest, text = best_of(lambda: manifest_to_json(manifest), repeat)
        assert text == files["manifest.json"], batch
        t_analysis, analysis = best_of(report.to_json, repeat)
        assert analysis == files["analysis.json"], batch
        print(f"{f'writes (deit-base b{batch})':<28}  manifest_to_json: "
              f"{t_manifest * 1e3:7.3f} ms ({len(text.encode())} B)  AnalysisReport.to_json: "
              f"{t_analysis * 1e3:7.3f} ms ({len(analysis.encode())} B)")


def csv_reference(result):
    """The evaluation CSV through ``csv.writer``, one row at a time.

    A row is pn, tn, tm, ``N(tn, tm) = Σ w·ceil(n/tn)·tn·ceil(m/tm)·tm``
    over the cost classes, in Python ints, once per distinct (tn, tm), and
    the cache flag as ``0`` or ``1``.
    """
    arrays = result.arrays
    classes = list(zip(arrays.cls_n.tolist(), arrays.cls_m.tolist(), arrays.cls_weight))
    numerators = {}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pn", "tn", "tm", "matmul_cycles_num", "from_cache"])
    for e in result.all_evaluated:
        pn, _, tn, tm = e.tiles.astuple()
        if (tn, tm) not in numerators:
            numerators[tn, tm] = sum(w * (-(-n // tn) * tn) * (-(-m // tm) * tm)
                                     for n, m, w in classes)
        writer.writerow([pn, tn, tm, numerators[tn, tm], int(e.from_cache)])
    return buf.getvalue().encode()


def doubled_log(log, rng):
    """``log``, then a shuffled copy of it flagged as cache hits, every third
    copy at half its latency."""
    perm = rng.permutation(len(log))
    copy = [c[perm] for c in log.columns()[:5]]
    copy[4][::3] /= 2
    return EvaluationLog(*(np.concatenate(pair) for pair in zip(log.columns()[:5], copy)),
                         np.repeat([False, True], len(log)))


def bench_outputs(repeat, rng):
    dag, hw = preset_dag("deit-tiny", 1)
    space = enumerate_space(dag, hw)
    result = exhaustive_search(dag, hw, space)
    heur = heuristic_search(dag, hw, space, SearchConfig())
    log = result.all_evaluated
    doubled = doubled_log(log, rng)
    front = pareto_front(log)
    assert pareto_front(doubled) == front, "a repeat's lower latency counted"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "evals.csv"

        def export():
            with path.open("w", encoding="utf-8") as fh:
                evaluations_to_csv(result, fh)

        for name, fn, rows in (
                ("exhaustive_search", lambda: exhaustive_search(dag, hw, space), len(log)),
                ("heuristic_search", lambda: heuristic_search(dag, hw, space, SearchConfig()),
                 len(heur.all_evaluated)),
                ("pareto_front", lambda: pareto_front(log), len(log)),
                ("evaluations_to_csv", export, len(log)),
                ("pareto_front x2", lambda: pareto_front(doubled), len(doubled)),
                ("compare_searches", lambda: compare_searches(result, heur, front),
                 len(heur.all_evaluated))):
            t, _ = best_of(fn, repeat)
            peak = traced_peak(fn)
            size = path.stat().st_size if fn is export else None
            print(f"{f'{name} (deit-tiny)':<28}  {t * 1e3:9.3f} ms  tracemalloc peak "
                  f"{peak / 2 ** 20:6.1f} MB  ({rows} evaluations)"
                  + (f"  {size} B, {size / rows:.1f} B/row" if size is not None else ""))
        assert path.read_bytes() == csv_reference(result), "CSV differs from csv.writer"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=200_000,
                        help="deit-base candidate configurations for the cost scorer")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    bench_scorer(args.points, args.repeat, rng)

    # One deit-base layer: 12 heads of 197x197 scores, a 197x3072 MLP
    # activation and the 197x768 layernorm input (its magnitudes feed isqrt).
    cfg = ApproxConfig()
    fmt = cfg.fmt
    lo, f = cfg.exp_lo_fixed, fmt.frac_bits
    scores = fmt.quantize(rng.normal(0.0, 2.0, (12 * 197, 197)))
    ln_in = fmt.quantize(rng.normal(0.0, 1.0, (197, 768)))

    def exp_kernel(z):
        return _fixmath.exp_fixed(z, cfg.log2e_q15, cfg.ln2_qf, f)

    layer = {
        "softmax": (approx.softmax_approx, scores, lambda x: _fixmath.softmax_normalize(
            exp_kernel(_fixmath.softmax_shift(x, lo)), cfg.recip_table, cfg.recip_bits,
            cfg.recip_refine, cfg.renormalize)),
        "exp": (approx.pade_exp, np.maximum(scores - scores.max(axis=1, keepdims=True), lo),
                lambda x: exp_kernel(np.clip(x, lo, 0))),
        "gelu": (approx.gelu_pwl, fmt.quantize(rng.normal(0.0, 1.5, (197, 3072))),
                 lambda x: _fixmath.gelu_fixed(x, *cfg.gelu_pieces, f, fmt.min_int,
                                               fmt.max_int)),
        "isqrt": (approx.isqrt_approx, np.maximum(np.abs(ln_in), 1),
                  lambda x: _fixmath.isqrt_fixed(x, cfg.isqrt_table, cfg.table_bits,
                                                 cfg.inv_sqrt2_q15, f, fmt.max_int)),
    }
    def peak_text(fn, out):
        peak = traced_peak(fn)
        return f"tracemalloc peak {peak / 2 ** 20:6.1f} MB ({peak / out.nbytes:4.2f}x output)"

    for name, (fn, x, direct) in layer.items():
        fn(x, cfg)  # warmup: builds the table
        t_table, table = best_of(lambda: fn(x, cfg), args.repeat)
        t_kernel, kernel = best_of(lambda: direct(x), args.repeat)
        assert np.array_equal(table, kernel), name
        print(f"{f'{name} table {x.shape[0]}x{x.shape[1]}':<28}  table: {t_table * 1e3:9.3f} ms"
              f"  kernel: {t_kernel * 1e3:9.3f} ms  speedup: {t_kernel / t_table:6.2f}x  "
              + peak_text(lambda: fn(x, cfg), table))
    t_ln, ln_out = best_of(lambda: approx.layernorm_approx(ln_in, fmt.one, 0, cfg), args.repeat)
    print(f"{f'layernorm {ln_in.shape[0]}x{ln_in.shape[1]}':<28}  {t_ln * 1e3:9.3f} ms  "
          + peak_text(lambda: approx.layernorm_approx(ln_in, fmt.one, 0, cfg), ln_out))

    for batch in (1, 64):
        dag, hw = preset_dag("deit-base", batch)
        space = enumerate_space(dag, hw)
        t_exact, exact = best_of(lambda: exact_search(dag, hw, space), args.repeat)
        t_heur, heur = best_of(lambda: heuristic_search(dag, hw, space, SearchConfig()),
                               args.repeat)
        print(f"{f'search (deit-base b{batch})':<28}  exact: {t_exact * 1e3:9.3f} ms "
              f"({exact.evaluations_used} pairs scored)  heuristic: {t_heur * 1e3:9.3f} ms "
              f"({heur.evaluations_used} evaluations)  same tiles: "
              f"{exact.best.tiles == heur.best.tiles}")

    bench_front_end(args.repeat)
    bench_compile()
    bench_writes(args.repeat)
    bench_outputs(args.repeat, rng)


if __name__ == "__main__":
    main()
