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
wall time and tracemalloc peak; the CSV's bytes are checked against the
same rows formatted by ``csv.writer``, each numerator summed in Python ints
from the cost classes. Two more lines, each with wall time and tracemalloc
peak, time ``pareto_front`` on that log followed by a shuffled copy of it
flagged as cache hits (every third copy at half its latency; the front must
stay the log's), and ``compare_searches`` on deit-tiny's exhaustive and
default heuristic search, the two logs of ``vitmap search --mode both``.
The ``heuristic_search (deit-tiny)`` line times that default heuristic
search itself, with its tracemalloc peak and the rows it logs.
vitmap is imported from ``src/`` of this checkout.

    python3 benchmarks/bench_kernels.py [--points N] [--repeat K]
"""

import argparse
import csv
import io
import json
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
from vitmap.model_ir import batch_expand, build_dag, fuse_qkv, parse_model  # noqa: E402


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


def preset_dag(model, batch):
    """``model``'s DAG at ``batch`` and the vu9p board."""
    def preset(name):
        return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())

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


def csv_reference(result):
    """The evaluation CSV through ``csv.writer``, one row at a time.

    ``N(tn, tm) = Σ w·ceil(n/tn)·tn·ceil(m/tm)·tm`` over the cost classes,
    in Python ints, once per distinct (tn, tm).
    """
    arrays = result.arrays
    classes = list(zip(arrays.cls_n.tolist(), arrays.cls_m.tolist(), arrays.cls_weight))
    numerators = {}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pn", "pm", "tn", "tm", "matmul_cycles_num", "cycles_den", "from_cache"])
    for e in result.all_evaluated:
        pn, pm, tn, tm = e.tiles.astuple()
        if (tn, tm) not in numerators:
            numerators[tn, tm] = sum(w * (-(-n // tn) * tn) * (-(-m // tm) * tm)
                                     for n, m, w in classes)
        writer.writerow([pn, pm, tn, tm, numerators[tn, tm], pn * pm * arrays.kernels,
                         e.from_cache])
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
                ("heuristic_search", lambda: heuristic_search(dag, hw, space, SearchConfig()),
                 len(heur.all_evaluated)),
                ("pareto_front", lambda: pareto_front(log), len(log)),
                ("evaluations_to_csv", export, len(log)),
                ("pareto_front x2", lambda: pareto_front(doubled), len(doubled)),
                ("compare_searches", lambda: compare_searches(result, heur, front),
                 len(heur.all_evaluated))):
            t, _ = best_of(fn, repeat)
            peak = traced_peak(fn)
            print(f"{f'{name} (deit-tiny)':<28}  {t * 1e3:9.3f} ms  tracemalloc peak "
                  f"{peak / 2 ** 20:6.1f} MB  ({rows} evaluations)")
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

    bench_outputs(args.repeat, rng)


if __name__ == "__main__":
    main()
