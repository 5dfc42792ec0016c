#!/usr/bin/env python3
"""Throughput comparison of the numba kernels against the numpy fallbacks.

Runs every hot kernel both ways on identical inputs, checks the outputs
match bit for bit, and prints per-implementation timings. The first numba
call per kernel compiles and is excluded by the warmup round. The latency
kernel runs on feasible points of deit-base's search space (98 matmuls in
6 shape classes) and also reports nanoseconds per point. The table lines
time the public exp, softmax, GELU and isqrt functions on a deit-base
layer's shapes (Q8.8) through the config's whole-domain tables against
``impl="numpy"``, and check the two agree bit for bit; the tables are
built in the warmup round. The last lines time ``exact_search`` against
``heuristic_search`` (default config) on deit-base's full space at batch 1
and 64. vitmap is imported from ``src/`` of this checkout.

    python3 benchmarks/bench_kernels.py [--points N] [--rows R] [--repeat K]
"""

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vitmap import _latency  # noqa: E402
from vitmap import approx  # noqa: E402
from vitmap.approx import ApproxConfig, _fixmath  # noqa: E402
from vitmap.dse import SearchConfig, enumerate_space, exact_search, heuristic_search  # noqa: E402
from vitmap.hw import parse_hardware  # noqa: E402
from vitmap.model_ir import batch_expand, build_dag, fuse_qkv, parse_model  # noqa: E402


def bench(label, fn, args, impls, repeat, count=None):
    results = {}
    outputs = {}
    for impl in impls:
        fn(*args, impl=impl)  # warmup (numba compiles here)
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            out = fn(*args, impl=impl)
            best = min(best, time.perf_counter() - start)
        results[impl] = best
        outputs[impl] = np.asarray(out)
    if len(impls) == 2:
        assert np.array_equal(outputs[impls[0]], outputs[impls[1]]), label
    line = f"{label:<28}"
    for impl in impls:
        line += f"  {impl or 'table'}: {results[impl] * 1e3:9.3f} ms"
        if count:
            line += f" ({results[impl] * 1e9 / count:.1f} ns/point)"
    if len(impls) == 2:
        line += f"  speedup: {results['numpy'] / results[impls[0]]:6.2f}x"
    print(line)


def best_of(fn, repeat):
    """Fastest of ``repeat`` timed calls, with the last call's result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def deit_base(batch):
    """deit-base's DAG at ``batch`` and the vu9p board."""
    def preset(name):
        return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())

    hw = parse_hardware(preset("vu9p.json"))
    dag = batch_expand(fuse_qkv(build_dag(parse_model(preset("deit_base.json"))), hw), batch)
    return dag, hw


def deit_base_points(count, rng):
    """deit-base cost arrays and ``count`` points drawn from its feasible space."""
    dag, hw = deit_base(1)
    pn, tn, tm = enumerate_space(dag, hw).point_arrays()
    idx = rng.integers(0, pn.shape[0], count)
    return _latency.extract_cost_arrays(dag, hw), tn[idx], tm[idx], pn[idx]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=200_000,
                        help="deit-base candidate configurations for the latency kernel")
    parser.add_argument("--rows", type=int, default=4096,
                        help="softmax/layernorm rows")
    parser.add_argument("--elems", type=int, default=1_000_000,
                        help="elementwise kernel input size")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    impls = ["numba", "numpy"] if _fixmath.HAVE_NUMBA else ["numpy"]
    if len(impls) == 1:
        print("numba not importable; timing the numpy path only")

    rng = np.random.default_rng(0)
    cfg = ApproxConfig()
    fmt = cfg.fmt

    arrays, tn, tm, pn = deit_base_points(args.points, rng)
    bench(f"latency_batch ({args.points} pts)",
          lambda *a, impl=None: _latency.latency_batch(a[0], a[1], a[2], a[3], impl=impl),
          (arrays, tn, tm, pn), impls, args.repeat, count=args.points)

    x = rng.integers(1, fmt.max_int + 1, args.elems)
    bench(f"isqrt ({args.elems} elems)",
          lambda *a, impl=None: _fixmath.isqrt_fixed(*a, impl=impl),
          (x, cfg.isqrt_table, cfg.table_bits, cfg.inv_sqrt2_q15,
           fmt.frac_bits, fmt.max_int), impls, args.repeat)

    z = -rng.integers(0, -fmt.quantize(-8.0) + 1, args.elems)
    bench(f"exp ({args.elems} elems)",
          lambda *a, impl=None: _fixmath.exp_fixed(*a, impl=impl),
          (z, cfg.log2e_q15, cfg.ln2_qf, fmt.frac_bits), impls, args.repeat)

    xg = rng.integers(fmt.min_int, fmt.max_int + 1, args.elems)
    px, ps, pb = cfg.gelu_pieces
    bench(f"gelu ({args.elems} elems)",
          lambda *a, impl=None: _fixmath.gelu_fixed(*a, impl=impl),
          (xg, px, ps, pb, fmt.frac_bits, fmt.min_int, fmt.max_int),
          impls, args.repeat)

    rows = fmt.quantize(rng.normal(0, 1, (args.rows, 197)))
    bench(f"softmax ({args.rows}x197)",
          lambda *a, impl=None: _fixmath.softmax_fixed(*a, impl=impl),
          (rows, cfg.exp_lo_fixed, cfg.log2e_q15, cfg.ln2_qf, fmt.frac_bits,
           cfg.recip_table, cfg.recip_bits, 0, False), impls, args.repeat)

    ln_rows = fmt.quantize(rng.normal(0, 1, (args.rows, 192)))
    gamma = np.full(192, fmt.one, dtype=np.int64)
    beta = np.zeros(192, dtype=np.int64)
    bench(f"layernorm ({args.rows}x192)",
          lambda *a, impl=None: _fixmath.layernorm_fixed(*a, impl=impl),
          (ln_rows, gamma, beta, cfg.ln_eps, fmt.frac_bits, cfg.isqrt_table,
           cfg.table_bits, cfg.inv_sqrt2_q15, fmt.min_int, fmt.max_int),
          impls, args.repeat)

    # One deit-base layer: 12 heads of 197x197 scores, a 197x3072 MLP
    # activation and the 197x768 layernorm input (its magnitudes feed isqrt).
    scores = fmt.quantize(rng.normal(0.0, 2.0, (12 * 197, 197)))
    ln_in = fmt.quantize(rng.normal(0.0, 1.0, (197, 768)))
    layer = {
        "softmax": (approx.softmax_approx, scores),
        "exp": (approx.pade_exp, np.maximum(scores - scores.max(axis=1, keepdims=True),
                                            cfg.exp_lo_fixed)),
        "gelu": (approx.gelu_pwl, fmt.quantize(rng.normal(0.0, 1.5, (197, 3072)))),
        "isqrt": (approx.isqrt_approx, np.maximum(np.abs(ln_in), 1)),
    }
    for name, (fn, x) in layer.items():
        bench(f"{name} table {x.shape[0]}x{x.shape[1]}", lambda a, impl: fn(a, cfg, impl=impl),
              (x,), [None, "numpy"], args.repeat)

    for batch in (1, 64):
        dag, hw = deit_base(batch)
        space = enumerate_space(dag, hw)
        t_exact, exact = best_of(lambda: exact_search(dag, hw, space), args.repeat)
        t_heur, heur = best_of(lambda: heuristic_search(dag, hw, space, SearchConfig()),
                               args.repeat)
        print(f"{f'search (deit-base b{batch})':<28}  exact: {t_exact * 1e3:9.3f} ms "
              f"({exact.evaluations_used} (tn, tm) pairs)  heuristic: {t_heur * 1e3:9.3f} ms "
              f"({heur.evaluations_used} evaluations)  same tiles: "
              f"{exact.best.tiles == heur.best.tiles}")

if __name__ == "__main__":
    main()
