#!/usr/bin/env python3
"""Throughput comparison of the numba kernels against the numpy fallbacks.

Runs every hot kernel both ways on identical inputs, checks the outputs
match bit for bit, and prints per-implementation timings. The first numba
call per kernel compiles and is excluded by the warmup round. The latency
kernel runs on feasible points of deit-base's search space (98 matmuls in
6 shape classes) and also reports nanoseconds per point. vitmap is imported
from ``src/`` of this checkout.

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
from vitmap.approx import ApproxConfig, _fixmath  # noqa: E402
from vitmap.dse import enumerate_space  # noqa: E402
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
        line += f"  {impl}: {results[impl] * 1e3:9.3f} ms"
        if count:
            line += f" ({results[impl] * 1e9 / count:.1f} ns/point)"
    if len(impls) == 2:
        line += f"  speedup: {results['numpy'] / results['numba']:6.2f}x"
    print(line)


def deit_base_points(count, rng):
    """deit-base cost arrays and ``count`` points drawn from its feasible space."""
    def preset(name):
        return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())

    hw = parse_hardware(preset("vu9p.json"))
    spec = parse_model(preset("deit_base.json"))
    dag = batch_expand(fuse_qkv(build_dag(spec), hw), spec.batch)
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


if __name__ == "__main__":
    main()
