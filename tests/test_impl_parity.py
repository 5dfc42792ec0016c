"""The jitted kernels and their numpy fallbacks must agree bit for bit."""

import json
from importlib import resources

import numpy as np
import pytest

from conftest import toy_hw
from vitmap import _latency
from vitmap.approx import ApproxConfig, _fixmath
from vitmap.dse import enumerate_space
from vitmap.hw import parse_hardware
from vitmap.model_ir import Dag, OpKind, OpNode, batch_expand, build_dag, fuse_qkv, parse_model

needs_numba = pytest.mark.skipif(not _fixmath.HAVE_NUMBA, reason="numba not importable")

CFG = ApproxConfig()


def _random_points(rng, count=4000):
    tn = rng.integers(1, 400, count)
    tm = rng.integers(1, 200, count) * 2
    pn = rng.integers(1, 128, count)
    return tn, tm, pn


@needs_numba
def test_latency_batch_parity():
    dag = Dag((
        OpNode("a", OpKind.MATMUL, (), (197, 591), dims=(197, 64, 197),
               head_scoped=True, heads=3),
        OpNode("s", OpKind.SOFTMAX, ("a",), (197, 591), head_scoped=True, heads=3),
        OpNode("b", OpKind.MATMUL, ("s",), (197, 192), dims=(197, 197, 64),
               head_scoped=True, heads=3),
    ))
    arrays = _latency.extract_cost_arrays(dag, toy_hw(onchip_capacity_elems=1 << 18))
    tn, tm, pn = _random_points(np.random.default_rng(0))
    jit = _latency.latency_batch(arrays, tn, tm, pn, impl="numba")
    ref = _latency.latency_batch(arrays, tn, tm, pn, impl="numpy")
    assert np.array_equal(jit, ref)


def _preset(name):
    return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())


@pytest.fixture(scope="module")
def deit_base_reference():
    """deit-base cost arrays, sampled feasible points, and the loop kernel's
    latencies for them, computed by ``_latency_batch_loops`` as plain Python."""
    hw = parse_hardware(_preset("vu9p.json"))
    spec = parse_model(_preset("deit_base.json"))
    dag = batch_expand(fuse_qkv(build_dag(spec), hw), spec.batch)
    arrays = _latency.extract_cost_arrays(dag, hw)
    pn, tn, tm = enumerate_space(dag, hw).point_arrays()
    idx = np.random.default_rng(0).integers(0, pn.shape[0], 3001)
    tn, tm, pn = tn[idx], tm[idx], pn[idx]
    out = np.empty(idx.shape[0], dtype=np.float64)
    ref = _latency._latency_batch_loops(tn, tm, pn, *arrays.per_matmul(), arrays.pm,
                                        arrays.nl_cycles, arrays.inv_freq, out)
    return arrays, tn, tm, pn, ref


@pytest.mark.parametrize("block", [None, 256])
def test_latency_batch_numpy_matches_loops_on_deit_base(deit_base_reference, block,
                                                        monkeypatch):
    # 3001 points: a partial tail block at both the default block size and 256.
    arrays, tn, tm, pn, ref = deit_base_reference
    assert arrays.mm_class.shape[0] == 98 and arrays.cls_n.shape[0] == 6
    if block is not None:
        monkeypatch.setattr(_latency, "_BLOCK", block)
    assert tn.shape[0] % _latency._BLOCK != 0
    got = _latency.latency_batch(arrays, tn, tm, pn, impl="numpy")
    assert np.array_equal(got, ref)


def test_cost_classes_keep_matmul_order():
    dag = Dag((
        OpNode("a", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8)),
        OpNode("b", OpKind.MATMUL, (), (8, 8), dims=(8, 8, 8)),
        OpNode("c", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8)),
        OpNode("d", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8), head_scoped=True, heads=2),
    ))
    arrays = _latency.extract_cost_arrays(dag, toy_hw())
    assert arrays.mm_class.tolist() == [0, 1, 0, 2]
    n, k, m, kf = arrays.per_matmul()
    assert k.tolist() == [4, 8, 4, 4]
    assert kf.tolist() == [0.25, 0.25, 0.25, 1.0]


@needs_numba
def test_isqrt_parity():
    rng = np.random.default_rng(1)
    x = rng.integers(1, CFG.fmt.max_int + 1, 20000)
    a = _fixmath.isqrt_fixed(x, CFG.isqrt_table, CFG.table_bits, CFG.inv_sqrt2_q15,
                             CFG.fmt.frac_bits, CFG.fmt.max_int, impl="numba")
    b = _fixmath.isqrt_fixed(x, CFG.isqrt_table, CFG.table_bits, CFG.inv_sqrt2_q15,
                             CFG.fmt.frac_bits, CFG.fmt.max_int, impl="numpy")
    assert np.array_equal(a, b)


@needs_numba
def test_exp_parity_exhaustive():
    z = np.arange(CFG.exp_lo_fixed, 1, dtype=np.int64)
    a = _fixmath.exp_fixed(z, CFG.log2e_q15, CFG.ln2_qf, CFG.fmt.frac_bits, impl="numba")
    b = _fixmath.exp_fixed(z, CFG.log2e_q15, CFG.ln2_qf, CFG.fmt.frac_bits, impl="numpy")
    assert np.array_equal(a, b)


@needs_numba
@pytest.mark.parametrize("refine,renorm", [(0, False), (1, False), (0, True)])
def test_softmax_parity(refine, renorm):
    rng = np.random.default_rng(2)
    rows = CFG.fmt.quantize(rng.normal(0, 1.2, (64, 197)))
    args = (rows, CFG.exp_lo_fixed, CFG.log2e_q15, CFG.ln2_qf, CFG.fmt.frac_bits,
            CFG.recip_table, CFG.recip_bits, refine, renorm)
    assert np.array_equal(_fixmath.softmax_fixed(*args, impl="numba"),
                          _fixmath.softmax_fixed(*args, impl="numpy"))


@needs_numba
def test_gelu_parity():
    x = np.arange(CFG.fmt.min_int, CFG.fmt.max_int + 1, dtype=np.int64)
    px, ps, pb = CFG.gelu_pieces
    args = (x, px, ps, pb, CFG.fmt.frac_bits, CFG.fmt.min_int, CFG.fmt.max_int)
    assert np.array_equal(_fixmath.gelu_fixed(*args, impl="numba"),
                          _fixmath.gelu_fixed(*args, impl="numpy"))


@needs_numba
def test_layernorm_parity():
    rng = np.random.default_rng(3)
    rows = CFG.fmt.quantize(rng.normal(0, 1, (48, 192)))
    gamma = CFG.fmt.quantize(rng.uniform(0.5, 1.5, 192))
    beta = CFG.fmt.quantize(rng.normal(0, 0.2, 192))
    args = (rows, gamma, beta, CFG.ln_eps, CFG.fmt.frac_bits, CFG.isqrt_table,
            CFG.table_bits, CFG.inv_sqrt2_q15, CFG.fmt.min_int, CFG.fmt.max_int)
    assert np.array_equal(_fixmath.layernorm_fixed(*args, impl="numba"),
                          _fixmath.layernorm_fixed(*args, impl="numpy"))


def test_env_flag_reported():
    assert _latency.active_impl() in ("numba", "numpy")
    assert _fixmath.active_impl() in ("numba", "numpy")
