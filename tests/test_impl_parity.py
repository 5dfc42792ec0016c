"""The numpy kernels against their golden models, bit for bit.

The exact cost scorer is checked against ``graph_latency``, which sums the
cost model node by node in ``Fraction``s; the fixed-point kernels, and
softmax through the public function on both its exp paths, against the
plain-Python, Python-int restatement in ``fixmath_golden``.
"""

import dataclasses
import json
from fractions import Fraction
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixmath_golden as golden
from conftest import small_models_and_boards, toy_hw
from vitmap import _latency
from vitmap.approx import ApproxConfig, _fixmath, pade_exp, softmax_approx
from vitmap.dse import SpaceCaps, enumerate_space
from vitmap.errors import EmptySearchSpaceError
from vitmap.hw import TileParams, graph_latency, parse_hardware
from vitmap.model_ir import Dag, OpKind, OpNode, batch_expand, build_dag, fuse_qkv, parse_model

CFG = ApproxConfig()


def _preset(name):
    return json.loads(resources.files("vitmap.presets").joinpath(name).read_text())


def _graph_latencies(dag, hw, pn, tn, tm):
    return [graph_latency(dag, TileParams(p, hw.pack_factor, n, m), hw).total_latency_s
            for p, n, m in zip(pn.tolist(), tn.tolist(), tm.tolist())]


@pytest.fixture(scope="module", params=[1, 64], ids=["batch1", "batch64"])
def deit_base_reference(request):
    """deit-base cost arrays, 3001 sampled feasible points and graph_latency at each."""
    hw = parse_hardware(_preset("vu9p.json"))
    spec = parse_model(_preset("deit_base.json"))
    dag = batch_expand(fuse_qkv(build_dag(spec), hw), request.param)
    arrays = _latency.extract_cost_arrays(dag, hw)
    pn, tn, tm = enumerate_space(dag, hw).point_arrays()
    idx = np.random.default_rng(0).integers(0, pn.shape[0], 3001)
    tn, tm, pn = tn[idx], tm[idx], pn[idx]
    return arrays, tn, tm, pn, _graph_latencies(dag, hw, pn, tn, tm)


@pytest.mark.parametrize("block", [None, 256])
def test_latency_batch_equals_graph_latency_on_deit_base(deit_base_reference, block,
                                                         monkeypatch):
    # 3001 points: a partial tail block at both the default block size and 256.
    arrays, tn, tm, pn, ref = deit_base_reference
    assert arrays.cls_n.shape[0] == 6
    if block is not None:
        monkeypatch.setattr(_latency, "_BLOCK", block)
    assert tn.shape[0] % _latency._BLOCK != 0
    assert _latency.latency_batch(arrays, tn, tm, pn).tolist() == ref


@settings(max_examples=120)
@given(small_models_and_boards(), st.sampled_from(["integer", "fractional"]),
       st.booleans(), st.data())
def test_latency_batch_equals_graph_latency(model_and_board, clock, object_path, data):
    dag, hw = model_and_board
    if clock == "fractional":
        # An odd 53-bit numerator over 2^25: the clock lies in [2^27, 2^28) Hz
        # and D·p exceeds 2^53 for every D >= 2, so the division runs in
        # Python ints.
        mantissa = data.draw(st.integers(2 ** 52, 2 ** 53 - 1), label="clock mantissa") | 1
        hw = dataclasses.replace(hw, frequency_hz=float(Fraction(mantissa, 2 ** 25)))
    try:
        space = enumerate_space(dag, hw, SpaceCaps(tn_max=24, tm_max=96))
    except EmptySearchSpaceError:
        return
    pn, tn, tm = space.point_arrays()
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="sample seed")
    count = data.draw(st.integers(1, 300), label="points")
    idx = np.random.default_rng(seed).integers(0, pn.shape[0], count)
    pn, tn, tm = pn[idx], tn[idx], tm[idx]
    arrays = _latency.extract_cost_arrays(dag, hw)
    if clock == "fractional":
        assert arrays.frequency.numerator * arrays.pm >= _latency._FLOAT_EXACT
    # Every numerator exceeds a bound of 1, so the object path scores in Python ints.
    with mock.patch.object(_latency, "_INT64_MAX", 1 if object_path else _latency._INT64_MAX):
        got = _latency.latency_batch(arrays, tn, tm, pn)
    assert got.dtype == np.float64
    assert got.tolist() == _graph_latencies(dag, hw, pn, tn, tm)


def test_cost_classes_keep_matmul_order():
    dag = Dag((
        OpNode("a", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8)),
        OpNode("b", OpKind.MATMUL, (), (8, 8), dims=(8, 8, 8)),
        OpNode("c", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8)),
        OpNode("d", OpKind.MATMUL, (), (8, 8), dims=(8, 4, 8), head_scoped=True, heads=5),
    ))
    arrays = _latency.extract_cost_arrays(dag, toy_hw(num_kernels=4))
    # Classes in first-occurrence order; weight count·k·kernel_factor·kernels
    # is count·k for row-split matmuls and count·k·ceil(heads/4)·4 = k·8 here.
    assert arrays.cls_n.tolist() == [8, 8, 8]
    assert arrays.cls_weight == (2 * 4, 8, 4 * 8)
    assert all(type(w) is int for w in arrays.cls_weight)


def test_cost_arrays_compare_by_value():
    hw = parse_hardware(_preset("vu9p.json"))
    dag = batch_expand(fuse_qkv(build_dag(parse_model(_preset("deit_tiny.json"))), hw), 1)
    arrays = _latency.extract_cost_arrays(dag, hw)
    assert arrays == _latency.extract_cost_arrays(dag, hw)
    assert not arrays != _latency.extract_cost_arrays(dag, hw)
    assert arrays != _latency.extract_cost_arrays(dag, dataclasses.replace(hw, num_kernels=4))
    bumped_m = arrays.cls_m.copy()
    bumped_m[-1] += 1
    changes = {"cls_n": arrays.cls_n[:-1], "cls_m": bumped_m,
               "cls_weight": arrays.cls_weight[:-1] + (arrays.cls_weight[-1] + 1,),
               "nl_cycles": arrays.nl_cycles + 1, "pm": arrays.pm * 2,
               "kernels": arrays.kernels + 1, "frequency": arrays.frequency * 2}
    for name, value in changes.items():
        assert arrays != dataclasses.replace(arrays, **{name: value}), name
    with pytest.raises(TypeError):
        hash(arrays)


# ---------------------------------------------------------------------------
# fixed-point kernels against the Python-int golden model
# ---------------------------------------------------------------------------

def test_isqrt_matches_golden():
    x = np.random.default_rng(1).integers(1, CFG.fmt.max_int + 1, 3000)
    args = (CFG.isqrt_table.tolist(), CFG.table_bits, CFG.inv_sqrt2_q15,
            CFG.fmt.frac_bits, CFG.fmt.max_int)
    got = _fixmath.isqrt_fixed(x, CFG.isqrt_table, *args[1:])
    assert got.tolist() == [golden.isqrt(v, *args) for v in x.tolist()]


def test_exp_matches_golden_over_its_domain():
    z = np.arange(CFG.exp_lo_fixed, 1, dtype=np.int64)
    args = (CFG.log2e_q15, CFG.ln2_qf, CFG.fmt.frac_bits)
    assert _fixmath.exp_fixed(z, *args).tolist() == [golden.exp(v, *args) for v in z.tolist()]


@pytest.mark.parametrize("refine,renorm", [(0, False), (1, False), (0, True)])
def test_softmax_matches_golden(refine, renorm):
    rows = CFG.fmt.quantize(np.random.default_rng(2).normal(0, 1.2, (16, 197)))
    cfg = ApproxConfig(recip_refine=refine, renormalize=renorm)
    want = [golden.softmax(row, cfg.exp_lo_fixed, cfg.log2e_q15, cfg.ln2_qf,
                           cfg.fmt.frac_bits, cfg.recip_table.tolist(), cfg.recip_bits,
                           refine, renorm)
            for row in rows.tolist()]
    # Kernel path: a row is shorter than the exp domain, so no table is built.
    assert [softmax_approx(row, cfg).tolist() for row in rows] == want
    assert "exp" not in cfg._tables
    # Table path: a domain-sized call builds the exp table, then every row gathers.
    pade_exp(np.arange(cfg.exp_lo_fixed, 1), cfg)
    assert "exp" in cfg._tables
    assert softmax_approx(rows, cfg).tolist() == want


def test_gelu_matches_golden_over_the_format():
    x = np.arange(CFG.fmt.min_int, CFG.fmt.max_int + 1, dtype=np.int64)
    px, ps, pb = CFG.gelu_pieces
    args = (CFG.fmt.frac_bits, CFG.fmt.min_int, CFG.fmt.max_int)
    got = _fixmath.gelu_fixed(x, px, ps, pb, *args)
    pieces = (px.tolist(), ps.tolist(), pb.tolist())
    assert got.tolist() == [golden.gelu(v, *pieces, *args) for v in x.tolist()]


def test_layernorm_matches_golden():
    rng = np.random.default_rng(3)
    rows = CFG.fmt.quantize(rng.normal(0, 1, (12, 192)))
    gamma = CFG.fmt.quantize(rng.uniform(0.5, 1.5, 192))
    beta = CFG.fmt.quantize(rng.normal(0, 0.2, 192))
    args = (CFG.ln_eps, CFG.fmt.frac_bits, CFG.isqrt_table, CFG.table_bits,
            CFG.inv_sqrt2_q15, CFG.fmt.min_int, CFG.fmt.max_int)
    got = _fixmath.layernorm_fixed(rows, gamma, beta, *args)
    py_args = (*args[:2], CFG.isqrt_table.tolist(), *args[3:])
    want = [golden.layernorm(row, gamma.tolist(), beta.tolist(), *py_args)
            for row in rows.tolist()]
    assert got.tolist() == want
