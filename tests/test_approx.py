import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fixmath_golden as golden
from vitmap.approx import _fixmath
from vitmap.approx import config as approx_config
from vitmap.approx import (
    ApproxConfig,
    FixedFormat,
    build_gelu_pieces,
    build_isqrt_table,
    error_report,
    exact_gelu,
    exact_isqrt,
    exact_layernorm,
    exact_softmax,
    gelu_pwl,
    isqrt_approx,
    layernorm_approx,
    pade_exp,
    softmax_approx,
    softmax_out_to_float,
)
from vitmap.approx.config import DEFAULT_GELU_KNOTS
from vitmap.errors import SchemaError

CFG = ApproxConfig()
FMT = CFG.fmt

# Error ceilings recorded from the oracle harness on first run (Q8.8,
# 64-entry tables, 8-piece GELU); regressions must not exceed them.
PINNED_ISQRT_MAX_REL = 0.039189540918059124
PINNED_GELU_MAX_ABS = 0.07444504476788466
PINNED_SOFTMAX_MAX_ABS = 0.001833946956350807
PINNED_EXP_MAX_ABS = 0.0008796626452773348


def q(x):
    return FMT.quantize(x)


# The _fixmath kernels behind the public functions, called directly (no table).

def exp_kernel(x, cfg):
    """``exp_fixed`` on x clamped to the exp domain, as ``pade_exp`` feeds it."""
    z = np.clip(np.asarray(x, dtype=np.int64), cfg.exp_lo_fixed, 0)
    return _fixmath.exp_fixed(z, cfg.log2e_q15, cfg.ln2_qf, cfg.fmt.frac_bits)


def softmax_kernel(rows, cfg):
    """``softmax_shift``, ``exp_fixed`` and ``softmax_normalize`` on 2-D rows."""
    z = _fixmath.softmax_shift(np.asarray(rows, dtype=np.int64), cfg.exp_lo_fixed)
    exps = _fixmath.exp_fixed(z, cfg.log2e_q15, cfg.ln2_qf, cfg.fmt.frac_bits)
    return _fixmath.softmax_normalize(exps, cfg.recip_table, cfg.recip_bits,
                                      cfg.recip_refine, cfg.renormalize)


def gelu_kernel(x, cfg):
    """``gelu_fixed`` on x of any shape."""
    x = np.asarray(x, dtype=np.int64)
    px, ps, pb = cfg.gelu_pieces
    out = _fixmath.gelu_fixed(x.reshape(-1), px, ps, pb, cfg.fmt.frac_bits,
                              cfg.fmt.min_int, cfg.fmt.max_int)
    return out.reshape(x.shape)


def isqrt_kernel(x, cfg):
    """``isqrt_fixed`` on x >= 1."""
    return _fixmath.isqrt_fixed(np.asarray(x, dtype=np.int64), cfg.isqrt_table,
                                cfg.table_bits, cfg.inv_sqrt2_q15, cfg.fmt.frac_bits,
                                cfg.fmt.max_int)


def layernorm_kernel(rows, cfg):
    """``layernorm_fixed`` on 2-D rows, gamma one and beta zero."""
    fmt, n = cfg.fmt, rows.shape[1]
    return _fixmath.layernorm_fixed(np.asarray(rows, dtype=np.int64),
                                    np.full(n, fmt.one, dtype=np.int64),
                                    np.zeros(n, dtype=np.int64), cfg.ln_eps, fmt.frac_bits,
                                    cfg.isqrt_table, cfg.table_bits, cfg.inv_sqrt2_q15,
                                    fmt.min_int, fmt.max_int)


def gelu_via(x, cfg, kernel):
    """``gelu_pwl``, or with ``kernel="numpy"`` its numpy kernel called directly."""
    return gelu_pwl(x, cfg) if kernel is None else gelu_kernel(x, cfg)


class TestIsqrt:
    def test_exact_at_one(self):
        assert FMT.dequantize(isqrt_approx(int(q(1.0)), CFG)) == 1.0

    def test_power_of_four(self):
        assert FMT.dequantize(isqrt_approx(int(q(4.0)), CFG)) == 0.5

    def test_dense_sweep_pinned(self):
        xs = np.arange(q(2.0 ** -4), q(2.0 ** 8) + 1, dtype=np.int64)
        got = FMT.dequantize(isqrt_approx(xs, CFG))
        ref = exact_isqrt(FMT.dequantize(xs))
        max_rel = float((np.abs(got - ref) / ref).max())
        assert max_rel <= PINNED_ISQRT_MAX_REL + 1e-12

    def test_monotone_within_binades(self):
        xs = np.arange(q(0.25), q(64.0) + 1, dtype=np.int64)
        out = isqrt_approx(xs, CFG)
        # Globally non-increasing within the table tolerance; strictly
        # non-increasing inside each binade.
        msb = np.frexp(xs.astype(np.float64))[1] - 1
        same_binade = msb[1:] == msb[:-1]
        assert np.all(np.diff(out)[same_binade] <= 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(SchemaError):
            isqrt_approx(0, CFG)

    @pytest.mark.parametrize("k", range(53, 63))
    def test_leading_one_exact_beyond_float64_precision(self, k):
        # float64 rounds 2^k - 1 up to 2^k from k = 54 on.
        xs = [2 ** k - 1, 2 ** k, 2 ** k + 1]
        got = _fixmath.leading_one(np.array(xs, dtype=np.int64)).tolist()
        assert got == [x.bit_length() - 1 for x in xs]

    def test_kernel_equals_golden_beyond_float64_precision(self):
        # With 56 fractional bits these inputs are about 1/4 to 64 and their
        # results fit int64, so a leading one placed one too high shows.
        xs = [2 ** k + d for k in range(53, 63) for d in (-1, 0, 1)] + [2 ** 63 - 1]
        args = (CFG.table_bits, CFG.inv_sqrt2_q15, 56, 2 ** 63 - 1)
        got = _fixmath.isqrt_fixed(np.array(xs, dtype=np.int64), CFG.isqrt_table, *args)
        assert got.tolist() == [golden.isqrt(x, CFG.isqrt_table.tolist(), *args) for x in xs]

    def test_table_strictly_decreasing(self):
        table = build_isqrt_table(64)
        assert np.all(np.diff(table) < 0)


class TestPadeExp:
    def test_exact_at_zero(self):
        assert softmax_out_to_float(pade_exp(0, CFG)) == 1.0

    def test_minus_one(self):
        got = softmax_out_to_float(pade_exp(int(q(-1.0)), CFG))
        assert got == pytest.approx(np.exp(-1.0), abs=2e-3)

    def test_minus_eight_small_positive(self):
        got = pade_exp(int(q(-8.0)), CFG)
        assert 0 < got < 32
        rel = abs(got / 32768 - np.exp(-8.0)) / np.exp(-8.0)
        assert rel < 0.15  # quantized tail; recorded by the sweep below

    def test_sweep_pinned(self):
        rep = error_report("exp", CFG, samples=1024, seed=0)
        assert rep.max_abs <= PINNED_EXP_MAX_ABS + 1e-12

    def test_monotone_over_entire_domain(self):
        # Exhaustive: every representable input in [-8, 0].
        z = np.arange(q(-8.0), 1, dtype=np.int64)
        out = pade_exp(z, CFG)
        assert np.all(np.diff(out) >= 0)

    def test_positive_everywhere(self):
        z = np.arange(q(-8.0), 1, dtype=np.int64)
        assert np.all(pade_exp(z, CFG) > 0)

    def test_saturates_outside_domain(self):
        assert CFG.exp_lo_fixed == q(-8.0)
        assert pade_exp(int(q(-12.0)), CFG) == pade_exp(int(q(-8.0)), CFG)
        assert pade_exp(int(q(3.0)), CFG) == pade_exp(0, CFG)
        assert pade_exp(int(q(-3.0)), CFG) != pade_exp(int(q(-8.0)), CFG)


class TestSoftmax:
    def test_uniform_row_exactly_uniform(self):
        out = softmax_approx(np.full(7, 123, dtype=np.int64), CFG)
        assert len(np.unique(out)) == 1

    def test_dominance_limit(self):
        row = np.array([0, FMT.min_int], dtype=np.int64)
        out = softmax_out_to_float(softmax_approx(row, CFG))
        assert out[0] == pytest.approx(1.0, abs=0.02)
        assert out[1] == pytest.approx(0.0, abs=1e-3)

    def test_random_rows_pinned_against_oracle(self):
        rng = np.random.default_rng(0)
        rows = q(rng.normal(0, 1, (256, 197)))
        got = softmax_out_to_float(softmax_approx(rows, CFG))
        ref = exact_softmax(FMT.dequantize(rows))
        assert float(np.abs(got - ref).max()) <= PINNED_SOFTMAX_MAX_ABS + 1e-12

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(4)
        row = q(rng.normal(0, 1, 64))
        shifted = row + int(q(3.0))
        assert np.array_equal(softmax_approx(row, CFG), softmax_approx(shifted, CFG))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        row = q(rng.normal(0, 1, 64))
        perm = rng.permutation(64)
        out = softmax_approx(row, CFG)
        assert np.array_equal(softmax_approx(row[perm], CFG), out[perm])

    def test_order_preservation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            row = q(rng.normal(0, 1.5, 197))
            out = softmax_approx(row, CFG)
            order = np.argsort(row, kind="stable")
            assert np.all(np.diff(out[order]) >= 0)

    def test_renormalize_flag_tightens_sums(self):
        cfg = ApproxConfig(renormalize=True)
        rng = np.random.default_rng(7)
        rows = q(rng.normal(0, 1, (32, 197)))
        sums = softmax_out_to_float(softmax_approx(rows, cfg)).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 0.007

    def test_empty_row_rejected(self):
        with pytest.raises(SchemaError):
            softmax_approx(np.array([], dtype=np.int64), CFG)

    def test_leading_axes_are_rows(self):
        # Every leading axis indexes rows: the last axis is the one normalized.
        rng = np.random.default_rng(8)
        x = q(rng.normal(0, 1, (2, 3, 4)))
        out = softmax_approx(x, CFG)
        assert out.shape == x.shape
        assert np.array_equal(out, softmax_approx(x.reshape(-1, 4), CFG).reshape(x.shape))
        assert np.array_equal(out[1, 2], softmax_approx(x[1, 2], CFG))


class TestGelu:
    def test_zero(self):
        assert gelu_pwl(0, CFG) == 0

    def test_identity_above_pieces(self):
        assert FMT.dequantize(gelu_pwl(int(q(10.0)), CFG)) == 10.0

    def test_zero_below_pieces(self):
        assert gelu_pwl(int(q(-10.0)), CFG) == 0

    @pytest.mark.parametrize("kernel", [None, "numpy"])
    def test_zero_below_first_piece_outside_format(self, kernel):
        x = np.array([FMT.min_int - 7232, FMT.min_int - 2, FMT.min_int], dtype=np.int64)
        assert gelu_via(x, CFG, kernel).tolist() == [0, 0, 0]
        assert gelu_via(-40000, CFG, kernel) == 0

    @pytest.mark.parametrize("kernel", [None, "numpy"])
    def test_zero_below_first_custom_piece(self, kernel):
        # Knots -4, 0, 4: zero up to 0, identity above.
        cfg = ApproxConfig(gelu_knots=(-4, 0, 4))
        x = np.array([-2000, -1025, -1024, -1, 0, 300], dtype=np.int64)
        assert gelu_via(x, cfg, kernel).tolist() == [0, 0, 0, 0, 0, 300]
        # Arbitrary pieces starting at -4: below -4 is below every piece.
        pieces = (np.array([-1024, 0]), np.array([0, 256]), np.array([0, 0]))
        x = np.array([-2000, -1025, -1024, 300, -40000], dtype=np.int64)
        got = _fixmath.gelu_fixed(x, *pieces, FMT.frac_bits, FMT.min_int, FMT.max_int)
        assert got.tolist() == [0, 0, 0, 300, 0]

    @pytest.mark.parametrize("kernel", [None, "numpy"])
    def test_int64_extremes_saturate(self, kernel):
        # slope * x would wrap int64 here; the Python-int golden model cannot.
        x = [2 ** 56, -2 ** 56, 2 ** 63 - 1, -2 ** 63]
        px, ps, pb = (a.tolist() for a in CFG.gelu_pieces)
        want = [golden.gelu(v, px, ps, pb, FMT.frac_bits, FMT.min_int, FMT.max_int)
                for v in x]
        assert want == [FMT.max_int, 0, FMT.max_int, 0]
        assert gelu_via(np.array(x, dtype=np.int64), CFG, kernel).tolist() == want
        assert [gelu_via(v, CFG, kernel) for v in x] == want

    def test_dense_sweep_pinned(self):
        xs = np.arange(q(-4.0), q(4.0) + 1, dtype=np.int64)
        err = np.abs(FMT.dequantize(gelu_pwl(xs, CFG)) - exact_gelu(FMT.dequantize(xs)))
        assert float(err.max()) <= PINNED_GELU_MAX_ABS + 1e-12

    def test_continuity_exact_at_breakpoints(self):
        px, ps, pb = CFG.gelu_pieces
        f = FMT.frac_bits
        for i in range(1, len(px)):
            x = int(px[i])
            left = ((int(ps[i - 1]) * x) >> f) + int(pb[i - 1])
            right = ((int(ps[i]) * x) >> f) + int(pb[i])
            assert left == right

    def test_monotone_on_increasing_domain(self):
        # GELU itself dips below zero left of ~-0.75, so monotonicity is a
        # property of the non-negative side only.
        xs = np.arange(0, q(6.0) + 1, dtype=np.int64)
        assert np.all(np.diff(gelu_pwl(xs, CFG)) >= 0)

    def test_refinement_reduces_error(self):
        coarse = ApproxConfig(gelu_knots=(-4, 0, 4))
        xs = np.arange(q(-4.0), q(4.0) + 1, dtype=np.int64)
        ref = exact_gelu(FMT.dequantize(xs))
        err8 = np.abs(FMT.dequantize(gelu_pwl(xs, CFG)) - ref).max()
        err2 = np.abs(FMT.dequantize(gelu_pwl(xs, coarse)) - ref).max()
        assert err8 <= err2


def gelu_searchsorted(x, px, pslope, pintercept, frac_bits, min_int, max_int):
    """``gelu_fixed`` with the piece index taken by ``np.searchsorted``, in Python ints."""
    idx = np.searchsorted(px, x, side="right") - 1
    below = idx < 0
    idx = np.maximum(idx, 0)
    out = (x.astype(object) * pslope[idx].astype(object)) >> frac_bits
    out += pintercept[idx].astype(object)
    out[below] = 0
    return np.clip(out, min_int, max_int).astype(np.int64)


@st.composite
def gelu_cases(draw):
    """A format, its pieces and int64 inputs reaching both int64 edges.

    The pieces are fitted at random knots, or, to pass 255 pieces, drawn as
    raw ascending starts with random slopes and intercepts.
    """
    total = draw(st.integers(4, 32), label="total_bits")
    fmt = FixedFormat(total, draw(st.integers(0, min(20, total - 3)), label="frac_bits"))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if draw(st.booleans(), label="fitted"):
        klo, khi = -(-fmt.min_int // fmt.one), fmt.max_int // fmt.one
        knots = sorted(draw(st.sets(st.integers(klo, khi), min_size=2, max_size=12),
                            label="knots"))
        try:
            px, ps, pb = build_gelu_pieces(fmt, knots)
        except SchemaError:  # knots whose pieces cannot meet the identity exactly
            assume(False)
    else:
        count = draw(st.integers(1, 300), label="pieces")
        px = np.unique(rng.integers(fmt.min_int - 2, fmt.max_int + 2, count))
        ps = rng.integers(-2 * fmt.one, 2 * fmt.one + 1, px.size)
        pb = rng.integers(fmt.min_int, fmt.max_int + 1, px.size)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    edges = np.concatenate([[lo, lo + 1, -2 ** 62, fmt.min_int - 1, -1, 0, 1,
                             fmt.max_int + 1, 2 ** 62, hi - 1, hi],
                            np.clip(px - 1, lo, None), px, np.clip(px + 1, None, hi)])
    span = 2 * (fmt.max_int + 1)
    x = np.concatenate([rng.integers(fmt.min_int - span, fmt.max_int + span, 4000), edges])
    return fmt, (px, ps, pb), x.astype(np.int64)


@settings(max_examples=60)
@given(gelu_cases())
def test_gelu_piece_comparisons_equal_searchsorted(case):
    fmt, (px, ps, pb), x = case
    args = (px, ps, pb, fmt.frac_bits, fmt.min_int, fmt.max_int)
    got = _fixmath.gelu_fixed(x, *args)
    assert got.dtype == np.int64
    assert np.array_equal(got, gelu_searchsorted(x, *args))


# The narrowest formats in which the identity piece's slope·x left int64 at
# ±max, and two in which it wrapped on wider inputs only.
@example(35, 15).via("wrapped at max")
@example(41, 12).via("wrapped at max")
@example(49, 8).via("wrapped at max")
@example(57, 4).via("wrapped at max")
@example(20, 15).via("wrapped at 2^50")
@example(34, 15).via("wrapped at max + 1")
@settings(max_examples=80)
@given(st.integers(4, 64), st.integers(0, 15))
def test_gelu_equals_golden_at_the_int64_edges(int_bits, frac_bits):
    # Accepted formats compute GELU exactly on any int64 input; a format wider
    # than 63 bits cannot hold the first piece's start and is rejected by name.
    fmt = FixedFormat(int_bits + frac_bits, frac_bits)
    if fmt.total_bits > 63:
        with pytest.raises(SchemaError, match=rf"^{fmt.name} is wider than 63 bits"):
            ApproxConfig(fmt=fmt)
        return
    cfg = ApproxConfig(fmt=fmt)
    top = fmt.max_int
    x = [top, -top, top + 1, -top - 1, 2 ** 62, -2 ** 62]
    px, ps, pb = (a.tolist() for a in cfg.gelu_pieces)
    want = [golden.gelu(v, px, ps, pb, frac_bits, fmt.min_int, top) for v in x]
    assert want[0] == want[2] == top and want[1] == want[3] == want[5] == 0
    assert gelu_pwl(np.array(x, dtype=np.int64), cfg).tolist() == want
    assert gelu_kernel(np.array(x, dtype=np.int64), cfg).tolist() == want


def scalar_gelu_pieces(fmt, knots):
    """``build_gelu_pieces`` with each knot's GELU quantised on its own, as a
    numpy scalar, the way it was before one vectorised call replaced it."""
    knots = tuple(int(k) for k in knots)
    if len(knots) < 2 or any(b - a < 1 for a, b in zip(knots, knots[1:])):
        raise SchemaError("gelu knots must be at least two strictly increasing integers")
    one = fmt.one
    if fmt.total_bits > 63:
        raise SchemaError(f"{fmt.name} is wider than 63 bits")
    if knots[0] * one < fmt.min_int:
        raise SchemaError(f"{fmt.name}: the first knot is outside the format")
    ys = [int(fmt.quantize(float(exact_gelu(k)))) for k in knots]
    px, pslope, pintercept = [fmt.min_int - 1, knots[0] * one], [0, 0], [0, 0]
    y = 0
    for i in range(len(knots) - 1):
        dc = knots[i + 1] - knots[i]
        target = ys[i + 1] if i + 1 < len(knots) - 1 else knots[-1] * one
        slope = round((target - y) / dc)
        px.append(knots[i] * one)
        pslope.append(slope)
        pintercept.append(y - slope * knots[i])
        y = y + slope * dc
    if y != knots[-1] * one:
        raise SchemaError(f"gelu knots {knots} cannot meet the identity piece exactly")
    del px[1], pslope[1], pintercept[1]
    return px + [knots[-1] * one], pslope + [one], pintercept + [0]


def _pieces_or_error(build, fmt, knots):
    """The pieces as lists, or None where ``build`` rejects the knots."""
    try:
        return [np.asarray(a).tolist() for a in build(fmt, knots)]
    except SchemaError:
        return None


def test_gelu_pieces_equal_scalar_quantisation_in_every_format():
    """The default knots in every format of 2 to 63 bits (and a 64-bit one)."""
    for total in range(2, 65):
        for frac in range(total):
            fmt = FixedFormat(total, frac)
            assert (_pieces_or_error(build_gelu_pieces, fmt, DEFAULT_GELU_KNOTS)
                    == _pieces_or_error(scalar_gelu_pieces, fmt, DEFAULT_GELU_KNOTS)), fmt


@settings(max_examples=300)
@given(st.integers(2, 63).flatmap(lambda total: st.tuples(st.just(total),
                                                          st.integers(0, total - 1))),
       st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=2, max_size=12, unique=True))
def test_gelu_pieces_equal_scalar_quantisation_at_random_knots(bits, knots):
    fmt = FixedFormat(*bits)
    knots = sorted(knots)
    assert (_pieces_or_error(build_gelu_pieces, fmt, knots)
            == _pieces_or_error(scalar_gelu_pieces, fmt, knots))


def test_gelu_pieces_without_an_int64_bound_rejected(monkeypatch):
    # Past x = 1 the last piece saturates, but its slope times a fractional
    # part of x leaves int64.
    pieces = (np.array([-1024, 0]), np.array([0, 2 ** 62]), np.array([0, 0]))
    assert _fixmath.gelu_clip(*(a.tolist() for a in pieces), 8, FMT.min_int, FMT.max_int) is None
    with pytest.raises(OverflowError):
        _fixmath.gelu_fixed(np.zeros(3, dtype=np.int64), *pieces, 8, FMT.min_int, FMT.max_int)
    # A config whose fitted pieces had no bound is rejected when it is built.
    monkeypatch.setattr(approx_config, "gelu_clip", lambda *args: None)
    with pytest.raises(SchemaError, match=r"^Q8\.8: slope·x of the gelu pieces leaves int64"):
        ApproxConfig()


def test_format_wider_than_63_bits_rejected_with_given_knots():
    # The format check does not depend on building the default pieces.
    with pytest.raises(SchemaError, match=r"^Q60\.8 is wider than 63 bits"):
        ApproxConfig.from_doc({"schema_version": 1, "format": "Q60.8", "gelu_knots": [0, 1]})


# The formats an approximation config accepts: at most 63 bits and 15 fraction bits.
ACCEPTED_FORMATS = st.integers(2, 63).flatmap(
    lambda total: st.builds(FixedFormat, st.just(total), st.integers(0, min(15, total - 1))))


@settings(max_examples=300)
@given(ACCEPTED_FORMATS, st.data())
def test_pieces_built_from_accepted_knots_are_continuous(fmt, data):
    # What the config no longer checks at run time: pieces built from knots
    # share their length, start at increasing points and meet at every start.
    # A last gap of one always meets the identity piece; most wider ones do not.
    klo = -min(-fmt.min_int // fmt.one, 2 ** 31 - 1)
    knots = sorted(data.draw(st.sets(st.integers(klo, -klo), min_size=2, max_size=12)))
    if data.draw(st.booleans()):
        knots.append(knots[-1] + 1)
    try:
        px, ps, pb = (a.tolist() for a in ApproxConfig(fmt, gelu_knots=knots).gelu_pieces)
    except SchemaError:  # knots whose pieces cannot meet the identity or leave int64
        assume(False)
    assert len(px) == len(ps) == len(pb) == len(knots) + 1
    assert all(a < b for a, b in zip(px, px[1:]))
    f = fmt.frac_bits
    for i in range(1, len(px)):
        assert ((ps[i - 1] * px[i]) >> f) + pb[i - 1] == ((ps[i] * px[i]) >> f) + pb[i]


@pytest.mark.parametrize("bits", range(1, 13))
def test_isqrt_table_of_each_accepted_size_decreases(bits):
    table = ApproxConfig(isqrt_table_size=2 ** bits).isqrt_table
    assert len(table) == 2 ** bits and np.all(np.diff(table) < 0)


class TestLayernorm:
    def test_constant_row_yields_beta(self):
        row = np.full(16, 37, dtype=np.int64)
        beta = int(q(0.5))
        out = layernorm_approx(row, FMT.one, beta, CFG)
        assert np.all(out == beta)

    def test_plus_minus_one(self):
        row = np.array([int(q(-1.0)), int(q(1.0))], dtype=np.int64)
        out = FMT.dequantize(layernorm_approx(row, FMT.one, 0, CFG))
        ref = exact_layernorm([-1.0, 1.0], eps=CFG.ln_eps / FMT.one)
        assert np.abs(out - ref).max() < 0.05

    def test_random_rows_cosine(self):
        rng = np.random.default_rng(8)
        rows = q(rng.normal(0, 1, (64, 192)))
        got = FMT.dequantize(layernorm_approx(rows, FMT.one, 0, CFG))
        ref = exact_layernorm(FMT.dequantize(rows), eps=CFG.ln_eps / FMT.one)
        cos = (got * ref).sum(axis=1) / np.sqrt(
            (got * got).sum(axis=1) * (ref * ref).sum(axis=1))
        assert cos.min() >= 0.999

    def test_short_row_rejected(self):
        with pytest.raises(SchemaError):
            layernorm_approx(np.array([1], dtype=np.int64), FMT.one, 0, CFG)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (2, 3, 4)])
    def test_leading_axes_are_rows(self, shape):
        # Every leading axis indexes rows: the last axis is the one normalized.
        x = q(np.random.default_rng(8).normal(0, 1, shape))
        out = layernorm_approx(x, FMT.one, 0, CFG)
        assert out.shape == x.shape
        rows = layernorm_approx(x.reshape(-1, shape[-1]), FMT.one, 0, CFG)
        assert np.array_equal(out, rows.reshape(shape))
        assert np.array_equal(out[1, 2], layernorm_approx(x[1, 2], FMT.one, 0, CFG))

    @pytest.mark.parametrize("name,sigma", [("Q48.15", 1e6), ("Q24.8", 3e6)])
    def test_rows_overflowing_int64_rejected(self, name, sigma):
        # Σd² of these rows leaves int64; wrapped, it gives a negative variance
        # (an IndexError in isqrt) or scales of zero.
        cfg = ApproxConfig(fmt=FixedFormat.parse(name))
        row = cfg.fmt.quantize(np.random.default_rng(0).normal(0, sigma, 192))
        with pytest.raises(SchemaError, match=rf"{name}: .* rows of length 192 leave int64"):
            layernorm_approx(row, cfg.fmt.one, 0, cfg)

    def test_wide_format_rows_that_fit_equal_golden(self):
        cfg = ApproxConfig(fmt=FixedFormat.parse("Q48.15"))
        fmt = cfg.fmt
        rows = fmt.quantize(np.random.default_rng(4).normal(0, 3.0, (6, 192)))
        args = (cfg.ln_eps, fmt.frac_bits, cfg.isqrt_table.tolist(), cfg.table_bits,
                cfg.inv_sqrt2_q15, fmt.min_int, fmt.max_int)
        want = [golden.layernorm(row, [fmt.one] * 192, [0] * 192, *args)
                for row in rows.tolist()]
        assert layernorm_approx(rows, fmt.one, 0, cfg).tolist() == want

    def test_affine_step_overflowing_int64_rejected(self):
        row = q(np.random.default_rng(5).normal(0, 1, 192))
        with pytest.raises(SchemaError, match=r"Q8\.8: d·scale·gamma \+ beta on rows of length 192"):
            layernorm_approx(row, 1 << 55, 0, CFG)
        # A constant row has d = 0, so the same gamma fits.
        assert np.all(layernorm_approx(np.full(192, 7), 1 << 55, 3, CFG) == 3)

    def test_narrow_formats_skip_the_row_pass(self, monkeypatch):
        # Q8.8 and Q4.4 fit int64 on a deit-base row whatever its values, so
        # only the format's worst case is bounded.
        calls = []
        fits = _fixmath._layernorm_fits
        monkeypatch.setattr(_fixmath, "_layernorm_fits", lambda *a: calls.append(a) or fits(*a))
        for name in ("Q8.8", "Q4.4"):
            cfg = ApproxConfig(fmt=FixedFormat.parse(name))
            rows = np.tile([cfg.fmt.min_int, cfg.fmt.max_int], (197, 384))
            layernorm_approx(rows, cfg.fmt.max_int, cfg.fmt.min_int, cfg)
        assert len(calls) == 2


class TestErrorReport:
    def test_exact_hook_zeroes_everything(self):
        for fn in ("isqrt", "exp", "softmax", "gelu", "layernorm"):
            rep = error_report(fn, CFG, samples=256, exact=True)
            assert rep.max_abs == rep.max_rel == rep.mean_abs == 0.0

    def test_coarser_format_larger_errors(self):
        fine = ApproxConfig(fmt=FixedFormat.parse("Q8.8"))
        coarse = ApproxConfig(fmt=FixedFormat.parse("Q4.4"))
        for fn in ("isqrt", "exp", "gelu"):
            rep_f = error_report(fn, fine, samples=512, seed=1)
            rep_c = error_report(fn, coarse, samples=512, seed=1)
            assert rep_c.max_abs >= rep_f.max_abs

    def test_deterministic(self):
        a = error_report("softmax", CFG, samples=394, seed=3)
        b = error_report("softmax", CFG, samples=394, seed=3)
        assert a == b

    def test_unknown_fn_rejected(self):
        with pytest.raises(SchemaError):
            error_report("tanh", CFG)


class TestConfig:
    def test_from_doc_round_trip(self):
        cfg = ApproxConfig.from_doc({
            "schema_version": 1, "format": "Q8.8", "isqrt_table_size": 128,
            "recip_table_size": 32, "gelu_knots": [-4, -2, 0, 2, 4],
        })
        assert len(cfg.isqrt_table) == 128
        assert len(cfg.recip_table) == 32

    def test_knots_and_pieces_together_rejected(self):
        # An approximation document gives knots only; pieces are an unknown field.
        with pytest.raises(SchemaError, match=r"unknown fields \['gelu_pieces'\]$"):
            ApproxConfig.from_doc({
                "schema_version": 1, "gelu_knots": [-2, 0, 2],
                "gelu_pieces": [[-32769, 0, 0], [0, 256, 0]],
            })

    @pytest.mark.parametrize("doc", [
        {},
        {"format": "Q4.12", "isqrt_table_size": 2, "recip_table_size": 2 ** 15,
         "exp_domain_lo": -3, "gelu_knots": [-2, 0, 1, 3], "recip_refine": 2,
         "renormalize": True, "ln_eps": 0},
    ], ids=["defaults", "every_field"])
    def test_constructor_equals_document(self, doc):
        fields = {k: v for k, v in doc.items() if k != "format"}
        built = ApproxConfig(FixedFormat.parse(doc.get("format", "Q8.8")), **fields)
        read = ApproxConfig.from_doc({"schema_version": 1, **doc})
        for f in dataclasses.fields(ApproxConfig):
            a, b = getattr(built, f.name), getattr(read, f.name)
            if f.name == "gelu_pieces":
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    @pytest.mark.parametrize("make", [
        ApproxConfig,
        lambda: ApproxConfig.from_doc({"schema_version": 1, "format": "Q8.8",
                                       "isqrt_table_size": 32, "gelu_knots": [-2, 0, 2]}),
        lambda: ApproxConfig(isqrt_table_size=32, gelu_knots=(-2, 0, 2)),
    ], ids=["default", "from_doc", "constructor"])
    def test_arrays_are_read_only(self, make):
        cfg = make()
        for arr in (cfg.isqrt_table, cfg.recip_table, *cfg.gelu_pieces):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_format_parse(self):
        fmt = FixedFormat.parse("Q4.4")
        assert fmt.total_bits == 8 and fmt.frac_bits == 4
        with pytest.raises(SchemaError):
            FixedFormat.parse("8.8Q")


class TestScalarContract:
    """Scalar inputs give scalar outputs; arrays keep their shape."""

    @pytest.mark.parametrize("x", [-256, np.int64(-256), np.array(-256)])
    def test_pade_exp(self, x):
        out = pade_exp(x, CFG)
        assert np.ndim(out) == 0
        assert out == pade_exp(np.array([x]), CFG)[0]

    @pytest.mark.parametrize("fn,x", [(gelu_pwl, -300), (isqrt_approx, 300)])
    def test_gelu_and_isqrt(self, fn, x):
        out = fn(x, CFG)
        assert np.ndim(out) == 0
        assert out == fn(np.array([x]), CFG)[0]

    @pytest.mark.parametrize("fn,sign", [(gelu_pwl, 1), (isqrt_approx, 1), (pade_exp, -1)])
    def test_arrays_keep_shape(self, fn, sign):
        x = sign * np.arange(1, 7, dtype=np.int64)
        assert fn(x.reshape(2, 3), CFG).shape == (2, 3)
        assert fn(x[:1], CFG).shape == (1,)


def _domain(cfg, kind):
    """Inclusive input range the ``kind`` table should cover."""
    return {"exp": (cfg.exp_lo_fixed, 0), "gelu": (cfg.fmt.min_int, cfg.fmt.max_int),
            "isqrt": (1, cfg.fmt.max_int)}[kind]


def _domain_size(cfg, kind):
    lo, hi = _domain(cfg, kind)
    return hi - lo + 1


class TestDomainTables:
    def test_from_doc_builds_none(self):
        cfg = ApproxConfig.from_doc({"schema_version": 1, "format": "Q8.8"})
        assert cfg._tables == {}

    @pytest.mark.parametrize("kind,call", [
        ("exp", lambda x, cfg: pade_exp(-x, cfg)),
        ("exp", lambda x, cfg: softmax_approx(-x[:, None], cfg)),
        ("gelu", gelu_pwl),
        ("isqrt", isqrt_approx),
    ])
    def test_built_exactly_from_domain_size(self, kind, call):
        cfg = ApproxConfig()
        size = _domain_size(cfg, kind)
        x = np.arange(1, size, dtype=np.int64)  # one element short
        call(x, cfg)
        assert kind not in cfg._tables
        call(np.arange(1, size + 1, dtype=np.int64), cfg)
        lo, table = cfg._tables[kind]
        assert (lo, table.shape[0]) == (_domain(cfg, kind)[0], size)

    def test_built_table_serves_small_calls(self, monkeypatch):
        cfg = ApproxConfig()
        big = np.arange(cfg.fmt.min_int, cfg.fmt.max_int + 1, dtype=np.int64)
        ref_gelu = gelu_kernel(big, cfg)
        ref_exp = exp_kernel(big, cfg)
        ref_isqrt = isqrt_kernel(big[big > 0], cfg)
        assert np.array_equal(gelu_pwl(big, cfg), ref_gelu)
        assert np.array_equal(pade_exp(big, cfg), ref_exp)
        assert np.array_equal(isqrt_approx(big[big > 0], cfg), ref_isqrt)
        assert set(cfg._tables) == {"exp", "gelu", "isqrt"}

        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel ran although its table exists")

        for name in ("exp_fixed", "gelu_fixed", "isqrt_fixed"):
            monkeypatch.setattr(_fixmath, name, no_kernel)
        assert gelu_pwl(-300, cfg) == ref_gelu[-300 - cfg.fmt.min_int]
        assert pade_exp(-300, cfg) == ref_exp[-300 - cfg.fmt.min_int]
        assert isqrt_approx(300, cfg) == ref_isqrt[299]
        softmax_approx(np.array([3, -4, 0]), cfg)

    def test_outside_inputs_run_the_kernel(self, monkeypatch):
        cfg = ApproxConfig()
        gelu_pwl(np.arange(cfg.fmt.min_int, cfg.fmt.max_int + 1), cfg)
        assert "gelu" in cfg._tables
        calls = []
        kernel = _fixmath.gelu_fixed

        def counted(x, *args, **kwargs):
            calls.append(x.size)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(_fixmath, "gelu_fixed", counted)
        gelu_pwl(np.arange(10), cfg)
        gelu_pwl(np.array([0, cfg.fmt.max_int + 1]), cfg)
        gelu_pwl(np.array([cfg.fmt.min_int - 1, 0]), cfg)
        gelu_pwl(np.array([-2 ** 62, 0]), cfg)
        assert calls == [2, 2, 2]

    def test_softmax_row_overflowing_int64_runs_the_kernel(self):
        # row - row.max wraps past int64 here, so the shifted input leaves the table.
        cfg = ApproxConfig()
        softmax_approx(-np.arange(_domain_size(cfg, "exp"))[:, None], cfg)
        assert "exp" in cfg._tables
        row = np.array([2 ** 62, -2 ** 62 - 1], dtype=np.int64)
        assert np.array_equal(softmax_approx(row, cfg), softmax_kernel(row[None, :], cfg)[0])

    @pytest.mark.parametrize("name,built", [("Q9.8", {"exp", "isqrt"}), ("Q17.15", set())])
    def test_wide_domains_build_none(self, name, built):
        # Q9.8's GELU domain has 2^17 inputs; every Q17.15 domain exceeds 2^16.
        cfg = ApproxConfig(fmt=FixedFormat.parse(name))
        x = np.arange(1, (1 << 17) + 1, dtype=np.int64)
        isqrt_approx(x, cfg)
        gelu_pwl(x - (1 << 16), cfg)
        pade_exp(-x, cfg)
        softmax_approx((-x).reshape(-1, 128), cfg)
        assert set(cfg._tables) == built
        assert all(_domain_size(cfg, kind) > 1 << 16 for kind in {"exp", "gelu", "isqrt"} - built)


@st.composite
def formats_and_inputs(draw):
    """A valid format, its config and ~domain-sized int64 inputs with edge values."""
    total = draw(st.integers(4, 20), label="total_bits")
    frac = draw(st.integers(0, min(15, total - 3)), label="frac_bits")
    cfg = ApproxConfig(fmt=FixedFormat(total, frac),
                       recip_refine=draw(st.integers(0, 2), label="recip_refine"),
                       renormalize=draw(st.booleans(), label="renormalize"))
    fmt = cfg.fmt
    outside = draw(st.booleans(), label="outside the format")
    span = fmt.max_int + 1 if outside else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    size = min(1 << 16, 1 << total) + draw(st.integers(0, 999), label="extra")
    lo = cfg.exp_lo_fixed
    edges = [fmt.min_int, fmt.min_int + 1, -1, 0, 1, fmt.max_int - 1, fmt.max_int,
             lo - 1, lo, lo + 1]
    if outside:
        edges += [fmt.min_int - 1, fmt.max_int + 1, fmt.min_int - span, fmt.max_int + span]
    x = np.concatenate([rng.integers(fmt.min_int - span, fmt.max_int + span + 1, size),
                        np.array(edges, dtype=np.int64)])
    pos = np.concatenate([rng.integers(1, fmt.max_int + span + 1, size),
                          np.array([1, 2, fmt.max_int - 1, fmt.max_int, fmt.max_int + span],
                                   dtype=np.int64)])
    row_len = draw(st.integers(1, min(200, x.size)), label="softmax row length")
    rows = x[:x.size - x.size % row_len].reshape(-1, row_len)
    return cfg, x, pos, rows


@settings(max_examples=30)
@given(formats_and_inputs())
def test_tables_equal_the_numpy_kernels(case):
    """Whatever the table path does, its outputs equal the numpy kernels' bit for bit."""
    cfg, x, pos, rows = case
    calls = [
        (pade_exp, exp_kernel, x),
        (softmax_approx, softmax_kernel, rows),
        (gelu_pwl, gelu_kernel, x),
        (isqrt_approx, isqrt_kernel, pos),
    ]
    for fn, kernel, v in calls:
        # Large call first (it may build the table), then a small one.
        for arg in (v, v[-9:]):
            got, ref = fn(arg, cfg), kernel(arg, cfg)
            assert got.dtype == ref.dtype == np.int64
            assert np.array_equal(got, ref)


def read_only(values):
    """An int64 copy of ``values`` that raises on any write."""
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@settings(max_examples=30)
@given(formats_and_inputs())
def test_inputs_are_never_written(case):
    """Read-only inputs, in a table, outside it (the kernel's path) and in a
    softmax row whose span wraps int64: each call equals its numpy kernel."""
    cfg, x, pos, rows = case
    x, pos, rows = map(read_only, (x, pos, rows))
    ln_rows = rows if rows.shape[1] >= 2 else x[:x.size // 2 * 2].reshape(-1, 2)
    calls = [
        (pade_exp, exp_kernel, x),
        (softmax_approx, softmax_kernel, rows),
        (gelu_pwl, gelu_kernel, x),
        (isqrt_approx, isqrt_kernel, pos),
        (lambda v, c: layernorm_approx(v, c.fmt.one, 0, c), layernorm_kernel, ln_rows),
        (softmax_approx, softmax_kernel, read_only([[2 ** 62, -2 ** 62 - 1]])),
    ]
    for fn, kernel, v in calls:
        for arg in (v, v[-9:]):
            got = fn(arg, cfg)
            assert got.dtype == np.int64
            assert np.array_equal(got, kernel(arg, cfg))


def test_one_buffer_per_call():
    """On a deit-base layer's shapes (Q8.8, tables built) a call's traced peak
    is at most 1.1x the bytes it returns: its output is its only full-size array."""
    cfg = ApproxConfig()
    rng = np.random.default_rng(0)
    scores = q(rng.normal(0.0, 2.0, (12 * 197, 197)))
    ln_in = q(rng.normal(0.0, 1.0, (197, 768)))
    calls = {
        "softmax": (softmax_approx, scores),
        "exp": (pade_exp, np.maximum(scores - scores.max(axis=1, keepdims=True),
                                     cfg.exp_lo_fixed)),
        "gelu": (gelu_pwl, q(rng.normal(0.0, 1.5, (197, 3072)))),
        "isqrt": (isqrt_approx, np.maximum(np.abs(ln_in), 1)),
        "layernorm": (lambda x, c: layernorm_approx(x, FMT.one, 0, c), ln_in),
    }
    for name, (fn, x) in calls.items():
        fn(x, cfg)  # builds the table
        tracemalloc.start()
        try:
            out = fn(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes, (name, peak / out.nbytes)
