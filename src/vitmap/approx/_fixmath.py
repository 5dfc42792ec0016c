"""Integer kernels behind the approximate non-linear functions.

Each kernel exists twice: a loop form compiled with numba ``@njit`` and a
vectorized numpy fallback (``VITMAP_NO_NUMBA=1`` selects numpy; it is also
used when numba is not importable). All arithmetic is int64 with floor
shifts and floor division, so the two paths produce identical integers;
a parity test asserts this and ``benchmarks/bench_kernels.py`` compares
their speed. ``ApproxConfig`` tabulates the numpy exp, GELU and isqrt
kernels over their whole input domains; those tables memoise the kernels
here and hold no arithmetic of their own.

Conventions: activations are Q(total-frac).frac two's complement integers;
exponential and softmax outputs use 15 fractional bits; lookup tables hold
15-bit entries.
"""

from __future__ import annotations

import math
import os

import numpy as np

EXP_FRAC = 15
_ONE15 = 1 << EXP_FRAC

_NUMBA_ENV_OFF = os.environ.get("VITMAP_NO_NUMBA", "") == "1"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via VITMAP_NO_NUMBA instead
    njit = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not _NUMBA_ENV_OFF


def active_impl() -> str:
    return "numba" if USE_NUMBA else "numpy"


def _pick(impl, jit_fn, numpy_fn):
    if impl is None:
        impl = active_impl()
    if impl == "numba":
        if jit_fn is None:
            raise RuntimeError("numba requested but not importable")
        return jit_fn
    if impl == "numpy":
        return numpy_fn
    raise ValueError(f"unknown impl {impl!r}")


# ---------------------------------------------------------------------------
# inverse square root: x = 2^e * (1 + f), result ~ 2^(-e/2) * table[f]
# ---------------------------------------------------------------------------

def _isqrt_scalar(x, table, table_bits, inv_sqrt2, frac_bits, max_int):
    msb = math.frexp(float(x))[1] - 1
    e = msb - frac_bits
    rem = x - (1 << msb)
    shift = msb - table_bits
    if shift >= 0:
        idx = rem >> shift
    else:
        idx = rem << (-shift)
    val = table[idx]
    if e & 1:
        val = (val * inv_sqrt2) >> EXP_FRAC
    s = frac_bits - EXP_FRAC - (e >> 1)
    if s >= 0:
        out = val << s
    else:
        out = val >> (-s)
    if out > max_int:
        out = max_int
    return out


def _isqrt_loops(x, table, table_bits, inv_sqrt2, frac_bits, max_int, out):
    for i in range(x.shape[0]):
        out[i] = _isqrt_scalar(int(x[i]), table, table_bits, inv_sqrt2, frac_bits, max_int)
    return out


def _isqrt_numpy(x, table, table_bits, inv_sqrt2, frac_bits, max_int, out):
    msb = (np.frexp(x.astype(np.float64))[1] - 1).astype(np.int64)
    e = msb - frac_bits
    rem = x - (np.int64(1) << msb)
    shift = msb - table_bits
    idx = np.where(shift >= 0,
                   rem >> np.maximum(shift, 0),
                   rem << np.maximum(-shift, 0))
    val = table[idx]
    odd = (e & 1) == 1
    val = np.where(odd, (val * inv_sqrt2) >> EXP_FRAC, val)
    s = frac_bits - EXP_FRAC - (e >> 1)
    res = np.where(s >= 0,
                   val << np.maximum(s, 0),
                   val >> np.maximum(-s, 0))
    out[:] = np.minimum(res, max_int)
    return out


# ---------------------------------------------------------------------------
# exponential on z <= 0: z = -k*ln2 + v, e^z = pade22(v) >> k
# ---------------------------------------------------------------------------

def _exp_scalar(z, log2e_q15, ln2_qf, frac_bits):
    k = ((-z) * log2e_q15) >> (frac_bits + EXP_FRAC)
    v = (z + k * ln2_qf) << (EXP_FRAC - frac_bits)
    v2 = (v * v) >> EXP_FRAC
    num = 12 * _ONE15 + 6 * v + v2
    den = 12 * _ONE15 - 6 * v + v2
    return ((num << EXP_FRAC) // den) >> k


def _exp_loops(z, log2e_q15, ln2_qf, frac_bits, out):
    for i in range(z.shape[0]):
        out[i] = _exp_scalar(int(z[i]), log2e_q15, ln2_qf, frac_bits)
    return out


def _exp_numpy(z, log2e_q15, ln2_qf, frac_bits, out):
    k = ((-z) * log2e_q15) >> (frac_bits + EXP_FRAC)
    v = (z + k * ln2_qf) << (EXP_FRAC - frac_bits)
    v2 = (v * v) >> EXP_FRAC
    num = 12 * _ONE15 + 6 * v + v2
    den = 12 * _ONE15 - 6 * v + v2
    out[:] = ((num << EXP_FRAC) // den) >> k
    return out


# ---------------------------------------------------------------------------
# softmax rows: max-subtract, exponential, reciprocal by leading-one + table
# ---------------------------------------------------------------------------

def _softmax_loops(rows, lo_fixed, log2e_q15, ln2_qf, frac_bits,
                   rtab, rt_bits, refine, renorm, out):
    nrows, n = rows.shape
    for r in range(nrows):
        m = rows[r, 0]
        for j in range(1, n):
            if rows[r, j] > m:
                m = rows[r, j]
        total = 0
        for j in range(n):
            z = rows[r, j] - m
            if z < lo_fixed:
                z = lo_fixed
            y = _exp_scalar(int(z), log2e_q15, ln2_qf, frac_bits)
            out[r, j] = y
            total += y
        msb = math.frexp(float(total))[1] - 1
        norm = total >> (msb - EXP_FRAC)
        recip = rtab[(norm - _ONE15) >> (EXP_FRAC - rt_bits)]
        for _ in range(refine):
            recip = (recip * (2 * _ONE15 - ((norm * recip) >> EXP_FRAC))) >> EXP_FRAC
        for j in range(n):
            out[r, j] = (out[r, j] * recip) >> msb
        if renorm:
            scaled = 0
            for j in range(n):
                scaled += out[r, j]
            if scaled > 0:
                for j in range(n):
                    out[r, j] = (out[r, j] << EXP_FRAC) // scaled
    return out


def softmax_shift(rows, lo_fixed):
    """Exponent inputs of a softmax: each row minus its max, clamped at ``lo_fixed``."""
    return np.maximum(rows - rows.max(axis=1, keepdims=True), lo_fixed)


def softmax_normalize(out, rtab, rt_bits, refine, renorm):
    """Scale rows of exponentials in place by the reciprocal of their sum.

    The reciprocal is a table seed at the sum's leading-one position,
    optionally Newton-refined; ``renorm`` rescales the rows to sum to one.
    """
    total = out.sum(axis=1)
    msb = (np.frexp(total.astype(np.float64))[1] - 1).astype(np.int64)
    norm = total >> (msb - EXP_FRAC)
    recip = rtab[(norm - _ONE15) >> (EXP_FRAC - rt_bits)]
    for _ in range(refine):
        recip = (recip * (2 * _ONE15 - ((norm * recip) >> EXP_FRAC))) >> EXP_FRAC
    out[:] = (out * recip[:, None]) >> msb[:, None]
    if renorm:
        scaled = out.sum(axis=1)
        ok = scaled > 0
        out[ok] = (out[ok] << EXP_FRAC) // scaled[ok, None]
    return out


def _softmax_numpy(rows, lo_fixed, log2e_q15, ln2_qf, frac_bits,
                   rtab, rt_bits, refine, renorm, out):
    z = softmax_shift(rows, lo_fixed)
    _exp_numpy(z.reshape(-1), log2e_q15, ln2_qf, frac_bits, out.reshape(-1))
    return softmax_normalize(out, rtab, rt_bits, refine, renorm)


# ---------------------------------------------------------------------------
# piecewise-linear gelu: y = (slope * x >> f) + intercept per piece
# ---------------------------------------------------------------------------

def _gelu_loops(x, px, pslope, pintercept, frac_bits, min_int, max_int, out):
    npieces = px.shape[0]
    for i in range(x.shape[0]):
        xi = x[i]
        lo, hi = 0, npieces  # rightmost piece with px[idx] <= xi
        while lo < hi:
            mid = (lo + hi) // 2
            if px[mid] <= xi:
                lo = mid + 1
            else:
                hi = mid
        idx = lo - 1
        if idx < 0:  # zero below the first piece
            y = 0
        else:
            y = ((pslope[idx] * xi) >> frac_bits) + pintercept[idx]
        if y > max_int:
            y = max_int
        elif y < min_int:
            y = min_int
        out[i] = y
    return out


def _gelu_numpy(x, px, pslope, pintercept, frac_bits, min_int, max_int, out):
    idx = np.searchsorted(px, x, side="right") - 1
    below = idx < 0  # zero below the first piece
    idx[below] = 0
    y = ((pslope[idx] * x) >> frac_bits) + pintercept[idx]
    y[below] = 0
    out[:] = np.clip(y, min_int, max_int)
    return out


# ---------------------------------------------------------------------------
# layernorm rows: integer mean/variance, isqrt-scaled, affine
# ---------------------------------------------------------------------------

def _layernorm_loops(rows, gamma, beta, eps, frac_bits,
                     table, table_bits, inv_sqrt2, min_int, max_int, out):
    nrows, n = rows.shape
    for r in range(nrows):
        total = 0
        for j in range(n):
            total += rows[r, j]
        mean = (2 * total + n) // (2 * n)
        ssq = 0
        for j in range(n):
            d = rows[r, j] - mean
            ssq += d * d
        var = (ssq // n) >> frac_bits
        scale = _isqrt_scalar(int(var + eps), table, table_bits, inv_sqrt2,
                              frac_bits, max_int)
        for j in range(n):
            d = rows[r, j] - mean
            y = ((((d * scale) >> frac_bits) * gamma[j]) >> frac_bits) + beta[j]
            if y > max_int:
                y = max_int
            elif y < min_int:
                y = min_int
            out[r, j] = y
    return out


def _layernorm_numpy(rows, gamma, beta, eps, frac_bits,
                     table, table_bits, inv_sqrt2, min_int, max_int, out):
    nrows, n = rows.shape
    total = rows.sum(axis=1)
    mean = (2 * total + n) // (2 * n)
    d = rows - mean[:, None]
    var = ((d * d).sum(axis=1) // n) >> frac_bits
    scale = np.empty(nrows, dtype=np.int64)
    _isqrt_numpy(var + eps, table, table_bits, inv_sqrt2, frac_bits, max_int, scale)
    y = ((((d * scale[:, None]) >> frac_bits) * gamma[None, :]) >> frac_bits) + beta[None, :]
    out[:] = np.clip(y, min_int, max_int)
    return out


if HAVE_NUMBA:
    # Rebind the scalar helpers so the jitted loop kernels pick them up as
    # compiled callees; the numpy fallbacks never reference them.
    _isqrt_scalar = njit(cache=True)(_isqrt_scalar)
    _exp_scalar = njit(cache=True)(_exp_scalar)
    _isqrt_jit = njit(cache=True)(_isqrt_loops)
    _exp_jit = njit(cache=True)(_exp_loops)
    _softmax_jit = njit(cache=True)(_softmax_loops)
    _gelu_jit = njit(cache=True)(_gelu_loops)
    _layernorm_jit = njit(cache=True)(_layernorm_loops)
else:
    _isqrt_jit = _exp_jit = _softmax_jit = _gelu_jit = _layernorm_jit = None


def isqrt_fixed(x, table, table_bits, inv_sqrt2, frac_bits, max_int, impl=None):
    out = np.empty(x.shape[0], dtype=np.int64)
    fn = _pick(impl, _isqrt_jit, _isqrt_numpy)
    return fn(x, table, table_bits, inv_sqrt2, frac_bits, max_int, out)


def exp_fixed(z, log2e_q15, ln2_qf, frac_bits, impl=None):
    out = np.empty(z.shape[0], dtype=np.int64)
    fn = _pick(impl, _exp_jit, _exp_numpy)
    return fn(z, log2e_q15, ln2_qf, frac_bits, out)


def softmax_fixed(rows, lo_fixed, log2e_q15, ln2_qf, frac_bits,
                  rtab, rt_bits, refine, renorm, impl=None):
    out = np.empty_like(rows)
    fn = _pick(impl, _softmax_jit, _softmax_numpy)
    return fn(rows, lo_fixed, log2e_q15, ln2_qf, frac_bits,
              rtab, rt_bits, refine, renorm, out)


def gelu_fixed(x, px, pslope, pintercept, frac_bits, min_int, max_int, impl=None):
    out = np.empty(x.shape[0], dtype=np.int64)
    fn = _pick(impl, _gelu_jit, _gelu_numpy)
    return fn(x, px, pslope, pintercept, frac_bits, min_int, max_int, out)


def layernorm_fixed(rows, gamma, beta, eps, frac_bits,
                    table, table_bits, inv_sqrt2, min_int, max_int, impl=None):
    out = np.empty_like(rows)
    fn = _pick(impl, _layernorm_jit, _layernorm_numpy)
    return fn(rows, gamma, beta, eps, frac_bits,
              table, table_bits, inv_sqrt2, min_int, max_int, out)
