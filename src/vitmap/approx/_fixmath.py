"""Integer kernels behind the approximate non-linear functions.

Each kernel is vectorized numpy over int64 with floor shifts and floor
division; ``tests/fixmath_golden.py`` restates them element by element in
plain Python over Python ints, and the tests check that the two agree bit
for bit. ``kernels`` tabulates the exp, GELU and isqrt kernels over their
whole input domains; those tables memoise the kernels here and hold no
arithmetic of their own.

Conventions: activations are Q(total-frac).frac two's complement integers;
exponential and softmax outputs use 15 fractional bits; lookup tables hold
15-bit entries.
"""

from __future__ import annotations

import numpy as np

EXP_FRAC = 15
_ONE15 = 1 << EXP_FRAC


def isqrt_fixed(x, table, table_bits, inv_sqrt2, frac_bits, max_int):
    """Inverse square root of x >= 1: x = 2^e·(1 + f), result ~ 2^(-e/2)·table[f]."""
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
    return np.minimum(res, max_int)


def exp_fixed(z, log2e_q15, ln2_qf, frac_bits):
    """e^z on z <= 0: z = -k·ln2 + v, e^z = pade22(v) >> k."""
    k = ((-z) * log2e_q15) >> (frac_bits + EXP_FRAC)
    v = (z + k * ln2_qf) << (EXP_FRAC - frac_bits)
    v2 = (v * v) >> EXP_FRAC
    num = 12 * _ONE15 + 6 * v + v2
    den = 12 * _ONE15 - 6 * v + v2
    return ((num << EXP_FRAC) // den) >> k


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


def gelu_fixed(x, px, pslope, pintercept, frac_bits, min_int, max_int):
    """Piecewise-linear GELU: ``(slope·x >> f) + intercept`` of the piece holding x.

    Zero below the first piece. Slopes are integers, so beyond ``±bound``
    every piece's output already saturates; clipping x there first keeps
    ``slope·x`` inside int64 without changing any output.
    """
    idx = np.searchsorted(px, x, side="right") - 1
    below = idx < 0  # zero below the first piece
    idx[below] = 0
    bound = (max_int - min_int + 1 + int(np.abs(pintercept).max())) << frac_bits
    y = ((pslope[idx] * np.clip(x, -bound, bound)) >> frac_bits) + pintercept[idx]
    y[below] = 0
    return np.clip(y, min_int, max_int)


def layernorm_fixed(rows, gamma, beta, eps, frac_bits,
                    table, table_bits, inv_sqrt2, min_int, max_int):
    """Each row: integer mean and variance, isqrt-scaled, affine, saturated."""
    n = rows.shape[1]
    total = rows.sum(axis=1)
    mean = (2 * total + n) // (2 * n)
    d = rows - mean[:, None]
    var = ((d * d).sum(axis=1) // n) >> frac_bits
    scale = isqrt_fixed(var + eps, table, table_bits, inv_sqrt2, frac_bits, max_int)
    y = ((((d * scale[:, None]) >> frac_bits) * gamma[None, :]) >> frac_bits) + beta[None, :]
    return np.clip(y, min_int, max_int)
