"""Integer kernels behind the approximate non-linear functions.

Each kernel is vectorized numpy over int64 with floor shifts and floor
division; ``tests/fixmath_golden.py`` restates them element by element in
plain Python over Python ints, and the tests check that the two agree bit
for bit. ``kernels`` tabulates the exp, GELU and isqrt kernels over their
whole input domains; those tables memoise the kernels here and hold no
arithmetic of their own.

One buffer per call: a kernel allocates the array it returns and runs every
later step in place in it with ufunc ``out=``. Where a step needs a
full-size intermediate beside it (the exponential's shift count and
rational operand, the inverse square root's exponent), that array too is
allocated once and updated in place. A caller's arrays are never written,
except the rows ``softmax_normalize`` is documented to scale in place.
In place or not, int64 arithmetic wraps modulo 2^64 alike, so reordering
sums and products changes no bit.

``layernorm_fixed`` checks its own int64 headroom. It bounds its row sums,
``Σd²`` and ``d·scale·gamma + beta`` in Python ints over the format's range
(rows are taken to hold values of the format); when that worst case could
leave int64, it bounds them again on the actual rows and raises
``OverflowError`` if they still can. A format whose worst case fits, such
as Q8.8 and Q4.4 at any ViT width, skips that pass.

Conventions: activations are Q(total-frac).frac two's complement integers;
exponential and softmax outputs use 15 fractional bits; lookup tables hold
15-bit entries.
"""

from __future__ import annotations

import numpy as np

from ..errors import INT64_MAX

EXP_FRAC = 15
_ONE15 = 1 << EXP_FRAC


def _shift_right(out, shift):
    """``out >> shift``, or ``out << -shift`` where ``shift`` is negative, in place."""
    left = shift < 0
    np.right_shift(out, shift, out=out, where=~left)
    np.negative(shift, out=shift, where=left)
    np.left_shift(out, shift, out=out, where=left)
    np.negative(shift, out=shift, where=left)


def isqrt_fixed(x, table, table_bits, inv_sqrt2, frac_bits, max_int):
    """Inverse square root of x >= 1: x = 2^e·(1 + f), result ~ 2^(-e/2)·table[f]."""
    msb = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    msb -= 1  # the leading one's position
    out = np.left_shift(1, msb)
    np.subtract(x, out, out=out)  # the remainder below the leading one
    msb -= table_bits
    _shift_right(out, msb)  # the remainder's top table_bits bits
    table.take(out, out=out)
    msb += table_bits - frac_bits  # e
    odd = (msb & 1) == 1
    np.multiply(out, inv_sqrt2, out=out, where=odd)
    np.right_shift(out, EXP_FRAC, out=out, where=odd)
    msb >>= 1
    msb += EXP_FRAC - frac_bits
    _shift_right(out, msb)
    return np.minimum(out, max_int, out=out)


def exp_fixed(z, log2e_q15, ln2_qf, frac_bits):
    """e^z on z <= 0: z = -k·ln2 + v, e^z = pade22(v) >> k."""
    k = np.negative(z)
    k *= log2e_q15
    k >>= frac_bits + EXP_FRAC
    v = k * ln2_qf
    v += z
    v <<= EXP_FRAC - frac_bits
    out = v * v
    out >>= EXP_FRAC
    out += 12 * _ONE15
    v *= 6
    out += v  # the numerator 12 + 6v + v²
    v *= 2
    np.subtract(out, v, out=v)  # the denominator 12 - 6v + v²
    out <<= EXP_FRAC
    out //= v
    out >>= k
    return out


def softmax_shift(rows, lo_fixed):
    """Exponent inputs of a softmax: each row minus its max, clamped at ``lo_fixed``."""
    out = rows - rows.max(axis=1, keepdims=True)
    return np.maximum(out, lo_fixed, out=out)


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
    out *= recip[:, None]
    out >>= msb[:, None]
    if renorm:
        scaled = out.sum(axis=1, keepdims=True)
        ok = scaled > 0
        np.left_shift(out, EXP_FRAC, out=out, where=ok)
        np.floor_divide(out, scaled, out=out, where=ok)
    return out


def gelu_fixed(x, px, pslope, pintercept, frac_bits, min_int, max_int):
    """Piecewise-linear GELU: ``(slope·x >> f) + intercept`` of the piece holding x.

    Zero below the first piece. Slopes are integers, so beyond ``±bound``
    every piece's output already saturates; clipping x there first keeps
    ``slope·x`` inside int64 without changing any output.
    """
    idx = np.searchsorted(px, x, side="right")
    idx -= 1
    below = idx < 0  # zero below the first piece
    np.maximum(idx, 0, out=idx)
    bound = (max_int - min_int + 1 + int(np.abs(pintercept).max())) << frac_bits
    out = np.clip(x, -bound, bound)
    out *= pslope.take(idx)
    out >>= frac_bits
    out += pintercept.take(idx)
    out[below] = 0
    return np.clip(out, min_int, max_int, out=out)


def _magnitude(values) -> int:
    """Largest |v| over a non-empty int64 array, as a Python int."""
    return max(-int(values.min()), int(values.max()))


def _layernorm_fits(n, mag, span, step, eps, frac_bits, gmax, bmax) -> bool:
    """Whether every int64 intermediate of ``layernorm_fixed`` fits, in Python ints.

    Rows hold ``n`` values at most ``mag`` in magnitude and ``span`` apart,
    so ``2·Σx + n``, ``Σd²`` and the variance plus ``eps`` are bounded by
    them; ``step`` bounds ``|d·scale|``, and ``gmax``/``bmax`` bound
    ``|gamma|``/``|beta|`` in the affine step. A floor shift of a negative
    value can grow its magnitude by one.
    """
    scaled = ((step >> frac_bits) + 1) * gmax
    peak = max(2 * n * mag + n, n * span * span + eps, step, scaled,
               (scaled >> frac_bits) + 1 + bmax)
    return peak <= INT64_MAX


def layernorm_fixed(rows, gamma, beta, eps, frac_bits,
                    table, table_bits, inv_sqrt2, min_int, max_int):
    """Each row: integer mean and variance, isqrt-scaled, affine, saturated.

    Raises ``OverflowError`` when an int64 intermediate could leave int64
    on these rows (see the module docstring).
    """
    n = rows.shape[1]
    bounds = (eps, frac_bits, _magnitude(gamma), _magnitude(beta))
    span = max_int - min_int
    checked = not _layernorm_fits(n, max(-min_int, max_int), span, span * max_int, *bounds)
    if checked:
        lows, highs = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
        spans = [hi - lo for lo, hi in zip(lows, highs)]
        mag = max((max(-lo, hi) for lo, hi in zip(lows, highs)), default=0)
        if not _layernorm_fits(n, mag, max(spans, default=0), 0, *bounds):
            raise OverflowError(f"the row sums or sums of squared deviations of rows of "
                                f"length {n} leave int64")
    total = rows.sum(axis=1)
    mean = (2 * total + n) // (2 * n)
    out = rows - mean[:, None]  # the deviations d
    var = np.einsum("ij,ij->i", out, out)
    var //= n
    var >>= frac_bits
    var += eps
    scale = isqrt_fixed(var, table, table_bits, inv_sqrt2, frac_bits, max_int)
    if checked:
        step = max((s * c for s, c in zip(spans, scale.tolist())), default=0)
        if not _layernorm_fits(n, mag, max(spans, default=0), step, *bounds):
            raise OverflowError(f"d·scale·gamma + beta on rows of length {n} leaves int64")
    out *= scale[:, None]
    out >>= frac_bits
    out *= gamma
    out >>= frac_bits
    out += beta
    return np.clip(out, min_int, max_int, out=out)
