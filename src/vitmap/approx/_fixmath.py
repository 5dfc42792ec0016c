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
as Q8.8 and Q4.4 at any ViT width, skips that pass. ``gelu_clip`` bounds
GELU's the same way.

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


def leading_one(x):
    """Position of the leading one bit of each x >= 1, as int64.

    ``frexp`` of x as a float64 gives it, except that the conversion rounds
    an x >= 2^53 just below a power of two up to that power, one too high;
    an integer shift finds and corrects those.
    """
    msb = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    msb -= 1
    msb -= np.right_shift(x, msb) == 0
    return msb


def isqrt_fixed(x, table, table_bits, inv_sqrt2, frac_bits, max_int):
    """Inverse square root of x >= 1: x = 2^e·(1 + f), result ~ 2^(-e/2)·table[f]."""
    msb = leading_one(x)
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
    msb = leading_one(total)
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


def gelu_clip(px, pslope, pintercept, frac_bits, min_int, max_int):
    """The bound ``gelu_fixed`` clips x at, or None when no bound fits int64; in Python ints.

    Past it the last piece's output has saturated (or is constant), so the
    clip changes no output; below the first piece the slope is 0. The bound
    is returned when ``s·(x >> f)``, ``s·(x mod 2^f)`` and the output before
    saturation fit int64 over every piece's x range up to it.
    """
    s, b = pslope[-1], pintercept[-1]
    if s > 0:
        sat = -(-((max_int - b) << frac_bits) // s)
    elif s < 0:
        sat = -(-(((min_int - b + 1) << frac_bits) - 1) // s)
    else:
        sat = px[-1]
    bound = min(max(px[-1], sat), INT64_MAX)  # no int64 x lies past INT64_MAX
    for lo, hi, s, b in zip(px, [x - 1 for x in px[1:]] + [bound], pslope, pintercept):
        whole = abs(s) * max(abs(lo >> frac_bits), abs(hi >> frac_bits))
        part = abs(s) * ((1 << frac_bits) - 1)
        if max(part, whole + (part >> frac_bits) + 1 + abs(b)) > INT64_MAX:
            return None
    return bound


def gelu_fixed(x, px, pslope, pintercept, frac_bits, min_int, max_int):
    """Piecewise-linear GELU: ``(slope·x >> f) + intercept`` of the piece holding x.

    Zero below the first piece. x lies in the piece numbered by how many of
    the ascending piece starts ``px`` it reaches, counted with one
    comparison per start (a GELU fit has about ten); a count of 0, below
    every piece, reads slope and intercept 0. With x clipped at ``gelu_clip``'s
    bound and ``slope·x >> f`` formed as ``s·(x >> f) + (s·(x mod 2^f) >> f)``,
    any int64 x is exact; pieces without a bound raise ``OverflowError``.
    """
    bound = gelu_clip(px.tolist(), pslope.tolist(), pintercept.tolist(), frac_bits,
                      min_int, max_int)
    if bound is None:
        raise OverflowError("slope·x of the gelu pieces leaves int64")
    count = np.zeros(x.shape, dtype=np.min_scalar_type(len(px)))
    reached = np.empty(x.shape, dtype=bool)
    for start in px.tolist():
        np.greater_equal(x, start, out=reached)
        count += reached
    idx = count.astype(np.intp)
    slope = np.concatenate(([0], pslope)).take(idx)
    out = np.minimum(x, bound)
    part = out & ((1 << frac_bits) - 1)
    part *= slope
    part >>= frac_bits
    out >>= frac_bits
    out *= slope
    out += part
    out += np.concatenate(([0], pintercept)).take(idx)
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
