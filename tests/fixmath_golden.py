"""Golden model of the fixed-point kernels: plain Python over Python ints.

Each function restates one kernel of ``vitmap.approx._fixmath`` element by
element, with unbounded integers, so nothing here can overflow or wrap.
Inputs and outputs are sequences of ints (rows are sequences of rows).
The numpy kernels must equal these bit for bit on in-format inputs.
"""

from vitmap.approx._fixmath import EXP_FRAC

_ONE15 = 1 << EXP_FRAC


def isqrt(x, table, table_bits, inv_sqrt2, frac_bits, max_int):
    """x = 2^e·(1 + f) for x >= 1; result ~ 2^(-e/2)·table[f]."""
    msb = x.bit_length() - 1
    e = msb - frac_bits
    rem = x - (1 << msb)
    shift = msb - table_bits
    idx = rem >> shift if shift >= 0 else rem << -shift
    val = table[idx]
    if e & 1:
        val = (val * inv_sqrt2) >> EXP_FRAC
    s = frac_bits - EXP_FRAC - (e >> 1)
    out = val << s if s >= 0 else val >> -s
    return min(out, max_int)


def exp(z, log2e_q15, ln2_qf, frac_bits):
    """e^z for z <= 0: z = -k·ln2 + v, e^z = pade22(v) >> k."""
    k = ((-z) * log2e_q15) >> (frac_bits + EXP_FRAC)
    v = (z + k * ln2_qf) << (EXP_FRAC - frac_bits)
    v2 = (v * v) >> EXP_FRAC
    num = 12 * _ONE15 + 6 * v + v2
    den = 12 * _ONE15 - 6 * v + v2
    return ((num << EXP_FRAC) // den) >> k


def softmax(row, lo_fixed, log2e_q15, ln2_qf, frac_bits, rtab, rt_bits, refine, renorm):
    """One row: max-subtract, exponential, reciprocal by leading one and table."""
    top = max(row)
    out = [exp(max(x - top, lo_fixed), log2e_q15, ln2_qf, frac_bits) for x in row]
    total = sum(out)
    msb = total.bit_length() - 1
    norm = total >> (msb - EXP_FRAC)
    recip = rtab[(norm - _ONE15) >> (EXP_FRAC - rt_bits)]
    for _ in range(refine):
        recip = (recip * (2 * _ONE15 - ((norm * recip) >> EXP_FRAC))) >> EXP_FRAC
    out = [(y * recip) >> msb for y in out]
    scaled = sum(out)
    if renorm and scaled > 0:
        out = [(y << EXP_FRAC) // scaled for y in out]
    return out


def gelu(x, px, pslope, pintercept, frac_bits, min_int, max_int):
    """Piece ``idx`` is the rightmost with ``px[idx] <= x``; zero below the first."""
    idx = sum(1 for bound in px if bound <= x) - 1
    y = 0 if idx < 0 else ((pslope[idx] * x) >> frac_bits) + pintercept[idx]
    return min(max(y, min_int), max_int)


def layernorm(row, gamma, beta, eps, frac_bits, table, table_bits, inv_sqrt2,
              min_int, max_int):
    """One row: integer mean and variance, isqrt-scaled, affine, saturated."""
    n = len(row)
    mean = (2 * sum(row) + n) // (2 * n)
    var = (sum((x - mean) ** 2 for x in row) // n) >> frac_bits
    scale = isqrt(var + eps, table, table_bits, inv_sqrt2, frac_bits, max_int)
    out = []
    for x, g, b in zip(row, gamma, beta):
        y = (((((x - mean) * scale) >> frac_bits) * g) >> frac_bits) + b
        out.append(min(max(y, min_int), max_int))
    return out
