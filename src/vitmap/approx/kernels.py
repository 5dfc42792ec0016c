"""Approximate non-linear functions on fixed-point values.

All functions take and return fixed-point integers in the configuration's
format (softmax and the exponential return 15-fractional-bit integers, the
resolution of their internal datapath). Scalar inputs come back as scalars.
Use ``cfg.fmt.quantize`` / ``dequantize`` to cross the float boundary.

The exponential (also inside softmax), GELU and the inverse square root
are element-wise over a small integer domain, and each has one call path:
it gathers from a whole-domain table of the kernel, kept on the config,
once it exists (see ``_table``), so the outputs equal the kernel's bit for
bit; a call with an input outside the table runs the kernel itself.

One buffer per call: a function allocates the array it returns and works
in place in it. Table offsets become values in the same buffer (the
exponential's clamp keeps every offset in its table, so it skips the range
check), and softmax normalizes its exponentials where they are. A caller's
arrays are never written: an input outside a table reaches the kernel
unchanged (softmax shifts its buffer back first).

``layernorm_approx`` turns the kernel's int64 headroom check (see
``_fixmath``) into a ``SchemaError`` naming the format and the row length.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaError
from . import _fixmath
from ._fixmath import EXP_FRAC
from .config import ApproxConfig


def _as_flat(x):
    """Flattened contiguous int64 array, the original shape, and whether x is a scalar."""
    arr = np.asarray(x, dtype=np.int64)
    return np.ascontiguousarray(arr).reshape(-1), arr.shape, arr.ndim == 0


def _exp_direct(z, cfg):
    return _fixmath.exp_fixed(z, cfg.log2e_q15, cfg.ln2_qf, cfg.fmt.frac_bits)


def _gelu_direct(x, cfg):
    px, ps, pb = cfg.gelu_pieces
    return _fixmath.gelu_fixed(x, px, ps, pb, cfg.fmt.frac_bits,
                               cfg.fmt.min_int, cfg.fmt.max_int)


def _isqrt_direct(x, cfg):
    if x.size and x.min() <= 0:
        raise SchemaError("isqrt_approx requires x > 0")
    return _fixmath.isqrt_fixed(x, cfg.isqrt_table, cfg.table_bits, cfg.inv_sqrt2_q15,
                                cfg.fmt.frac_bits, cfg.fmt.max_int)


_DIRECT = {"exp": _exp_direct, "gelu": _gelu_direct, "isqrt": _isqrt_direct}

# Inclusive input range of each kernel's table.
_DOMAIN = {
    "exp": lambda cfg: (cfg.exp_lo_fixed, 0),
    "gelu": lambda cfg: (cfg.fmt.min_int, cfg.fmt.max_int),
    "isqrt": lambda cfg: (1, cfg.fmt.max_int),
}

# Largest input domain an element-wise kernel is tabulated over.
TABLE_MAX_ENTRIES = 1 << 16


def _table(kind, cfg, n):
    """``(lo, table)`` with ``table[i]`` the kernel at ``lo + i``, or None.

    The table covers ``kind``'s whole domain. It is built on the first call
    with ``n`` at least the domain's size, and only if the domain has at most
    ``TABLE_MAX_ENTRIES`` inputs; once built, calls of any size get it.
    The config's arrays are read-only, so a table stays valid.
    """
    found = cfg._tables.get(kind)
    if found is None:
        lo, hi = _DOMAIN[kind](cfg)
        size = hi - lo + 1
        if size > TABLE_MAX_ENTRIES or n < size:
            return None
        # Allocated before the kernel's temporaries, so the long-lived table
        # does not sit above them in the heap and keep their memory resident.
        table = np.empty(size, dtype=np.int64)
        table[:] = _DIRECT[kind](np.arange(lo, hi + 1, dtype=np.int64), cfg)
        table.flags.writeable = False
        found = cfg._tables[kind] = (lo, table)
    return found


def _elementwise(kind, x, cfg, out=None):
    """``kind``'s kernel on flat ``x``: a table gather when every input is in it.

    The gather writes into ``out``, a new array when None; ``out`` may be
    ``x`` itself. The kernel sees the original inputs: a buffer that held the
    offsets of an input outside the table is shifted back first.
    """
    found = _table(kind, cfg, x.size)
    if found is not None:
        lo, table = found
        idx = np.subtract(x, lo, out=out)
        # Seen as unsigned, offsets below lo (wrapped or not) exceed the table too.
        if not idx.size or idx.view(np.uint64).max() < table.shape[0]:
            return table.take(idx, out=idx, mode="clip")
        if idx is x:
            np.add(x, lo, out=x)
    return _DIRECT[kind](x, cfg)


def isqrt_approx(x, cfg: ApproxConfig):
    """1/sqrt(x) via the exponent split x = 2^e * (1+f) and the 2^(-f/2) table.

    Exact at powers of two with even exponent; elsewhere bounded by the
    table resolution (measured by the error harness).
    """
    flat, shape, scalar = _as_flat(x)
    # x <= 0 lies outside the table, so the kernel's own check rejects it.
    out = _elementwise("isqrt", flat, cfg)
    return out[0] if scalar else out.reshape(shape)


def pade_exp(x, cfg: ApproxConfig):
    """e^x for x <= 0 as 2^-k * pade22(v), with x = -k*ln2 + v.

    The power-of-two part is a shift; the [2/2] rational core only ever sees
    v in (-ln2, 0], where it is accurate and monotone. Inputs outside the
    configured domain saturate to its edge. Output has 15 fractional bits.
    """
    flat, shape, scalar = _as_flat(x)
    out = np.clip(flat, cfg.exp_lo_fixed, 0)
    found = _table("exp", cfg, out.size)
    if found is None:
        out = _exp_direct(out, cfg)
    else:
        # The clip keeps every offset inside the table: no range check.
        lo, table = found
        table.take(np.subtract(out, lo, out=out), out=out, mode="clip")
    return out[0] if scalar else out.reshape(shape)


def softmax_approx(row, cfg: ApproxConfig):
    """Division-free softmax over the last axis.

    Subtracts the row max, applies the shifted rational exponential, and
    normalizes by a reciprocal built from the sum's leading-one position
    plus a table seed (optionally Newton-refined). Output rows are
    15-fractional-bit values summing to ~1.
    """
    arr = np.ascontiguousarray(row, dtype=np.int64)
    if arr.size == 0:
        raise SchemaError("softmax_approx requires a non-empty row")
    # One row per last-axis vector (a scalar is one row of one); a contiguous
    # array reshapes without a copy.
    z = _fixmath.softmax_shift(arr.reshape(-1, arr.shape[-1]), cfg.exp_lo_fixed)
    # The exponentials replace the shifted inputs in their buffer; the inputs
    # leave the exp table only if a row's span overflows int64.
    flat = z.reshape(-1)
    exps = _elementwise("exp", flat, cfg, out=flat).reshape(z.shape)
    out = _fixmath.softmax_normalize(exps, cfg.recip_table, cfg.recip_bits,
                                     cfg.recip_refine, cfg.renormalize)
    return out.reshape(arr.shape)


def gelu_pwl(x, cfg: ApproxConfig):
    """Piecewise-linear GELU: zero below the pieces, identity above them."""
    flat, shape, scalar = _as_flat(x)
    out = _elementwise("gelu", flat, cfg)
    return out[0] if scalar else out.reshape(shape)


def layernorm_approx(row, gamma, beta, cfg: ApproxConfig):
    """Normalization over the last axis with the table-based inverse square root.

    Mean and variance are integer arithmetic; the scale is
    isqrt_approx(variance + eps); output is gamma * (x - mean) * scale + beta.
    Rows whose int64 intermediates could overflow in the configured format
    raise ``SchemaError`` (see ``_fixmath``).
    """
    arr = np.ascontiguousarray(row, dtype=np.int64)
    n = arr.shape[-1]  # ascontiguousarray gives a scalar shape (1,)
    if n < 2:
        raise SchemaError("layernorm_approx requires rows of length >= 2")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.int64), (n,)).copy()
    beta = np.broadcast_to(np.asarray(beta, dtype=np.int64), (n,)).copy()
    # One row per last-axis vector; a contiguous array reshapes without a copy.
    try:
        out = _fixmath.layernorm_fixed(arr.reshape(-1, n), gamma, beta, cfg.ln_eps,
                                       cfg.fmt.frac_bits, cfg.isqrt_table,
                                       cfg.table_bits, cfg.inv_sqrt2_q15,
                                       cfg.fmt.min_int, cfg.fmt.max_int)
    except OverflowError as exc:
        raise SchemaError(f"layernorm_approx in {cfg.fmt.name}: {exc}; use a narrower "
                          "format or smaller inputs") from None
    return out.reshape(arr.shape)


def softmax_out_to_float(out) -> np.ndarray:
    """Dequantize softmax/exponential outputs (15 fractional bits)."""
    return np.asarray(out, dtype=np.float64) / (1 << EXP_FRAC)
