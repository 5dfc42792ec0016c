"""Configuration for the approximate datapaths: formats, tables, pieces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import EXTENT_MAX, INT64_MAX, STRING, SchemaError, check, read
from ._fixmath import EXP_FRAC, gelu_clip
from .formats import FixedFormat
from .oracles import exact_gelu

APPROX_SCHEMA_VERSION = 1

DEFAULT_EXP_DOMAIN_LO = -8.0
DEFAULT_GELU_KNOTS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)

# An approximation config's fields, all optional. In 15-bit entries an isqrt table stays
# strictly decreasing up to 2^12 entries; a reciprocal index shifts by 15 - log2(size).
APPROX_FIELDS = {"format": STRING, "exp_domain_lo": ("number", -EXTENT_MAX, 0),
                 "isqrt_table_size": ("int", 2, 2**12), "recip_table_size": ("int", 2, 2**15),
                 "gelu_knots": ("int_list", -EXTENT_MAX, EXTENT_MAX),
                 "recip_refine": ("int", 0, 16), "renormalize": ("bool",),
                 "ln_eps": ("int", 0, EXTENT_MAX)}


def build_isqrt_table(size: int) -> np.ndarray:
    """Entries 2^(-f/2) for fraction index f = i/size, 15-bit fixed point."""
    if size < 2 or size & (size - 1):
        raise SchemaError(f"isqrt table size must be a power of two >= 2, got {size}")
    vals = [round(2.0 ** (-(i / size) / 2.0) * (1 << EXP_FRAC)) for i in range(size)]
    return np.array(vals, dtype=np.int64)


def build_recip_table(size: int) -> np.ndarray:
    """Seeds 1/(1 + (i + 0.5)/size) for a denominator normalized into [1, 2)."""
    if size < 2 or size & (size - 1):
        raise SchemaError(f"reciprocal table size must be a power of two >= 2, got {size}")
    vals = [round((1 << EXP_FRAC) / (1.0 + (i + 0.5) / size)) for i in range(size)]
    return np.array(vals, dtype=np.int64)


def _check_width(fmt: FixedFormat) -> None:
    if fmt.total_bits > 63:  # one below the minimum, the first gelu piece's start, leaves int64
        raise SchemaError(f"{fmt.name} is wider than 63 bits")


def build_gelu_pieces(fmt: FixedFormat, knots=DEFAULT_GELU_KNOTS):
    """Piecewise-linear fit of GELU sampled at integer knot positions.

    Below the first knot the value is 0 and above the last knot the identity
    passes through exactly; interior slopes are chosen so adjacent pieces
    meet exactly in fixed point (integer knots make slope * knot exact).
    """
    knots = tuple(int(k) for k in knots)
    if len(knots) < 2 or any(b - a < 1 for a, b in zip(knots, knots[1:])):
        raise SchemaError("gelu knots must be at least two strictly increasing integers")
    one = fmt.one
    # The first piece starts one below the format's minimum, below the first knot.
    _check_width(fmt)
    if knots[0] * one < fmt.min_int:
        lo, hi = fmt.min_int / one, fmt.max_int / one
        which = "the default gelu knots" if knots == DEFAULT_GELU_KNOTS else "gelu knots"
        outside = ", ".join(str(k) for k in knots if not lo <= k <= hi)
        raise SchemaError(f"{fmt.name} holds [{lo:g}, {hi:g}]: {which} {outside} fall "
                          f"outside it (the first knot must be at least {lo:g})")
    ys = fmt.quantize(exact_gelu(np.array(knots, dtype=np.float64))).tolist()
    # Propagate rounded slopes so each piece lands exactly on the next knot.
    px = [fmt.min_int - 1, knots[0] * one]
    pslope = [0, 0]
    pintercept = [0, 0]
    y = 0  # boundary values pinned: 0 below, identity above
    for i in range(len(knots) - 1):
        dc = knots[i + 1] - knots[i]
        target = ys[i + 1] if i + 1 < len(knots) - 1 else knots[-1] * one
        slope = round((target - y) / dc)
        px.append(knots[i] * one)
        pslope.append(slope)
        pintercept.append(y - slope * knots[i])
        y = y + slope * dc
    if y != knots[-1] * one:
        raise SchemaError(
            f"gelu knots {knots} cannot meet the identity piece exactly in {fmt.name}"
        )
    if max(map(abs, pintercept)) > INT64_MAX:
        raise SchemaError(f"gelu knots {knots} give intercepts outside int64 in {fmt.name}")
    px.append(knots[-1] * one)
    pslope.append(one)
    pintercept.append(0)
    # Drop the duplicate piece below the first knot boundary.
    del px[1], pslope[1], pintercept[1]
    return (np.array(px, dtype=np.int64),
            np.array(pslope, dtype=np.int64),
            np.array(pintercept, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ApproxConfig:
    """An approximation document's values, and the tables and pieces built from them."""

    fmt: FixedFormat = field(default_factory=FixedFormat)
    isqrt_table_size: int = 64
    recip_table_size: int = 64
    exp_domain_lo: float = DEFAULT_EXP_DOMAIN_LO
    gelu_knots: tuple[int, ...] = DEFAULT_GELU_KNOTS
    recip_refine: int = 0
    renormalize: bool = False
    ln_eps: int = 1  # one LSB on the variance
    isqrt_table: np.ndarray = field(init=False, repr=False)
    recip_table: np.ndarray = field(init=False, repr=False)
    gelu_pieces: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    # Whole-domain kernel lookup tables, kind -> (lo, table), filled by ``kernels``.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check(vars(self), APPROX_FIELDS)
        fmt = self.fmt
        isqrt_table = build_isqrt_table(self.isqrt_table_size)
        recip_table = build_recip_table(self.recip_table_size)
        _check_width(fmt)
        if fmt.frac_bits > EXP_FRAC:
            raise SchemaError(f"frac_bits > {EXP_FRAC} not supported by the exp datapath")
        if self.exp_lo_fixed >= 0:
            raise SchemaError(f"exp_domain_lo {self.exp_domain_lo} is >= 0 in {fmt.name}")
        pieces = build_gelu_pieces(fmt, self.gelu_knots)
        if gelu_clip(*(a.tolist() for a in pieces), fmt.frac_bits, fmt.min_int,
                     fmt.max_int) is None:
            raise SchemaError(f"{fmt.name}: slope·x of the gelu pieces leaves int64")
        # Read-only: the kernel tables in ``_tables`` are built from these arrays.
        for arr in (isqrt_table, recip_table, *pieces):
            arr.flags.writeable = False
        object.__setattr__(self, "exp_domain_lo", float(self.exp_domain_lo))
        object.__setattr__(self, "gelu_knots", tuple(self.gelu_knots))
        object.__setattr__(self, "isqrt_table", isqrt_table)
        object.__setattr__(self, "recip_table", recip_table)
        object.__setattr__(self, "gelu_pieces", pieces)

    # Derived fixed-point constants -----------------------------------------

    @property
    def table_bits(self) -> int:
        return self.isqrt_table_size.bit_length() - 1

    @property
    def recip_bits(self) -> int:
        return self.recip_table_size.bit_length() - 1

    @property
    def inv_sqrt2_q15(self) -> int:
        return round(2.0 ** -0.5 * (1 << EXP_FRAC))

    @property
    def log2e_q15(self) -> int:
        # Floor, not round: never overestimates, so the remainder v of the
        # power-of-two split stays <= 0.
        return math.floor(math.log2(math.e) * (1 << EXP_FRAC))

    @property
    def ln2_qf(self) -> int:
        return math.floor(math.log(2.0) * self.fmt.one)

    @property
    def exp_lo_fixed(self) -> int:
        return int(self.fmt.quantize(self.exp_domain_lo))

    @classmethod
    def from_doc(cls, doc: dict) -> "ApproxConfig":
        fields = read(doc, "approx config", {}, APPROX_FIELDS, version=APPROX_SCHEMA_VERSION)
        fmt = fields.pop("format", "Q8.8")
        check({"format": fmt}, APPROX_FIELDS)
        return cls(FixedFormat.parse(fmt), **fields)

    def describe(self) -> dict:
        """JSON-ready summary (embedded in compilation manifests)."""
        return {
            "format": self.fmt.name,
            "isqrt_table_size": self.isqrt_table_size,
            "recip_table_size": self.recip_table_size,
            "pade_order": [2, 2],  # the only rational order pade_exp implements
            "exp_domain_lo": self.exp_domain_lo,
            "gelu_pieces": len(self.gelu_pieces[0]),
            "recip_refine": self.recip_refine,
            "renormalize": self.renormalize,
            "ln_eps": self.ln_eps,
        }
