"""Fixed-point number formats used by the approximation datapaths."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError

_QFORMAT_RE = re.compile(r"^[Qq](\d+)\.(\d+)$")


@dataclass(frozen=True)
class FixedFormat:
    """Two's-complement fixed point: ``total_bits`` wide, ``frac_bits`` fractional.

    Values are stored as plain integers scaled by 2**frac_bits; quantization
    rounds half up and saturates at the format bounds.
    """

    total_bits: int = 16
    frac_bits: int = 8

    def __post_init__(self):
        if self.total_bits < 2 or not 0 <= self.frac_bits < self.total_bits:
            raise SchemaError(
                f"degenerate format: total_bits={self.total_bits} frac_bits={self.frac_bits}"
            )

    @classmethod
    def parse(cls, text: str) -> "FixedFormat":
        """Parse "Q8.8" style names; integer part includes the sign bit."""
        m = _QFORMAT_RE.match(text.strip())
        if not m:
            raise SchemaError(f"unrecognized fixed-point format {text!r}")
        int_bits, frac_bits = int(m.group(1)), int(m.group(2))
        return cls(total_bits=int_bits + frac_bits, frac_bits=frac_bits)

    @property
    def name(self) -> str:
        return f"Q{self.total_bits - self.frac_bits}.{self.frac_bits}"

    @property
    def one(self) -> int:
        return 1 << self.frac_bits

    @property
    def min_int(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_int(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    def quantize(self, x) -> np.ndarray:
        """Round half up to the nearest representable value, saturating."""
        scaled = np.floor(np.asarray(x, dtype=np.float64) * self.one + 0.5)
        return np.clip(scaled, self.min_int, self.max_int).astype(np.int64)

    def dequantize(self, i) -> np.ndarray:
        return np.asarray(i, dtype=np.float64) / self.one
