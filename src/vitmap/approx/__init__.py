"""Hardware-friendly approximations of the non-linear transformer ops."""

from ._fixmath import EXP_FRAC
from .config import (
    ApproxConfig,
    build_gelu_pieces,
    build_isqrt_table,
    build_recip_table,
)
from .formats import FixedFormat
from .kernels import (
    gelu_pwl,
    isqrt_approx,
    layernorm_approx,
    pade_exp,
    softmax_approx,
    softmax_out_to_float,
)
from .oracles import (
    exact_exp,
    exact_gelu,
    exact_isqrt,
    exact_layernorm,
    exact_softmax,
)
from .report import DEFAULT_DOMAINS, ErrorReport, error_report, reports_to_csv

__all__ = [
    "EXP_FRAC",
    "ApproxConfig", "FixedFormat",
    "build_gelu_pieces", "build_isqrt_table", "build_recip_table",
    "isqrt_approx", "pade_exp", "softmax_approx", "gelu_pwl", "layernorm_approx",
    "softmax_out_to_float",
    "exact_isqrt", "exact_exp", "exact_softmax", "exact_gelu", "exact_layernorm",
    "DEFAULT_DOMAINS", "ErrorReport", "error_report", "reports_to_csv",
]
