"""Error measurement harness: approximations vs. the exact oracles."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError
from . import kernels, oracles
from ._fixmath import EXP_FRAC
from .config import ApproxConfig

DEFAULT_DOMAINS = {
    "isqrt": (2.0 ** -4, 2.0 ** 8),
    "exp": (-8.0, 0.0),
    "softmax": (-4.0, 4.0),
    "gelu": (-4.0, 4.0),
    "layernorm": (-2.0, 2.0),
}
_ROW_FNS = {"softmax": 197, "layernorm": 192}


@dataclass(frozen=True)
class ErrorReport:
    fn: str
    domain: tuple[float, float]
    samples: int
    max_abs: float
    max_rel: float
    mean_abs: float

    def to_json(self) -> str:
        payload = dict(vars(self))
        payload["domain"] = list(self.domain)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def csv_row(self) -> list:
        return [self.fn, self.domain[0], self.domain[1], self.samples,
                repr(self.max_abs), repr(self.max_rel), repr(self.mean_abs)]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fn", "domain_lo", "domain_hi", "samples",
                     "max_abs", "max_rel", "mean_abs"])
    for r in reports:
        writer.writerow(r.csv_row())
    return buf.getvalue()


def _sweep_inputs(domain, samples, rng):
    """Half grid, half seeded-random points over the domain."""
    lo, hi = domain
    grid = np.linspace(lo, hi, samples // 2)
    rand = rng.uniform(lo, hi, samples - grid.size)
    return np.concatenate([grid, rand])


def _summarize(fn, domain, approx, exact, samples) -> ErrorReport:
    err = np.abs(approx - exact)
    denom = np.abs(exact)
    mask = denom > 1e-12
    max_rel = float((err[mask] / denom[mask]).max()) if mask.any() else 0.0
    return ErrorReport(
        fn=fn, domain=(float(domain[0]), float(domain[1])), samples=samples,
        max_abs=float(err.max()), max_rel=max_rel, mean_abs=float(err.mean()),
    )


def error_report(fn_id: str, cfg: ApproxConfig, domain=None, samples: int = 1024,
                 seed: int = 0, exact: bool = False) -> ErrorReport:
    """Deterministic sweep comparing one approximation to its oracle.

    ``exact=True`` swaps the oracle in for the approximation (differential
    test hook; every error field becomes zero).
    """
    if fn_id not in DEFAULT_DOMAINS:
        raise SchemaError(f"unknown approximation {fn_id!r}; have {sorted(DEFAULT_DOMAINS)}")
    domain = tuple(domain) if domain else DEFAULT_DOMAINS[fn_id]
    if not domain[0] < domain[1]:
        raise SchemaError(f"empty domain {domain}")
    rng = np.random.default_rng(seed)
    fmt = cfg.fmt

    if fn_id in _ROW_FNS:
        n = _ROW_FNS[fn_id]
        nrows = max(1, samples // n)
        rows = fmt.quantize(rng.uniform(domain[0], domain[1], (nrows, n)))
        xs = fmt.dequantize(rows)
        if fn_id == "softmax":
            ref = oracles.exact_softmax(xs)
            got = ref if exact else kernels.softmax_out_to_float(
                kernels.softmax_approx(rows, cfg))
        else:
            eps = cfg.ln_eps / fmt.one
            ref = oracles.exact_layernorm(xs, eps=eps)
            got = ref if exact else fmt.dequantize(
                kernels.layernorm_approx(rows, fmt.one, 0, cfg))
        return _summarize(fn_id, domain, got, ref, rows.size)

    x = _sweep_inputs(domain, samples, rng)
    fixed = fmt.quantize(x)
    if fn_id == "isqrt":
        fixed = np.maximum(fixed, 1)
        xs = fmt.dequantize(fixed)
        ref = oracles.exact_isqrt(xs)
        got = ref if exact else fmt.dequantize(kernels.isqrt_approx(fixed, cfg))
    elif fn_id == "exp":
        fixed = np.clip(fixed, cfg.exp_lo_fixed, 0)
        xs = fmt.dequantize(fixed)
        ref = oracles.exact_exp(xs)
        got = ref if exact else (
            np.asarray(kernels.pade_exp(fixed, cfg), dtype=np.float64) / (1 << EXP_FRAC))
    else:  # gelu
        xs = fmt.dequantize(fixed)
        ref = oracles.exact_gelu(xs)
        got = ref if exact else fmt.dequantize(kernels.gelu_pwl(fixed, cfg))
    return _summarize(fn_id, domain, got, ref, x.size)
