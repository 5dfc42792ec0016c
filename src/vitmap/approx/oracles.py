"""Exact double-precision references for the approximate datapaths.

These stay independent of the fixed-point implementations: every
approximation is validated only by comparison against this module.
"""

from __future__ import annotations

import math

import numpy as np

_erf = np.vectorize(math.erf, otypes=[np.float64])
# Elements per ``_erf`` call: ``np.vectorize`` boxes a whole call's input
# as Python floats at once, so chunks cap that at a few hundred KB.
_ERF_CHUNK = 1 << 14


def exact_isqrt(x):
    return 1.0 / np.sqrt(np.asarray(x, dtype=np.float64))


def exact_exp(x):
    return np.exp(np.asarray(x, dtype=np.float64))


def exact_softmax(row):
    row = np.asarray(row, dtype=np.float64)
    z = row - row.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def exact_gelu(x):
    x = np.asarray(x, dtype=np.float64)
    scaled = (x / math.sqrt(2.0)).ravel()
    erf = np.empty_like(scaled)
    for lo in range(0, scaled.size, _ERF_CHUNK):
        erf[lo:lo + _ERF_CHUNK] = _erf(scaled[lo:lo + _ERF_CHUNK])
    return 0.5 * x * (1.0 + erf.reshape(x.shape))


def exact_layernorm(row, gamma=1.0, beta=0.0, eps: float = 0.0):
    row = np.asarray(row, dtype=np.float64)
    mean = row.mean(axis=-1, keepdims=True)
    var = ((row - mean) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (row - mean) / np.sqrt(var + eps) + beta
