"""Batch latency evaluation kernels for the design-space search.

The search evaluates the cost model over thousands to millions of
candidate tile configurations; this module provides that inner loop two
ways:

* a numba ``@njit`` loop kernel (default when numba is importable), and
* a vectorized pure-numpy kernel.

A transformer DAG repeats a handful of matmul shapes many times (deit-base
has 98 matmuls in 6 classes), so ``extract_cost_arrays`` groups the
matmuls into distinct ``(n, k, m, kernel_factor)`` classes. The numpy
kernel works through the points in fixed-size blocks, which bounds its
temporaries on multi-million-point spaces; per block it computes each
class's cycle term once and then adds the terms into the accumulator in
the original matmul order.

Set ``VITMAP_NO_NUMBA=1`` to force the numpy path. Both paths perform the
same float64 operations in the same order, so results are bit-identical;
``benchmarks/bench_kernels.py`` times the kernel on deit-base.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hw import HardwareSpec, kernel_factor, nonlinear_cycles
from .model_ir import Dag, OpKind

_NUMBA_ENV_OFF = os.environ.get("VITMAP_NO_NUMBA", "") == "1"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via VITMAP_NO_NUMBA instead
    njit = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not _NUMBA_ENV_OFF


def active_impl() -> str:
    return "numba" if USE_NUMBA else "numpy"


def _latency_batch_loops(tn, tm, pn, mm_n, mm_k, mm_m, mm_kf, pm, nl_cycles, inv_freq, out):
    npoints = tn.shape[0]
    nmm = mm_n.shape[0]
    for p in range(npoints):
        cycles = nl_cycles
        for j in range(nmm):
            ntr = (mm_n[j] + tn[p] - 1) // tn[p]
            ntc = (mm_m[j] + tm[p] - 1) // tm[p]
            ops = tn[p] * tm[p] * mm_k[j] * ntr * ntc
            cycles += ops * mm_kf[j] / (pn[p] * pm)
        out[p] = cycles * inv_freq
    return out


if HAVE_NUMBA:
    _latency_batch_jit = njit(cache=True)(_latency_batch_loops)
else:
    _latency_batch_jit = None


# Points per block of the numpy kernel. Larger blocks amortise the per-class
# numpy calls, smaller ones keep the class terms cache-resident; 2^14 was the
# fastest power of two on deit-tiny's and deit-base's full spaces. It also
# caps the temporaries at a few MB however many points are evaluated.
_BLOCK = 1 << 14


def _latency_batch_numpy(tn, tm, pn, cls_n, cls_k, cls_m, cls_kf, mm_class, pm,
                         nl_cycles, inv_freq, out):
    for lo in range(0, tn.shape[0], _BLOCK):
        b_tn = tn[lo:lo + _BLOCK]
        b_tm = tm[lo:lo + _BLOCK]
        tile = b_tn * b_tm
        denom = (pn[lo:lo + _BLOCK] * pm).astype(np.float64)
        terms = [
            (tile * k * ((n + b_tn - 1) // b_tn) * ((m + b_tm - 1) // b_tm)) * kf / denom
            for n, k, m, kf in zip(cls_n, cls_k, cls_m, cls_kf)
        ]
        acc = out[lo:lo + _BLOCK]
        acc[:] = nl_cycles
        for c in mm_class:
            acc += terms[c]
        acc *= inv_freq
    return out


@dataclass(frozen=True)
class DagCostArrays:
    """Matmul classes plus the tile-independent non-linear cost.

    ``cls_*`` hold one entry per distinct (n, k, m, kernel factor) class;
    ``mm_class`` maps each matmul, in DAG order, to its class.
    """

    cls_n: np.ndarray
    cls_k: np.ndarray
    cls_m: np.ndarray
    cls_kf: np.ndarray
    mm_class: np.ndarray
    nl_cycles: float
    inv_freq: float
    pm: int
    capacity: int

    def per_matmul(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(n, k, m, kernel factor) arrays with one entry per matmul in DAG order."""
        c = self.mm_class
        return self.cls_n[c], self.cls_k[c], self.cls_m[c], self.cls_kf[c]


def extract_cost_arrays(dag: Dag, hw: HardwareSpec) -> DagCostArrays:
    classes: dict[tuple[int, int, int, float], int] = {}
    mm_class = [
        classes.setdefault(
            (*n.dims, float(kernel_factor(n.heads, hw.num_kernels, n.head_scoped))),
            len(classes))
        for n in dag.matmuls()
    ]
    cls_n, cls_k, cls_m, cls_kf = (zip(*classes) if classes else ((),) * 4)
    nl_cycles = sum(
        nonlinear_cycles(n.work_elems, hw) for n in dag.nodes if n.kind is not OpKind.MATMUL
    )
    return DagCostArrays(
        cls_n=np.array(cls_n, dtype=np.int64), cls_k=np.array(cls_k, dtype=np.int64),
        cls_m=np.array(cls_m, dtype=np.int64), cls_kf=np.array(cls_kf, dtype=np.float64),
        mm_class=np.array(mm_class, dtype=np.intp),
        nl_cycles=float(nl_cycles), inv_freq=1.0 / hw.frequency_hz,
        pm=hw.pack_factor, capacity=hw.onchip_capacity_elems,
    )


def latency_batch(arrays: DagCostArrays, tn, tm, pn, impl: str | None = None) -> np.ndarray:
    """Latency (seconds) of the DAG for each candidate (tn, tm, pn) triple.

    Candidates must already satisfy the tile feasibility constraints.
    ``impl`` overrides the module default ("numba" or "numpy").
    """
    tn = np.ascontiguousarray(tn, dtype=np.int64)
    tm = np.ascontiguousarray(tm, dtype=np.int64)
    pn = np.ascontiguousarray(pn, dtype=np.int64)
    out = np.empty(tn.shape[0], dtype=np.float64)
    if impl is None:
        impl = active_impl()
    if impl == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba requested but not importable")
        return _latency_batch_jit(tn, tm, pn, *arrays.per_matmul(), arrays.pm,
                                  arrays.nl_cycles, arrays.inv_freq, out)
    if impl == "numpy":
        return _latency_batch_numpy(tn, tm, pn, arrays.cls_n.tolist(), arrays.cls_k.tolist(),
                                    arrays.cls_m.tolist(), arrays.cls_kf.tolist(),
                                    arrays.mm_class.tolist(), arrays.pm, arrays.nl_cycles,
                                    arrays.inv_freq, out)
    raise ValueError(f"unknown impl {impl!r}")


def feasible_mask(arrays: DagCostArrays, tn, tm, pn) -> np.ndarray:
    """Vectorized tile feasibility check (pm is fixed by the hardware)."""
    tn = np.asarray(tn, dtype=np.int64)
    tm = np.asarray(tm, dtype=np.int64)
    pn = np.asarray(pn, dtype=np.int64)
    pm = arrays.pm
    return (
        (tn >= 1) & (tm >= 1) & (pn >= 1)
        & (tm % pm == 0)
        & (pn * pm < tm)
        & (tn * tm <= arrays.capacity)
    )
