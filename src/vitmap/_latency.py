"""Exact latency scoring for the design-space search.

A transformer DAG repeats a handful of matmul shapes many times (deit-base
has 98 matmuls in 6 classes), so ``extract_cost_arrays`` groups the
matmuls into distinct ``(n, k, m, kernel_factor)`` classes. Under tiles
``(pn, pm, tn, tm)`` the DAG's latency in seconds is then

    (N(tn, tm) + nl·D) · q / (D · p)

with ``D = pn·pm·kernels``, the clock ``frequency_hz = p/q`` as an exact
fraction, ``nl`` the integer non-linear cycles (independent of the tiles)
and the integer matmul numerator

    N(tn, tm) = Σ_c w_c · R_c(tn) · C_c(tm),

where ``R_c(tn) = ceil(n_c/tn)·tn`` and ``C_c(tm) = ceil(m_c/tm)·tm`` are
the padded extents and ``w_c = count·k·kernel_factor·kernels`` is a whole
number. That is the rational ``graph_latency`` sums node by node, so one
correctly rounded division gives its float bit for bit.

``numerator_blocks`` is the one producer of ``N``: one product per block of
tn rows for all open tm columns. ``exact_search`` takes masked column
minima from its blocks; ``column_numerators`` fills columns of ``N`` from
them, which the heuristic reads one per tm, ``latency_batch`` reads as the
grid of its distinct tn × distinct tm, and ``pair_numerators`` reads, each
column only up to its largest tn, for the distinct ``(tn, tm)`` of a search
log's block, so the log stores ``N`` and ``D`` as integers instead of the
float. ``benchmarks/bench_kernels.py`` times the scorer on deit-base.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hw import HardwareSpec, nonlinear_cycles
from .model_ir import Dag, OpKind

# Largest numerator int64 arithmetic may produce; larger ones are scored in
# Python integers (dtype object) instead.
_INT64_MAX = np.iinfo(np.int64).max
# Integers below 2^53 are exact float64s, and one float64 division of two
# of them is the correctly rounded quotient of the integers.
_FLOAT_EXACT = 1 << 53
# Points per block of the gather and division in ``latency_batch``, and
# elements per block of ``column_numerators``: it caps the temporaries at a
# few MB however many points are scored.
_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class DagCostArrays:
    """Matmul classes plus the tile-independent non-linear cost.

    ``cls_n`` and ``cls_m`` hold each class's row and column extents and
    ``cls_weight`` its whole-number weight ``count·k·kernel_factor·kernels``
    as a Python int. ``nl_cycles`` is the integer non-linear cycle count and
    ``frequency`` the clock as an exact fraction. Two of them are equal when
    every field is; the numpy columns make them unhashable.
    """

    cls_n: np.ndarray
    cls_m: np.ndarray
    cls_weight: tuple[int, ...]
    nl_cycles: int
    pm: int
    kernels: int
    frequency: Fraction

    def __eq__(self, other):
        if not isinstance(other, DagCostArrays):
            return NotImplemented
        return (np.array_equal(self.cls_n, other.cls_n)
                and np.array_equal(self.cls_m, other.cls_m)
                and (self.cls_weight, self.nl_cycles, self.pm, self.kernels, self.frequency)
                == (other.cls_weight, other.nl_cycles, other.pm, other.kernels,
                    other.frequency))

    __hash__ = None


def extract_cost_arrays(dag: Dag, hw: HardwareSpec) -> DagCostArrays:
    """Matmul classes, first seen first, and non-linear cycles from one counting pass."""
    kernels = hw.num_kernels
    shapes: dict[tuple, int] = {}
    elems: dict[int, int] = {}
    for node in dag.nodes:
        if node.kind is OpKind.MATMUL:
            shape = (node.dims, node.head_scoped, node.heads)
            shapes[shape] = shapes.get(shape, 0) + 1
        else:
            elems[node.work_elems] = elems.get(node.work_elems, 0) + 1
    counts: dict[tuple[int, int, int, int], int] = {}
    for (dims, head_scoped, heads), count in shapes.items():
        # kernel_factor·kernels: ceil(heads/kernels)·kernels for head-grouped
        # matmuls, 1 for the rest.
        key = (*dims, -(-heads // kernels) * kernels if head_scoped else 1)
        counts[key] = counts.get(key, 0) + count
    return DagCostArrays(
        cls_n=np.array([n for n, _, _, _ in counts], dtype=np.int64),
        cls_m=np.array([m for _, _, m, _ in counts], dtype=np.int64),
        cls_weight=tuple(count * k * kf for (_, k, _, kf), count in counts.items()),
        nl_cycles=sum(count * nonlinear_cycles(work, hw) for work, count in elems.items()),
        pm=hw.pack_factor, kernels=kernels, frequency=Fraction(hw.frequency_hz),
    )


def _padded(extents: np.ndarray, tiles) -> np.ndarray:
    """``ceil(e/t)·t`` with one row per tile size and one column per extent."""
    t = np.asarray(tiles, dtype=np.int64).reshape(-1, 1)
    return -(-extents // t) * t


def weighted_columns(arrays: DagCostArrays, tm, tn_max: int) -> np.ndarray:
    """``W[j, c] = w_c·C_c(tm_j)``, so that ``Σ_c R_c(tn)·W[j, c]`` is ``N(tn, tm_j)``.

    The dtype is int64 when no product or partial sum of those numerators
    for ``tn <= tn_max`` can exceed it, else object (Python ints).
    """
    cols = _padded(arrays.cls_m, tm)
    # R_c(tn) < n_c + tn, and every term is non-negative.
    bound = sum(w * (n + tn_max) * c for w, n, c in zip(
        arrays.cls_weight, arrays.cls_n.tolist(), cols.max(axis=0, initial=0).tolist()))
    dtype = np.int64 if bound <= _INT64_MAX else object
    return cols.astype(dtype) * np.array(arrays.cls_weight, dtype=dtype)


def numerator_blocks(arrays: DagCostArrays, weighted: np.ndarray, tn, counts: np.ndarray,
                     max_elems: int, rows: int):
    """``N(tn[lo + i], tm_j)`` for the rows ``j`` of ``weighted``, one product per block.

    Yields ``(lo, open, block, valid)``: ``block[r, i]`` is for ``j = open[r]``,
    one of the ``j`` with ``counts[j] > lo``, valid where ``lo + i < counts[j]
    <= len(tn)``; ``tn`` ascends. Blocks start at ``rows`` rows and double while
    the product and the padded rows (one per distinct ``n``) fit ``max_elems``
    and at most half the open columns end inside. Lowering ``counts`` between
    blocks ends a column early.
    """
    extents, cls = np.unique(arrays.cls_n, return_inverse=True)
    weighted = weighted @ (cls[:, None] == np.arange(extents.size)).astype(weighted.dtype)
    lo = 0
    while (open_ := np.flatnonzero(counts > lo)).size:
        half = int(np.sort(counts[open_])[open_.size // 2]) - lo  # rows left in half the columns
        rows = max(1, min(rows, half, max_elems // max(extents.size, open_.size)))
        padded = _padded(extents, tn[lo:lo + rows]).astype(weighted.dtype, copy=False)
        valid = np.arange(padded.shape[0]) < (counts[open_] - lo)[:, None]
        yield lo, open_, weighted[open_] @ padded.T, valid
        lo += padded.shape[0]
        rows *= 2


def column_numerators(arrays: DagCostArrays, tm, tn: np.ndarray,
                      counts) -> tuple[np.ndarray, np.ndarray]:
    """``N(tn[i], tm[j])`` for ``i < counts[j]``, one column per ``tm[j]`` in one array.

    Returns ``(flat, starts)`` with ``flat[starts[j] + i] = N(tn[i], tm[j])``,
    in the dtype of ``weighted_columns``. ``tn`` ascends and every count is
    at least 1. ``numerator_blocks`` fills ``flat`` ``_BLOCK`` elements at a
    time: no temporary grows with ``tn``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    weighted = weighted_columns(arrays, tm, int(tn[counts.max() - 1]))
    starts = np.cumsum(counts) - counts
    flat = np.empty(int(counts.sum()), dtype=weighted.dtype)
    for lo, open_, block, valid in numerator_blocks(arrays, weighted, tn, counts, _BLOCK, len(tn)):
        at = (starts[open_] + lo)[:, None] + np.arange(block.shape[1])  # where block[r, i] goes
        flat[at[valid]] = block[valid]
    return flat, starts


def divide(arrays: DagCostArrays, numerators: np.ndarray, pn: np.ndarray) -> np.ndarray:
    """Latency (seconds) per point from its numerator ``N`` and its pn.

    ``(N + nl·D)·q / (D·p)`` is one float64 division when both operands are
    below 2^53, and a division of Python ints otherwise (always for object
    numerators); both are correctly rounded.
    """
    p, q = arrays.frequency.numerator, arrays.frequency.denominator
    nl = arrays.nl_cycles
    d = pn * (arrays.pm * arrays.kernels)
    d_max = int(d.max())
    if (numerators.dtype == object
            or (int(numerators.max()) + nl * d_max) * q >= _FLOAT_EXACT
            or d_max * p >= _FLOAT_EXACT):
        d = d.astype(object)
    # In place from here, so a block holds few temporaries.
    top = d * nl
    top += numerators
    top *= q
    d *= p
    return top / d


def _distinct(values: np.ndarray):
    """Ascending distinct values of a non-negative int64 array, and a function
    that maps an array of those values to their positions among them."""
    top = int(values.max())
    if top > 4 * values.size:  # sparse values: sort rather than tabulate
        ordered = np.sort(values)
        distinct = ordered[np.diff(ordered, prepend=-1) != 0]
        return distinct, functools.partial(np.searchsorted, distinct)
    present = np.zeros(top + 1, dtype=bool)
    present[values] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1).take


def pair_numerators(arrays: DagCostArrays, tn: np.ndarray, tm: np.ndarray):
    """The distinct ``(tn, tm)`` pairs of two positive int64 arrays and their ``N``.

    Returns ``(tn_u, tm_u, numerators, pair)``: element ``i`` of the inputs
    is the pair ``(tn_u[pair[i]], tm_u[pair[i]])``, and ``numerators[j]`` is
    ``N(tn_u[j], tm_u[j])``, in the dtype of ``weighted_columns``. Each
    distinct tm's column runs up to its largest distinct tn, so a feasible
    log's columns hold at most ``(S/pm)(1 + ln |tm|)`` entries.
    """
    (tns, tn_pos), (tms, tm_pos) = _distinct(tn), _distinct(tm)
    code = tm_pos(tm) * tns.size + tn_pos(tn)
    codes, code_pos = _distinct(code)
    tm_idx, tn_idx = np.divmod(codes, tns.size)
    # Codes ascend, so each tm's last pair holds its largest tn position.
    last = np.append(tm_idx[1:] != tm_idx[:-1], True)
    flat, starts = column_numerators(arrays, tms, tns, tn_idx[last] + 1)
    return tns[tn_idx], tms[tm_idx], flat[starts[tm_idx] + tn_idx], code_pos(code)


def latency_batch(arrays: DagCostArrays, tn, tm, pn) -> np.ndarray:
    """Latency (seconds) of the DAG for each candidate (tn, tm, pn) triple.

    Candidates must already satisfy the tile feasibility constraints. Each
    value equals ``graph_latency(...).total_latency_s`` bit for bit.
    """
    tn = np.ascontiguousarray(tn, dtype=np.int64)
    tm = np.ascontiguousarray(tm, dtype=np.int64)
    pn = np.ascontiguousarray(pn, dtype=np.int64)
    out = np.empty(tn.shape[0], dtype=np.float64)
    if out.size == 0:
        return out
    (tns, tn_pos), (tms, tm_pos) = _distinct(tn), _distinct(tm)
    grid, starts = column_numerators(arrays, tms, tns, np.full(tms.size, tns.size))
    for lo in range(0, out.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        numerators = grid[starts[tm_pos(tm[block])] + tn_pos(tn[block])]
        out[block] = divide(arrays, numerators, pn[block])
    return out
