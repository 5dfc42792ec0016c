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
correctly rounded division gives its float bit for bit. ``latency_batch``
computes ``N`` once per distinct ``(tn, tm)`` and divides once per point;
``exact_search`` scores ``N`` column by column through the same routines,
``column_numerators`` gives the heuristic search one column of ``N`` per
tm, and ``pair_numerators`` gives the search log's writer ``N`` for each
distinct ``(tn, tm)`` of a block, so the log stores ``N`` and ``D`` as
integers instead of the float. ``row_codes`` packs a log's tile columns
into one int64 per row, by which the Pareto front and the search
comparison tell configurations apart.
``benchmarks/bench_kernels.py`` times the scorer on deit-base.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SchemaError
from .hw import HardwareSpec, nonlinear_cycles
from .model_ir import Dag, OpKind

# Largest numerator int64 arithmetic may produce; larger ones are scored in
# Python integers (dtype object) instead.
_INT64_MAX = np.iinfo(np.int64).max
# Integers below 2^53 are exact float64s, and one float64 division of two
# of them is the correctly rounded quotient of the integers.
_FLOAT_EXACT = 1 << 53
# Points per block of the gather and division in ``latency_batch``: it caps
# the temporaries at a few MB however many points are scored.
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
    kernels = hw.num_kernels
    counts: dict[tuple[int, int, int, int], int] = {}
    for node in dag.matmuls():
        # kernel_factor·kernels: ceil(heads/kernels)·kernels for head-grouped
        # matmuls, 1 for the rest.
        kf_kernels = -(-node.heads // kernels) * kernels if node.head_scoped else 1
        key = (*node.dims, kf_kernels)
        counts[key] = counts.get(key, 0) + 1
    nl_cycles = sum(
        nonlinear_cycles(n.work_elems, hw) for n in dag.nodes if n.kind is not OpKind.MATMUL
    )
    return DagCostArrays(
        cls_n=np.array([n for n, _, _, _ in counts], dtype=np.int64),
        cls_m=np.array([m for _, _, m, _ in counts], dtype=np.int64),
        cls_weight=tuple(count * k * kf for (_, k, _, kf), count in counts.items()),
        nl_cycles=nl_cycles, pm=hw.pack_factor, kernels=kernels,
        frequency=Fraction(hw.frequency_hz),
    )


def _padded(extents: np.ndarray, tiles) -> np.ndarray:
    """``ceil(e/t)·t`` with one row per tile size and one column per extent."""
    t = np.asarray(tiles, dtype=np.int64).reshape(-1, 1)
    return -(-extents // t) * t


def weighted_columns(arrays: DagCostArrays, tm, tn_max: int) -> np.ndarray:
    """``W[j, c] = w_c·C_c(tm_j)``, so that ``padded_rows(tn) @ W[j]`` is ``N(tn, tm_j)``.

    The dtype is int64 when no product or partial sum of those numerators
    for ``tn <= tn_max`` can exceed it, else object (Python ints).
    """
    cols = _padded(arrays.cls_m, tm)
    # R_c(tn) < n_c + tn, and every term is non-negative.
    bound = sum(w * (n + tn_max) * c for w, n, c in zip(
        arrays.cls_weight, arrays.cls_n.tolist(), cols.max(axis=0, initial=0).tolist()))
    dtype = np.int64 if bound <= _INT64_MAX else object
    return cols.astype(dtype) * np.array(arrays.cls_weight, dtype=dtype)


def padded_rows(arrays: DagCostArrays, tn, dtype) -> np.ndarray:
    """``R[i, c] = R_c(tn_i)`` in ``dtype``, the dtype of ``weighted_columns``."""
    return _padded(arrays.cls_n, tn).astype(dtype, copy=False)


def column_numerators(arrays: DagCostArrays, tm, tn: np.ndarray, counts) -> list[np.ndarray]:
    """One column per ``tm[j]``: ``N(tn[i], tm[j])`` for ``i < counts[j]``.

    ``tn`` is an ascending positive int64 array and every count is at least
    1. The columns share the dtype of ``weighted_columns``. Rows are padded
    ``_BLOCK`` elements at a time and shared by every column, so no
    temporary grows with ``tn`` and each column costs one product per block.
    """
    longest = max(counts)
    weighted = weighted_columns(arrays, tm, int(tn[longest - 1]))
    columns = [np.empty(count, dtype=weighted.dtype) for count in counts]
    step = max(1, _BLOCK // weighted.shape[1])
    for lo in range(0, longest, step):
        rows = padded_rows(arrays, tn[lo:lo + step], weighted.dtype)
        for column, w, count in zip(columns, weighted, counts):
            if count > lo:
                column[lo:lo + step] = rows[:count - lo] @ w
    return columns


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


def row_codes(columns) -> tuple[np.ndarray, int]:
    """One int64 code per row of equal-length int64 columns, and a bound on them.

    Returns ``(code, size)`` with ``0 <= code < size``. Two rows get equal
    codes exactly when they are equal in every column, and codes order the
    rows like their tuples, the first column most significant. Each column
    is one mixed-radix digit: ``value - min`` when the column spans at most
    the row count, else the value's rank among the column's distinct values
    (a column of one value adds nothing). Before a digit could take the
    code past int64, the code is renumbered to its rank among its distinct
    values, so ``size`` stays below (rows + 1)². A column whose values
    span 2^63 or more raises ``SchemaError``.
    """
    code, size = None, 1
    for col in columns:
        lo = col.min()
        span = int(col.max()) - int(lo)
        if span > _INT64_MAX:
            raise SchemaError(f"row_codes: a column spans {span}, more than int64 holds")
        if span == 0:
            continue
        digits = col - lo  # exact, as the span fits
        if span > digits.size:
            distinct, position = _distinct(digits)
            digits, span = position(digits), distinct.size - 1
        if code is None:
            code, size = digits, span + 1
            continue
        if size * (span + 1) > _INT64_MAX + 1:
            distinct, position = _distinct(code)
            code, size = position(code), distinct.size
        code *= span + 1
        code += digits
        size *= span + 1
        del digits  # freed before the next column's digits are made
    if code is None:
        code = np.zeros(columns[0].shape[0], dtype=np.int64)
    return code, size


def pair_numerators(arrays: DagCostArrays, tn: np.ndarray, tm: np.ndarray):
    """The distinct ``(tn, tm)`` pairs of two positive int64 arrays and their ``N``.

    Returns ``(tn_u, tm_u, numerators, pair)``: element ``i`` of the inputs
    is the pair ``(tn_u[pair[i]], tm_u[pair[i]])``, and ``numerators[j]`` is
    ``N(tn_u[j], tm_u[j])``, in the dtype of ``weighted_columns``.
    """
    (tns, tn_pos), (tms, tm_pos) = _distinct(tn), _distinct(tm)
    code = tm_pos(tm) * tns.size + tn_pos(tn)
    codes, code_pos = _distinct(code)
    tm_idx, tn_idx = np.divmod(codes, tns.size)
    tn_u, tm_u = tns[tn_idx], tms[tm_idx]
    weighted = weighted_columns(arrays, tm_u, int(tns[-1]))
    numerators = (padded_rows(arrays, tn_u, weighted.dtype) * weighted).sum(axis=1)
    return tn_u, tm_u, numerators, code_pos(code)


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
    weighted = weighted_columns(arrays, tms, int(tns[-1]))
    grid = padded_rows(arrays, tns, weighted.dtype) @ weighted.T  # N(tns[i], tms[j])
    for lo in range(0, out.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        numerators = grid[tn_pos(tn[block]), tm_pos(tm[block])]
        out[block] = divide(arrays, numerators, pn[block])
    return out
