"""Design-space exploration over tile parameters.

Three searches share one feasible space and one cost model. The space
tabulates, once, how many pn and how many tn each tm admits
(``SearchSpace.feasible_counts``); every search and the space's own size
and point listing read that table. Every numerator ``N(tn, tm)`` comes from
one product per block of tn rows, ``_latency.numerator_blocks``.

* ``exact_search`` (the default of ``vitmap compile``) uses the cost
  model's structure. Latency is ``nl + N(tn, tm) / (pn·pm·kernels)``: the
  non-linear cycles ``nl`` do not depend on the tiles and the integer
  matmul numerator ``N = Σ_c w_c·R_c(tn)·C_c(tm)`` does not depend on pn.
  Latency therefore strictly decreases in pn at fixed (tn, tm), so every
  tm's optimum sits at its largest feasible pn; as padding only adds, a tm's
  tn scan stops at the bound ``Σ_c w_c·n_c·C_c(tm)``, which tn = 1 meets. It
  returns the point ``exhaustive_search`` would return if it compared exact
  rationals instead of their correctly rounded floats.
* ``exhaustive_search`` scores every feasible (tm, pn, tn) triple in fixed
  loop order (tm outer, pn middle, tn inner) and keeps the first minimum,
  so the first point in loop order wins ties. It is the oracle the other
  two are checked against.
* ``heuristic_search`` (``vitmap search --mode heuristic``, not a compile
  mode) runs an elitist population search: random feasible seeding,
  latency ranking, preservation of the best configurations, and neighbor
  mutations biased toward pn and tm moves, then line sweeps around the
  elites. Its draws come from one ``random.Random`` seeded by the config.
  It works on int codes of range positions, so a move or a sweep is index
  arithmetic, and a cache makes each distinct configuration cost one read
  of its tm's column of numerators ``N(tn, tm)``. The columns of all tms
  first scored together are built by one ``column_numerators`` call;
  together they hold at most ``(S/pm)(1 + ln |tm_range|)`` entries, and
  the full tn × tm grid is never built.

Every search scores through the exact integer cost scorer in ``_latency``,
so each latency it reports equals ``graph_latency``'s bit for bit. Every
search draws only feasible points, so every evaluation is a feasible,
scored point.

Results carry every evaluation made (cache hits flagged) as an
``EvaluationLog``: numpy columns that build ``Evaluation`` rows only when
indexed or iterated, and the ``DagCostArrays`` they were scored with. The
Pareto front, the search comparison and the CSV export work on those
columns directly, so a multi-million-point exhaustive search never
materialises one Python object per point (``evaluations_to_csv`` says
how the CSV export keeps its memory bounded). The cache flags are the only
record of repeated configurations: the front and the comparison skip
flagged rows, the front without copying any column.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from typing import Iterator, Optional, TextIO

import numpy as np

from ._latency import (
    DagCostArrays,
    _distinct,
    column_numerators,
    divide,
    extract_cost_arrays,
    numerator_blocks,
    pair_numerators,
    weighted_columns,
)
# Not called here: the exhaustive search scores its blocks through divide.
# The name stays importable from this module because perfbench's tracer
# resolves it here, so its dse.latency_batch span reads 0 calls for a search
# instead of vanishing.
from ._latency import latency_batch  # noqa: F401
from .errors import EXTENT, EXTENT_MAX, SEED, EmptySearchSpaceError, SchemaError, check, read
from .errors import csv_text, json_text
from .hw import HardwareSpec, TileParams
from .model_ir import Dag

_MUTATION_RETRIES = 10
# A space of at most this many index triples codes its points (``_Sampler``)
# in int64; a larger one, which needs S/pm above 2^21, keeps Python ints.
_INT64_CODES = 2**63
# Running sums of the mutation weights: pn 0.35, tm 0.35, tn 0.15 and a fresh
# random draw 0.15.
_MUTATION_CUM_WEIGHTS = (0.35, 0.7, 0.85)


@dataclass(frozen=True)
class SpaceCaps:
    """Optional coarsening of the enumerated ranges (mainly for tests/CI)."""

    tn_max: Optional[int] = None
    tm_max: Optional[int] = None
    pn_max: Optional[int] = None
    tn_step: int = 1
    tm_step: int = 1  # in multiples of pm

    def __post_init__(self):
        cap = ("int?", 1, EXTENT_MAX)
        check(vars(self), {"tn_max": cap, "tm_max": cap, "pn_max": cap,
                           "tn_step": EXTENT, "tm_step": EXTENT})


@dataclass(frozen=True)
class SearchSpace:
    """Candidate ranges; triples are additionally filtered by feasibility.

    The ranges ascend (``range``s, or tuples), so the tm at position ``j`` of
    ``tm_range`` admits the first ``pn_counts[j]`` pn (those with pn·pm < tm)
    and the first ``tn_counts[j]`` tn (those with tn·tm <= capacity) of their
    ranges: ``feasible_counts`` is that table, built once per space.
    """

    tn_range: Sequence[int]
    tm_range: Sequence[int]
    pn_range: Sequence[int]
    pm: int
    capacity: int

    @functools.cached_property
    def feasible_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(pn_counts, tn_counts)``, one entry per tm, by one binary search per tm."""
        tm = _array(self.tm_range)
        return (tuple(_array(self.pn_range).searchsorted(tm // self.pm - 1, "right").tolist()),
                tuple(_array(self.tn_range).searchsorted(self.capacity // tm, "right").tolist()))

    def feasible_size(self) -> int:
        return sum(map(operator.mul, *self.feasible_counts))

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All feasible points in loop order as (pn, tn, tm) arrays."""
        tn_arr = _array(self.tn_range)
        pn_arr = _array(self.pn_range)
        pns, tns, tms = [pn_arr[:0]], [tn_arr[:0]], [np.empty(0, np.int64)]  # empty when no point
        for tm, npn, ntn in zip(self.tm_range, *self.feasible_counts):
            pns.append(np.repeat(pn_arr[:npn], ntn))
            tns.append(np.tile(tn_arr[:ntn], npn))
            tms.append(np.full(npn * ntn, tm, dtype=np.int64))
        return np.concatenate(pns), np.concatenate(tns), np.concatenate(tms)


def _array(values: Sequence[int]) -> np.ndarray:
    """An int64 array of ``values``; a ``range`` is converted without iterating it."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


def enumerate_space(dag: Dag, hw: HardwareSpec, caps: Optional[SpaceCaps] = None) -> SearchSpace:
    """Candidate ranges derived from the DAG's matmul shapes and the hardware.

    tn spans 1..min(largest matmul row count, S/pm); tm spans multiples of
    pm up to min(largest matmul column count, S); pn spans up to the largest
    tm's pn bound. Caps shrink or coarsen any of the three.
    """
    caps = caps or SpaceCaps()
    mms = dag.matmuls()
    if not mms:
        raise EmptySearchSpaceError("DAG has no matmul nodes")
    pm = hw.pack_factor
    s = hw.onchip_capacity_elems
    max_n = max(n.dims[0] for n in mms)
    max_m = max(n.dims[2] for n in mms)

    tn_hi = min(max_n, s // pm)
    if caps.tn_max is not None:
        tn_hi = min(tn_hi, caps.tn_max)
    tn_range = range(1, tn_hi + 1, caps.tn_step)

    tm_hi = min(max_m, s)
    if caps.tm_max is not None:
        tm_hi = min(tm_hi, caps.tm_max)
    tm_range = range(pm, tm_hi + 1, pm * caps.tm_step)

    pn_hi = tm_range[-1] // pm - 1 if tm_range else 0  # the largest tm's bound
    if caps.pn_max is not None:
        pn_hi = min(pn_hi, caps.pn_max)
    pn_range = range(1, pn_hi + 1)

    space = SearchSpace(tn_range, tm_range, pn_range, pm, s)
    if not tn_range or not tm_range or not pn_range or space.feasible_size() == 0:
        raise EmptySearchSpaceError(
            f"no feasible tile configuration (S={s}, pm={pm}, caps={caps})"
        )
    return space


@dataclass(frozen=True, slots=True)
class Evaluation:
    """Cost-model latency of one feasible configuration."""

    tiles: TileParams
    latency_s: float
    from_cache: bool = False


class EvaluationLog(Sequence[Evaluation]):
    """Read-only, columnar ``Sequence[Evaluation]`` in evaluation order.

    Columns are read-only numpy arrays: ``pn``, ``pm``, ``tn``, ``tm``
    (int64), ``latency`` (float64 seconds) and
    ``from_cache`` (bool). A scalar column value is broadcast without
    copying. Indexing and iteration build ``Evaluation`` rows on demand; a
    slice is another log over views of the same columns.

    Invariant: a configuration's first row is unflagged and each later row
    of it is flagged ``from_cache``. Every search's log holds it, and
    ``pareto_front`` and ``compare_searches`` rely on it.
    """

    __slots__ = ("pn", "pm", "tn", "tm", "latency", "from_cache")
    _DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, np.bool_)

    def __init__(self, pn, pm, tn, tm, latency, from_cache):
        n = len(latency)
        for name, value, dtype in zip(self.__slots__, (pn, pm, tn, tm, latency, from_cache),
                                      self._DTYPES):
            setattr(self, name, np.broadcast_to(np.asarray(value, dtype=dtype), (n,)))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return self.latency.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EvaluationLog(*(c[index] for c in self.columns()))
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError("evaluation index out of range")
        return _row(*(c[i].item() for c in self.columns()))

    def __iter__(self) -> Iterator[Evaluation]:
        return starmap(_row, zip(*(c.tolist() for c in self.columns())))

    def __eq__(self, other):
        if not isinstance(other, EvaluationLog):
            return NotImplemented
        return len(self) == len(other) and all(
            map(np.array_equal, self.columns(), other.columns()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"EvaluationLog({len(self)} evaluations)"


def _row(pn: int, pm: int, tn: int, tm: int, latency: float, from_cache: bool) -> Evaluation:
    return Evaluation(TileParams(pn, pm, tn, tm), latency, from_cache)


# A search config's fields, all optional. An iteration logs set_size rows: at most 1M.
SEARCH_FIELDS = {"set_size": ("int", 1, 1024), "iterations": ("int", 0, 1024), "seed": SEED,
                 "preservation_size": ("int", 1, 1024), "max_evaluations": ("int?", 1, EXTENT_MAX)}


@dataclass(frozen=True)
class SearchConfig:
    """The heuristic search's population, iteration and budget settings.

    ``max_evaluations`` budgets the distinct configurations scored and must
    cover the first population (``set_size``): the population search may use
    three fifths of it, but never less than ``set_size``, and the line sweeps
    stop once the total reaches it.
    """

    set_size: int = 100
    iterations: int = 50
    preservation_size: int = 10
    seed: int = 0
    max_evaluations: Optional[int] = None

    def __post_init__(self):
        check(vars(self), SEARCH_FIELDS)
        if not self.preservation_size < self.set_size:
            raise SchemaError("preservation_size must be < set_size")
        if self.max_evaluations is not None and self.max_evaluations < self.set_size:
            raise SchemaError(f"max_evaluations ({self.max_evaluations}) must be >= "
                              f"set_size ({self.set_size})")

    @classmethod
    def from_doc(cls, doc: dict) -> "SearchConfig":
        return cls(**read(doc, "search config", {}, SEARCH_FIELDS))


@dataclass(frozen=True)
class SearchResult:
    """A search's outcome; ``arrays`` is the cost model its latencies came from.

    ``arrays`` holds numpy columns, so it is left out of ``==``.
    """

    best: Evaluation
    evaluations_used: int
    history: tuple[float, ...]
    all_evaluated: EvaluationLog
    wall_time_s: float
    space: SearchSpace
    arrays: DagCostArrays = field(compare=False)


class _Evaluator:
    """Budgeted scorer of point codes (see ``_Sampler``) with a memo and a row log.

    ``cache`` holds one latency per scored code, in scoring order, and counts
    the evaluations made. ``rows`` logs the code of every answered request;
    a code's first row is its scoring and its later rows are cache hits.
    A tm's numerators ``N(tn, tm)`` over its feasible tn are one column,
    built the first time a point of that tm is scored, so scoring a point
    reads one entry and each ``evaluate`` call divides once.
    """

    def __init__(self, arrays: DagCostArrays, sampler: "_Sampler", budget: Optional[int]):
        self.arrays = arrays
        self.sampler = sampler
        self.budget = budget
        self.cache: dict[int, float] = {}
        self.rows: list[int] = []
        self.columns: dict[int, Callable[[int], int]] = {}  # tm position -> column entry
        self.dtype = np.int64  # object once a column needs Python ints

    def exhausted(self) -> bool:
        return self.budget is not None and len(self.cache) >= self.budget

    def evaluate(self, points: Sequence[int]) -> list[Optional[float]]:
        """Latency per point, None where the budget ran out first; logs the rest."""
        cache = self.cache
        room = math.inf if self.budget is None else self.budget - len(cache)
        fresh: dict[int, None] = {}  # ordered set of new points
        for pt in points:
            if pt not in cache and pt not in fresh:
                if len(fresh) >= room:
                    break
                fresh[pt] = None
        if fresh:
            self._score(fresh)
        lats = [cache.get(pt) for pt in points]
        self.rows.extend(pt for pt, lat in zip(points, lats) if lat is not None)
        return lats

    def _score(self, points) -> None:
        s = self.sampler
        positions = [s.positions(pt) for pt in points]
        columns = self.columns
        new = sorted({itm for itm, _, _ in positions if itm not in columns})
        if new:
            counts = [s.tn_counts[itm] for itm in new]
            flat, starts = column_numerators(self.arrays, s.tm_values[new], s.tn_values, counts)
            columns.update((itm, flat[a:a + n].item)
                           for itm, a, n in zip(new, starts.tolist(), counts))
            if flat.dtype == object:
                self.dtype = object
        numerators = [columns[itm](itn) for itm, itn, _ in positions]
        lats = divide(self.arrays, np.array(numerators, dtype=self.dtype),
                      s.pn_values[[ipn for _, _, ipn in positions]])
        self.cache.update(zip(points, lats.tolist()))

    def best(self) -> int:
        """The first point scored at the lowest latency."""
        return min(self.cache, key=self.cache.__getitem__)

    def log(self) -> EvaluationLog:
        """``rows`` as tile columns, each code's first row unflagged."""
        s = self.sampler
        codes = np.array(self.rows, dtype=s.code_dtype)
        first = np.zeros(codes.shape[0], dtype=bool)
        first[np.unique(codes, return_index=True)[1]] = True
        itm, rest = codes // s.tm_stride, codes % s.tm_stride  # divmod has no object loop
        itn, ipn = rest // s.tn_stride, rest % s.tn_stride
        pn, tn, tm = (values[i.astype(np.int64, copy=False)] for values, i in (
            (s.pn_values, ipn), (s.tn_values, itn), (s.tm_values, itm)))
        lats = np.fromiter(map(self.cache.__getitem__, self.rows), np.float64, codes.shape[0])
        return EvaluationLog(pn, s.space.pm, tn, tm, lats, ~first)


def exhaustive_search(dag: Dag, hw: HardwareSpec, space: SearchSpace) -> SearchResult:
    """Evaluate every feasible triple; global minimum, first-in-order ties.

    The log lists the points in loop order, as ``SearchSpace.point_arrays``
    does, so each tm is one pn × tn block: its rows share one column of
    numerators ``N(tn, tm)`` (``column_numerators``, one call for all tms)
    and differ in ``D = pn·pm·kernels``. Each block is scored by one
    ``divide`` of that column against the block's pn, and the log's columns
    are filled in place, block by block.
    """
    start = time.perf_counter()
    arrays = extract_cost_arrays(dag, hw)
    pn_counts, tn_counts = (np.array(c, dtype=np.int64) for c in space.feasible_counts)
    feasible = np.flatnonzero(pn_counts * tn_counts)
    if not feasible.size:
        raise EmptySearchSpaceError("search space has no feasible points")
    tms = _array(space.tm_range)[feasible]
    pn_counts, tn_counts = pn_counts[feasible], tn_counts[feasible]
    pn_range, tn_range = _array(space.pn_range), _array(space.tn_range)
    numerators, column_at = column_numerators(arrays, tms, tn_range, tn_counts)
    sizes = pn_counts * tn_counts
    block_at = np.cumsum(sizes) - sizes
    pn, tn, tm = (np.empty(int(sizes.sum()), dtype=np.int64) for _ in range(3))
    lats = np.empty(tn.shape[0])
    for tm_j, npn, ntn, col, lo in zip(tms.tolist(), pn_counts.tolist(), tn_counts.tolist(),
                                       column_at.tolist(), block_at.tolist()):
        block = slice(lo, lo + npn * ntn)
        pns = pn_range[:npn, None]
        pn[block].reshape(npn, ntn)[:] = pns
        tn[block].reshape(npn, ntn)[:] = tn_range[:ntn]
        tm[block] = tm_j
        lats[block].reshape(npn, ntn)[:] = divide(arrays, numerators[None, col:col + ntn], pns)
    best_idx = int(np.argmin(lats))  # first occurrence: loop-order tie-break
    log = EvaluationLog(pn, space.pm, tn, tm, lats, False)
    return SearchResult(
        best=log[best_idx],
        evaluations_used=len(log),
        history=(float(lats[best_idx]),),
        all_evaluated=log,
        wall_time_s=time.perf_counter() - start,
        space=space,
        arrays=arrays,
    )


# Elements per block of the exact search's padded rows and products.
_BLOCK_ELEMS = 8192


def exact_search(dag: Dag, hw: HardwareSpec, space: SearchSpace) -> SearchResult:
    """Exact optimum over the feasible space with pn pinned at its bound.

    Latency strictly decreases in pn at fixed (tn, tm), so each tm's best
    point uses its largest feasible pn; the space's table gives each tm
    that pn and its tn count. All tm columns scan their tn in order through
    ``numerator_blocks``, one product per block of tn rows, and take masked
    column minima. Padding only adds, ``R_c(tn) >= n_c``, and weights are
    non-negative, so ``Σ_c w_c·n_c·C_c(tm)`` bounds a column from below, as
    it would under any non-negative extra cost term; a column stops once
    its first minimum meets it, as tn = 1 does. Columns compare exactly as
    ``N / (pn·pm·kernels)``, the first tm winning ties: the first minimum in
    loop order (tm, pn, tn). ``all_evaluated`` holds the column winners;
    ``evaluations_used`` counts the (tn, tm) pairs scored.
    """
    start = time.perf_counter()
    arrays = extract_cost_arrays(dag, hw)
    pn_counts, tn_counts = (np.array(c, dtype=np.int64) for c in space.feasible_counts)
    feasible = np.flatnonzero((pn_counts > 0) & (tn_counts > 0))
    if not feasible.size:
        raise EmptySearchSpaceError("search space has no feasible points")
    tms = _array(space.tm_range)[feasible]
    pns = _array(space.pn_range)[pn_counts[feasible] - 1]
    counts = tn_counts[feasible]
    tn_range = _array(space.tn_range)
    weighted = weighted_columns(arrays, tms, int(tn_range[counts.max() - 1]))
    bound = weighted @ arrays.cls_n.astype(weighted.dtype)

    # Blocks run in tn order and a block only replaces a column's minimum when
    # strictly lower, so each column keeps its first minimum.
    scored = 0
    for lo, open_, block, valid in numerator_blocks(arrays, weighted, tn_range, counts,
                                                    _BLOCK_ELEMS, 1):
        scored += int(valid.sum())
        block = np.where(valid, block, block[:, :1])  # a row's first entry is valid
        i = block.argmin(axis=1)
        low = block[np.arange(open_.size), i]
        if lo == 0:  # every column is open
            numerators, tn_idx = low, i
        else:
            lower = low < numerators[open_]
            numerators[open_[lower]] = low[lower]
            tn_idx[open_[lower]] = lo + i[lower]
        counts[open_[numerators[open_] == bound[open_]]] = 0  # met the bound: closed

    latencies = divide(arrays, numerators, pns)
    # Latency orders columns as N/pn does and its floats are correctly rounded, so the
    # first exact minimum has the lowest float. Ties in N/pn keep the first column.
    first, *others = np.flatnonzero(latencies == latencies.min()).tolist()
    best = first
    for j in others:
        if int(numerators[j]) * int(pns[best]) < int(numerators[best]) * int(pns[j]):
            best = j
    tns = tn_range[tn_idx]
    return SearchResult(
        best=Evaluation(TileParams(int(pns[best]), space.pm, int(tns[best]), int(tms[best])),
                        float(latencies[best])),
        evaluations_used=scored,
        history=(float(latencies[best]),),
        all_evaluated=EvaluationLog(pns, space.pm, tns, tms, latencies, False),
        wall_time_s=time.perf_counter() - start,
        space=space,
        arrays=arrays,
    )


class _Sampler:
    """Index tables of a search space and its uniform feasible draws.

    A point is one int code ``itm·tm_stride + itn·tn_stride + ipn`` of its
    positions in ``tm_range``, ``tn_range`` and ``pn_range``, so a pn step
    adds ±1, a tn step ±``tn_stride``, and a line along pn or tn is a
    ``range`` of codes. ``pn_counts`` and ``tn_counts`` are the space's
    table (``SearchSpace.feasible_counts``): the tm at position ``itm``
    admits the first ``pn_counts[itm]`` pn and the first ``tn_counts[itm]``
    tn of their ranges. ``feasible`` lists the positions of the tms that
    admit both. A draw picks tm first, then pn and tn conditioned on it.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self.pn_values = _array(space.pn_range)
        self.tn_values = _array(space.tn_range)
        self.tm_values = _array(space.tm_range)
        self.pn_counts, self.tn_counts = space.feasible_counts
        self.feasible = [j for j, (npn, ntn) in enumerate(zip(*space.feasible_counts))
                         if npn and ntn]
        if not self.feasible:
            raise EmptySearchSpaceError("no feasible tm candidates")
        self.tn_stride = len(space.pn_range)
        self.tm_stride = self.tn_stride * len(space.tn_range)
        codes = self.tm_stride * len(space.tm_range)
        self.code_dtype = np.int64 if codes <= _INT64_CODES else object

    def draw(self, rng: random.Random) -> int:
        itm = self.feasible[rng.randrange(len(self.feasible))]
        ipn = rng.randrange(self.pn_counts[itm])
        itn = rng.randrange(self.tn_counts[itm])
        return self.code(itm, itn, ipn)

    def code(self, itm: int, itn: int, ipn: int) -> int:
        return itm * self.tm_stride + itn * self.tn_stride + ipn

    def positions(self, code: int) -> tuple[int, int, int]:
        """``(itm, itn, ipn)`` of a code."""
        itm, rest = divmod(code, self.tm_stride)
        return (itm, *divmod(rest, self.tn_stride))

    def point(self, code: int) -> tuple[int, int, int]:
        """The (pn, tn, tm) values of a code."""
        itm, itn, ipn = self.positions(code)
        return self.space.pn_range[ipn], self.space.tn_range[itn], self.space.tm_range[itm]


def _mutate(sampler: _Sampler, parent: int, rng: random.Random) -> int:
    """Step one parameter to a neighboring feasible candidate; resample on dead ends.

    A tm step clamps pn to the new tm's bound. A step that leaves the
    feasible space is retried.
    """
    s = sampler
    itm, itn, ipn = s.positions(parent)
    c_pn, c_tm, c_tn = _MUTATION_CUM_WEIGHTS
    for _ in range(_MUTATION_RETRIES):
        r = rng.random()
        step = -1 if rng.random() < 0.5 else 1
        if r < c_pn:
            if 0 <= ipn + step < s.pn_counts[itm]:
                return parent + step
        elif r < c_tm:
            j = itm + step
            # The table's tn count at the new tm says whether tn·tm <= S still holds.
            if 0 <= j < len(s.pn_counts) and s.pn_counts[j] > 0 and itn < s.tn_counts[j]:
                return s.code(j, itn, min(ipn, s.pn_counts[j] - 1))
        elif r < c_tn:
            if 0 <= itn + step < s.tn_counts[itm]:
                return parent + step * s.tn_stride
        else:
            return s.draw(rng)
    return s.draw(rng)


def heuristic_search(dag: Dag, hw: HardwareSpec, space: SearchSpace,
                     cfg: SearchConfig) -> SearchResult:
    """Elitist population search, then line sweeps around its elites.

    Deterministic for a fixed seed: every random draw is a ``random()`` or
    ``randrange(n)`` of one ``random.Random(cfg.seed)``, and evaluation
    batching never influences the draw sequence. ``history`` holds the best
    latency after the initial population, after each iteration and, last,
    after the line sweeps.

    Points are int codes of range positions (``_Sampler``), and the moves
    and sweeps are index arithmetic on them. A point is scored from its
    tm's column of numerators ``N(tn, tm)``, built once when the tm is
    first scored; the full tn × tm grid is never built. The columns hold at
    most ``Σ_tm min(|tn_range|, S // tm) <= (S/pm)(1 + ln |tm_range|)``
    entries (under 4 MB on vu9p for any model).
    """
    start = time.perf_counter()
    sampler = _Sampler(space)
    rng = random.Random(cfg.seed)
    main_budget = cfg.max_evaluations
    if cfg.max_evaluations is not None:
        # Reserve part of the budget for the line-sweep refinement phase.
        main_budget = max(cfg.set_size, (cfg.max_evaluations * 3) // 5)
    ev = _Evaluator(extract_cost_arrays(dag, hw), sampler, main_budget)

    # The budget covers at least one population, so the first one is fully
    # scored, and every later one holds the scored elites.
    population = [sampler.draw(rng) for _ in range(cfg.set_size)]
    ranked = sorted((l, i) for i, l in enumerate(ev.evaluate(population)) if l is not None)
    history = [ranked[0][0]]

    for _ in range(cfg.iterations):
        if ev.exhausted():
            break
        elites = [population[i] for _, i in ranked[: cfg.preservation_size]]
        offspring = [
            _mutate(sampler, elites[rng.randrange(len(elites))], rng)
            for _ in range(cfg.set_size - len(elites))
        ]
        population = elites + offspring
        ranked = sorted((l, i) for i, l in enumerate(ev.evaluate(population)) if l is not None)
        history.append(min(history[-1], ranked[0][0]))

    ev.budget = cfg.max_evaluations
    _refine(ev, [population[i] for _, i in ranked[: cfg.preservation_size]])
    # Second round around whatever the first sweeps uncovered.
    _refine(ev, [ev.best()])

    best = ev.best()
    history.append(ev.cache[best])
    pn, tn, tm = sampler.point(best)
    return SearchResult(
        best=Evaluation(TileParams(pn, space.pm, tn, tm), ev.cache[best]),
        evaluations_used=len(ev.cache),
        history=tuple(history),
        all_evaluated=ev.log(),
        wall_time_s=time.perf_counter() - start,
        space=space,
        arrays=ev.arrays,
    )


def _refine(ev: _Evaluator, elites: Sequence[int]) -> None:
    """Line sweeps along each parameter axis around the elite tiles.

    Per elite, in rank order: every feasible pn for its (tn, tm); every tm
    with pn pinned at that tm's bound (reaches the high-parallelism columns
    mutation rarely visits); every tn for its (pn, tm). Deterministic order,
    budget-guarded by the evaluator, deduplicated across elites.
    """
    s = ev.sampler
    done_pn_lines: set[int] = set()  # codes of (tn, tm) with the first pn
    done_tm_lines: set[int] = set()  # tn positions
    done_tn_lines: set[int] = set()  # codes of (pn, tm) with the first tn
    for code in elites:
        if ev.exhausted():
            return
        itm, itn, ipn = s.positions(code)
        line = code - ipn
        if line not in done_pn_lines:
            done_pn_lines.add(line)
            ev.evaluate(range(line, line + s.pn_counts[itm]))
        if itn not in done_tm_lines and not ev.exhausted():
            done_tm_lines.add(itn)
            ev.evaluate([s.code(j, itn, s.pn_counts[j] - 1)
                         for j in s.feasible if itn < s.tn_counts[j]])
        line = code - itn * s.tn_stride
        if line not in done_tn_lines and not ev.exhausted():
            done_tn_lines.add(line)
            ev.evaluate(range(line, line + s.tn_counts[itm] * s.tn_stride, s.tn_stride))


@dataclass(frozen=True)
class ParetoPoint:
    tiles: TileParams
    latency_s: float
    parallelism: int


def pareto_front(log: EvaluationLog) -> tuple[ParetoPoint, ...]:
    """Maximal non-dominated set for (latency ascending, pn*pm descending).

    A point dominates another iff its latency is <= and its parallelism >=
    with at least one strict. Ties on both objectives are mutually
    non-dominating and all kept. Rows flagged ``from_cache`` are skipped, so
    each configuration counts once, with its first evaluation (the log's
    invariant). Output is sorted by (latency, -parallelism, tiles). An empty
    log has no front, and a log whose first row is flagged, whose pn or pm
    falls below 1 or whose pn·pm can leave int64 (no feasible search makes
    either) is rejected; all raise ``SchemaError``.

    The work is one pass of comparisons over the log: each run of rows with
    equal (pn, pm, from_cache), a whole tn sweep in the exhaustive log, is
    reduced to its minimum latency, the flagged runs are dropped, and the
    parallelism levels and their minima are taken over the run minima.
    """
    if len(log) == 0 or log.from_cache[0]:
        raise SchemaError("pareto_front requires at least one evaluation, the first not "
                          "from cache")
    pn, pm, tn, tm, lat, cached = log.columns()
    if min(int(pn.min()), int(pm.min())) < 1:
        raise SchemaError("pareto_front: pn and pm must be >= 1")
    if int(pn.max()) * int(pm.max()) >= 2**63:
        raise SchemaError(f"pareto_front: pn*pm leaves int64 (pn up to {int(pn.max())}, "
                          f"pm up to {int(pm.max())})")
    # Runs of rows with equal (pn, pm, from_cache); the flagged rows between
    # two unflagged ones make one run, which is dropped.
    change = pn[1:] != pn[:-1]
    change |= pm[1:] != pm[:-1]
    change[cached[1:]] = False
    change |= cached[1:] != cached[:-1]
    starts = np.append(0, np.flatnonzero(change) + 1)
    stops = np.append(starts[1:], len(log))
    fresh = ~cached[starts]
    fastest_in_run = np.minimum.reduceat(lat, starts)[fresh]
    starts, stops = starts[fresh], stops[fresh]
    # Levels of equal parallelism, in ascending order. A point is dominated
    # iff some point of its level is faster, or some higher level holds a
    # point at least as fast, so a level's fastest points are on the front
    # iff every higher level is slower.
    par = pn[starts] * pm[starts]
    levels, position = _distinct(par)
    level = position(par)
    fastest = np.full(levels.size, np.inf)
    np.minimum.at(fastest, level, fastest_in_run)
    slower_above = np.empty(levels.size, dtype=bool)
    slower_above[-1] = True
    np.less(fastest[:-1], np.minimum.accumulate(fastest[:0:-1])[::-1], out=slower_above[:-1])
    on_front = fastest_in_run == np.where(slower_above, fastest, np.nan)[level]
    # The rows of the runs on the front, and of those the ones at the run's minimum.
    starts, stops, fastest_in_run = starts[on_front], stops[on_front], fastest_in_run[on_front]
    sizes = stops - starts
    rows = np.arange(int(sizes.sum())) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    rows = rows[lat[rows] == np.repeat(fastest_in_run, sizes)]
    pn, pm, tn, tm, lat = (c[rows] for c in (pn, pm, tn, tm, lat))
    par = pn * pm
    order = np.lexsort((tm, tn, pm, pn, -par, lat))
    return tuple(
        ParetoPoint(TileParams(*t), latency, parallelism)
        for *t, latency, parallelism in zip(*(c[order].tolist()
                                              for c in (pn, pm, tn, tm, lat, par)))
    )


@dataclass(frozen=True)
class ComparisonReport:
    evaluation_ratio: float
    best_latency_gap_rel: float
    pareto_coverage: float
    pareto_point_coverage: float
    wall_clock_ratio: float
    exhaustive_evaluations: int
    heuristic_evaluations: int
    pareto_front_size: int

    def to_json(self) -> str:
        return json_text(vars(self))


def compare_searches(exh: SearchResult, heur: SearchResult,
                     front: Sequence[ParetoPoint]) -> ComparisonReport:
    """Efficiency and quality comparison of two searches over the same space.

    ``front`` is ``pareto_front(exh.all_evaluated)``. Every field is a
    function of the two searches' inputs except ``wall_clock_ratio``, which
    divides measured wall times.
    """
    if exh.space != heur.space:
        raise SchemaError("search results cover different spaces")
    log = heur.all_evaluated
    fresh = ~log.from_cache
    seen = set(zip(*(c[fresh].tolist() for c in log.columns()[:4])))
    matched = [p.tiles.astuple() in seen for p in front]
    pairs: dict[tuple[float, int], bool] = {}
    for p, hit in zip(front, matched):
        key = (p.latency_s, p.parallelism)
        pairs[key] = pairs.get(key, False) or hit
    return ComparisonReport(
        evaluation_ratio=heur.evaluations_used / exh.evaluations_used,
        best_latency_gap_rel=(heur.best.latency_s - exh.best.latency_s) / exh.best.latency_s,
        pareto_coverage=sum(pairs.values()) / len(pairs),
        pareto_point_coverage=sum(matched) / len(front),
        wall_clock_ratio=heur.wall_time_s / exh.wall_time_s if exh.wall_time_s > 0 else math.inf,
        exhaustive_evaluations=exh.evaluations_used,
        heuristic_evaluations=heur.evaluations_used,
        pareto_front_size=len(front),
    )


def search_summary_json(result: SearchResult) -> str:
    """Deterministic JSON summary of a search: best point, budget, history.

    ``nonlinear_cycles`` and ``frequency_hz`` turn the CSV log's integer
    columns back into each latency (see ``evaluations_to_csv``).
    """
    return json_text({
        "best": {
            "pn": result.best.tiles.pn, "pm": result.best.tiles.pm,
            "tn": result.best.tiles.tn, "tm": result.best.tiles.tm,
            "latency_s": result.best.latency_s,
        },
        "evaluations_used": result.evaluations_used,
        "evaluations_logged": len(result.all_evaluated),
        "space_size": result.space.feasible_size(),
        "history": list(result.history),
        "nonlinear_cycles": result.arrays.nl_cycles,
        "frequency_hz": float(result.arrays.frequency),
    })


# Rows per block of the CSV export. Every temporary of the export is bounded
# by it, whatever the log's length or the range of its values.
_CSV_BLOCK_ROWS = 32768


def evaluations_to_csv(result: SearchResult, out: TextIO) -> None:
    """Write one row per evaluation to ``out``.

    Columns: pn, pm, tn, tm, matmul_cycles_num, cycles_den, from_cache.
    ``matmul_cycles_num`` is the integer matmul numerator ``N(tn, tm)`` and
    ``cycles_den`` is ``D = pn·pm·kernels``, so a row's latency is exactly
    ``(N/D + nonlinear_cycles) / frequency_hz`` with the last two from
    ``search_summary_json``; ``float()`` of that rational is the logged
    latency bit for bit. Each block's numerators are checked against the
    log's latencies, and a mismatch raises ``SchemaError``: the file never
    describes a different number than the log.

    The log's numerators are computed once, by ``pair_numerators``, and
    each (tn, tm) among them becomes text the first time a row uses it.
    Rows go out ``_CSV_BLOCK_ROWS`` at a time: beyond a block, the export
    holds the numerators and texts of the log's tm columns and what
    ``pair_numerators`` needs to find the distinct tn and tm. A block is
    cut into segments of rows with equal (pn, pm, from_cache) whose (tn, tm)
    entries are consecutive, a whole tn sweep in the exhaustive log, and
    each segment is one ``str.join`` of a slice of the pair texts.
    """
    log, arrays = result.all_evaluated, result.arrays
    out.write("pn,pm,tn,tm,matmul_cycles_num,cycles_den,from_cache\n")
    columns = log.columns()
    blocks = [(lo, [c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])
              for lo in range(0, len(log), _CSV_BLOCK_ROWS)]
    for lo, (pn, pm, tn, tm, _, _) in blocks:
        if min(int(c.min()) for c in (pn, tn, tm)) < 1 or np.any(pm != arrays.pm):
            raise SchemaError(f"evaluations_to_csv: rows {lo}.. hold tiles the cost model "
                              f"cannot score (pm {arrays.pm})")
    if not blocks:
        return
    pair_tn, pair_tm, numerators, pair = pair_numerators(arrays, log.tn, log.tm)
    texts: list[Optional[str]] = [None] * len(numerators)  # "tn,tm,N" once a row uses it
    formatted = np.zeros(len(numerators), dtype=bool)
    # (pn, pm, from_cache) -> the text before a segment's first row, between its
    # rows and after its last row.
    affixes: dict[tuple[int, int, bool], tuple[str, str, str]] = {}
    for lo, (pn, pm, tn, tm, latency, from_cache) in blocks:
        entry = pair(tn, tm)
        if not np.array_equal(divide(arrays, numerators[entry], pn), latency):
            raise SchemaError(f"evaluations_to_csv: rows {lo}.. hold a latency that differs "
                              "from the cost model's")
        used = np.zeros(len(numerators), dtype=bool)
        used[entry] = True
        new = np.flatnonzero(used & ~formatted)
        formatted |= used
        for j, a, b, n in zip(new.tolist(), pair_tn[new].tolist(), pair_tm[new].tolist(),
                              numerators[new].tolist()):
            texts[j] = f"{a},{b},{n}"
        keys = (pn, pm, from_cache)
        change = np.diff(entry) != 1
        for col in keys:
            change |= col[1:] != col[:-1]
        lasts = np.append(np.flatnonzero(change), len(entry) - 1)  # each segment's last row
        starts = np.append(0, lasts[:-1] + 1)
        parts = []
        for first, last, key in zip(entry[starts].tolist(), entry[lasts].tolist(),
                                    zip(*(c[starts].tolist() for c in keys))):
            try:
                prefix, sep, suffix = affixes[key]
            except KeyError:
                p, m, hit = key
                prefix, suffix = f"{p},{m},", f",{p * m * arrays.kernels},{hit}\n"
                prefix, sep, suffix = affixes[key] = prefix, suffix + prefix, suffix
            parts += (prefix, texts[first] if first == last else sep.join(texts[first:last + 1]),
                      suffix)
        out.write("".join(parts))


def pareto_to_csv(front: Sequence[ParetoPoint]) -> str:
    return csv_text(["pn", "pm", "tn", "tm", "latency_s", "parallelism"],
                    ((*p.tiles.astuple(), repr(p.latency_s), p.parallelism) for p in front))
