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
how the CSV export keeps its memory bounded). The Pareto front and the
search comparison tell configurations apart by one int64 code per row
(``_config_codes``), whose digits follow the exhaustive loop order. The
front finds repeats with one stable sort of those codes, skipped when they
already ascend, tabulates the parallelism levels, and copies the columns
only when a configuration repeats.
"""

from __future__ import annotations

import bisect
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
    column_numerators,
    divide,
    extract_cost_arrays,
    latency_batch,
    numerator_blocks,
    pair_numerators,
    row_codes,
    weighted_columns,
)
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

    The ranges ascend, so the tm at position ``j`` of ``tm_range`` admits the
    first ``pn_counts[j]`` pn (those with pn·pm < tm) and the first
    ``tn_counts[j]`` tn (those with tn·tm <= capacity) of their ranges:
    ``feasible_counts`` is that table, built once per space.
    """

    tn_range: tuple[int, ...]
    tm_range: tuple[int, ...]
    pn_range: tuple[int, ...]
    pm: int
    capacity: int

    @functools.cached_property
    def feasible_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(pn_counts, tn_counts)``, one entry per tm, by bisection."""
        return (tuple(bisect.bisect_right(self.pn_range, tm // self.pm - 1)
                      for tm in self.tm_range),
                tuple(bisect.bisect_right(self.tn_range, self.capacity // tm)
                      for tm in self.tm_range))

    def feasible_size(self) -> int:
        return sum(map(operator.mul, *self.feasible_counts))

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All feasible points in loop order as (pn, tn, tm) arrays."""
        tn_arr = np.asarray(self.tn_range, dtype=np.int64)
        pn_arr = np.asarray(self.pn_range, dtype=np.int64)
        pns, tns, tms = [pn_arr[:0]], [tn_arr[:0]], [np.empty(0, np.int64)]  # empty when no point
        for tm, npn, ntn in zip(self.tm_range, *self.feasible_counts):
            pns.append(np.repeat(pn_arr[:npn], ntn))
            tns.append(np.tile(tn_arr[:ntn], npn))
            tms.append(np.full(npn * ntn, tm, dtype=np.int64))
        return np.concatenate(pns), np.concatenate(tns), np.concatenate(tms)


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
    tn_range = tuple(range(1, tn_hi + 1, caps.tn_step))

    tm_hi = min(max_m, s)
    if caps.tm_max is not None:
        tm_hi = min(tm_hi, caps.tm_max)
    tm_step = pm * caps.tm_step
    tm_range = tuple(range(pm, tm_hi + 1, tm_step))

    pn_hi = max((tm // pm - 1 for tm in tm_range), default=0)
    if caps.pn_max is not None:
        pn_hi = min(pn_hi, caps.pn_max)
    pn_range = tuple(range(1, pn_hi + 1))

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
    """Evaluate every feasible triple; global minimum, first-in-order ties."""
    start = time.perf_counter()
    arrays = extract_cost_arrays(dag, hw)
    pn, tn, tm = space.point_arrays()
    if pn.shape[0] == 0:
        raise EmptySearchSpaceError("search space has no feasible points")
    lats = latency_batch(arrays, tn, tm, pn)
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
    feasible = [(tm, space.pn_range[npn - 1], ntn)
                for tm, npn, ntn in zip(space.tm_range, *space.feasible_counts) if npn and ntn]
    if not feasible:
        raise EmptySearchSpaceError("search space has no feasible points")
    tms, pns, counts = zip(*feasible)
    counts = np.array(counts, dtype=np.int64)
    weighted = weighted_columns(arrays, tms, space.tn_range[counts.max() - 1])
    bound = weighted @ arrays.cls_n.astype(weighted.dtype)

    # Blocks run in tn order and a block only replaces a column's minimum when
    # strictly lower, so each column keeps its first minimum.
    scored = 0
    for lo, open_, block, valid in numerator_blocks(arrays, weighted, space.tn_range,
                                                    counts, _BLOCK_ELEMS, 1):
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

    latencies = divide(arrays, numerators, np.array(pns, dtype=np.int64)).tolist()
    numerators = numerators.tolist()
    best = 0
    for j in range(1, len(tms)):
        # N/pn < N'/pn' by cross-multiplication (pm·kernels is common); ties keep the first.
        if numerators[j] * pns[best] < numerators[best] * pns[j]:
            best = j
    tns = [space.tn_range[i] for i in tn_idx.tolist()]
    return SearchResult(
        best=Evaluation(TileParams(pns[best], space.pm, tns[best], tms[best]), latencies[best]),
        evaluations_used=scored,
        history=(latencies[best],),
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
        self.pn_values = np.asarray(space.pn_range, dtype=np.int64)
        self.tn_values = np.asarray(space.tn_range, dtype=np.int64)
        self.tm_values = np.asarray(space.tm_range, dtype=np.int64)
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
    non-dominating and all kept. Repeated tile configurations count once,
    with their first evaluation. Output is sorted by (latency, -parallelism,
    tiles). An empty log has no front, and a log whose pn·pm can leave
    int64, or whose tile or pn·pm values spread wider than int64 holds (no
    feasible search reaches either), is rejected; both raise ``SchemaError``.

    The work is linear in the log apart from one stable sort of one int64
    code per row (``_first_evaluations``), which a log in loop order, such
    as the exhaustive one, skips. The parallelism levels are tabulated, and
    one pass of per-level minimum latencies decides the front.
    """
    if len(log) == 0:
        raise SchemaError("pareto_front requires at least one evaluation")
    pn, pm, tn, tm, lat = log.columns()[:5]
    # Every row's pn·pm lies between the products of the columns' extremes.
    ends = [(int(c.min()), int(c.max())) for c in (pn, pm)]
    corners = [a * b for a in ends[0] for b in ends[1]]
    if min(corners) <= -2**63 or max(corners) >= 2**63:  # -par must fit too
        raise SchemaError(f"pareto_front: pn*pm leaves int64 (pn in {ends[0]}, pm in {ends[1]})")
    keep = _first_evaluations(pn, pm, tn, tm)
    if keep is not None:
        pn, pm, tn, tm, lat = (c[keep] for c in (pn, pm, tn, tm, lat))
    # Levels of equal parallelism, in ascending order. A point is dominated
    # iff some point of its level is faster, or some higher level holds a
    # point at least as fast, so a level's fastest points are on the front
    # iff every higher level is slower.
    level, levels = row_codes((pn * pm,))
    fastest = np.full(levels, np.inf)
    np.minimum.at(fastest, level, lat)
    slower_above = np.empty(levels, dtype=bool)
    slower_above[-1] = True
    np.less(fastest[:-1], np.minimum.accumulate(fastest[:0:-1])[::-1], out=slower_above[:-1])
    rows = np.flatnonzero(lat == np.where(slower_above, fastest, np.nan)[level])
    pn, pm, tn, tm, lat = (c[rows] for c in (pn, pm, tn, tm, lat))
    par = pn * pm
    order = np.lexsort((tm, tn, pm, pn, -par, lat))
    return tuple(
        ParetoPoint(TileParams(*t), latency, parallelism)
        for *t, latency, parallelism in zip(*(c[order].tolist()
                                              for c in (pn, pm, tn, tm, lat, par)))
    )


def _config_codes(pn, pm, tn, tm) -> np.ndarray:
    """``row_codes`` of tile columns, most significant digit first in the
    exhaustive loop order (tm, pn, tn, then pm), so a log in that order has
    ascending codes."""
    return row_codes((tm, pn, tn, pm))[0]


def _first_evaluations(pn, pm, tn, tm) -> Optional[np.ndarray]:
    """Mask, in log order, of each configuration's first row; None without repeats.

    One stable sort of the configuration codes puts each configuration's
    repeats right behind its first row. A log whose codes strictly ascend,
    such as the exhaustive one in loop order, has no repeats and is not
    sorted.
    """
    code = _config_codes(pn, pm, tn, tm)
    if np.all(code[1:] > code[:-1]):
        return None
    order = np.argsort(code, kind="stable")
    code = code[order]
    repeat_rows = order[1:][code[1:] == code[:-1]]
    if repeat_rows.shape[0] == 0:
        return None
    keep = np.ones(order.shape[0], dtype=bool)
    keep[repeat_rows] = False
    return keep


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
    # Codes compare only within one call, so the front's rows and the
    # heuristic log's rows are coded together.
    code = _config_codes(*(np.concatenate((f, h)) for f, h in zip(
        np.array([p.tiles.astuple() for p in front], dtype=np.int64).T,
        heur.all_evaluated.columns()[:4])))
    matched = np.isin(code[:len(front)], code[len(front):]).tolist()
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

    Rows go out ``_CSV_BLOCK_ROWS`` at a time, so the export's memory does
    not grow with the log. Per block, each distinct (tn, tm) becomes text
    once, and each run of rows with equal (pn, pm, from_cache), a whole tn
    sweep in the exhaustive log, is one ``str.join``.
    """
    log, arrays = result.all_evaluated, result.arrays
    out.write("pn,pm,tn,tm,matmul_cycles_num,cycles_den,from_cache\n")
    # (pn, pm, from_cache) -> the text before a run's first row, between its
    # rows and after its last row.
    affixes: dict[tuple[int, int, bool], tuple[str, str, str]] = {}
    for lo in range(0, len(log), _CSV_BLOCK_ROWS):
        block = log[lo:lo + _CSV_BLOCK_ROWS]
        if (min(int(c.min()) for c in (block.pn, block.tn, block.tm)) < 1
                or np.any(block.pm != arrays.pm)):
            raise SchemaError(f"evaluations_to_csv: rows {lo}.. hold tiles the cost model "
                              f"cannot score (pm {arrays.pm})")
        tn, tm, numerators, pair = pair_numerators(arrays, block.tn, block.tm)
        if not np.array_equal(divide(arrays, numerators[pair], block.pn), block.latency):
            raise SchemaError(f"evaluations_to_csv: rows {lo}.. hold a latency that differs "
                              "from the cost model's")
        pair_text = np.array([f"{a},{b},{n}" for a, b, n in zip(
            tn.tolist(), tm.tolist(), numerators.tolist())], dtype=object)[pair].tolist()
        keys = (block.pn, block.pm, block.from_cache)
        change = np.zeros(len(block) - 1, dtype=bool)
        for col in keys:
            change |= col[1:] != col[:-1]
        starts = [0, *(np.flatnonzero(change) + 1).tolist()]
        parts = []
        for start, stop, key in zip(starts, starts[1:] + [len(block)],
                                    zip(*(c[starts].tolist() for c in keys))):
            if key not in affixes:
                pn, pm, hit = key
                prefix, suffix = f"{pn},{pm},", f",{pn * pm * arrays.kernels},{hit}\n"
                affixes[key] = (prefix, suffix + prefix, suffix)
            prefix, sep, suffix = affixes[key]
            parts.append(prefix + sep.join(pair_text[start:stop]) + suffix)
        out.write("".join(parts))


def pareto_to_csv(front: Sequence[ParetoPoint]) -> str:
    return csv_text(["pn", "pm", "tn", "tm", "latency_s", "parallelism"],
                    ((*p.tiles.astuple(), repr(p.latency_s), p.parallelism) for p in front))
