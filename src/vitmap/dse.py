"""Design-space exploration over tile parameters.

Two searches share one cost evaluator and one feasibility filter:

* ``exhaustive_search`` walks every feasible (tm, pn, tn) triple in fixed
  loop order (tm outer, pn middle, tn inner) and keeps strict improvements,
  so the first point in loop order wins ties.
* ``heuristic_search`` runs an elitist population search: random feasible
  seeding, latency ranking, preservation of the best configurations, and
  neighbor mutations biased toward pn and tm moves, with an evaluation
  cache so each distinct configuration costs at most one evaluator call.

Results carry every evaluation made (cache hits flagged) as an
``EvaluationLog``: numpy columns that build ``Evaluation`` rows only when
indexed or iterated. The Pareto front, the search comparison and the CSV
export work on those columns directly, so a multi-million-point exhaustive
search never materialises one Python object per point.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from typing import Iterator, Optional

import numpy as np

from ._latency import DagCostArrays, extract_cost_arrays, latency_batch
from .errors import EmptySearchSpaceError, SchemaError
from .hw import HardwareSpec, TileParams
from .model_ir import Dag

_MUTATION_RETRIES = 10


@dataclass(frozen=True)
class SpaceCaps:
    """Optional coarsening of the enumerated ranges (mainly for tests/CI)."""

    tn_max: Optional[int] = None
    tm_max: Optional[int] = None
    pn_max: Optional[int] = None
    tn_step: int = 1
    tm_step: int = 1  # in multiples of pm

    def __post_init__(self):
        if self.tn_step < 1 or self.tm_step < 1:
            raise SchemaError("range steps must be >= 1")


@dataclass(frozen=True)
class SearchSpace:
    """Candidate ranges; triples are additionally filtered by feasibility."""

    tn_range: tuple[int, ...]
    tm_range: tuple[int, ...]
    pn_range: tuple[int, ...]
    pm: int
    capacity: int

    def max_pn_for_tm(self, tm: int) -> int:
        return (tm // self.pm) - 1

    def pn_count(self, tm: int) -> int:
        """Candidates in pn_range with pn * pm < tm (pn_range is ascending)."""
        return bisect.bisect_right(self.pn_range, self.max_pn_for_tm(tm))

    def tn_count(self, tm: int) -> int:
        """Candidates in tn_range with tn * tm <= capacity."""
        return bisect.bisect_right(self.tn_range, self.capacity // tm)

    def feasible_size(self) -> int:
        return sum(self.pn_count(tm) * self.tn_count(tm) for tm in self.tm_range)

    def iter_points(self) -> Iterator[tuple[int, int, int]]:
        """Feasible (pn, tn, tm) triples in exhaustive loop order."""
        for tm in self.tm_range:
            for pn in self.pn_range[: self.pn_count(tm)]:
                for tn in self.tn_range[: self.tn_count(tm)]:
                    yield (pn, tn, tm)

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All feasible points in loop order as (pn, tn, tm) arrays."""
        pns, tns, tms = [], [], []
        tn_arr = np.asarray(self.tn_range, dtype=np.int64)
        pn_arr = np.asarray(self.pn_range, dtype=np.int64)
        for tm in self.tm_range:
            npn = self.pn_count(tm)
            ntn = self.tn_count(tm)
            if npn == 0 or ntn == 0:
                continue
            pns.append(np.repeat(pn_arr[:npn], ntn))
            tns.append(np.tile(tn_arr[:ntn], npn))
            tms.append(np.full(npn * ntn, tm, dtype=np.int64))
        if not pns:
            return (np.empty(0, np.int64),) * 3
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
    """Cost-model result for one configuration; latency None when infeasible."""

    tiles: TileParams
    latency_s: Optional[float]
    from_cache: bool = False

    @property
    def feasible(self) -> bool:
        return self.latency_s is not None


class EvaluationLog(Sequence[Evaluation]):
    """Read-only, columnar ``Sequence[Evaluation]`` in evaluation order.

    Columns are read-only numpy arrays: ``pn``, ``pm``, ``tn``, ``tm``
    (int64), ``latency`` (float64 seconds, NaN where infeasible) and
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

    @classmethod
    def of(cls, evals: Sequence[Evaluation]) -> "EvaluationLog":
        """``evals`` itself when it is a log, else its rows as columns."""
        if isinstance(evals, cls):
            return evals
        rows = [(e.tiles.pn, e.tiles.pm, e.tiles.tn, e.tiles.tm,
                 math.nan if e.latency_s is None else e.latency_s, e.from_cache)
                for e in evals]
        return cls(*(zip(*rows) if rows else [()] * 6))

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
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            for a, b in zip(self.columns(), other.columns()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"EvaluationLog({len(self)} evaluations)"


def _row(pn: int, pm: int, tn: int, tm: int, latency: float, from_cache: bool) -> Evaluation:
    return Evaluation(TileParams(pn, pm, tn, tm),
                      None if math.isnan(latency) else latency, from_cache)


@dataclass(frozen=True)
class SearchConfig:
    set_size: int = 100
    iterations: int = 50
    preservation_size: int = 10
    seed: int = 0
    mutation_bias: tuple[float, float, float, float] = (0.35, 0.35, 0.15, 0.15)
    max_evaluations: Optional[int] = None
    use_cache: bool = True
    refine: bool = True

    def __post_init__(self):
        if self.set_size < 1 or self.iterations < 0 or self.preservation_size < 1:
            raise SchemaError("set_size/preservation_size must be >= 1, iterations >= 0")
        if not self.preservation_size < self.set_size:
            raise SchemaError("preservation_size must be < set_size")
        if len(self.mutation_bias) != 4 or any(w < 0 for w in self.mutation_bias):
            raise SchemaError("mutation_bias must be 4 non-negative weights")
        if abs(sum(self.mutation_bias) - 1.0) > 1e-9:
            raise SchemaError("mutation_bias weights must sum to 1")

    @classmethod
    def from_doc(cls, doc: dict) -> "SearchConfig":
        kwargs = dict(doc)
        unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise SchemaError(f"unknown search-config fields: {sorted(unknown)}")
        if "mutation_bias" in kwargs:
            kwargs["mutation_bias"] = tuple(kwargs["mutation_bias"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SearchResult:
    best: Evaluation
    evaluations_used: int
    history: tuple[float, ...]
    all_evaluated: EvaluationLog
    wall_time_s: float
    space: SearchSpace


class _Evaluator:
    """Cost evaluator with a memo keyed by (pn, tn, tm); counts misses."""

    def __init__(self, arrays: DagCostArrays, space: SearchSpace,
                 use_cache: bool = True, budget: Optional[int] = None):
        self.arrays = arrays
        self.space = space
        self.use_cache = use_cache
        self.budget = budget
        self.cache: dict[tuple[int, int, int], float] = {}
        self.misses = 0

    def exhausted(self) -> bool:
        return self.budget is not None and self.misses >= self.budget

    def evaluate(self, points: Sequence[tuple[int, int, int]]) -> list[Optional[float]]:
        """Latency per point; None when the budget ran out before evaluation."""
        fresh = []
        seen = set()
        for pt in points:
            if pt in seen:
                continue
            if not (self.use_cache and pt in self.cache):
                if self.budget is not None and self.misses + len(fresh) >= self.budget:
                    continue
                fresh.append(pt)
                if self.use_cache:
                    seen.add(pt)
        if fresh:
            pn = np.array([p[0] for p in fresh], dtype=np.int64)
            tn = np.array([p[1] for p in fresh], dtype=np.int64)
            tm = np.array([p[2] for p in fresh], dtype=np.int64)
            lats = latency_batch(self.arrays, tn, tm, pn)
            self.misses += len(fresh)
            for pt, lat in zip(fresh, lats):
                self.cache[pt] = float(lat)
        return [self.cache.get(pt) for pt in points]


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
    )


class _Sampler:
    """Uniform feasible sampling: tm first, then pn and tn conditioned on it."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.feasible_tms = [
            tm for tm in space.tm_range if space.pn_count(tm) > 0 and space.tn_count(tm) > 0
        ]
        if not self.feasible_tms:
            raise EmptySearchSpaceError("no feasible tm candidates")

    def draw(self, rng: np.random.Generator) -> tuple[int, int, int]:
        tm = self.feasible_tms[int(rng.integers(len(self.feasible_tms)))]
        pn = self.space.pn_range[int(rng.integers(self.space.pn_count(tm)))]
        tn = self.space.tn_range[int(rng.integers(self.space.tn_count(tm)))]
        return (pn, tn, tm)


def _point_feasible(space: SearchSpace, pt: tuple[int, int, int]) -> bool:
    pn, tn, tm = pt
    return (
        pn >= 1 and pn * space.pm < tm
        and tn >= 1 and tn * tm <= space.capacity
    )


def _mutate(space: SearchSpace, sampler: _Sampler, parent: tuple[int, int, int],
            cum_bias: tuple[float, float, float, float], rng: np.random.Generator,
            ) -> tuple[int, int, int]:
    """Step one parameter to a neighboring candidate; resample on dead ends.

    ``cum_bias`` is the running sum of ``SearchConfig.mutation_bias``.
    """
    c_pn, c_tm, c_tn, _ = cum_bias
    for _ in range(_MUTATION_RETRIES):
        r = rng.random()
        step = -1 if rng.random() < 0.5 else 1
        pn, tn, tm = parent
        if r < c_pn:
            idx = bisect.bisect_left(space.pn_range, pn) + step
            if not 0 <= idx < len(space.pn_range):
                continue
            cand = (space.pn_range[idx], tn, tm)
        elif r < c_tm:
            idx = bisect.bisect_left(space.tm_range, tm) + step
            if not 0 <= idx < len(space.tm_range):
                continue
            new_tm = space.tm_range[idx]
            cand = (min(pn, max(space.max_pn_for_tm(new_tm), 1)), tn, new_tm)
        elif r < c_tn:
            idx = bisect.bisect_left(space.tn_range, tn) + step
            if not 0 <= idx < len(space.tn_range):
                continue
            cand = (pn, space.tn_range[idx], tm)
        else:
            return sampler.draw(rng)
        if cand != parent and _point_feasible(space, cand):
            return cand
    return sampler.draw(rng)


def heuristic_search(dag: Dag, hw: HardwareSpec, space: SearchSpace,
                     cfg: SearchConfig) -> SearchResult:
    """Elitist population search with an evaluation cache.

    Deterministic for a fixed seed: every random draw comes from one
    generator, and evaluation batching never influences the draw sequence.
    """
    start = time.perf_counter()
    arrays = extract_cost_arrays(dag, hw)
    sampler = _Sampler(space)
    rng = np.random.default_rng(cfg.seed)
    main_budget = cfg.max_evaluations
    if cfg.max_evaluations is not None and cfg.refine:
        # Reserve part of the budget for the line-sweep refinement phase.
        main_budget = max(cfg.set_size, (cfg.max_evaluations * 3) // 5)
    ev = _Evaluator(arrays, space, use_cache=cfg.use_cache, budget=main_budget)
    cum_bias = tuple(np.cumsum(cfg.mutation_bias).tolist())

    rows: list[tuple[int, int, int, float, bool]] = []  # pn, tn, tm, latency, from_cache
    seen_points: set[tuple[int, int, int]] = set()

    def record(points, lats):
        for pt, lat in zip(points, lats):
            if lat is None:
                continue
            rows.append((*pt, lat, pt in seen_points))
            seen_points.add(pt)

    def best_fresh() -> int:
        """Index of the first lowest-latency row that was not a cache hit."""
        return min((i for i, r in enumerate(rows) if not r[4]), key=lambda i: rows[i][3])

    population = [sampler.draw(rng) for _ in range(cfg.set_size)]
    lats = ev.evaluate(population)
    record(population, lats)
    ranked = sorted(
        (l, i) for i, l in enumerate(lats) if l is not None
    )
    if not ranked:
        raise EmptySearchSpaceError("could not evaluate any feasible configuration")
    history = [ranked[0][0]]

    for _ in range(cfg.iterations):
        if ev.exhausted():
            break
        elites = [population[i] for _, i in ranked[: cfg.preservation_size]]
        offspring = [
            _mutate(space, sampler, elites[int(rng.integers(len(elites)))], cum_bias, rng)
            for _ in range(cfg.set_size - len(elites))
        ]
        population = elites + offspring
        lats = ev.evaluate(population)
        record(population, lats)
        ranked = sorted((l, i) for i, l in enumerate(lats) if l is not None)
        if not ranked:
            break
        history.append(min(history[-1], ranked[0][0]))

    if cfg.refine:
        ev.budget = cfg.max_evaluations
        _refine(space, ev, record, [population[i] for _, i in ranked[: cfg.preservation_size]])
        # Second round around whatever the first sweeps uncovered.
        _refine(space, ev, record, [rows[best_fresh()][:3]])

    pn, tn, tm, lat, hit = zip(*rows)
    log = EvaluationLog(pn, space.pm, tn, tm, lat, hit)
    return SearchResult(
        best=log[best_fresh()],
        evaluations_used=ev.misses,
        history=tuple(history),
        all_evaluated=log,
        wall_time_s=time.perf_counter() - start,
        space=space,
    )


def _refine(space: SearchSpace, ev: _Evaluator, record, elites) -> None:
    """Line sweeps along each parameter axis around the elite tiles.

    Per elite, in rank order: every feasible pn for its (tn, tm); every tm
    with pn pinned at that tm's bound (reaches the high-parallelism columns
    mutation rarely visits); every tn for its (pn, tm). Deterministic order,
    budget-guarded by the evaluator, deduplicated across elites.
    """
    done_pn_lines: set[tuple[int, int]] = set()
    done_tm_lines: set[int] = set()
    done_tn_lines: set[tuple[int, int]] = set()
    for pn, tn, tm in elites:
        if ev.exhausted():
            return
        if (tn, tm) not in done_pn_lines:
            done_pn_lines.add((tn, tm))
            points = [(p, tn, tm) for p in space.pn_range[: space.pn_count(tm)]]
            record(points, ev.evaluate(points))
        if tn not in done_tm_lines and not ev.exhausted():
            done_tm_lines.add(tn)
            points = [
                (space.pn_range[space.pn_count(t) - 1], tn, t)
                for t in space.tm_range
                if space.pn_count(t) > 0 and tn * t <= space.capacity
            ]
            record(points, ev.evaluate(points))
        if (pn, tm) not in done_tn_lines and not ev.exhausted():
            done_tn_lines.add((pn, tm))
            points = [(pn, t, tm) for t in space.tn_range[: space.tn_count(tm)]]
            record(points, ev.evaluate(points))


@dataclass(frozen=True)
class ParetoPoint:
    tiles: TileParams
    latency_s: float
    parallelism: int


def pareto_front(evals: Sequence[Evaluation]) -> tuple[ParetoPoint, ...]:
    """Maximal non-dominated set for (latency ascending, pn*pm descending).

    A point dominates another iff its latency is <= and its parallelism >=
    with at least one strict. Ties on both objectives are mutually
    non-dominating and all kept. Repeated tile configurations count once,
    with their first evaluation. Output is sorted by (latency, -parallelism,
    tiles).
    """
    log = EvaluationLog.of(evals)
    feasible = ~np.isnan(log.latency)
    if not feasible.any():
        raise SchemaError("pareto_front requires at least one feasible evaluation")
    pn, pm, tn, tm, lat = (c[feasible] for c in log.columns()[:5])
    # First evaluation of each tile configuration: lexsort is stable.
    order = np.lexsort((tm, tn, pm, pn))
    pn, pm, tn, tm, lat = (c[order] for c in (pn, pm, tn, tm, lat))
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = ((pn[1:] != pn[:-1]) | (pm[1:] != pm[:-1])
                 | (tn[1:] != tn[:-1]) | (tm[1:] != tm[:-1]))
    pn, pm, tn, tm, lat = (c[first] for c in (pn, pm, tn, tm, lat))
    par = pn * pm
    # A point is dominated iff some point of equal parallelism is faster, or
    # some point of higher parallelism is at least as fast.
    levels, level = np.unique(par, return_inverse=True)
    fastest = np.full(levels.shape[0], np.inf)
    np.minimum.at(fastest, level, lat)
    fastest_above = np.full_like(fastest, np.inf)
    np.minimum.accumulate(fastest[:0:-1], out=fastest_above[-2::-1])
    top = level == levels.shape[0] - 1
    on_front = (lat == fastest[level]) & (top | (lat < fastest_above[level]))
    pn, pm, tn, tm, lat, par = (c[on_front] for c in (pn, pm, tn, tm, lat, par))
    order = np.lexsort((tm, tn, pm, pn, -par, lat))
    return tuple(
        ParetoPoint(TileParams(*t), latency, parallelism)
        for *t, latency, parallelism in zip(*(c[order].tolist()
                                              for c in (pn, pm, tn, tm, lat, par)))
    )


def _tile_rows(pn, pm, tn, tm) -> np.ndarray:
    """One opaque comparable element per (pn, pm, tn, tm) row."""
    rows = np.ascontiguousarray(np.stack((pn, pm, tn, tm), axis=1), dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * 4))).ravel()


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
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def compare_searches(exh: SearchResult, heur: SearchResult) -> ComparisonReport:
    """Efficiency and quality comparison of two searches over the same space.

    Every field is a function of the two searches' inputs except
    ``wall_clock_ratio``, which divides measured wall times.
    """
    if exh.space != heur.space:
        raise SchemaError("search results cover different spaces")
    front = pareto_front(exh.all_evaluated)
    matched = np.isin(
        _tile_rows(*zip(*(p.tiles.astuple() for p in front))),
        _tile_rows(*heur.all_evaluated.columns()[:4])).tolist()
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
    """Deterministic JSON summary of a search: best point, budget, history."""
    payload = {
        "best": {
            "pn": result.best.tiles.pn, "pm": result.best.tiles.pm,
            "tn": result.best.tiles.tn, "tm": result.best.tiles.tm,
            "latency_s": result.best.latency_s,
        },
        "evaluations_used": result.evaluations_used,
        "evaluations_logged": len(result.all_evaluated),
        "space_size": result.space.feasible_size(),
        "history": list(result.history),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def evaluations_to_csv(result: SearchResult) -> str:
    """One row per evaluation: pn, pm, tn, tm, latency_s, feasible, from_cache.

    latency_s is the float's ``repr`` and empty when infeasible.
    """
    log = result.all_evaluated
    latency = ["" if math.isnan(x) else repr(x) for x in log.latency.tolist()]
    columns = (*map(_str_column, (log.pn, log.pm, log.tn, log.tm)), latency,
               _str_column(~np.isnan(log.latency)), _str_column(log.from_cache))
    header = "pn,pm,tn,tm,latency_s,feasible,from_cache"
    return "\n".join(chain([header], map(",".join, zip(*columns)), [""]))


def _str_column(col: np.ndarray) -> list[str]:
    """``str`` of each element, converting each distinct value once."""
    values, inverse = np.unique(col, return_inverse=True)
    return np.array([str(v) for v in values.tolist()], dtype=object)[inverse].tolist()


def pareto_to_csv(front: Sequence[ParetoPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pn", "pm", "tn", "tm", "latency_s", "parallelism"])
    for p in front:
        writer.writerow([p.tiles.pn, p.tiles.pm, p.tiles.tn, p.tiles.tm,
                         repr(p.latency_s), p.parallelism])
    return buf.getvalue()
