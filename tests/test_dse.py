import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_space, single_matmul_dag, toy_hw
from vitmap.dse import (
    Evaluation,
    EvaluationLog,
    ParetoPoint,
    SearchConfig,
    SearchResult,
    SpaceCaps,
    compare_searches,
    enumerate_space,
    evaluations_to_csv,
    exhaustive_search,
    heuristic_search,
    pareto_front,
)
from vitmap.errors import EmptySearchSpaceError, SchemaError
from vitmap.hw import TileParams, validate_tiles
from vitmap.model_ir import OpKind


def brute_force_points(dag, hw, caps=None):
    """Independent enumeration of the candidate space, straight from the rules."""
    caps = caps or SpaceCaps()
    pm = hw.axi_width_bits // (2 * hw.data_width_bits)
    s = hw.onchip_capacity_elems
    mms = [n for n in dag.nodes if n.kind is OpKind.MATMUL]
    max_n = max(n.dims[0] for n in mms)
    max_m = max(n.dims[2] for n in mms)
    tn_hi = min(max_n, s // pm, caps.tn_max or 10 ** 9)
    tm_hi = min(max_m, s, caps.tm_max or 10 ** 9)
    tms = list(range(pm, tm_hi + 1, pm * caps.tm_step))
    pn_hi = max((tm // pm - 1 for tm in tms), default=0)
    if caps.pn_max is not None:
        pn_hi = min(pn_hi, caps.pn_max)
    points = []
    for tm in tms:
        for pn in range(1, pn_hi + 1):
            if not pn * pm < tm:
                continue
            for tn in range(1, tn_hi + 1, caps.tn_step):
                if tn * tm <= s:
                    points.append((pn, tn, tm))
    return pm, points


def oracle_pareto_front(evals):
    """Reference front: dict dedupe of tiles, full sort, then a sweep."""
    feas = [e for e in evals if e.feasible]
    if not feas:
        raise SchemaError("pareto_front requires at least one feasible evaluation")
    # Deduplicate identical tile configurations (cache hits).
    by_tiles = {}
    for e in feas:
        by_tiles.setdefault(e.tiles.astuple(), e)
    pts = sorted(
        by_tiles.values(),
        key=lambda e: (e.latency_s, -e.tiles.parallelism, e.tiles.astuple()),
    )
    front = []
    best_par = -1
    current = None
    for e in pts:
        par = e.tiles.parallelism
        key = (e.latency_s, par)
        if par > best_par:
            best_par = par
            current = key
            front.append(ParetoPoint(e.tiles, e.latency_s, par))
        elif key == current:
            front.append(ParetoPoint(e.tiles, e.latency_s, par))
    return tuple(front)


# Small ranges so that lists of a few dozen evaluations repeat tiles (with
# differing latencies), tie on latency and tie on parallelism.
_small_evaluations = st.lists(
    st.builds(
        lambda tiles, lat, hit: Evaluation(TileParams(*tiles), lat, hit),
        st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
        st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, math.inf])),
        st.booleans(),
    ),
    min_size=1, max_size=40,
)


def _log(*rows):
    """EvaluationLog from (pn, pm, tn, tm, latency) rows; no cache hits."""
    pn, pm, tn, tm, lat = zip(*rows)
    return EvaluationLog(pn, pm, tn, tm, lat, False)


def brute_force_latency(dag, hw, pn, pm, tn, tm):
    """Straight evaluation of the cost formulas, independent of the package."""
    total = 0.0
    for node in dag.nodes:
        if node.kind is OpKind.MATMUL:
            n, k, m = node.dims
            ops = tn * tm * k * math.ceil(n / tn) * math.ceil(m / tm)
            kf = math.ceil(node.heads / hw.num_kernels) if node.head_scoped \
                else 1.0 / hw.num_kernels
            total += ops * kf / (pn * pm) / hw.frequency_hz
        else:
            total += math.ceil(node.work_elems / (hw.lop * hw.num_kernels)) / hw.frequency_hz
    return total


class TestEnumerateSpace:
    def test_matches_independent_enumerator(self, toy_space):
        dag, hw, space = toy_space
        pm, points = brute_force_points(dag, hw)
        assert space.pm == pm
        assert space.feasible_size() == len(points)
        pn, tn, tm = space.point_arrays()
        assert list(zip(pn.tolist(), tn.tolist(), tm.tolist())) == points
        assert list(space.iter_points()) == points

    def test_small_matmul_space_listed_exhaustively(self):
        # S=64, AXI=64, DW=16 gives pm=2; a 4x8x8 matmul keeps the whole
        # space small enough to cross-check point by point.
        dag = single_matmul_dag(4, 8, 8)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=64)
        space = enumerate_space(dag, hw)
        pm, points = brute_force_points(dag, hw)
        assert pm == 2
        assert space.feasible_size() == len(points)
        assert list(space.iter_points()) == points

    def test_caps_can_force_singleton(self):
        dag = single_matmul_dag(8, 8, 8)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=8)
        space = enumerate_space(dag, hw, SpaceCaps(tn_max=1, tm_max=4, pn_max=1))
        assert space.feasible_size() == 1
        assert list(space.iter_points()) == [(1, 1, 4)]

    def test_unit_capacity_is_empty(self):
        dag = single_matmul_dag(8, 8, 8)
        hw = toy_hw(axi_width_bits=32, data_width_bits=16, onchip_capacity_elems=1)
        with pytest.raises(EmptySearchSpaceError):
            enumerate_space(dag, hw)

    def test_all_points_feasible(self, toy_space):
        dag, hw, space = toy_space
        pn, tn, tm = space.point_arrays()
        for i in range(0, pn.shape[0], 251):
            tiles = TileParams(int(pn[i]), space.pm, int(tn[i]), int(tm[i]))
            assert validate_tiles(tiles, hw).ok


class TestExhaustiveSearch:
    def test_singleton_space(self):
        dag = single_matmul_dag(8, 8, 8)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=8)
        space = enumerate_space(dag, hw, SpaceCaps(tn_max=1, tm_max=4, pn_max=1))
        result = exhaustive_search(dag, hw, space)
        assert result.evaluations_used == 1
        assert result.best.tiles == TileParams(1, 2, 1, 4)

    def test_matches_brute_force_minimizer(self, toy_space):
        dag, hw, space = toy_space
        result = exhaustive_search(dag, hw, space)
        best_pt, best_lat = None, math.inf
        for pn, tn, tm in brute_force_points(dag, hw)[1]:
            lat = brute_force_latency(dag, hw, pn, space.pm, tn, tm)
            if lat < best_lat:
                best_pt, best_lat = (pn, tn, tm), lat
        assert result.best.latency_s == pytest.approx(best_lat, rel=1e-12)
        assert (result.best.tiles.pn, result.best.tiles.tn, result.best.tiles.tm) == best_pt

    def test_equal_latency_keeps_first_in_loop_order(self):
        # tn in {1, 2, 4} all tile n=4 with zero padding: exact latency ties.
        dag = single_matmul_dag(4, 4, 4)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=64)
        space = enumerate_space(dag, hw)
        result = exhaustive_search(dag, hw, space)
        ties = [e for e in result.all_evaluated if e.latency_s == result.best.latency_s]
        assert len(ties) > 1
        assert result.best.tiles == ties[0].tiles


class TestHeuristicSearch:
    def test_close_to_exhaustive_on_toy_space(self, toy_space):
        dag, hw, space = toy_space
        best = exhaustive_search(dag, hw, space).best.latency_s
        hits = 0
        for seed in range(10):
            cfg = SearchConfig(set_size=40, iterations=25, preservation_size=8,
                               seed=seed, max_evaluations=space.feasible_size() // 5)
            got = heuristic_search(dag, hw, space, cfg).best.latency_s
            assert got >= best * (1 - 1e-12)
            if got <= best * 1.01:
                hits += 1
        assert hits >= 9

    def test_zero_iterations_uses_initial_set_only(self, toy_space):
        dag, hw, space = toy_space
        cfg = SearchConfig(set_size=16, iterations=0, preservation_size=4, seed=1,
                           refine=False)
        result = heuristic_search(dag, hw, space, cfg)
        assert len(result.history) == 1
        assert result.evaluations_used <= 16
        assert result.best.latency_s == result.history[0]

    def test_same_seed_bit_identical(self, toy_space):
        dag, hw, space = toy_space
        cfg = SearchConfig(set_size=24, iterations=12, preservation_size=6, seed=99)
        a = heuristic_search(dag, hw, space, cfg)
        b = heuristic_search(dag, hw, space, cfg)
        assert a.best == b.best
        assert a.history == b.history
        assert a.all_evaluated == b.all_evaluated
        assert a.evaluations_used == b.evaluations_used

    def test_cache_soundness(self, toy_space):
        dag, hw, space = toy_space
        on = heuristic_search(dag, hw, space,
                              SearchConfig(seed=5, set_size=30, iterations=10,
                                           preservation_size=5, use_cache=True))
        off = heuristic_search(dag, hw, space,
                               SearchConfig(seed=5, set_size=30, iterations=10,
                                            preservation_size=5, use_cache=False))
        assert on.best.tiles == off.best.tiles
        assert on.best.latency_s == off.best.latency_s
        assert on.evaluations_used <= off.evaluations_used
        distinct = {e.tiles.astuple() for e in on.all_evaluated}
        assert on.evaluations_used <= len(on.all_evaluated)
        assert on.evaluations_used == len(distinct)

    def test_history_monotone_non_increasing(self, toy_space):
        dag, hw, space = toy_space
        result = heuristic_search(dag, hw, space,
                                  SearchConfig(seed=2, set_size=20, iterations=30,
                                               preservation_size=4))
        assert all(b <= a for a, b in zip(result.history, result.history[1:]))

    def test_all_evaluated_configurations_feasible(self, toy_space):
        dag, hw, space = toy_space
        result = heuristic_search(dag, hw, space,
                                  SearchConfig(seed=3, set_size=20, iterations=10,
                                               preservation_size=4))
        for e in result.all_evaluated:
            assert e.feasible
            assert validate_tiles(e.tiles, hw).ok

    def test_budget_caps_cache_misses(self, toy_space):
        dag, hw, space = toy_space
        cfg = SearchConfig(seed=4, set_size=30, iterations=50, preservation_size=6,
                           max_evaluations=120)
        result = heuristic_search(dag, hw, space, cfg)
        assert result.evaluations_used <= 120


class TestParetoFront:
    @staticmethod
    def _ev(pn, pm, tn, tm, lat):
        return Evaluation(TileParams(pn, pm, tn, tm), lat)

    def test_single_point(self):
        front = pareto_front([self._ev(1, 2, 1, 4, 1.0)])
        assert len(front) == 1

    def test_strict_domination_drops_slower_equal_parallelism(self):
        evals = [self._ev(2, 2, 1, 6, 10.0), self._ev(2, 2, 2, 6, 12.0)]
        front = pareto_front(evals)
        assert len(front) == 1
        assert front[0].latency_s == 10.0

    def test_matches_quadratic_domination_oracle(self, toy_space):
        dag, hw, space = toy_space
        evals = exhaustive_search(dag, hw, space).all_evaluated[::17]
        front = pareto_front(evals)

        def dominated(a, b):  # b dominates a
            return (b.latency_s <= a.latency_s
                    and b.tiles.parallelism >= a.tiles.parallelism
                    and (b.latency_s < a.latency_s
                         or b.tiles.parallelism > a.tiles.parallelism))

        expected = {
            e.tiles.astuple() for e in evals
            if not any(dominated(e, other) for other in evals)
        }
        assert {p.tiles.astuple() for p in front} == expected

    def test_front_is_antichain(self, toy_space):
        dag, hw, space = toy_space
        front = pareto_front(exhaustive_search(dag, hw, space).all_evaluated)
        for a in front:
            for b in front:
                if a is b:
                    continue
                strict = a.latency_s < b.latency_s or a.parallelism > b.parallelism
                assert not (a.latency_s <= b.latency_s
                            and a.parallelism >= b.parallelism and strict)

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            pareto_front([])

    def test_only_infeasible_rejected(self):
        with pytest.raises(SchemaError):
            pareto_front([Evaluation(TileParams(1, 2, 1, 4), None)])

    @settings(max_examples=400, deadline=None)
    @given(_small_evaluations)
    def test_matches_sweep_oracle(self, evals):
        if not any(e.feasible for e in evals):
            with pytest.raises(SchemaError):
                pareto_front(evals)
            return
        want = oracle_pareto_front(evals)
        assert pareto_front(evals) == want
        assert pareto_front(EvaluationLog.of(evals)) == want

    def test_matches_sweep_oracle_on_search_logs(self, toy_space):
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space).all_evaluated
        heur = heuristic_search(dag, hw, space,
                                SearchConfig(seed=3, set_size=20, iterations=10,
                                             preservation_size=4)).all_evaluated
        for log in (exh, heur, exh[::7]):
            assert pareto_front(log) == oracle_pareto_front(list(log))


class TestEvaluationLog:
    def test_sequence_contract(self):
        log = EvaluationLog([1, 2, 3], 2, [4, 5, 6], [8, 10, 12], [0.5, math.nan, 0.25],
                            [False, False, True])
        assert len(log) == 3
        assert log[0] == Evaluation(TileParams(1, 2, 4, 8), 0.5, False)
        assert log[-1] == Evaluation(TileParams(3, 2, 6, 12), 0.25, True)
        assert log[np.int64(1)].latency_s is None and not log[1].feasible
        assert log[-3] == log[0]
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(IndexError):
            log[-4]
        assert list(log) == [log[0], log[1], log[2]]
        assert isinstance(log[1:], EvaluationLog)
        assert list(log[::-2]) == [log[2], log[0]]
        assert len(log[5:]) == 0
        assert [e.from_cache for e in log] == [False, False, True]
        assert log[2] in log and log.index(log[2]) == 2

    def test_rows_hold_python_scalars(self):
        e = _log((1, 2, 3, 4, 0.5))[0]
        assert type(e.tiles.pn) is int and type(e.latency_s) is float
        assert type(e.from_cache) is bool

    def test_columns_are_read_only(self):
        log = _log((1, 2, 3, 4, 0.5), (2, 2, 3, 4, 0.25))
        for col in log.columns():
            assert len(col) == 2
            with pytest.raises(ValueError):
                col[0] = 0

    def test_equality(self):
        a = EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, math.nan], [False, True])
        b = EvaluationLog.of(list(a))
        assert a == b
        assert a != a[:1]
        assert a != EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, math.nan], [False, False])
        assert a != EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, 0.75], [False, True])
        assert a != list(a)

    def test_of_round_trips_rows(self):
        rows = [Evaluation(TileParams(3, 2, 1, 8), 1.5, True),
                Evaluation(TileParams(1, 4, 2, 8), None)]
        log = EvaluationLog.of(rows)
        assert list(log) == rows
        assert EvaluationLog.of(log) is log
        assert len(EvaluationLog.of([])) == 0

    def test_search_logs_flag_repeats_as_cache_hits(self, toy_space):
        dag, hw, space = toy_space
        result = heuristic_search(dag, hw, space,
                                  SearchConfig(seed=5, set_size=30, iterations=10,
                                               preservation_size=5))
        seen = set()
        for e in result.all_evaluated:
            assert e.from_cache == (e.tiles.astuple() in seen)
            seen.add(e.tiles.astuple())
        assert not any(e.from_cache for e in exhaustive_search(dag, hw, space).all_evaluated)


class TestCompareSearches:
    def test_self_comparison(self, toy_space):
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space)
        report = compare_searches(exh, exh)
        assert report.evaluation_ratio == 1.0
        assert report.best_latency_gap_rel == 0.0
        assert report.pareto_coverage == 1.0
        assert report.pareto_point_coverage == 1.0

    def test_default_config_evaluation_ratio(self):
        # A space large enough that the default budget-less config stays
        # under a fifth of the exhaustive evaluation count.
        dag = single_matmul_dag(128, 64, 256)
        hw = toy_hw(axi_width_bits=128, data_width_bits=16, onchip_capacity_elems=8192)
        space = enumerate_space(dag, hw)
        assert space.feasible_size() > 20000
        exh = exhaustive_search(dag, hw, space)
        heur = heuristic_search(dag, hw, space, SearchConfig(seed=0))
        report = compare_searches(exh, heur)
        assert report.evaluation_ratio <= 0.2
        assert report.best_latency_gap_rel <= 0.01

    def test_degenerate_heuristic_still_well_formed(self, toy_space):
        # Smallest legal population with no refinement steps.
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space)
        heur = heuristic_search(dag, hw, space,
                                SearchConfig(set_size=2, preservation_size=1,
                                             iterations=0, seed=0, refine=False))
        report = compare_searches(exh, heur)
        assert 0.0 <= report.pareto_coverage <= 1.0
        assert report.heuristic_evaluations <= 2

    def test_coverage_counts_objective_pairs_and_points(self, toy_space):
        # Front: a and b tie on (1.0, 2); c alone at (2.0, 4); d is dominated.
        # The heuristic saw b and d, so it covers one of two objective pairs
        # and one of three front points.
        space = toy_space[2]
        a, b, c, d = (2, 1, 1, 4, 1.0), (2, 1, 2, 4, 1.0), (4, 1, 1, 8, 2.0), (1, 1, 1, 4, 3.0)

        def result(log):
            return SearchResult(best=log[0], evaluations_used=len(log), history=(),
                                all_evaluated=log, wall_time_s=1.0, space=space)

        report = compare_searches(result(_log(a, b, c, d)), result(_log(b, d)))
        assert report.pareto_front_size == 3
        assert report.pareto_coverage == 0.5
        assert report.pareto_point_coverage == 1 / 3

    def test_mismatched_spaces_rejected(self, toy_space):
        dag, hw, space = toy_space
        other_space = enumerate_space(dag, hw, SpaceCaps(tn_max=5))
        exh = exhaustive_search(dag, hw, space)
        heur = heuristic_search(dag, hw, other_space,
                                SearchConfig(seed=0, set_size=10, iterations=2,
                                             preservation_size=2))
        with pytest.raises(SchemaError):
            compare_searches(exh, heur)


class TestCsvExport:
    def test_one_row_per_evaluation(self, toy_space):
        dag, hw, space = toy_space
        result = heuristic_search(dag, hw, space,
                                  SearchConfig(seed=1, set_size=10, iterations=3,
                                               preservation_size=2))
        lines = evaluations_to_csv(result).strip().splitlines()
        assert lines[0] == "pn,pm,tn,tm,latency_s,feasible,from_cache"
        assert len(lines) == 1 + len(result.all_evaluated)
        assert any(line.endswith("True") for line in lines[1:])  # cache hits logged

    def test_rows_match_csv_writer_format(self, toy_space):
        # An infeasible row has an empty latency; floats are written as repr.
        log = EvaluationLog([3, 1], 2, [10, 2], [8, 4], [1 / 3, math.nan], [True, False])
        result = SearchResult(best=log[0], evaluations_used=2, history=(),
                              all_evaluated=log, wall_time_s=1.0, space=toy_space[2])
        assert evaluations_to_csv(result) == (
            "pn,pm,tn,tm,latency_s,feasible,from_cache\n"
            f"3,2,10,8,{1 / 3!r},True,True\n"
            "1,2,2,4,,False,False\n"
        )


class TestRandomSpaces:
    def test_exhaustive_optimality_on_random_spaces(self):
        for seed in range(4):
            dag, hw, space = random_space(seed * 1000 + 17)
            result = exhaustive_search(dag, hw, space)
            pn, tn, tm = space.point_arrays()
            lats = [brute_force_latency(dag, hw, int(pn[i]), space.pm, int(tn[i]), int(tm[i]))
                    for i in range(0, pn.shape[0], 7)]
            assert result.best.latency_s <= min(lats) * (1 + 1e-12)
            # The reported optimum itself re-evaluates to the same latency.
            t = result.best.tiles
            again = brute_force_latency(dag, hw, t.pn, t.pm, t.tn, t.tm)
            assert result.best.latency_s == pytest.approx(again, rel=1e-12)
