import bisect
import csv
import dataclasses
import io
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_space, single_matmul_dag, small_models_and_boards, toy_hw
from vitmap import _latency, dse
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
    exact_search,
    exhaustive_search,
    heuristic_search,
    pareto_front,
)
from vitmap.errors import EmptySearchSpaceError, SchemaError
from vitmap.hw import TileParams, graph_latency, parse_hardware, validate_tiles
from vitmap.model_ir import OpKind, batch_expand, build_dag, fuse_qkv, parse_model


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
    # Deduplicate identical tile configurations (cache hits).
    by_tiles = {}
    for e in evals:
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


def _repeat_flags(tile_rows):
    """Each row's ``from_cache`` under ``EvaluationLog``'s invariant: whether
    its tiles appeared in an earlier row."""
    seen, flags = set(), []
    for tiles in tile_rows:
        flags.append(tiles in seen)
        seen.add(tiles)
    return flags


def _flag_repeats(evals):
    """The evaluations, each flagged as a cache hit iff its tiles repeat."""
    flags = _repeat_flags(e.tiles.astuple() for e in evals)
    return [dataclasses.replace(e, from_cache=hit) for e, hit in zip(evals, flags)]


# Small ranges so that lists of a few dozen evaluations repeat tiles (with
# differing latencies), tie on latency and tie on parallelism.
_small_evaluations = st.lists(
    st.builds(
        lambda tiles, lat: Evaluation(TileParams(*tiles), lat),
        st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, math.inf]),
    ),
    min_size=1, max_size=40,
).map(_flag_repeats)


def _log(*rows):
    """EvaluationLog from (pn, pm, tn, tm, latency) rows; no cache hits."""
    pn, pm, tn, tm, lat = zip(*rows)
    return EvaluationLog(pn, pm, tn, tm, lat, False)


def _log_of(evals):
    """EvaluationLog holding the given ``Evaluation`` rows, in order."""
    return EvaluationLog(*zip(*((*e.tiles.astuple(), e.latency_s, e.from_cache)
                                for e in evals)))


def _column(draw, n, values):
    """One draw broadcast over ``n`` rows, or ``n`` draws."""
    if draw(st.booleans()):
        return np.broadcast_to(draw(values), (n,))
    return draw(st.lists(values, min_size=n, max_size=n))


@st.composite
def _mixed_logs(draw, sizes):
    """Logs whose columns are each broadcast or full, over small and huge tiles.

    Small tile values make repeated configurations likely; large ones stay
    below 2^31, so pn·pm fits the int64 columns. Latencies include ``inf``.
    Repeats are flagged as the log's invariant says.
    """
    n = draw(sizes)
    tiles = st.integers(1, 3) | st.integers(1, 2 ** 31)
    latency = st.sampled_from([1e-05, math.inf, 1 / 3, 0.5]) | st.floats(0, 1e3)
    columns = [_column(draw, n, tiles) for _ in range(4)]
    flags = _repeat_flags(zip(*(np.broadcast_to(c, (n,)).tolist() for c in columns)))
    return EvaluationLog(*columns, _column(draw, n, latency), flags)


def _csv_text(result):
    buf = io.StringIO()
    evaluations_to_csv(result, buf)
    return buf.getvalue()


def _csv_reference(log, dag, hw):
    """The evaluation CSV through ``csv.writer``, one ``Evaluation`` row at a time.

    Each row's ``N`` is its matmul cycles, straight from the cost formulas in
    Fractions, times ``D = pn·pm·kernels``.
    """
    terms, _ = cost_terms(dag, hw)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pn", "pm", "tn", "tm", "matmul_cycles_num", "cycles_den", "from_cache"])
    for e in log:
        pn, pm, tn, tm = e.tiles.astuple()
        num = padded_work(terms, tn, tm) * hw.num_kernels
        assert num.denominator == 1
        writer.writerow([pn, pm, tn, tm, num.numerator, pn * pm * hw.num_kernels,
                         e.from_cache])
    return buf.getvalue()


def _points(space):
    """The feasible (pn, tn, tm) triples of a space in exhaustive loop order."""
    return list(zip(*(c.tolist() for c in space.point_arrays())))


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


def cost_terms(dag, hw):
    """The cost formulas' matmul terms ``(c, n, m)`` and the non-linear cycles.

    A matmul class of ``count`` nodes contributes ``c·R(tn)·C(tm)/(pn·pm)``
    cycles, with ``c = count·k·kernel_factor`` as a Fraction.
    """
    kernels = hw.num_kernels
    classes = Counter((n.dims, n.heads, n.head_scoped) for n in dag.matmuls())
    terms = [
        (count * k * (Fraction(-(-heads // kernels)) if scoped else Fraction(1, kernels)), n, m)
        for ((n, k, m), heads, scoped), count in classes.items()
    ]
    nl = sum(-(-node.work_elems // (hw.lop * kernels))
             for node in dag.nodes if node.kind is not OpKind.MATMUL)
    return terms, nl


def padded_work(terms, tn, tm):
    """``Σ c·R(tn)·C(tm)``: the matmul cycles of tiles (pn, pm, tn, tm) times pn·pm."""
    return sum(c * (-(-n // tn) * tn) * (-(-m // tm) * tm) for c, n, m in terms)


def tm_counts(space):
    """tm -> (its pn count, its tn count), from the space's feasibility table."""
    return dict(zip(space.tm_range, zip(*space.feasible_counts)))


def feasible_tms(space):
    """The tm candidates with at least one feasible (pn, tn), ascending."""
    return [tm for tm, (npn, ntn) in tm_counts(space).items() if npn > 0 and ntn > 0]


def fraction_oracle(dag, hw, space):
    """Exact cycles of every feasible (pn, tn, tm) triple, in exhaustive loop order.

    Straight from the cost formulas in Fractions: no pn pinning, no integer
    numerators.
    """
    terms, nl = cost_terms(dag, hw)
    return [
        ((pn, tn, tm), padded_work(terms, tn, tm) / (pn * space.pm) + nl)
        for pn, tn, tm in _points(space)
    ]


_small_caps = st.builds(
    SpaceCaps,
    tn_max=st.none() | st.integers(1, 16), tm_max=st.none() | st.integers(1, 64),
    pn_max=st.none() | st.integers(1, 16), tn_step=st.integers(1, 2),
    tm_step=st.integers(1, 2))


# One matmul whose row count may share divisors with a tn range: its columns
# can meet their padding-free bound past the first tn.
_single_matmuls = st.builds(
    lambda n, k, m, capacity: (single_matmul_dag(n, k, m),
                               toy_hw(onchip_capacity_elems=capacity)),
    st.integers(1, 48), st.integers(1, 8), st.integers(1, 64), st.integers(16, 512))


def preset_doc(file):
    return json.loads(resources.files("vitmap.presets").joinpath(file).read_text())


def preset_dag(name, batch=1):
    hw = parse_hardware(preset_doc("vu9p.json"))
    dag = build_dag(parse_model(preset_doc(name.replace("-", "_") + ".json")))
    return batch_expand(fuse_qkv(dag, hw), batch), hw


def wide_model():
    """A 65,536-token model with a 65,536-wide MLP on vu9p, its space, and
    the column bound ``8·(S/pm)(1 + ln |tm_range|)`` in bytes (about 2.9 MB)."""
    hw = parse_hardware(preset_doc("vu9p.json"))
    spec = parse_model({**preset_doc("deit_tiny.json"), "embed_dim": 64, "num_heads": 1,
                        "num_layers": 1, "num_tokens": 2**16, "mlp_ratio": 1024.0})
    dag = build_dag(spec)
    space = enumerate_space(dag, hw)
    return dag, hw, space, 8 * (space.capacity // space.pm) * (1 + math.log(len(space.tm_range)))


# The budgeted search of the wide-model memory tests.
_WIDE_CFG = SearchConfig(set_size=20, iterations=5, preservation_size=4, seed=1,
                         max_evaluations=200)


def peak_bytes(fn):
    """tracemalloc's peak over one call of ``fn``; it counts numpy's buffers too."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEnumerateSpace:
    def test_matches_independent_enumerator(self, toy_space):
        dag, hw, space = toy_space
        pm, points = brute_force_points(dag, hw)
        assert space.pm == pm
        assert space.feasible_size() == len(points)
        assert _points(space) == points

    def test_small_matmul_space_listed_exhaustively(self):
        # S=64, AXI=64, DW=16 gives pm=2; a 4x8x8 matmul keeps the whole
        # space small enough to cross-check point by point.
        dag = single_matmul_dag(4, 8, 8)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=64)
        space = enumerate_space(dag, hw)
        pm, points = brute_force_points(dag, hw)
        assert pm == 2
        assert space.feasible_size() == len(points)
        assert _points(space) == points

    def test_caps_can_force_singleton(self):
        dag = single_matmul_dag(8, 8, 8)
        hw = toy_hw(axi_width_bits=64, data_width_bits=16, onchip_capacity_elems=8)
        space = enumerate_space(dag, hw, SpaceCaps(tn_max=1, tm_max=4, pn_max=1))
        assert space.feasible_size() == 1
        assert _points(space) == [(1, 1, 4)]

    def test_unit_capacity_is_empty(self):
        dag = single_matmul_dag(8, 8, 8)
        hw = toy_hw(axi_width_bits=32, data_width_bits=16, onchip_capacity_elems=1)
        with pytest.raises(EmptySearchSpaceError):
            enumerate_space(dag, hw)

    @settings(max_examples=200)
    @given(small_models_and_boards(), st.integers(1, 64), st.data())
    def test_feasible_counts_equal_bisection(self, case, batch, data):
        """The ranges' counts equal ``bisect`` over the same values as tuples,
        and a space of those tuples has the same table, size and points."""
        dag, hw = case
        dag = batch_expand(dag, batch)
        cap = st.one_of(st.none(), st.integers(1, 600))
        caps = SpaceCaps(tn_max=data.draw(cap, label="tn_max"),
                         tm_max=data.draw(cap, label="tm_max"),
                         pn_max=data.draw(cap, label="pn_max"),
                         tn_step=data.draw(st.integers(1, 9), label="tn_step"),
                         tm_step=data.draw(st.integers(1, 5), label="tm_step"))
        try:
            space = enumerate_space(dag, hw, caps)
        except EmptySearchSpaceError:
            assume(False)
        assert all(isinstance(r, range)
                   for r in (space.tn_range, space.tm_range, space.pn_range))
        tns, tms, pns = map(tuple, (space.tn_range, space.tm_range, space.pn_range))
        assert space.feasible_counts == (
            tuple(bisect.bisect_right(pns, tm // space.pm - 1) for tm in tms),
            tuple(bisect.bisect_right(tns, space.capacity // tm) for tm in tms))
        listed = dse.SearchSpace(tns, tms, pns, space.pm, space.capacity)
        assert listed.feasible_counts == space.feasible_counts
        assert listed.feasible_size() == space.feasible_size()
        for ours, theirs in zip(listed.point_arrays(), space.point_arrays()):
            assert np.array_equal(ours, theirs)
        ours, theirs = exact_search(dag, hw, listed), exact_search(dag, hw, space)
        assert dataclasses.replace(ours, wall_time_s=0, space=space) == \
            dataclasses.replace(theirs, wall_time_s=0)

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

    def test_result_equality_ignores_cost_arrays(self, toy_space):
        # The cost arrays hold numpy columns, whose == is elementwise.
        dag, hw, space = toy_space
        result = exhaustive_search(dag, hw, space)
        assert result == dataclasses.replace(result,
                                             arrays=_latency.extract_cost_arrays(dag, hw))

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


# One matmul with extents up to 2^21 and k up to 2^26 on a small board: its
# numerators reach past 2^53, and some past int64.
_wide_matmuls = st.builds(
    lambda n, k, m, capacity: (single_matmul_dag(n, k, m),
                               toy_hw(onchip_capacity_elems=capacity)),
    st.integers(1, 2**21), st.integers(1, 2**26), st.integers(1, 2**21), st.integers(16, 128))


class TestExhaustiveLog:
    @settings(max_examples=200)
    @given(small_models_and_boards() | _wide_matmuls, _small_caps,
           st.sampled_from(["integer", "fractional"]), st.booleans(), st.data())
    def test_equals_point_listing_scored_by_latency_batch(self, model_and_board, caps, clock,
                                                         python_ints, data):
        # A fractional clock makes D·p exceed 2^53 and an int64 bound of 1
        # makes every numerator a Python int: both take divide's object path.
        dag, hw = model_and_board
        if clock == "fractional":
            mantissa = data.draw(st.integers(2 ** 52, 2 ** 53 - 1), label="clock mantissa") | 1
            hw = dataclasses.replace(hw, frequency_hz=float(Fraction(mantissa, 2 ** 25)))
        try:
            space = enumerate_space(dag, hw, caps)
        except EmptySearchSpaceError:
            assume(False)
        arrays = _latency.extract_cost_arrays(dag, hw)
        with mock.patch.object(_latency, "_INT64_MAX", 1 if python_ints else _latency._INT64_MAX):
            result = exhaustive_search(dag, hw, space)
            pn, tn, tm = space.point_arrays()
            latency = _latency.latency_batch(arrays, tn, tm, pn)
        log = result.all_evaluated
        assert [c.tolist() for c in log.columns()] == [
            pn.tolist(), [space.pm] * len(pn), tn.tolist(), tm.tolist(), latency.tolist(),
            [False] * len(pn)]
        assert log.latency.view(np.int64).tolist() == latency.view(np.int64).tolist()
        best = int(np.argmin(latency))
        assert result.best == log[best]
        assert result.history == (latency[best],)
        assert result.evaluations_used == len(pn) == space.feasible_size()
        # Both share divide, so about 200 rows are also checked against the cost
        # formulas in Fractions, correctly rounded.
        terms, nl = cost_terms(dag, hw)
        for i in range(0, len(pn), max(1, len(pn) // 200)):
            p, t, c = int(pn[i]), int(tn[i]), int(tm[i])
            cycles = padded_work(terms, t, c) / (p * space.pm) + nl
            assert log.latency[i] == float(cycles / Fraction(hw.frequency_hz)), (p, t, c)


class TestExactSearch:
    @settings(max_examples=150)
    @given(small_models_and_boards(), _small_caps, st.sampled_from([1, 16, 8192]))
    def test_first_minimum_of_fraction_oracle(self, model_and_board, caps, block_elems):
        dag, hw = model_and_board
        try:
            space = enumerate_space(dag, hw, caps)
        except EmptySearchSpaceError:
            assume(False)
        # Small blocks split each tm column's tn range across several blocks.
        with mock.patch.object(dse, "_BLOCK_ELEMS", block_elems):
            result = exact_search(dag, hw, space)
        oracle = fraction_oracle(dag, hw, space)
        # min keeps the first of equal keys: the first minimum in loop order.
        (pn, tn, tm), cycles = min(oracle, key=lambda point: point[1])
        assert result.best.tiles == TileParams(pn, space.pm, tn, tm)
        assert result.best.latency_s == float(cycles / Fraction(hw.frequency_hz))
        assert result.best.latency_s == graph_latency(dag, result.best.tiles, hw).total_latency_s
        feasible_tms = set(space.point_arrays()[2].tolist())
        assert len(result.all_evaluated) == len(feasible_tms)
        # tn = 1 pads nothing, so each column meets its padding-free bound on
        # its first row and scores one pair.
        assert result.evaluations_used == len(feasible_tms)

    @settings(max_examples=200)
    @given(small_models_and_boards() | _single_matmuls, st.sets(st.integers(2, 24), max_size=8),
           st.booleans(), st.sampled_from([1, 16, 8192]), st.booleans())
    def test_hand_built_tn_ranges_match_fraction_oracle(self, model_and_board, tns, with_one,
                                                         block_elems, python_ints):
        dag, hw = model_and_board
        try:
            base = enumerate_space(dag, hw)
        except EmptySearchSpaceError:
            assume(False)
        tn_range = tuple(sorted(tns | {1} if with_one else tns))
        space = dse.SearchSpace(tn_range, base.tm_range, base.pn_range, base.pm, base.capacity)
        tms = feasible_tms(space)
        assume(tms)
        # Without tn = 1 a column may stay open over several blocks; an int64
        # bound of 1 scores every numerator in Python ints.
        with mock.patch.object(dse, "_BLOCK_ELEMS", block_elems), \
                mock.patch.object(_latency, "_INT64_MAX", 1 if python_ints else _latency._INT64_MAX):
            result = exact_search(dag, hw, space)
        oracle = fraction_oracle(dag, hw, space)
        (pn, tn, tm), cycles = min(oracle, key=lambda point: point[1])
        assert result.best.tiles == TileParams(pn, space.pm, tn, tm)
        assert result.best.latency_s == float(cycles / Fraction(hw.frequency_hz))
        # Each column's winner is the first minimum of its tn at its largest pn.
        counts = tm_counts(space)
        top_pn = {tm: space.pn_range[counts[tm][0] - 1] for tm in tms}
        assert result.all_evaluated.tn.tolist() == [
            min(((p, c) for p, c in oracle if p[2] == tm and p[0] == top_pn[tm]),
                key=lambda point: point[1])[0][1]
            for tm in tms]
        assert len(tms) <= result.evaluations_used <= sum(counts[tm][1] for tm in tms)
        if tn_range[0] == 1:
            assert result.evaluations_used == len(tms)

    @pytest.mark.parametrize("batch", [1, 64])
    def test_one_pair_per_tm_on_presets(self, batch):
        dag, hw = preset_dag("deit-base", batch)
        space = enumerate_space(dag, hw)
        result = exact_search(dag, hw, space)
        assert result.evaluations_used == len(feasible_tms(space)) == 191
        assert result.best.tiles == TileParams(191, space.pm, 1, 3072)

    @pytest.mark.parametrize("dims, caps, tied", [
        # tn in {1, 2, 4} pads n=4 to 4: ties within a tm column.
        ((4, 4, 4), SpaceCaps(), "tn"),
        # pn capped at 1 and C(tm) = 12 for tm in {4, 6, 12}: ties across columns.
        ((1, 4, 12), SpaceCaps(pn_max=1), "tm"),
    ], ids=["tn-tie", "tm-tie"])
    def test_ties_keep_first_in_loop_order(self, dims, caps, tied):
        dag = single_matmul_dag(*dims)
        hw = toy_hw(onchip_capacity_elems=64)
        space = enumerate_space(dag, hw, caps)
        oracle = fraction_oracle(dag, hw, space)
        low = min(cycles for _, cycles in oracle)
        minima = [point for point, cycles in oracle if cycles == low]
        assert len({point[1 if tied == "tn" else 2] for point in minima}) > 1
        pn, tn, tm = minima[0]
        assert exact_search(dag, hw, space).best.tiles == TileParams(pn, space.pm, tn, tm)
        with mock.patch.object(dse, "_BLOCK_ELEMS", 1):  # one tn per block
            assert exact_search(dag, hw, space).best.tiles == TileParams(pn, space.pm, tn, tm)
        assert exhaustive_search(dag, hw, space).best.tiles == TileParams(pn, space.pm, tn, tm)

    @pytest.mark.parametrize("block_elems", [1, 2, 8192])
    def test_winner_beyond_first_tn_block(self, block_elems):
        # Enumerated spaces always hold tn=1, which pads nothing and wins;
        # without it the optimum (tn=4, the only divisor of n=8 here) sits in
        # a later block when blocks are small.
        dag = single_matmul_dag(n=8, k=3, m=8)
        space = dse.SearchSpace(tn_range=(3, 4, 5, 6, 7), tm_range=(4, 6, 8),
                                pn_range=(1, 2, 3), pm=2, capacity=64)
        (pn, tn, tm), cycles = min(fraction_oracle(dag, toy_hw(), space),
                                   key=lambda point: point[1])
        assert tn == 4
        with mock.patch.object(dse, "_BLOCK_ELEMS", block_elems):
            result = exact_search(dag, toy_hw(), space)
        assert result.best.tiles == TileParams(pn, space.pm, tn, tm)
        assert result.all_evaluated.tn.tolist() == [4, 4, 4]

    @pytest.mark.parametrize("model", ["deit-tiny", "deit-small", "deit-base"])
    def test_matches_exhaustive_on_presets(self, model):
        dag, hw = preset_dag(model)
        space = enumerate_space(dag, hw)
        assert exact_search(dag, hw, space).best.tiles == \
            exhaustive_search(dag, hw, space).best.tiles

    def test_per_tm_winners_in_tm_order(self):
        dag, hw = preset_dag("deit-tiny")
        space = enumerate_space(dag, hw)
        log = exact_search(dag, hw, space).all_evaluated
        counts = tm_counts(space)
        assert log.tm.tolist() == [tm for tm in space.tm_range if counts[tm][0] > 0]
        assert log.pn.tolist() == [space.pn_range[counts[tm][0] - 1]
                                   for tm in log.tm.tolist()]
        assert not log.from_cache.any()

    def test_int64_fallback_gives_same_result(self, monkeypatch):
        dag, hw = preset_dag("deit-base", batch=64)
        space = enumerate_space(dag, hw)
        fast = exact_search(dag, hw, space)
        monkeypatch.setattr(_latency, "_INT64_MAX", 1)
        slow = exact_search(dag, hw, space)
        assert slow.best == fast.best
        assert slow.all_evaluated == fast.all_evaluated
        assert slow.evaluations_used == fast.evaluations_used

    def test_numerators_beyond_int64_stay_exact(self):
        # k * R * C is about 2^67: int64 products would wrap.
        dag = single_matmul_dag(n=2 ** 20 + 1, k=2 ** 26, m=2 ** 21 + 3)
        hw = toy_hw(onchip_capacity_elems=64)
        space = enumerate_space(dag, hw)
        result = exact_search(dag, hw, space)
        (pn, tn, tm), cycles = min(fraction_oracle(dag, hw, space), key=lambda point: point[1])
        assert result.best.tiles == TileParams(pn, space.pm, tn, tm)
        assert result.best.latency_s == float(cycles / Fraction(hw.frequency_hz))

    def test_no_feasible_tm_rejected(self):
        space = dse.SearchSpace(tn_range=(1,), tm_range=(2,), pn_range=(1,), pm=2, capacity=64)
        with pytest.raises(EmptySearchSpaceError):
            exact_search(single_matmul_dag(), toy_hw(), space)


@settings(max_examples=150)
@given(small_models_and_boards(), st.data())
def test_graph_latency_strictly_decreases_in_pn(model_and_board, data):
    """exact_search pins pn at its bound; this is the property that licenses it."""
    dag, hw = model_and_board
    pm = hw.pack_factor
    tm = pm * data.draw(st.integers(3, 32), label="tm / pm")
    tn = data.draw(st.integers(1, max(1, hw.onchip_capacity_elems // tm)), label="tn")
    assume(tn * tm <= hw.onchip_capacity_elems)
    pn = data.draw(st.integers(1, tm // pm - 2), label="pn")
    more = data.draw(st.integers(pn + 1, tm // pm - 1), label="larger pn")
    slow = graph_latency(dag, TileParams(pn, pm, tn, tm), hw)
    fast = graph_latency(dag, TileParams(more, pm, tn, tm), hw)
    assert fast.total_latency_s < slow.total_latency_s


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
        # A budget of one population: the line sweeps get only what duplicate
        # draws left unused.
        dag, hw, space = toy_space
        cfg = SearchConfig(set_size=16, iterations=0, preservation_size=4, seed=1,
                           max_evaluations=16)
        result = heuristic_search(dag, hw, space, cfg)
        assert result.evaluations_used <= 16
        # The initial population's best, then the best after the line sweeps.
        assert len(result.history) == 2
        assert result.history[0] == result.all_evaluated.latency[:16].min()
        assert result.best.latency_s == result.history[1]
        assert result.best.latency_s == result.all_evaluated.latency.min()

    def test_history_ends_at_best_after_line_sweeps(self, toy_space):
        dag, hw, space = toy_space
        for seed in range(5):
            result = heuristic_search(dag, hw, space,
                                      SearchConfig(seed=seed, set_size=12, iterations=4,
                                                   preservation_size=3))
            assert result.history[-1] == result.best.latency_s
            assert result.best.latency_s == result.all_evaluated.latency.min()
            assert len(result.history) == 4 + 2

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
        # Every logged latency, cache hits included, is the one a fresh
        # evaluation of its tiles gives; each distinct point is scored once.
        dag, hw, space = toy_space
        on = heuristic_search(dag, hw, space,
                              SearchConfig(seed=5, set_size=30, iterations=10,
                                           preservation_size=5))
        fresh = {}
        for e in on.all_evaluated:
            key = e.tiles.astuple()
            if key not in fresh:
                fresh[key] = graph_latency(dag, e.tiles, hw).total_latency_s
            assert e.latency_s == fresh[key]
        assert on.all_evaluated.from_cache.any()
        assert on.evaluations_used < len(on.all_evaluated)
        assert on.evaluations_used == len(fresh)
        assert on.best.latency_s == min(fresh.values())
        assert on.best.tiles.astuple() == min(fresh, key=fresh.get)

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
            assert validate_tiles(e.tiles, hw).ok

    def test_budget_caps_cache_misses(self, toy_space):
        dag, hw, space = toy_space
        cfg = SearchConfig(seed=4, set_size=30, iterations=50, preservation_size=6,
                           max_evaluations=120)
        result = heuristic_search(dag, hw, space, cfg)
        assert result.evaluations_used <= 120

    @settings(max_examples=150)
    @given(small_models_and_boards(), st.data())
    def test_logged_rows_are_sound(self, model_and_board, data):
        dag, hw = model_and_board
        try:
            space = enumerate_space(dag, hw, data.draw(_small_caps))
        except EmptySearchSpaceError:
            assume(False)
        set_size = data.draw(st.integers(2, 12), label="set_size")
        budget = data.draw(st.none() | st.integers(set_size, 4 * set_size), label="budget")
        cfg = SearchConfig(set_size=set_size, iterations=data.draw(st.integers(0, 5)),
                           preservation_size=data.draw(st.integers(1, set_size - 1)),
                           seed=data.draw(st.integers(0, 2**63 - 1)), max_evaluations=budget)
        result = heuristic_search(dag, hw, space, cfg)
        log = result.all_evaluated
        for e in log:
            assert validate_tiles(e.tiles, hw).ok
        assert np.array_equal(_latency.latency_batch(result.arrays, log.tn, log.tm, log.pn),
                              log.latency)
        # A point's first row scored it; its repeats are cache hits.
        seen = set()
        for point, hit in zip(zip(log.pn.tolist(), log.tn.tolist(), log.tm.tolist()),
                              log.from_cache.tolist()):
            assert hit == (point in seen)
            seen.add(point)
        assert result.evaluations_used == len(seen)
        assert budget is None or result.evaluations_used <= budget
        again = heuristic_search(dag, hw, space, cfg)
        assert dataclasses.replace(again, wall_time_s=result.wall_time_s) == result

    def test_python_int_fallbacks_give_same_result(self, toy_space, monkeypatch):
        # Object numerators and object point codes score and log the same.
        dag, hw, space = toy_space
        cfg = SearchConfig(seed=6, set_size=20, iterations=6, preservation_size=4)
        fast = heuristic_search(dag, hw, space, cfg)
        monkeypatch.setattr(_latency, "_INT64_MAX", 1)
        monkeypatch.setattr(dse, "_INT64_CODES", 1)
        slow = heuristic_search(dag, hw, space, cfg)
        assert dataclasses.replace(slow, wall_time_s=fast.wall_time_s) == fast

    def test_numerators_beyond_int64_stay_exact(self):
        # k * R * C is about 2^67: the columns hold Python ints.
        dag = single_matmul_dag(n=2 ** 20 + 1, k=2 ** 26, m=2 ** 21 + 3)
        hw = toy_hw(onchip_capacity_elems=64)
        space = enumerate_space(dag, hw)
        result = heuristic_search(dag, hw, space, SearchConfig(
            seed=2, set_size=8, iterations=3, preservation_size=2))
        log = result.all_evaluated
        oracle = dict(fraction_oracle(dag, hw, space))
        assert [float(oracle[p] / Fraction(hw.frequency_hz)) for p in zip(
            log.pn.tolist(), log.tn.tolist(), log.tm.tolist())] == log.latency.tolist()

    @settings(max_examples=150)
    @given(small_models_and_boards(), st.lists(st.tuples(st.integers(1, 40), st.integers(1, 99)),
                                               min_size=1, max_size=12),
           st.lists(st.integers(1, 5), min_size=40, max_size=40),
           st.sampled_from([1, 7, 64, 1 << 14]), st.booleans())
    def test_column_numerators_match_the_formula(self, model_and_board, columns, tn_steps,
                                                 block, python_ints):
        # Columns of any lengths, in any order, filled by blocks that end
        # inside some columns; classes of equal n share a padded row.
        dag, hw = model_and_board
        arrays = _latency.extract_cost_arrays(dag, hw)
        counts, tm = zip(*columns)
        tn = np.cumsum(tn_steps)
        with mock.patch.object(_latency, "_BLOCK", block), \
                mock.patch.object(_latency, "_INT64_MAX", 1 if python_ints else _latency._INT64_MAX):
            flat, starts = _latency.column_numerators(arrays, list(tm), tn, list(counts))
        built = np.split(flat, starts[1:])
        classes = list(zip(arrays.cls_n.tolist(), arrays.cls_m.tolist(), arrays.cls_weight))
        assert [column.tolist() for column in built] == [
            [sum(w * (-(-n // t) * t) * (-(-m // c) * c) for n, m, w in classes)
             for t in tn[:count].tolist()]
            for count, c in columns]

    def test_wide_model_builds_columns_not_grid(self):
        # On vu9p, a 65,536-token model with a 65,536-wide MLP has a tn × tm
        # grid of N above 1 GB. Its columns hold at most (S/pm)(1 + ln |tm|)
        # entries, about 2.9 MB here; a small-budget search stays below that.
        dag, hw, space, bound = wide_model()
        assert 8 * len(space.tn_range) * len(space.tm_range) > 2**30
        assert peak_bytes(lambda: heuristic_search(dag, hw, space, _WIDE_CFG)) < bound
        result = heuristic_search(dag, hw, space, _WIDE_CFG)
        assert result.evaluations_used == 200
        # The longest column, 20,352 entries, is built a block of rows at a
        # time: no temporary grows with it.
        tm = feasible_tms(space)[0]
        count = tm_counts(space)[tm][1]
        tn = np.asarray(space.tn_range, dtype=np.int64)
        assert peak_bytes(lambda: _latency.column_numerators(
            result.arrays, [tm], tn, [count])) < 8 * count + 2**20


class TestSearchConfig:
    def test_from_doc_takes_the_five_fields(self):
        doc = {"set_size": 20, "iterations": 3, "preservation_size": 4, "seed": 7,
               "max_evaluations": 50}
        assert dataclasses.asdict(SearchConfig.from_doc(doc)) == doc

    @pytest.mark.parametrize("field, value", [
        ("use_cache", False), ("refine", False), ("mutation_bias", [0.25] * 4),
    ], ids=["use_cache", "refine", "mutation_bias"])
    def test_removed_fields_rejected(self, field, value):
        with pytest.raises(SchemaError, match=field):
            SearchConfig.from_doc({"seed": 0, field: value})

    def test_budget_must_cover_first_population(self):
        assert SearchConfig(set_size=20, preservation_size=4, max_evaluations=20)
        with pytest.raises(SchemaError, match="max_evaluations"):
            SearchConfig(set_size=20, preservation_size=4, max_evaluations=19)
        with pytest.raises(SchemaError, match="max_evaluations"):
            SearchConfig(max_evaluations=0)


class TestParetoFront:
    @staticmethod
    def _ev(pn, pm, tn, tm, lat):
        return Evaluation(TileParams(pn, pm, tn, tm), lat)

    def test_single_point(self):
        front = pareto_front(_log_of([self._ev(1, 2, 1, 4, 1.0)]))
        assert len(front) == 1

    def test_strict_domination_drops_slower_equal_parallelism(self):
        evals = [self._ev(2, 2, 1, 6, 10.0), self._ev(2, 2, 2, 6, 12.0)]
        front = pareto_front(_log_of(evals))
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

    def test_empty_input_rejected(self, toy_space):
        dag, hw, space = toy_space
        with pytest.raises(SchemaError):
            pareto_front(EvaluationLog([], [], [], [], [], []))
        with pytest.raises(SchemaError):
            pareto_front(exhaustive_search(dag, hw, space).all_evaluated[:0])
        with pytest.raises(SchemaError):  # no first evaluation: its only row is a repeat
            pareto_front(EvaluationLog([1], 2, [1], [4], [1.0], [True]))

    def test_parallelism_past_int64_rejected(self):
        # 9223373 * 999999895576 passes 2^63: an int64 product would wrap
        # negative and keep a dominated point.
        with pytest.raises(SchemaError, match="leaves int64"):
            pareto_front(EvaluationLog([9223373, 1], 999999895576, 1, 1, [1.0, 2.0], False))

    @pytest.mark.parametrize("pn,pm", [([1, 0], 2), (1, [2, -3])])
    def test_parallelism_below_one_rejected(self, pn, pm):
        with pytest.raises(SchemaError, match=">= 1"):
            pareto_front(EvaluationLog(pn, pm, [1, 2], 1, [1.0, 2.0], False))

    @settings(max_examples=400, deadline=None)
    @given(_small_evaluations)
    def test_matches_sweep_oracle(self, evals):
        assert pareto_front(_log_of(evals)) == oracle_pareto_front(evals)

    def test_matches_sweep_oracle_on_search_logs(self, toy_space):
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space).all_evaluated
        heur = heuristic_search(dag, hw, space,
                                SearchConfig(seed=3, set_size=20, iterations=10,
                                             preservation_size=4)).all_evaluated
        for log in (exh, heur, exh[::7]):
            assert pareto_front(log) == oracle_pareto_front(list(log))

    @settings(max_examples=300, deadline=None)
    @given(_mixed_logs(st.integers(1, 30)))
    def test_matches_sweep_oracle_with_broadcast_columns(self, log):
        assert pareto_front(log) == oracle_pareto_front(list(log))


class TestEvaluationLog:
    def test_sequence_contract(self):
        log = EvaluationLog([1, 2, 3], 2, [4, 5, 6], [8, 10, 12], [0.5, 0.75, 0.25],
                            [False, False, True])
        assert len(log) == 3
        assert log[0] == Evaluation(TileParams(1, 2, 4, 8), 0.5, False)
        assert log[-1] == Evaluation(TileParams(3, 2, 6, 12), 0.25, True)
        assert log[np.int64(1)] == Evaluation(TileParams(2, 2, 5, 10), 0.75, False)
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
        a = EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, math.inf], [False, True])
        b = _log_of(list(a))
        assert a == b
        assert a != a[:1]
        assert a != EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, math.inf], [False, False])
        assert a != EvaluationLog([1, 2], 2, [1, 1], [4, 6], [0.5, 0.75], [False, True])
        assert a != EvaluationLog([1, 2], [2, 4], [1, 1], [4, 6], [0.5, math.inf],
                                  [False, True])
        assert a != list(a)

    def test_search_logs_flag_repeats_as_cache_hits(self, toy_space):
        """Every search's log holds the invariant ``pareto_front`` relies on."""
        cfg = SearchConfig(seed=5, set_size=30, iterations=10, preservation_size=5)
        full = heuristic_search(*toy_space, cfg)
        # The population may use 60 of 100 evaluations, so the line sweeps
        # stop at the budget.
        cut = heuristic_search(*toy_space, dataclasses.replace(cfg, max_evaluations=100))
        assert cut.evaluations_used == 100 < full.evaluations_used
        logs = [full.all_evaluated, cut.all_evaluated,
                exhaustive_search(*toy_space).all_evaluated, exact_search(*toy_space).all_evaluated]
        for seed in (17, 1017, 2017):
            space = random_space(seed)
            logs += [heuristic_search(*space, SearchConfig(seed=seed, set_size=12, iterations=4,
                                                           preservation_size=3)).all_evaluated,
                     exhaustive_search(*space).all_evaluated, exact_search(*space).all_evaluated]
        for log in logs:
            assert log.from_cache.tolist() == _repeat_flags(
                zip(*(c.tolist() for c in log.columns()[:4])))


class TestCompareSearches:
    def test_self_comparison(self, toy_space):
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space)
        report = compare_searches(exh, exh, pareto_front(exh.all_evaluated))
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
        report = compare_searches(exh, heur, pareto_front(exh.all_evaluated))
        assert report.evaluation_ratio <= 0.2
        assert report.best_latency_gap_rel <= 0.01

    def test_degenerate_heuristic_still_well_formed(self, toy_space):
        # Smallest legal population with no refinement steps.
        dag, hw, space = toy_space
        exh = exhaustive_search(dag, hw, space)
        heur = heuristic_search(dag, hw, space,
                                SearchConfig(set_size=2, preservation_size=1,
                                             iterations=0, seed=0, max_evaluations=2))
        report = compare_searches(exh, heur, pareto_front(exh.all_evaluated))
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
                                all_evaluated=log, wall_time_s=1.0, space=space, arrays=None)

        report = compare_searches(result(_log(a, b, c, d)), result(_log(b, d)),
                                  pareto_front(_log(a, b, c, d)))
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
            compare_searches(exh, heur, pareto_front(exh.all_evaluated))


@st.composite
def _scored_logs(draw, sizes):
    """A slice of an exhaustive or heuristic search's log on a small random
    model and board, with the model and board."""
    dag, hw = draw(small_models_and_boards())
    try:
        space = enumerate_space(dag, hw)
    except EmptySearchSpaceError:
        assume(False)
    if draw(st.booleans()):
        result = exhaustive_search(dag, hw, space)
    else:
        result = heuristic_search(dag, hw, space, SearchConfig(
            set_size=6, iterations=3, preservation_size=2, seed=draw(st.integers(0, 3))))
    n = draw(sizes)
    log = result.all_evaluated
    assume(len(log) >= n)
    start = draw(st.integers(0, len(log) - n))
    return dataclasses.replace(result, all_evaluated=log[start:start + n]), dag, hw


@st.composite
def _gathered_logs(draw):
    """Pieces of an exhaustive search's log on a small random model and
    board, in any order, each row flagged at random, with the model and board.

    A piece runs on past the end of a tn sweep or a tm's block, and the
    flags change inside a sweep, where the pairs stay consecutive.
    """
    dag, hw = draw(small_models_and_boards())
    try:
        space = enumerate_space(dag, hw)
    except EmptySearchSpaceError:
        assume(False)
    result = exhaustive_search(dag, hw, space)
    log = result.all_evaluated
    pieces = draw(st.lists(st.tuples(st.integers(0, len(log) - 1), st.integers(1, 12)),
                           max_size=5))
    rows = [i for start, size in pieces for i in range(start, min(start + size, len(log)))]
    flags = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    gathered = EvaluationLog(*(c[np.array(rows, dtype=np.int64)] for c in log.columns()[:5]),
                             np.array(flags, dtype=bool))
    return dataclasses.replace(result, all_evaluated=gathered), dag, hw


class TestCsvExport:
    HEADER = "pn,pm,tn,tm,matmul_cycles_num,cycles_den,from_cache"

    def test_one_row_per_evaluation(self, toy_space):
        dag, hw, space = toy_space
        result = heuristic_search(dag, hw, space,
                                  SearchConfig(seed=1, set_size=10, iterations=3,
                                               preservation_size=2))
        lines = _csv_text(result).strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + len(result.all_evaluated)
        assert any(line.endswith("True") for line in lines[1:])  # cache hits logged

    def test_rows_match_csv_writer_format(self, toy_space):
        # One 40x32x64 matmul: N = 32·R(tn)·C(tm) and D = pn·pm·kernels, as
        # integers, one row per evaluation in log order.
        dag, hw, space = toy_space
        arrays = _latency.extract_cost_arrays(dag, hw)
        pn, tn, tm = np.array([3, 1]), np.array([10, 3]), np.array([8, 6])
        log = EvaluationLog(pn, 2, tn, tm, _latency.latency_batch(arrays, tn, tm, pn),
                            [True, False])
        result = SearchResult(best=log[0], evaluations_used=2, history=(),
                              all_evaluated=log, wall_time_s=1.0, space=space, arrays=arrays)
        assert _csv_text(result) == (
            f"{self.HEADER}\n"
            f"3,2,10,8,{32 * 40 * 64},24,True\n"
            f"1,2,3,6,{32 * 42 * 66},8,False\n"
        )

    @settings(max_examples=400, deadline=None)
    @given(_scored_logs(st.sampled_from([0, 1, 3, 4, 5]) | st.integers(0, 13)) | _gathered_logs(),
           st.sampled_from([1, 3, 1 << 14]))
    def test_blocks_match_csv_writer(self, scored, runs_block):
        # A block of 4 rows: lengths 0, 1, 3, 4 and 5 cover an empty log, a
        # partial block, one full block and a full block plus one row. Slices
        # of search logs start anywhere; gathered pieces of an exhaustive log
        # keep their pairs consecutive across changes of pn, tm and the flag.
        # Blocks of 1 and 3 split the numerators' runs of equal tm.
        result, dag, hw = scored
        with mock.patch.object(dse, "_CSV_BLOCK_ROWS", 4), \
                mock.patch.object(_latency, "_BLOCK", runs_block):
            text = _csv_text(result)
        self.check_against_reference(text, result, dag, hw)

    def test_numerators_beyond_int64_written_exactly(self):
        # k * R * C is about 2^67: the numerators are Python ints.
        dag = single_matmul_dag(n=2 ** 20 + 1, k=2 ** 26, m=2 ** 21 + 3)
        hw = toy_hw(onchip_capacity_elems=64)
        result = exhaustive_search(dag, hw, enumerate_space(dag, hw))
        text = _csv_text(result)
        assert max(int(row.split(",")[4]) for row in text.splitlines()[1:]) > 2 ** 63
        self.check_against_reference(text, result, dag, hw)

    @settings(max_examples=150)
    @given(small_models_and_boards(),
           st.lists(st.tuples(st.integers(1, 40) | st.integers(1, 2**20),
                              st.integers(1, 99) | st.integers(1, 2**20)), min_size=1, max_size=12),
           st.data(), st.sampled_from([1, 7, 1 << 14]), st.booleans())
    def test_pair_numerators_match_the_formula(self, model_and_board, distinct, data, block,
                                               python_ints):
        # Pairs repeat and come in any order; dense and sparse values take
        # both ways of finding the distinct ones, and blocks of 1 and 7
        # split the runs of equal tm.
        dag, hw = model_and_board
        arrays = _latency.extract_cost_arrays(dag, hw)
        pairs = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
        tn, tm = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        with mock.patch.object(_latency, "_BLOCK", block), \
                mock.patch.object(_latency, "_INT64_MAX", 1 if python_ints else _latency._INT64_MAX):
            tn_u, tm_u, numerators, pair = _latency.pair_numerators(arrays, tn, tm)
            entries = pair(tn, tm)
        assert list(zip(tn_u[entries].tolist(), tm_u[entries].tolist())) == pairs
        assert len(set(zip(tn_u.tolist(), tm_u.tolist()))) == len(tn_u) == len(numerators)
        # One column per distinct tm, in ascending tm: the distinct tns up to its largest.
        tns = sorted(set(tn.tolist()))
        assert list(zip(tn_u.tolist(), tm_u.tolist())) == [
            (t, c) for c in sorted(set(tm.tolist()))
            for t in tns[:tns.index(max(a for a, b in pairs if b == c)) + 1]]
        classes = list(zip(arrays.cls_n.tolist(), arrays.cls_m.tolist(), arrays.cls_weight))
        assert numerators.tolist() == [
            sum(w * (-(-n // t) * t) * (-(-m // c) * c) for n, m, w in classes)
            for t, c in zip(tn_u.tolist(), tm_u.tolist())]

    def test_wide_model_pairs_build_columns_not_grid(self):
        # A tm's column of numerators runs only up to its largest tn, so a
        # feasible log's columns stay under the column bound however wide
        # the grid of its distinct tn × distinct tm.
        dag, hw, space, bound = wide_model()
        result = heuristic_search(dag, hw, space, _WIDE_CFG)
        assert peak_bytes(lambda: evaluations_to_csv(result, io.StringIO())) < bound
        # Four elites' line sweeps: one CSV block whose distinct tn ×
        # distinct tm grid is over five times the bound. Its text alone
        # exceeds the bound, so the pairs' numerators are measured alone.
        result = heuristic_search(dag, hw, space, SearchConfig(
            set_size=5, iterations=0, preservation_size=4, seed=4))
        tn, tm = result.all_evaluated.tn, result.all_evaluated.tm
        assert len(tn) <= dse._CSV_BLOCK_ROWS
        assert 8 * np.unique(tn).size * np.unique(tm).size > 5 * bound
        assert peak_bytes(lambda: _latency.pair_numerators(result.arrays, tn, tm)) < bound

    @staticmethod
    def check_against_reference(text, result, dag, hw):
        """``text`` equals the ``csv.writer`` reference, and every row rounds
        back, through the summary's two fields, to its logged latency bit for bit."""
        log = result.all_evaluated
        assert text == _csv_reference(log, dag, hw)
        summary = json.loads(dse.search_summary_json(result))
        nl, freq = summary["nonlinear_cycles"], Fraction(summary["frequency_hz"])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [float((Fraction(int(r["matmul_cycles_num"]), int(r["cycles_den"])) + nl) / freq)
                for r in rows] == log.latency.tolist()

    @pytest.mark.parametrize("column, row, change", [
        ("latency", 0, lambda v: np.nextafter(v, np.inf)),
        ("latency", 5, lambda v: np.nextafter(v, 0)),
        ("latency", -1, lambda v: 2 * v),
        ("pm", 6, lambda v: 2 * v),
        ("tn", 2, lambda v: 0),
    ], ids=["latency-up", "latency-down", "latency-last", "pm", "tn-zero"])
    def test_altered_log_raises(self, toy_space, column, row, change):
        dag, hw, space = toy_space
        result = exhaustive_search(dag, hw, space)
        columns = {name: np.array(getattr(result.all_evaluated, name))
                   for name in EvaluationLog.__slots__}
        columns[column][row] = change(columns[column][row])
        altered = dataclasses.replace(result, all_evaluated=EvaluationLog(**columns))
        with mock.patch.object(dse, "_CSV_BLOCK_ROWS", 4), pytest.raises(SchemaError):
            _csv_text(altered)


@pytest.fixture(scope="module")
def tiny_exhaustive():
    """The exhaustive search over deit-tiny's full space (372,527 evaluations)."""
    dag, hw = preset_dag("deit-tiny")
    return exhaustive_search(dag, hw, enumerate_space(dag, hw))


@pytest.fixture(scope="module")
def doubled_log(tiny_exhaustive):
    """deit-tiny's exhaustive log, then a shuffled copy of it flagged as cache hits.

    Every third copy carries half its latency, which must not count: each
    configuration's first evaluation is the original.
    """
    log = tiny_exhaustive.all_evaluated
    perm = np.random.default_rng(7).permutation(len(log))
    copy = [c[perm] for c in log.columns()[:5]]
    copy[4][::3] /= 2
    return EvaluationLog(*(np.concatenate(pair) for pair in zip(log.columns()[:5], copy)),
                         np.repeat([False, True], len(log)))


def _unflagged(log):
    """``log`` with every cache flag cleared."""
    return EvaluationLog(*log.columns()[:5], False)


class TestParetoAtScale:
    def test_repeats_keep_first_evaluation(self, tiny_exhaustive, doubled_log):
        log = tiny_exhaustive.all_evaluated
        front = pareto_front(log)
        assert pareto_front(doubled_log) == front
        assert oracle_pareto_front(doubled_log) == front
        # Had the lowered copies counted, the front would differ.
        assert pareto_front(_unflagged(doubled_log[len(log):])) != front

    def test_wide_values_match_oracle(self):
        # 65,536 rows of distinct values up to 2^40; rows 2i and 2i+1 tie on pn·pm.
        n = 1 << 16
        rng = np.random.default_rng(11)
        pn = rng.choice(1 << 31, n, replace=False) + 1
        pm = pn[np.arange(n) ^ 1]
        tn, tm = (rng.choice(1 << 40, n, replace=False) + 1 for _ in range(2))
        log = EvaluationLog(pn, pm, tn, tm, rng.integers(0, 64, n) / 8, False)
        assert pareto_front(log) == oracle_pareto_front(list(log))

    def test_compare_searches_on_doubled_log(self, tiny_exhaustive, doubled_log):
        n = len(tiny_exhaustive.all_evaluated)
        front = pareto_front(_unflagged(doubled_log[n:]))  # the lowered copies make two points
        assert len(front) == 2

        def heuristic(log):
            return SearchResult(best=log[0], evaluations_used=len(log), history=(),
                                all_evaluated=log, wall_time_s=1.0,
                                space=tiny_exhaustive.space, arrays=None)

        full = compare_searches(tiny_exhaustive, heuristic(doubled_log), front)
        assert (full.pareto_coverage, full.pareto_point_coverage) == (1.0, 1.0)
        # Without any row of the first front point's configuration.
        pn, pm, tn, tm = doubled_log.columns()[:4]
        dropped = front[0].tiles
        rest = ~((pn == dropped.pn) & (pm == dropped.pm) & (tn == dropped.tn)
                 & (tm == dropped.tm))
        assert rest.sum() == 2 * n - 2
        partial = compare_searches(tiny_exhaustive, heuristic(EvaluationLog(
            *(c[rest] for c in doubled_log.columns()))), front)
        assert (partial.pareto_coverage, partial.pareto_point_coverage) == (0.5, 0.5)


class TestOutputMemory:
    """The search's outputs on deit-tiny's full space (372,527 evaluations).

    tracemalloc counts numpy's buffers as well as Python objects. Before the
    export was written in blocks it peaked at 73.9 MB, and the Pareto front
    at 34.8 MB.
    """

    @staticmethod
    def _peak_mb(fn):
        return peak_bytes(fn) / 2 ** 20

    def test_csv_export_peak_is_bounded_by_a_block(self, tiny_exhaustive, tmp_path):
        path = tmp_path / "evals.csv"

        def export():
            with path.open("w", encoding="utf-8") as fh:
                evaluations_to_csv(tiny_exhaustive, fh)

        assert len(tiny_exhaustive.all_evaluated) == 372_527
        assert self._peak_mb(export) < 12
        with path.open("rb") as fh:
            assert sum(1 for _ in fh) == 1 + 372_527

    def test_pareto_front_peak(self, tiny_exhaustive):
        # About 2 bytes per evaluation: the run boundaries and one comparison
        # of two columns at a time; the exhaustive log's columns are not copied.
        assert self._peak_mb(lambda: pareto_front(tiny_exhaustive.all_evaluated)) < 14

    def test_pareto_front_peak_with_flagged_copy(self, tiny_exhaustive, doubled_log):
        # The flagged copy's rows make one run, which is dropped: no column
        # is copied, and about two bytes per row (the run boundaries and one
        # comparison) are held at a time. Copying the unflagged rows' five
        # columns peaked at 21 MB.
        assert len(doubled_log) == 2 * 372_527
        assert self._peak_mb(lambda: pareto_front(doubled_log)) < 3


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
