import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tiny_dag, single_matmul_dag, small_models_and_boards, toy_hw
from vitmap.errors import InfeasibleTilesError, SchemaError
from vitmap.hw import (
    GraphCost,
    HardwareSpec,
    TileParams,
    compute_pm,
    graph_latency,
    kernel_factor,
    matmul_cost,
    nonlinear_cycles,
    parse_hardware,
    validate_tiles,
)
from vitmap.model_ir import Dag, OpKind, OpNode, batch_expand

# Published board configurations: (pn, pm, tn, tm).
BOARD_CONFIGS = {
    "deit-t": TileParams(35, 16, 210, 576),
    "deit-s": TileParams(99, 16, 198, 1600),
    "deit-b": TileParams(102, 16, 212, 3072),
}


class TestComputePm:
    def test_512_16(self):
        assert compute_pm(512, 16) == 16

    def test_512_8(self):
        assert compute_pm(512, 8) == 32

    def test_minimal_ratio(self):
        assert compute_pm(32, 16) == 1

    def test_precondition(self):
        with pytest.raises(SchemaError):
            compute_pm(16, 16)


class TestKernelFactor:
    def test_head_grouped(self):
        assert kernel_factor(12, 8, True) == 2

    def test_split_across_kernels(self):
        assert kernel_factor(12, 8, False) == Fraction(1, 8)

    def test_single(self):
        assert kernel_factor(1, 1, True) == 1

    def test_invalid(self):
        with pytest.raises(SchemaError):
            kernel_factor(0, 1, True)


class TestMatmulCost:
    def test_hand_arithmetic_example(self):
        hw = toy_hw(axi_width_bits=64, data_width_bits=8, onchip_capacity_elems=64)
        cost = matmul_cost((4, 8, 8), TileParams(2, 4, 4, 8), hw)
        assert cost.ops_per_tile == 256
        assert cost.total_ops == 256
        assert cost.num_tiles_row == 1 and cost.num_tiles_col == 1
        assert cost.adjusted_cycles == Fraction(256, 8) * Fraction(1, 4) == 8
        assert cost.latency_s == pytest.approx(40e-9, rel=0, abs=1e-18)

    def test_fully_sequential_reduces_to_mac_count(self):
        n, k, m = 7, 5, 9
        hw = toy_hw(axi_width_bits=32, data_width_bits=16, num_kernels=1,
                    onchip_capacity_elems=n * m)
        cost = matmul_cost((n, k, m), TileParams(1, 1, n, m), hw,
                           head_flag=True, num_heads=1)
        assert cost.kernel_factor == 1
        assert cost.adjusted_cycles == n * k * m

    def test_board_score_matmul_regression(self, vu9p):
        # Per-head score matmul of the 768-wide model; value pinned from the
        # independent formula evaluation.
        cost = matmul_cost((197, 64, 197), BOARD_CONFIGS["deit-b"], vu9p,
                           head_flag=True, num_heads=12)
        assert cost.adjusted_cycles == Fraction(868352, 17)
        assert cost.latency_s == pytest.approx(0.00025539764705882355, rel=1e-15)

    def test_capacity_violation_signals_prune(self, vu9p):
        with pytest.raises(InfeasibleTilesError):
            matmul_cost((197, 64, 197), TileParams(1, 16, 651264, 16), vu9p)

    def test_wrong_pm_signals_prune(self, vu9p):
        with pytest.raises(InfeasibleTilesError):
            matmul_cost((8, 8, 8), TileParams(1, 8, 4, 32), vu9p)


class TestValidateTiles:
    def test_board_configs_feasible(self, vu9p):
        for tiles in BOARD_CONFIGS.values():
            verdict = validate_tiles(tiles, vu9p)
            assert verdict.ok, verdict.violations
            assert tiles.pn * tiles.pm < tiles.tm

    def test_pn_bound_is_strict(self, vu9p):
        verdict = validate_tiles(TileParams(36, 16, 210, 576), vu9p)
        assert not verdict.ok
        assert any("pn" in v for v in verdict.violations)

    def test_capacity_bound(self, vu9p):
        verdict = validate_tiles(TileParams(1, 16, 651265 // 16 + 1, 16), vu9p)
        assert not verdict.ok

    @pytest.mark.parametrize("pn", [1.5, 35.0, "35", True])
    def test_non_integer_tiles_rejected_everywhere(self, vu9p, pn):
        # One rule for validate_tiles, graph_latency and matmul_cost.
        tiles = TileParams(pn, 16, 210, 576)
        assert validate_tiles(tiles, vu9p).violations == (
            f"tile parameters must be integers, got {tiles}",)
        with pytest.raises(InfeasibleTilesError, match="must be integers"):
            graph_latency(single_matmul_dag(), tiles, vu9p)
        with pytest.raises(InfeasibleTilesError, match="must be integers"):
            matmul_cost((197, 192, 576), tiles, vu9p)


class TestGraphLatency:
    def test_single_matmul_equals_matmul_cost(self):
        hw = toy_hw()
        dag = single_matmul_dag(8, 8, 8)
        tiles = TileParams(1, 2, 4, 8)
        got = graph_latency(dag, tiles, hw)
        want = matmul_cost((8, 8, 8), tiles, hw)
        assert got.total_latency_s == pytest.approx(want.latency_s, rel=1e-15)
        assert got.nonlinear_latency_s == 0

    def test_tiny_dag_matches_hand_summed_oracle(self):
        hw = toy_hw()
        dag = build_tiny_dag()
        tiles = TileParams(1, 2, 2, 4)
        got = graph_latency(dag, tiles, hw)

        # Independent per-node oracle straight from the formulas.
        cycles = Fraction(0)
        for node in dag.nodes:
            if node.kind is OpKind.MATMUL:
                n, k, m = node.dims
                ops = tiles.tn * tiles.tm * k * math.ceil(n / tiles.tn) * math.ceil(m / tiles.tm)
                kf = Fraction(math.ceil(node.heads / hw.num_kernels)) if node.head_scoped \
                    else Fraction(1, hw.num_kernels)
                cycles += Fraction(ops, tiles.pn * tiles.pm) * kf
            else:
                cycles += math.ceil(node.work_elems / (hw.lop * hw.num_kernels))
        assert got.total_latency_s == pytest.approx(float(cycles / Fraction(hw.frequency_hz)),
                                                    rel=1e-12)

    def test_doubling_kernels_halves_matmul_latency(self):
        # No head-grouped nodes: kernel factor is 1/kernels everywhere.
        dag = Dag((
            OpNode("a", OpKind.MATMUL, (), (8, 16), dims=(8, 4, 16)),
            OpNode("g", OpKind.GELU, ("a",), (8, 16)),
            OpNode("b", OpKind.MATMUL, ("g",), (8, 4), dims=(8, 16, 4)),
        ))
        tiles = TileParams(1, 2, 4, 8)
        one = graph_latency(dag, tiles, toy_hw(num_kernels=2))
        two = graph_latency(dag, tiles, toy_hw(num_kernels=4))
        assert two.matmul_latency_s == pytest.approx(one.matmul_latency_s / 2, rel=1e-15)

    def test_infeasible_raises(self):
        # The pn bound is checked here, unlike in matmul_cost.
        tiles = TileParams(99, 2, 4, 8)
        with pytest.raises(InfeasibleTilesError) as exc:
            graph_latency(single_matmul_dag(), tiles, toy_hw())
        assert exc.value.violations == validate_tiles(tiles, toy_hw()).violations
        assert any("pn" in v for v in exc.value.violations)
        matmul_cost((8, 8, 8), tiles, toy_hw())  # pure cost query still evaluates
        with pytest.raises(InfeasibleTilesError, match="capacity"):
            graph_latency(single_matmul_dag(), TileParams(1, 2, 99, 8), toy_hw())


def node_by_node_cost(dag, tiles, hw) -> GraphCost:
    """Every node costed on its own and summed in Fractions.

    A matmul's cycles are the tiling formula restated here, which its
    ``matmul_cost`` must equal, cycles and seconds; other nodes take
    ``ceil(work_elems / (lop·kernels))`` cycles, as ``nonlinear_cycles`` must.
    """
    freq = Fraction(hw.frequency_hz)
    mm_cycles, nl_cycles = Fraction(0), 0
    for node in dag.nodes:
        if node.kind is OpKind.MATMUL:
            n, k, m = node.dims
            kf = (Fraction(-(-node.heads // hw.num_kernels)) if node.head_scoped
                  else Fraction(1, hw.num_kernels))
            ops = tiles.tn * tiles.tm * k * -(-n // tiles.tn) * -(-m // tiles.tm)
            cycles = Fraction(ops, tiles.pn * tiles.pm) * kf
            cost = matmul_cost(node.dims, tiles, hw, node.head_scoped, node.heads)
            assert (cost.adjusted_cycles, cost.latency_s) == (cycles, float(cycles / freq))
            mm_cycles += cycles
        else:
            cycles = -(-node.work_elems // (hw.lop * hw.num_kernels))
            assert nonlinear_cycles(node.work_elems, hw) == cycles
            nl_cycles += cycles
    return GraphCost(float((mm_cycles + nl_cycles) / freq), float(mm_cycles / freq),
                     float(Fraction(nl_cycles) / freq))


@settings(max_examples=80)
@given(small_models_and_boards(), st.integers(1, 64), st.data())
def test_graph_latency_equals_node_by_node_reference(case, batch, data):
    """Counting the nodes of each distinct shape and costing the shape once
    changes no total, on fused and unfused DAGs at any batch."""
    dag, hw = case
    dag = batch_expand(dag, batch)
    pm = hw.pack_factor
    tm = pm * data.draw(st.integers(2, hw.onchip_capacity_elems // pm), label="tm/pm")
    tiles = TileParams(data.draw(st.integers(1, tm // pm - 1), label="pn"), pm,
                       data.draw(st.integers(1, hw.onchip_capacity_elems // tm), label="tn"),
                       tm)
    assert graph_latency(dag, tiles, hw) == node_by_node_cost(dag, tiles, hw)


def test_shape_memo_keys_on_head_scope_and_heads():
    """Matmuls of equal dims that differ in ``head_scoped`` or ``heads`` are costed apart."""
    dims = (8, 4, 16)
    dag = Dag((  # independent sources, so no edge constrains the shapes
        OpNode("a", OpKind.MATMUL, dims=dims),
        OpNode("b", OpKind.MATMUL, dims=dims, head_scoped=True, heads=2),
        OpNode("c", OpKind.MATMUL, dims=dims, head_scoped=True, heads=12),
        OpNode("d", OpKind.MATMUL, dims=dims, heads=12),
        OpNode("e", OpKind.MATMUL, dims=dims, head_scoped=True, heads=2),
    ))
    hw, tiles = toy_hw(), TileParams(1, 2, 4, 8)
    # Three distinct kernel factors: 1/4 unscoped, 1 for 2 heads, 3 for 12 heads.
    assert len({matmul_cost(n.dims, tiles, hw, n.head_scoped, n.heads).adjusted_cycles
                for n in dag.nodes}) == 3
    assert graph_latency(dag, tiles, hw) == node_by_node_cost(dag, tiles, hw)


class TestInvariants:
    def test_latency_strictly_decreasing_in_pn(self):
        hw = toy_hw(onchip_capacity_elems=4096)
        dims = (50, 30, 70)
        prev = math.inf
        for pn in range(1, 30):
            cost = matmul_cost(dims, TileParams(pn, 2, 8, 64), hw)
            assert cost.latency_s < prev
            prev = cost.latency_s

    def test_frequency_homogeneity(self):
        dims = (50, 30, 70)
        tiles = TileParams(3, 2, 8, 64)
        base = matmul_cost(dims, tiles, toy_hw(onchip_capacity_elems=4096))
        for c in (2.0, 3.0, 7.5):
            scaled = matmul_cost(dims, tiles,
                                 toy_hw(onchip_capacity_elems=4096, frequency_hz=200e6 * c))
            assert scaled.latency_s == pytest.approx(base.latency_s / c, rel=1e-15)

    def test_total_ops_independent_of_parallelism(self):
        rng = np.random.default_rng(5)
        hw_base = dict(onchip_capacity_elems=1 << 20)
        for _ in range(50):
            dims = tuple(int(x) for x in rng.integers(1, 300, 3))
            tn, tm = int(rng.integers(1, 128)), 2 * int(rng.integers(1, 128))
            totals = set()
            for pn, kernels in ((1, 1), (5, 2), (17, 8)):
                cost = matmul_cost(dims, TileParams(pn, 2, tn, tm),
                                   toy_hw(num_kernels=kernels, **hw_base))
                totals.add(cost.total_ops)
            assert len(totals) == 1
            n, k, m = dims
            total = totals.pop()
            assert total >= n * k * m
            assert (total == n * k * m) == (n % tn == 0 and m % tm == 0)

    def test_nonlinear_cycles_ceiling(self):
        hw = toy_hw(lop=16, num_kernels=4)
        assert nonlinear_cycles(64, hw) == 1
        assert nonlinear_cycles(65, hw) == 2


class TestParseHardware:
    def test_round_trip(self, vu9p):
        doc = {
            "schema_version": 1, "name": "vu9p", "axi_width_bits": 512,
            "data_width_bits": 16, "onchip_capacity_elems": 651264,
            "ddr_banks": 4, "num_kernels": 8, "frequency_hz": 2e8, "lop": 16,
        }
        assert parse_hardware(doc) == vu9p

    def test_axi_narrower_than_word_rejected(self):
        with pytest.raises(SchemaError):
            HardwareSpec("bad", 16, 16, 100, 4, 4, 2e8, 16)

    def test_schema_version_mandatory(self):
        with pytest.raises(SchemaError, match="schema_version"):
            parse_hardware({"name": "x"})
