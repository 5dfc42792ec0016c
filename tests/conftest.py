"""Shared fixtures: toy graphs, toy hardware, and random search spaces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Property tests draw the same examples on every run, so a verdict does not
# depend on the seed or on how fast the machine runs the examples; tests
# keep their own max_examples.
settings.register_profile("vitmap", derandomize=True, deadline=None)
settings.load_profile("vitmap")

# One line per acceptance criterion, echoed at the end of the pytest run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from vitmap.dse import SpaceCaps, enumerate_space
from vitmap.hw import HardwareSpec
from vitmap.model_ir import Dag, ModelSpec, OpKind, OpNode, build_dag, fuse_qkv


def toy_hw(**overrides) -> HardwareSpec:
    base = dict(
        name="toy",
        axi_width_bits=64,
        data_width_bits=16,
        onchip_capacity_elems=512,
        ddr_banks=4,
        num_kernels=4,
        frequency_hz=200e6,
        lop=16,
    )
    base.update(overrides)
    return HardwareSpec(**base)


def single_matmul_dag(n=40, k=32, m=64) -> Dag:
    return Dag((OpNode("mm", OpKind.MATMUL, (), (n, m), dims=(n, k, m)),))


def tiny_model(**overrides) -> ModelSpec:
    base = dict(name="toy", embed_dim=4, num_heads=1, num_layers=1, num_tokens=2,
                mlp_ratio=4.0, patch_pixels=768, num_classes=1000)
    base.update(overrides)
    return ModelSpec(**base)


@st.composite
def small_models_and_boards(draw):
    """A small random DAG (optionally QKV-fused) and board."""
    heads = draw(st.integers(1, 3))
    spec = tiny_model(
        embed_dim=heads * draw(st.integers(1, 6)), num_heads=heads,
        num_layers=draw(st.integers(1, 2)), num_tokens=draw(st.integers(1, 16)),
        mlp_ratio=draw(st.sampled_from([1.0, 2.0, 4.0])),
        patch_pixels=draw(st.integers(1, 24)), num_classes=draw(st.integers(1, 24)))
    hw = toy_hw(axi_width_bits=draw(st.sampled_from([64, 128])),
                onchip_capacity_elems=draw(st.integers(16, 512)),
                num_kernels=draw(st.integers(1, 4)), lop=draw(st.integers(1, 16)),
                frequency_hz=float(draw(st.integers(10 ** 6, 4 * 10 ** 8))))
    dag = build_dag(spec)
    if draw(st.booleans()):
        dag = fuse_qkv(dag, hw)
    return dag, hw


@pytest.fixture
def vu9p() -> HardwareSpec:
    return HardwareSpec(
        name="vu9p", axi_width_bits=512, data_width_bits=16,
        onchip_capacity_elems=212 * 3072, ddr_banks=4, num_kernels=8,
        frequency_hz=200e6, lop=16,
    )


@pytest.fixture
def toy_space():
    dag = single_matmul_dag()
    hw = toy_hw()
    return dag, hw, enumerate_space(dag, hw)


def random_space(seed: int, min_points: int = 1000, max_points: int = 5000):
    """A random (dag, hw, space) whose feasible size lands in the given band."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        dw = 16
        axi = int(rng.choice([64, 128, 256]))
        pm = axi // (2 * dw)
        n = int(rng.integers(30, 300))
        k = int(rng.integers(8, 129))
        m = int(rng.integers(8, 65)) * pm
        capacity = int(rng.integers(8, 129)) * pm * 4
        tn_max = int(rng.integers(8, 61))
        dag = single_matmul_dag(n, k, m)
        hw = toy_hw(axi_width_bits=axi, data_width_bits=dw,
                    onchip_capacity_elems=capacity)
        try:
            space = enumerate_space(dag, hw, SpaceCaps(tn_max=tn_max))
        except Exception:
            continue
        if min_points <= space.feasible_size() <= max_points:
            return dag, hw, space
    raise RuntimeError(f"no space of {min_points}..{max_points} points for seed {seed}")


def encoder_layer_ids(dag: Dag, layer: int) -> list[str]:
    prefix = f"l{layer:02d}."
    return [n.id for n in dag.nodes if n.id.startswith(prefix)]


def build_tiny_dag(**overrides) -> Dag:
    return build_dag(tiny_model(**overrides))
