"""The names perfbench's tracer wraps still exist where it looks them up.

``perfbench/spans.py`` patches functions by ``(owner, attribute)`` and skips
a name that is gone, so a refactor that moves one would silently drop
metrics from a traced run. The module is executed from its source here,
so nothing is written under ``perfbench/``.
"""

import contextlib
import io
import types
from importlib import resources
from pathlib import Path

import pytest

import vitmap.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves_to_a_live_attribute(spans):
    for owner_path, attr, _, _ in spans.TARGETS:
        owner = spans._resolve(owner_path)
        assert owner is not None, owner_path
        assert attr in vars(owner), f"{owner_path}.{attr}"


def test_traced_compile_settles_every_note(spans, tmp_path):
    hw = tmp_path / "vu9p.json"
    hw.write_text(resources.files("vitmap.presets").joinpath("vu9p.json").read_text())
    tracer = spans.Tracer()
    originals = {(o, a): vars(spans._resolve(o))[a] for o, a, _, _ in spans.TARGETS}
    with tracer.installed_wrappers(), contextlib.redirect_stdout(io.StringIO()):
        assert vitmap.cli.main(["compile", "--model", "deit-tiny", "--hw", str(hw),
                                "--batch", "2", "--out-dir", str(tmp_path / "out")]) == 0
    tracer.settle()
    assert tracer.installed == {name for _, _, name, _ in spans.TARGETS}
    assert all(vars(spans._resolve(o))[a] is raw for (o, a), raw in originals.items())
    metrics = spans.derive(tracer, 1)
    # deit-tiny has 12 layers of 15 nodes plus 2; fusion makes each layer's q, k, v two nodes.
    assert metrics["model_ir.nodes"] == 12 * 14 + 2
    assert metrics["model_ir.fusion_applied_ratio"] == 1.0
    for name in ("model_ir.build_dag", "model_ir.fuse_qkv", "model_ir.batch_expand",
                 "model_ir.analyze", "hw.graph_latency"):
        assert metrics[f"{name}_ms"] > 0, name


def test_traced_search_settles_every_note(spans, tmp_path):
    tracer = spans.Tracer()
    with tracer.installed_wrappers(), contextlib.redirect_stdout(io.StringIO()):
        assert vitmap.cli.main(["search", "--model", "deit-tiny", "--hw", "vu9p",
                                "--mode", "both", "--tn-cap", "8", "--tm-cap", "128",
                                "--out-dir", str(tmp_path / "out")]) == 0
    tracer.settle()
    noted = {name for _, _, name, note in spans.TARGETS if note is not None}
    settled = [attrs for name, *_, attrs in tracer.spans if name in noted]
    assert settled and all(settled)
    metrics = spans.derive(tracer, 1)
    # The capped space's 224 points, all scored by the exhaustive search, and 223
    # distinct points of the heuristic's (see test_cli's pinned search outputs).
    assert metrics["dse.space_points"] == 224
    assert metrics["dse.evaluations"] == 224 + 223
    for name in ("dse.search", "dse.pareto", "dse.csv", "dse.compare"):
        assert metrics[f"{name}_ms"] > 0, name
