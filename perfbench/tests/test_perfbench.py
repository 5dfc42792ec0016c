"""The benchmark's own tests: planted faults fail ops, and the tail rule.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import checks
import run
import spans
import stats
import workloads

# A model and board small enough that the full design space has a few
# thousand points, so exhaustive compiles and searches take milliseconds.
TINY_MODEL = {"schema_version": 1, "name": "tiny", "embed_dim": 16, "num_heads": 2,
              "num_layers": 1, "num_tokens": 9, "patch_pixels": 24, "num_classes": 10}
TINY_HW = {"schema_version": 1, "name": "tiny", "axi_width_bits": 64, "data_width_bits": 16,
           "onchip_capacity_elems": 1024, "ddr_banks": 4, "num_kernels": 4,
           "frequency_hz": 200000000.0, "lop": 16}


class TinyCompile(workloads.CliWorkload):
    def build_ops(self):
        self.hw = TINY_HW
        self.hw_path = self.write_input("tiny-hw.json", TINY_HW)
        model = self.write_input("tiny.json", TINY_MODEL)
        return [self.compile_op("tiny-b1", model, TINY_MODEL, 1, ["--exhaustive"])]


class TinySearch(workloads.SearchReport):
    def build_ops(self):
        self.hw = TINY_HW
        self.hw_path = self.write_input("tiny-hw.json", TINY_HW)
        return [self.search_op(self.write_input("tiny.json", TINY_MODEL), TINY_MODEL)]


def planted(wl, fault):
    """Run the op as usual, then apply ``fault`` to its outputs before the check."""
    real = wl.execute

    def execute(op, tracer=None):
        rc = real(op, tracer)
        fault(op)
        return rc

    wl.execute = execute
    _, result = run.run_op(wl, wl.ops[0], None)
    wl.execute = real
    return result


def edit_manifest(edit):
    def fault(op):
        path = op.out_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return fault


@pytest.fixture
def tiny_compile(tmp_path):
    return TinyCompile(tmp_path, 0)


def test_clean_compile_passes(tiny_compile):
    _, result = run.run_op(tiny_compile, tiny_compile.ops[0], None)
    assert result.problems == []
    assert result.artifact_bytes > 0 and result.design_latency_s[0] > 0


def test_tampered_manifest_latency_fails_the_op(tiny_compile):
    def tamper(m):
        m["latency"]["total_s"] *= 1 + 1e-12
    result = planted(tiny_compile, edit_manifest(tamper))
    assert any("latency.total_s" in p for p in result.problems)


def test_infeasible_tiles_fail_the_op(tiny_compile):
    def tamper(m):
        tiles = m["tiles"]
        tiles["pn"] = tiles["tm"] // tiles["pm"]
    result = planted(tiny_compile, edit_manifest(tamper))
    assert any("pn*pm" in p for p in result.problems)


def test_recompile_that_differs_fails_the_op(tiny_compile):
    assert run.run_op(tiny_compile, tiny_compile.ops[0], None)[1].problems == []
    result = planted(tiny_compile, edit_manifest(lambda m: m.update(seed=m["seed"] + 1)))
    assert any("differs from the first compile" in p for p in result.problems)


def test_batch_rows_defect_is_counted_apart(tmp_path):
    wl = TinyCompile(tmp_path, 0)
    op = wl.ops[0]
    op.argv[op.argv.index("--batch") + 1] = "4"
    op.batch = 4
    _, result = run.run_op(wl, op, None)
    assert result.known_defect and result.problems == []


def test_short_csv_fails_the_op(tmp_path):
    wl = TinySearch(tmp_path, 0)
    wl.warmup()
    assert run.run_op(wl, wl.ops[0], None)[1].problems == []

    def truncate(op):
        path = op.out_dir / "evals_exhaustive.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
    result = planted(wl, truncate)
    assert any("evals_exhaustive.csv has" in p for p in result.problems)


def test_comparable_pareto_points_fail(tmp_path):
    path = tmp_path / "pareto.csv"
    path.write_text("pn,pm,tn,tm,latency_s,parallelism\n1,2,1,4,0.5,2\n2,2,1,8,0.4,4\n")
    assert checks.pareto_problems(path)
    path.write_text("pn,pm,tn,tm,latency_s,parallelism\n1,2,1,4,0.4,2\n2,2,1,8,0.5,4\n")
    assert checks.pareto_problems(path) == []


@pytest.fixture(scope="module")
def approx_workload(tmp_path_factory):
    wl = workloads.ApproxKernels(tmp_path_factory.mktemp("approx"), 0)
    wl.warmup()
    return wl


def test_clean_kernel_pass_passes(approx_workload):
    _, result = run.run_op(approx_workload, approx_workload.ops[0], None)
    assert result.problems == []


@pytest.mark.parametrize("kernel", workloads.GOLDEN_SAMPLES)
def test_kernel_output_off_by_one_lsb_fails_the_op(approx_workload, kernel):
    def bump(op):
        out = approx_workload.last[0][kernel]
        out.reshape(-1)[out.size // 2] += 1
    result = planted(approx_workload, bump)
    assert any("differ from the first pass" in p for p in result.problems)


@pytest.mark.parametrize("kernel", workloads.GOLDEN_SAMPLES)
def test_golden_models_catch_one_lsb(approx_workload, kernel):
    wl = approx_workload
    outputs, _ = wl.run_pass(None)
    rows = kernel in ("softmax", "layernorm")
    sample = {k: [0] for k in workloads.GOLDEN_SAMPLES}
    assert checks.golden_problems(wl.inputs, outputs, wl.cfg, sample) == []
    arr = outputs[kernel]
    (arr[0] if rows else arr.reshape(-1))[:1] += 1
    assert checks.golden_problems(wl.inputs, outputs, wl.cfg, sample)


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    value, pct, beyond = stats.tail(xs)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in xs) == 10
    value, pct, beyond = stats.tail(range(11))
    assert (value, beyond) == (0, 10) and pct == pytest.approx(100 / 11)


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail(range(10)) == (9, 100.0, 0)


def test_self_time_excludes_direct_children():
    recs = [["cli.main", 0.0, 10.0, -1, 0, {}],
            ["dse.search", 1.0, 7.0, 0, 0, {}],
            ["dse.latency_batch", 2.0, 4.0, 1, 0, {}]]
    assert spans.self_times(recs) == [4.0, 4.0, 2.0]


def test_wrappers_are_removed_and_missing_names_skipped(monkeypatch):
    import vitmap.cli

    original = vitmap.cli.heuristic_search
    monkeypatch.delattr(vitmap.cli, "pareto_front")
    tracer = spans.Tracer()
    with tracer.installed_wrappers():
        assert vitmap.cli.heuristic_search is not original
    assert vitmap.cli.heuristic_search is original
    assert "dse.pareto" not in tracer.installed
    assert "dse.pareto_ms" not in spans.derive(tracer, 1)
