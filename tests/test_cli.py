import json

import pytest

from vitmap.cli import main
from vitmap.errors import SchemaError
from vitmap.layout import (
    ScheduleDescriptor,
    ScheduleKind,
    schedule_layernorm,
    schedule_row_parallel,
    schedule_softmax,
)
from vitmap.manifest import (
    TemplateParams,
    emit_template_params,
    parse_template_params,
    template_params_from_manifest,
)

TOY_MODEL = {
    "schema_version": 1, "name": "toy", "embed_dim": 8, "num_heads": 2,
    "num_layers": 1, "num_tokens": 16, "mlp_ratio": 4.0, "patch_pixels": 48,
    "num_classes": 10,
}
TOY_HW = {
    "schema_version": 1, "name": "toy", "axi_width_bits": 64, "data_width_bits": 16,
    "onchip_capacity_elems": 2048, "ddr_banks": 4, "num_kernels": 4,
    "frequency_hz": 2e8, "lop": 16,
}


@pytest.fixture
def docs(tmp_path):
    model = tmp_path / "model.json"
    hw = tmp_path / "hw.json"
    model.write_text(json.dumps(TOY_MODEL))
    hw.write_text(json.dumps(TOY_HW))
    return model, hw


def run(*argv):
    return main([str(a) for a in argv])


class TestCompile:
    def test_compile_writes_manifest(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--seed", 7,
                   "--out-dir", out, "--max-evals", 400) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["search"]["mode"] == "heuristic"
        assert set(manifest["schedules"]) == {
            "MatMulRowParallel", "Gelu", "Softmax", "LayerNorm"}
        assert (out / "analysis.csv").exists()

    def test_batch_flag_reaches_schedules_and_compile_block(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--batch", 64,
                   "--out-dir", out, "--max-evals", 300) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["manifest_version"] == 2
        assert manifest["compile"] == {"batch": 64, "qkv_fusion": "applied"}
        rows = TOY_MODEL["num_tokens"] * 64
        for kind, doc in manifest["schedules"].items():
            assert doc["rows"] == rows, kind
            assert ScheduleDescriptor.from_doc(doc).op_kind.value == kind

    def test_model_batch_is_the_default(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**TOY_MODEL, "batch": 3}))
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(TOY_HW))
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--no-fuse",
                   "--out-dir", out, "--max-evals", 300) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["compile"] == {"batch": 3, "qkv_fusion": "disabled"}
        assert {d["rows"] for d in manifest["schedules"].values()} == {16 * 3}

    def test_compile_never_expands_schedules(self, tmp_path, monkeypatch):
        import vitmap.cli
        import vitmap.layout

        def refuse(*args, **kwargs):
            raise AssertionError("compile expanded a schedule")

        for module in (vitmap.cli, vitmap.layout):
            for name in ("schedule_row_parallel", "schedule_softmax", "schedule_layernorm"):
                monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "out"
        assert run("compile", "--model", "deit-base", "--hw", "vu9p", "--batch", 64,
                   "--out-dir", out, "--max-evals", 300) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # deit-base's fused QKV weights (768 x 2304) exceed vu9p's on-chip capacity
        assert manifest["compile"] == {"batch": 64, "qkv_fusion": "skipped"}
        softmax = manifest["schedules"]["Softmax"]
        assert (softmax["rows"], softmax["steps"]) == (197 * 64, 197 * 64 * 3)

    def test_identical_runs_byte_identical(self, docs, tmp_path):
        model, hw = docs
        for d in ("a", "b"):
            assert run("compile", "--model", model, "--hw", hw, "--seed", 3,
                       "--out-dir", tmp_path / d, "--max-evals", 300) == 0
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
               (tmp_path / "b" / "manifest.json").read_bytes()

    def test_exhaustive_flag_matches_search_optimum(self, docs, tmp_path):
        from vitmap.dse import enumerate_space, exhaustive_search
        from vitmap.hw import parse_hardware
        from vitmap.model_ir import batch_expand, build_dag, fuse_qkv, parse_model

        model, hw_path = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw_path, "--exhaustive",
                   "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())

        spec = parse_model(TOY_MODEL)
        hw = parse_hardware(TOY_HW)
        dag = batch_expand(fuse_qkv(build_dag(spec), hw), spec.batch)
        best = exhaustive_search(dag, hw, enumerate_space(dag, hw)).best
        assert manifest["tiles"] == {"pn": best.tiles.pn, "pm": best.tiles.pm,
                                     "tn": best.tiles.tn, "tm": best.tiles.tm}

    def test_malformed_model_exits_2(self, docs, tmp_path):
        _, hw = docs
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x"}))
        assert run("compile", "--model", bad, "--hw", hw, "--out-dir", tmp_path) == 2

    def test_malformed_hw_exits_3(self, docs, tmp_path):
        model, _ = docs
        bad = tmp_path / "badhw.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x"}))
        assert run("compile", "--model", model, "--hw", bad, "--out-dir", tmp_path) == 3


class TestSearch:
    def test_both_mode_writes_logs_and_comparison(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "s"
        assert run("search", "--model", model, "--hw", hw, "--mode", "both",
                   "--out-dir", out, "--max-evals", 500, "--seed", 1) == 0
        for name in ("evals_exhaustive.csv", "evals_heuristic.csv",
                     "search_exhaustive.json", "search_heuristic.json",
                     "pareto_exhaustive.csv", "pareto_heuristic.csv",
                     "comparison.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "comparison.json").read_text())
        assert report["best_latency_gap_rel"] >= 0.0
        summary = json.loads((out / "search_heuristic.json").read_text())
        assert summary["evaluations_used"] <= summary["space_size"]

    def test_over_cap_refused_exit_4(self, docs, tmp_path):
        model, hw = docs
        assert run("search", "--model", model, "--hw", hw, "--mode", "exhaustive",
                   "--out-dir", tmp_path, "--exhaustive-cap", 10) == 4

    def test_force_overrides_cap(self, docs, tmp_path):
        model, hw = docs
        assert run("search", "--model", model, "--hw", hw, "--mode", "exhaustive",
                   "--out-dir", tmp_path / "f", "--exhaustive-cap", 10, "--force") == 0

    def test_two_seeds_both_feasible(self, docs, tmp_path):
        model, hw = docs
        for seed in (11, 12):
            out = tmp_path / f"seed{seed}"
            assert run("search", "--model", model, "--hw", hw, "--mode", "heuristic",
                       "--out-dir", out, "--seed", seed, "--max-evals", 300) == 0
            lines = (out / "evals_heuristic.csv").read_text().strip().splitlines()
            assert len(lines) > 1


class TestSchedule:
    def test_writes_traces(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "sched"
        assert run("schedule", "--model", model, "--hw", hw, "--out-dir", out) == 0
        for name in ("row_parallel", "gelu", "softmax", "layernorm"):
            assert (out / f"schedule_{name}.trace").exists()
            assert (out / f"schedule_{name}.json").exists()

    @pytest.mark.parametrize("model_name", ["toy", "deit-base"])
    def test_files_equal_generator_output(self, docs, tmp_path, model_name):
        model, hw = docs
        if model_name == "toy":
            argv, rows, heads = ["--model", model, "--hw", hw], 16, 2
        else:
            argv, rows, heads = ["--model", "deit-base", "--hw", "vu9p"], 197, 12
        out = tmp_path / "sched"
        assert run("schedule", *argv, "--out-dir", out) == 0
        bn = 4  # both boards have 4 DDR banks
        expected = {
            "row_parallel": schedule_row_parallel(rows, bn, bn),
            "gelu": schedule_row_parallel(rows, bn, bn, ScheduleKind.GELU),
            "softmax": schedule_softmax(heads, bn, rows),
            "layernorm": schedule_layernorm(rows, bn, bn),
        }
        for name, sched in expected.items():
            assert (out / f"schedule_{name}.trace").read_text() == sched.to_trace()
            assert (out / f"schedule_{name}.json").read_text() == sched.to_json()


class TestApproxReport:
    def test_default_run_writes_four_reports(self, tmp_path):
        out = tmp_path / "approx"
        assert run("approx-report", "--out-dir", out, "--samples", 256) == 0
        for fn in ("isqrt", "exp", "softmax", "gelu"):
            assert (out / f"approx_{fn}.json").exists()
        assert (out / "approx_errors.csv").exists()

    def test_exact_flag_zeroes_reports(self, tmp_path):
        out = tmp_path / "exact"
        assert run("approx-report", "--out-dir", out, "--samples", 128, "--exact") == 0
        for fn in ("isqrt", "exp", "softmax", "gelu"):
            rep = json.loads((out / f"approx_{fn}.json").read_text())
            assert rep["max_abs"] == 0.0 and rep["mean_abs"] == 0.0

    def test_coarse_format_larger_errors(self, tmp_path):
        assert run("approx-report", "--out-dir", tmp_path / "q88", "--samples", 256) == 0
        assert run("approx-report", "--out-dir", tmp_path / "q44", "--samples", 256,
                   "--format", "Q4.4") == 0
        for fn in ("isqrt", "gelu"):
            fine = json.loads((tmp_path / "q88" / f"approx_{fn}.json").read_text())
            coarse = json.loads((tmp_path / "q44" / f"approx_{fn}.json").read_text())
            assert coarse["max_abs"] >= fine["max_abs"]


class TestEmit:
    BOARD_SMALL = TemplateParams(pn=99, pm=16, tn=198, tm=1600, bn=4, kernels=8,
                                 lop=16, pack_factor=16)

    def test_small_board_manifest_emits_published_tiles(self):
        manifest = {
            "tiles": {"pn": 99, "pm": 16, "tn": 198, "tm": 1600},
            "hardware": {"ddr_banks": 4, "num_kernels": 8, "lop": 16,
                         "axi_width_bits": 512, "data_width_bits": 16},
        }
        text = emit_template_params(template_params_from_manifest(manifest))
        lines = text.strip().splitlines()
        assert lines[:4] == ["pn=99", "pm=16", "tn=198", "tm=1600"]

    def test_round_trip(self):
        text = emit_template_params(self.BOARD_SMALL)
        assert parse_template_params(text) == self.BOARD_SMALL

    def test_corrupted_manifest_rejected(self):
        manifest = {
            "tiles": {"pn": 100, "pm": 16, "tn": 198, "tm": 1600},
            "hardware": {"ddr_banks": 4, "num_kernels": 8, "lop": 16,
                         "axi_width_bits": 512, "data_width_bits": 16},
        }
        with pytest.raises(SchemaError):
            template_params_from_manifest(manifest)

    def test_emit_command_exit_6_on_corrupt(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({
            "tiles": {"pn": 100, "pm": 16, "tn": 198, "tm": 1600},
            "hardware": {"ddr_banks": 4, "num_kernels": 8, "lop": 16,
                         "axi_width_bits": 512, "data_width_bits": 16},
        }))
        assert run("emit", "--manifest", bad, "--out-dir", tmp_path) == 6

    def test_emit_command_round_trip(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "c"
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", out,
                   "--max-evals", 200) == 0
        assert run("emit", "--manifest", out / "manifest.json", "--out-dir", out) == 0
        params = parse_template_params((out / "template_params.env").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert params.pn == manifest["tiles"]["pn"]
