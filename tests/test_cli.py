import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from vitmap import cli, dse
from vitmap.cli import main
from vitmap.errors import InfeasibleTilesError
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


@pytest.mark.parametrize("stage, code, argv", [
    ("model", 2, ["compile", "--model", "{bad}", "--hw", "{hw}"]),
    ("hardware", 3, ["compile", "--model", "{model}", "--hw", "{bad}"]),
    ("search", 4, ["search", "--model", "{model}", "--hw", "{hw}", "--mode", "heuristic",
                   "--search-config", "{bad}"]),
    ("approx", 7, ["approx-report", "--approx-config", "{bad}"]),
], ids=["model", "hardware", "search", "approx"])
def test_non_utf8_input_exits_with_its_stage(docs, tmp_path, capsys, stage, code, argv):
    model, hw = docs
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    paths = {"bad": bad, "model": model, "hw": hw}
    assert run(*(a.format(**paths) for a in argv), "--out-dir", out) == code
    assert capsys.readouterr().err.startswith(f"error: [{stage}] cannot read {bad}")
    assert not out.exists()


class TestParser:
    # Good calls and usage errors, in an order where a cached parser could
    # leak state: a flag given once (--no-fuse, --batch) must not persist,
    # and a usage error must not disturb the next call.
    CALLS = [
        ["compile", "--model", "deit-tiny", "--hw", "vu9p", "--no-fuse", "--batch", "2"],
        ["search", "--model", "deit-tiny", "--hw", "vu9p", "--mode", "exhaustive",
         "--set-size", "5"],
        ["compile", "--model", "deit-tiny", "--hw", "vu9p", "--tm-cap", "256"],
        ["compile", "--model", "deit-tiny"],
        ["approx-report", "--samples", "64", "--format", "Q4.4"],
        ["search", "--model", "deit-tiny", "--hw", "vu9p", "--mode", "heuristic",
         "--tn-cap", "8", "--tm-cap", "128"],
        ["schedule", "--model", "deit-tiny", "--hw", "vu9p"],
    ]
    CODES = [0, 2, 0, 2, 0, 0, 0]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for i, argv in enumerate(self.CALLS):
            results = []
            for where in ("here", "fresh"):
                out = tmp_path / where / str(i)
                args = [*argv, "--out-dir", str(out)]
                if where == "here":
                    try:
                        code = main(args)
                    except SystemExit as exc:  # usage errors exit through argparse
                        code = exc.code
                    text = capsys.readouterr()
                    stdout, stderr = text.out, text.err
                else:
                    proc = subprocess.run(
                        [sys.executable, "-c", "import sys; from vitmap.cli import main; "
                                               "sys.exit(main(sys.argv[1:]))", *args],
                        capture_output=True, text=True, env=env, check=False)
                    code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
                files = {p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
                results.append((code, stdout, stderr, files))
            assert results[0] == results[1], argv
            assert results[0][0] == self.CODES[i]


class TestCompile:
    def test_compile_writes_manifest(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--seed", 7,
                   "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["search"]["mode"] == "exact"
        assert set(manifest["schedules"]) == {
            "MatMulRowParallel", "Gelu", "Softmax", "LayerNorm"}
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "analysis.json", "analysis.csv"}

    def test_output_key_sets_are_closed(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"manifest_version", "tool_version", "seed", "model",
                                 "hardware", "tiles", "latency", "schedules", "approx",
                                 "search", "compile"}
        assert set(manifest["latency"]) == {"total_s", "matmul_s", "nonlinear_s"}
        analysis = json.loads((out / "analysis.json").read_text())
        assert set(analysis) == {"kind_counts", "total_macs", "critical_path_len"}

    def test_analysis_json_holds_the_scalars_and_csv_the_matmuls(self, tmp_path):
        out = tmp_path / "out"
        assert run("compile", "--model", "deit-tiny", "--hw", "vu9p", "--out-dir", out) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        # deit-tiny: 12 layers of 14 nodes (six of them matmuls once QKV is fused),
        # between the embedding and the classifier.
        assert analysis == {
            "kind_counts": {"Add": 24, "Concat": 12, "Gelu": 12, "LayerNorm": 24,
                            "MatMul": 74, "Softmax": 12, "Split": 12},
            "total_macs": 1253830656, "critical_path_len": 170,
        }
        rows = (out / "analysis.csv").read_text().splitlines()
        assert rows[0] == "id,n,k,m,heads,head_scoped,macs"
        assert len(rows) == 1 + 74
        assert sum(int(row.rsplit(",", 1)[1]) for row in rows[1:]) == analysis["total_macs"]

    def test_batch_flag_reaches_schedules_and_compile_block(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "out"
        assert run("compile", "--model", model, "--hw", hw, "--batch", 64,
                   "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["manifest_version"] == 3
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
                   "--out-dir", out) == 0
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
                   "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # deit-base's fused QKV weights (768 x 2304) exceed vu9p's on-chip capacity
        assert manifest["compile"] == {"batch": 64, "qkv_fusion": "skipped"}
        softmax = manifest["schedules"]["Softmax"]
        assert (softmax["rows"], softmax["steps"]) == (197 * 64, 197 * 64 * 3)

    def test_identical_runs_byte_identical(self, docs, tmp_path):
        model, hw = docs
        for d in ("a", "b"):
            assert run("compile", "--model", model, "--hw", hw, "--seed", 3,
                       "--out-dir", tmp_path / d) == 0
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

    def test_default_compile_is_exact(self, docs, tmp_path):
        model, hw = docs
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", tmp_path / "exact") == 0
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", tmp_path / "exhaustive",
                   "--exhaustive") == 0
        exact, exhaustive = (json.loads((tmp_path / d / "manifest.json").read_text())
                             for d in ("exact", "exhaustive"))
        assert exact["search"]["mode"] == "exact"
        assert exact["search"]["best_latency_s"] == exact["latency"]["total_s"]
        assert set(exact["search"]) == set(exhaustive["search"])
        assert exact["tiles"] == exhaustive["tiles"]
        assert exact["latency"] == exhaustive["latency"]

    def test_exhaustive_best_latency_is_the_exact_total(self, tmp_path):
        # deit-base's float sum once read 0.017420449947644006 here, beside
        # the exact total 0.017420449947643978.
        assert run("compile", "--model", "deit-base", "--hw", "vu9p", "--exhaustive",
                   "--force", "--out-dir", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["search"]["mode"] == "exhaustive"
        assert manifest["search"]["best_latency_s"] == manifest["latency"]["total_s"]

    @pytest.mark.parametrize("flags", [
        ["--heuristic"], ["--max-evals", "300"], ["--set-size", "20"], ["--iterations", "3"],
        ["--preservation", "2"], ["--search-config", "cfg.json"],
    ], ids=lambda flags: flags[0].lstrip("-"))
    def test_compile_rejects_heuristic_flags(self, docs, tmp_path, capsys, flags):
        model, hw = docs
        with pytest.raises(SystemExit) as exc:
            run("compile", "--model", model, "--hw", hw, "--out-dir", tmp_path / "out", *flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_bool_model_field_exits_2(self, docs, tmp_path, capsys):
        _, hw = docs
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TOY_MODEL, "num_layers": True}))
        assert run("compile", "--model", bad, "--hw", hw, "--out-dir", tmp_path / "out") == 2
        assert "num_layers must be an integer in [1, 1024], got True" in capsys.readouterr().err

    def test_bool_hw_field_exits_3(self, docs, tmp_path, capsys):
        model, _ = docs
        bad = tmp_path / "badhw.json"
        bad.write_text(json.dumps({**TOY_HW, "num_kernels": True}))
        assert run("compile", "--model", model, "--hw", bad, "--out-dir", tmp_path / "out") == 3
        assert ("num_kernels must be an integer in [1, 2147483647], got True"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, preset, field, value, code, message", [
        ("--model", "deit_tiny.json", "mlp_ratio", "4", 2,
         "error: [model] mlp_ratio must be a number in (0, 2147483647), got '4'"),
        ("--hw", "vu9p.json", "resource_budget", [1], 3,
         "error: [hardware] resource_budget must be an object of integers in "
         "[0, 2147483647] or null, got [1]"),
    ], ids=["string-mlp-ratio", "list-resource-budget"])
    def test_mistyped_preset_field_exits_with_its_stage(self, tmp_path, capsys, flag, preset,
                                                        field, value, code, message):
        doc = json.loads(resources.files("vitmap.presets").joinpath(preset).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, field: value}))
        inputs = {"--model": "deit-tiny", "--hw": "vu9p", flag: bad}
        out = tmp_path / "out"
        assert run("compile", *(x for kv in inputs.items() for x in kv), "--out-dir", out) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["Q24.8", "Q4.4"])
    def test_format_other_than_the_datapath_exits_7(self, tmp_path, capsys, fmt):
        # vu9p's pm of 16 is a pack factor for its 16-bit datapath.
        out = tmp_path / "out"
        assert run("compile", "--model", "deit-tiny", "--hw", "vu9p", "--format", fmt,
                   "--out-dir", out) == 7
        bits = sum(map(int, fmt[1:].split(".")))
        assert capsys.readouterr().err == (f"error: [approx] format {fmt} is {bits} bits wide, "
                                           "but hardware vu9p has data_width_bits 16\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("flags", [
        ["--max-evals", "300"], ["--set-size", "20"], ["--iterations", "3"],
        ["--preservation", "2"], ["--search-config", "cfg.json"],
    ], ids=lambda flags: flags[0].lstrip("-"))
    def test_exhaustive_mode_rejects_heuristic_flags(self, docs, tmp_path, capsys, flags):
        model, hw = docs
        with pytest.raises(SystemExit) as exc:
            run("search", "--model", model, "--hw", hw, "--mode", "exhaustive",
                "--out-dir", tmp_path / "out", *flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exhaustive_pareto_front_computed_once(self, docs, tmp_path, monkeypatch):
        calls = []
        front = dse.pareto_front

        def counted(evals):
            calls.append(len(evals))
            return front(evals)

        monkeypatch.setattr(dse, "pareto_front", counted)
        monkeypatch.setattr(cli, "pareto_front", counted)
        model, hw = docs
        assert run("search", "--model", model, "--hw", hw, "--mode", "both",
                   "--out-dir", tmp_path / "s", "--max-evals", 300) == 0
        assert len(calls) == 2  # one front per search

    def test_two_seeds_both_feasible(self, docs, tmp_path):
        model, hw = docs
        for seed in (11, 12):
            out = tmp_path / f"seed{seed}"
            assert run("search", "--model", model, "--hw", hw, "--mode", "heuristic",
                       "--out-dir", out, "--seed", seed, "--max-evals", 300) == 0
            lines = (out / "evals_heuristic.csv").read_text().strip().splitlines()
            assert len(lines) > 1

    @pytest.mark.parametrize("field", ["use_cache", "refine", "mutation_bias"])
    def test_removed_search_config_field_exits_4(self, docs, tmp_path, capsys, field):
        model, hw = docs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"set_size": 20, field: None}))
        assert run("search", "--model", model, "--hw", hw, "--mode", "heuristic",
                   "--search-config", cfg, "--out-dir", tmp_path / "out") == 4
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_budget_below_set_size_exits_4(self, tmp_path, capsys):
        # The first population alone (set size 100) would overrun a budget of 50.
        assert run("search", "--model", "deit-tiny", "--hw", "vu9p", "--mode", "heuristic",
                   "--max-evals", 50, "--tn-cap", 8, "--tm-cap", 128,
                   "--out-dir", tmp_path / "out") == 4
        assert "max_evaluations (50) must be >= set_size (100)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # sha256 of each output of `search --mode both --tn-cap 8 --tm-cap 128` on
    # deit-tiny (seed 0). comparison.json holds a measured wall-time ratio and
    # is checked field by field instead. search_heuristic.json's history ends
    # with the best latency after the line sweeps.
    PINNED_SEARCH_DIGESTS = {
        "evals_exhaustive.csv": "a2bd58d6ff6c54caad7fcf9601560737330c3d98b17037c28ff0163a0d2b2997",
        "evals_heuristic.csv": "655cd55e8c05cc94fdd8d269a0b6eab72ea99b2a080c67fdc441ef8200e8c72c",
        "pareto_exhaustive.csv": "2d612cffc653ce0ca31573c602814a79f81c69a0b0bfe5c7b6f57bc4a560cfaf",
        "pareto_heuristic.csv": "2d612cffc653ce0ca31573c602814a79f81c69a0b0bfe5c7b6f57bc4a560cfaf",
        "search_exhaustive.json": "329448c818635ec168f8b50889e36761d7de0f80a68825888009239feb83cc2c",
        "search_heuristic.json": "70d10095880270f3d9da7f1fc870170b584a48084634e4c4ecb6a45806b018b5",
    }

    def test_capped_deit_tiny_outputs_pinned(self, tmp_path):
        out = tmp_path / "s"
        assert run("search", "--model", "deit-tiny", "--hw", "vu9p", "--mode", "both",
                   "--tn-cap", 8, "--tm-cap", 128, "--out-dir", out) == 0
        written = {p.name for p in out.iterdir()}
        assert written == set(self.PINNED_SEARCH_DIGESTS) | {"comparison.json"}
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.PINNED_SEARCH_DIGESTS}
        assert digests == self.PINNED_SEARCH_DIGESTS
        report = json.loads((out / "comparison.json").read_text())
        assert report.pop("wall_clock_ratio") > 0
        assert report == {
            "best_latency_gap_rel": 0.0, "evaluation_ratio": 223 / 224,
            "exhaustive_evaluations": 224, "heuristic_evaluations": 223,
            "pareto_coverage": 1.0, "pareto_front_size": 1, "pareto_point_coverage": 1.0,
        }


class TestSchedule:
    def test_writes_one_json_per_kind(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "sched"
        assert run("schedule", "--model", model, "--hw", hw, "--out-dir", out) == 0
        assert {p.name for p in out.iterdir()} == {
            f"schedule_{name}.json" for name in ("row_parallel", "gelu", "softmax", "layernorm")}

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
            assert (out / f"schedule_{name}.json").read_text() == sched.to_json()


class TestApproxReport:
    def test_default_run_writes_four_reports(self, tmp_path):
        out = tmp_path / "approx"
        assert run("approx-report", "--out-dir", out, "--samples", 256) == 0
        assert {p.name for p in out.iterdir()} == {
            f"approx_{fn}.json" for fn in ("isqrt", "exp", "softmax", "gelu")}

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

    def test_gelu_knots_and_pieces_together_exit_7(self, tmp_path, capsys):
        cfg = tmp_path / "approx.json"
        cfg.write_text(json.dumps({"schema_version": 1, "gelu_knots": [-2, 0, 2],
                                   "gelu_pieces": [[-32769, 0, 0], [0, 256, 0]]}))
        assert run("approx-report", "--approx-config", cfg,
                   "--out-dir", tmp_path / "out") == 7
        assert "unknown fields ['gelu_pieces']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# The criterion-2 board: S = 212·3072, 4 banks, 8 kernels at 200 MHz.
SMALL_BOARD = {
    "name": "board", "axi_width_bits": 512, "data_width_bits": 16,
    "onchip_capacity_elems": 212 * 3072, "ddr_banks": 4, "num_kernels": 8,
    "frequency_hz": 2e8, "lop": 16,
}


def board_manifest(hardware=None, **tiles):
    """A manifest's emit-relevant blocks: deit-small's published tiles on SMALL_BOARD."""
    return {"tiles": {"pn": 99, "pm": 16, "tn": 198, "tm": 1600, **tiles},
            "hardware": {**SMALL_BOARD, **(hardware or {})}}


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


class TestEmit:
    BOARD_SMALL = TemplateParams(pn=99, pm=16, tn=198, tm=1600, bn=4, kernels=8,
                                 lop=16, pack_factor=16)
    BOARD_SMALL_TEXT = "pn=99\npm=16\ntn=198\ntm=1600\nbn=4\nkernels=8\nlop=16\npack_factor=16\n"

    # sha256 of template_params.env from compile → emit on vu9p: the bytes
    # emit wrote before it re-checked manifests with vitmap.hw.
    PINNED_TEMPLATE_DIGESTS = {
        "deit-tiny": "8d4e939de18db34c4506d04ed0c2e160232296276f392cda0e7017ee56d15bcc",
        "deit-small": "865f1e5fac77c670ae4860ab34333e49b7fde90fb763033ea5fd9238afa16ddf",
        "deit-base": "f44389290f8bf92789f667e1e3347c19a246da58486d8c068b36cb75dc657045",
    }

    def test_small_board_manifest_emits_published_tiles(self):
        params = template_params_from_manifest(board_manifest())
        assert params == self.BOARD_SMALL
        assert emit_template_params(params) == self.BOARD_SMALL_TEXT

    def test_round_trip(self):
        assert emit_template_params(self.BOARD_SMALL) == self.BOARD_SMALL_TEXT

    def test_corrupted_manifest_rejected(self):
        with pytest.raises(InfeasibleTilesError) as exc:
            template_params_from_manifest(board_manifest(pn=100))
        assert exc.value.violations == ("pn 100 not < tm/pm = 1600/16",)

    def test_emit_command_exit_6_on_corrupt(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(board_manifest(pn=100)))
        assert run("emit", "--manifest", bad, "--out-dir", tmp_path) == 6

    @pytest.mark.parametrize("manifest, message", [
        (board_manifest(tn=100_000), "exceeds on-chip capacity"),
        (board_manifest(pn=100), "pn 100 not < tm/pm"),
        (board_manifest(tm=1608), "tm 1608 not a multiple of pm 16"),
        (board_manifest(pm=8), "pm 8 != floor(AXI/(2*DW)) = 16"),
        (board_manifest(pn=1.5), "pn must be an integer in [1, 2147483647], got 1.5"),
        (board_manifest(pn=True), "pn must be an integer in [1, 2147483647], got True"),
        (without(board_manifest(), "tiles"), "'tiles' must be a JSON object"),
        (without(board_manifest(), "hardware"), "'hardware' must be a JSON object"),
        (board_manifest({"resource_budget": None}), "unknown fields ['resource_budget']"),
        (board_manifest({"frequency_hz": "2e8"}),
         "frequency_hz must be a number in (0, 1000000000000), got '2e8'"),
        ([board_manifest()], "manifest must be a JSON object"),
        (board_manifest({"data_width_bits": 0}),
         "data_width_bits must be an integer in [1, 2147483647], got 0"),
        (b"\xff\xfe", "manifest.json: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["tile-over-capacity", "pn-bound", "tm-not-multiple", "pm-not-pack-factor",
            "float-pn", "bool-pn", "no-tiles", "no-hardware", "unknown-field",
            "string-frequency", "json-list", "zero-data-width", "not-utf8"])
    def test_emit_rejects(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_bytes(manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode())
        out = tmp_path / "out"
        assert run("emit", "--manifest", path, "--out-dir", out) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: [emit] ") and message in err
        assert not out.exists()

    def test_emit_command_round_trip(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "c"
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", out) == 0
        assert run("emit", "--manifest", out / "manifest.json", "--out-dir", out) == 0
        assert {p.name for p in out.iterdir()} == {
            "manifest.json", "analysis.json", "analysis.csv", "template_params.env"}
        tiles = json.loads((out / "manifest.json").read_text())["tiles"]
        assert (out / "template_params.env").read_text() == (
            f"pn={tiles['pn']}\npm=2\ntn={tiles['tn']}\ntm={tiles['tm']}\n"
            "bn=4\nkernels=4\nlop=16\npack_factor=2\n")

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("model", sorted(PINNED_TEMPLATE_DIGESTS))
    def test_compile_then_emit_pinned(self, tmp_path, model, batch):
        out = tmp_path / "c"
        assert run("compile", "--model", model, "--hw", "vu9p", "--batch", batch,
                   "--out-dir", out) == 0
        assert run("emit", "--manifest", out / "manifest.json", "--out-dir", out) == 0
        digest = hashlib.sha256((out / "template_params.env").read_bytes()).hexdigest()
        assert digest == self.PINNED_TEMPLATE_DIGESTS[model]

    def test_emit_has_no_out_flag(self, docs, tmp_path, capsys):
        model, hw = docs
        out = tmp_path / "c"
        assert run("compile", "--model", model, "--hw", hw, "--out-dir", out) == 0
        with pytest.raises(SystemExit) as exc:
            run("emit", "--manifest", out / "manifest.json", "--out", tmp_path / "F",
                "--out-dir", tmp_path / "d")
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "F").exists() and not (tmp_path / "d").exists()

    def test_compiled_manifest_with_oversized_tile_exits_6(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("compile", "--model", "deit-tiny", "--hw", "vu9p", "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["tiles"]["tn"] = 100_000
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        assert run("emit", "--manifest", path, "--out-dir", out) == 6
        assert "exceeds on-chip capacity 651264" in capsys.readouterr().err
        assert not (out / "template_params.env").exists()


class TestPinnedOutputs:
    """sha256 of every output file of compile, schedule and approx-report,
    taken before they shared one text writer: a change to the writer must
    not move a byte. The manifest digests are of version 3: each version-2
    manifest with ``latency.per_node`` and ``model_fingerprint`` removed and
    ``manifest_version`` set to 3, re-encoded with ``json_text``."""

    COMPILE_DIGESTS = {
        ("deit-tiny", 1): {
            "manifest.json": "144987623db249bb7dd303d016dbb67f996411dc8b051be7ee31f2491ac758d6",
            "analysis.csv": "7fca7d211b41acec023a7e7225131e48b34facdc07e082695830e16414167399",
        },
        ("deit-tiny", 64): {
            "manifest.json": "982395a6b64a823d98575fd5fe94c589e59b4ca8eb36da840928ae03d8b0c400",
            "analysis.csv": "c342f1acbc8fc10b35e049ea93c9bba87f72ea6e01b7ccc0c3e7e24c843248c8",
        },
        ("deit-base", 1): {
            "manifest.json": "a91915636368f4723d62c18834c6f8f000848457dbe1233566a3ae253394503c",
            "analysis.csv": "11d9075b34b0460886aadc52e5555e946ec5cd72030ffbcccef35f9fba071327",
        },
        ("deit-base", 64): {
            "manifest.json": "cab9cc00e4484ba364df1cdda54fc708981baf332c1f4cebe71ffac806476042",
            "analysis.csv": "0c499c71cb6dce927c05c5c5ad543890d88568d6d0eee1ba5d6c7a9d85efb539",
        },
    }
    # `schedule` on TOY_MODEL and TOY_HW.
    SCHEDULE_DIGESTS = {
        "schedule_row_parallel.json":
            "83c53bc3b349fb3cc03592729dde0f75d0c82c01aa64c3a8f107abcedb577018",
        "schedule_gelu.json": "e759e557b0902d35c11e350c23d931128c7fe835257b7ecf7fdd99affe85a5a2",
        "schedule_softmax.json": "b800f259592580ce51670384a0cfd78dd20cfe66b4605e6770fc1642d2872add",
        "schedule_layernorm.json":
            "7082fda44b00e8d766de307b35ec97790bba15971036ce63f15915d6f944a413",
    }
    # `approx-report --samples 256` (Q8.8, seed 0).
    APPROX_DIGESTS = {
        "approx_isqrt.json": "483fa87b8ea980ebd6b7f6ff4f155afa63ca25618e68905003d268681beebfb3",
        "approx_exp.json": "a2665b8815d5e488cb67c81e9e083178548bc8fd9961bd72e068937dff7fa137",
        "approx_softmax.json": "0d1b0994238660bac96c4a25f5d213f602d74cf6c3221609c9e49dbf3684a9bd",
        "approx_gelu.json": "cad57a538e8c9df43e2cd847afe152ef7edebca5f935d94be746b9f6b754f7ab",
    }

    @staticmethod
    def digests(out, names):
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}

    @pytest.mark.parametrize("model, batch", sorted(COMPILE_DIGESTS))
    def test_compile(self, tmp_path, model, batch):
        out = tmp_path / "c"
        assert run("compile", "--model", model, "--hw", "vu9p", "--batch", batch,
                   "--out-dir", out) == 0
        pinned = self.COMPILE_DIGESTS[(model, batch)]
        assert self.digests(out, pinned) == pinned

    def test_compile_in_the_datapath_format(self, tmp_path):
        out = tmp_path / "c"
        assert run("compile", "--model", "deit-tiny", "--hw", "vu9p", "--format", "Q8.8",
                   "--out-dir", out) == 0
        pinned = self.COMPILE_DIGESTS[("deit-tiny", 1)]
        assert self.digests(out, pinned) == pinned

    def test_schedule(self, docs, tmp_path):
        model, hw = docs
        out = tmp_path / "s"
        assert run("schedule", "--model", model, "--hw", hw, "--out-dir", out) == 0
        assert self.digests(out, self.SCHEDULE_DIGESTS) == self.SCHEDULE_DIGESTS

    def test_approx_report(self, tmp_path):
        out = tmp_path / "a"
        assert run("approx-report", "--samples", 256, "--out-dir", out) == 0
        assert self.digests(out, self.APPROX_DIGESTS) == self.APPROX_DIGESTS
