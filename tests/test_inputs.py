"""Every input document is read by one reader: malformed input exits with its stage's code.

The regression cases each once ended in a traceback, a hang or a silently
accepted value. The property mutates each preset and config document and
runs every command on it in process.
"""

import collections
import contextlib
import io
import json
import re
import signal
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitmap import cli, errors
from vitmap.approx import ApproxConfig
from vitmap.approx.config import APPROX_FIELDS
from vitmap.dse import SEARCH_FIELDS, SearchConfig
from vitmap.hw import HARDWARE_FIELDS, HARDWARE_OPTIONAL, TILE_FIELDS, parse_hardware
from vitmap.layout import ScheduleDescriptor
from vitmap.manifest import template_params_from_manifest
from vitmap.model_ir import MODEL_FIELDS, MODEL_OPTIONAL, parse_model

ROOT = Path(__file__).resolve().parent.parent
STAGES = {2: "model", 3: "hardware", 4: "search", 6: "emit", 7: "approx"}
CAPS = ["--tn-cap", "8", "--tm-cap", "256"]


def preset(name: str) -> dict:
    return json.loads(resources.files("vitmap.presets").joinpath(f"{name}.json").read_text())


SEARCH_DOC = {"set_size": 20, "iterations": 3, "preservation_size": 4, "seed": 7,
              "max_evaluations": 50}
APPROX_DOCS = [
    {"schema_version": 1, "format": "Q8.8", "isqrt_table_size": 64, "recip_table_size": 64,
     "exp_domain_lo": -8.0, "gelu_knots": [-4, -2, 0, 2, 4], "recip_refine": 1,
     "renormalize": False, "ln_eps": 1},
    {"schema_version": 1, "gelu_knots": [-3, -1, 0, 1, 2]},
]
# deit-small's published tiles on the criterion-2 board.
MANIFEST = {
    "tiles": {"pn": 99, "pm": 16, "tn": 198, "tm": 1600},
    "hardware": {"name": "board", "axi_width_bits": 512, "data_width_bits": 16,
                 "onchip_capacity_elems": 212 * 3072, "ddr_banks": 4, "num_kernels": 8,
                 "frequency_hz": 2e8, "lop": 16},
}


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail a run that does not finish in ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(argv, docs: dict, work: Path):
    """``cli.main`` on ``argv`` with each ``{name}`` replaced by a file holding ``docs[name]``.

    A document is written as JSON, or as-is when it is bytes. Returns the exit
    code and stderr.
    """
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    err = io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([a.format(**paths) for a in argv] + ["--out-dir", str(work / "out")])
    return code, err.getvalue()


def assert_exits(code, err, expected, work: Path):
    assert code == expected, err
    assert err.startswith(f"error: [{STAGES[expected]}] "), err
    assert "Traceback" not in err
    assert not (work / "out").exists()


COMPILE = ["compile", "--model", "deit-tiny", "--hw", "vu9p", *CAPS]
MODEL = ["compile", "--model", "{doc}", "--hw", "vu9p", *CAPS]
HARDWARE = ["compile", "--model", "deit-tiny", "--hw", "{doc}", *CAPS]
SEARCH = ["search", "--model", "deit-tiny", "--hw", "vu9p", "--mode", "heuristic", *CAPS]
APPROX = ["approx-report", "--samples", "64", "--approx-config", "{doc}"]


def approx(**fields):
    return {"schema_version": 1, **fields}


# (argv, the document written for {doc}, exit code)
REGRESSIONS = {
    "model-schema-version-true": (MODEL, {**preset("deit_tiny"), "schema_version": True}, 2),
    "model-num-layers-2**70": (MODEL, {**preset("deit_tiny"), "num_layers": 2**70}, 2),
    "model-num-tokens-2**70": (MODEL, {**preset("deit_tiny"), "num_tokens": 2**70}, 2),
    "model-batch-2**70": (MODEL, {**preset("deit_tiny"), "batch": 2**70}, 2),
    "model-mlp-ratio-2**70": (MODEL, {**preset("deit_tiny"), "mlp_ratio": 2**70}, 2),
    "model-unknown-key": (MODEL, {**preset("deit_tiny"), "depth": 12}, 2),
    "hw-schema-version-true": (HARDWARE, {**preset("vu9p"), "schema_version": True}, 3),
    "hw-num-kernels-2**70": (HARDWARE, {**preset("vu9p"), "num_kernels": 2**70}, 3),
    "hw-unknown-key": (HARDWARE, {**preset("vu9p"), "clock_mhz": 200}, 3),
    "search-string-set-size": (SEARCH + ["--search-config", "{doc}"], {"set_size": "10"}, 4),
    "search-list-document": (SEARCH + ["--search-config", "{doc}"], [1], 4),
    "search-float-seed": (SEARCH + ["--search-config", "{doc}"], {"seed": 1.5}, 4),
    "approx-int-format": (APPROX, approx(format=3), 7),
    "approx-string-table-size": (APPROX, approx(isqrt_table_size="x"), 7),
    "approx-int-gelu-pieces": (APPROX, approx(gelu_pieces=5), 7),
    "approx-string-recip-refine": (APPROX, approx(recip_refine="1"), 7),
    "approx-nan-exp-domain": (APPROX, approx(exp_domain_lo="nan"), 7),
    "approx-exp-domain-rounds-to-0": (APPROX, approx(exp_domain_lo=-1e-300), 7),
    "approx-negative-ln-eps": (APPROX, approx(ln_eps=-5), 7),
    "approx-string-renormalize": (APPROX, approx(renormalize="no"), 7),
    "approx-unknown-key": (APPROX, approx(pade_order=[2, 2]), 7),
    "approx-isqrt-table-2**70": (APPROX, approx(isqrt_table_size=2**70), 7),
    "approx-recip-table-2**16": (APPROX, approx(recip_table_size=2**16), 7),
    "approx-refine-2**70": (APPROX, approx(recip_refine=2**70), 7),
    "approx-format-q1.15": (APPROX, approx(format="Q1.15"), 7),
    "approx-format-q2.0": (APPROX, approx(format="Q2.0"), 7),
    "approx-knot-intercepts-2**63": (
        APPROX, approx(format="Q1.6", gelu_knots=[1518500242, 1518500256]), 7),
    "search-set-size-2**70": (SEARCH + ["--search-config", "{doc}"], {"set_size": 2**70}, 4),
    "search-iterations-2**70": (SEARCH + ["--search-config", "{doc}"], {"iterations": 2**70}, 4),
    "compile-tn-step-0": (COMPILE + ["--tn-step", "0"], None, 4),
    "compile-tm-step-0": (COMPILE + ["--tm-step", "0"], None, 4),
    "search-tn-step-0": (SEARCH + ["--tn-step", "0"], None, 4),
    "search-tm-step-0": (SEARCH + ["--tm-step", "0"], None, 4),
    "compile-tn-cap-0": (COMPILE + ["--tn-cap", "0"], None, 4),
    "compile-tn-cap-negative": (COMPILE + ["--tn-cap", "-3"], None, 4),
    "compile-tm-cap-0": (COMPILE + ["--tm-cap", "0"], None, 4),
    "compile-pn-cap-0": (COMPILE + ["--pn-cap", "0"], None, 4),
    "search-pn-cap-negative": (SEARCH + ["--pn-cap", "-1"], None, 4),
    "search-seed-negative": (SEARCH + ["--seed", "-1"], None, 4),
    "approx-samples-0": (["approx-report", "--samples", "0"], None, 7),
    "approx-samples-negative": (["approx-report", "--samples", "-1"], None, 7),
    "approx-seed-negative": (["approx-report", "--seed", "-1"], None, 7),
}


@pytest.mark.parametrize("argv, doc, code", REGRESSIONS.values(), ids=REGRESSIONS.keys())
def test_malformed_input_exits_with_its_stage(tmp_path, argv, doc, code):
    code_, err = run(argv, {} if doc is None else {"doc": doc}, tmp_path)
    assert_exits(code_, err, code, tmp_path)


def test_messages_name_the_field_and_value(tmp_path):
    argv, doc, _ = REGRESSIONS["model-num-layers-2**70"]
    assert run(argv, {"doc": doc}, tmp_path)[1] == (
        f"error: [model] num_layers must be an integer in [1, 1024], got {2**70}\n")
    argv, doc, _ = REGRESSIONS["model-unknown-key"]
    assert run(argv, {"doc": doc}, tmp_path)[1] == (
        "error: [model] model document: missing fields [], unknown fields ['depth']\n")
    # A space cap below 1 is named, not reported as an empty space.
    assert run(REGRESSIONS["compile-tn-cap-0"][0], {}, tmp_path)[1] == (
        "error: [search] tn_max must be an integer in [1, 2147483647] or null, got 0\n")
    # A format too narrow for the default GELU knots names them, not the pieces.
    argv, doc, _ = REGRESSIONS["approx-format-q1.15"]
    assert run(argv, {"doc": doc}, tmp_path)[1] == (
        "error: [approx] Q1.15 holds [-1, 0.999969]: the default gelu knots -4, -3, -2, 1, 2, "
        "3, 4 fall outside it (the first knot must be at least -1)\n")
    argv, doc, _ = REGRESSIONS["approx-format-q2.0"]
    assert run(argv, {"doc": doc}, tmp_path)[1] == (
        "error: [approx] Q2.0 holds [-2, 1]: the default gelu knots -4, -3, 2, 3, 4 fall "
        "outside it (the first knot must be at least -2)\n")


def search_one(model="deit-tiny", hw="vu9p"):
    """A one-iteration heuristic search."""
    return ["search", "--model", model, "--hw", hw, "--mode", "heuristic", "--iterations", "1",
            "--set-size", "12", "--preservation", "2", "--max-evals", "30", *CAPS]


# (argv, a valid document for {doc}, exit code of the document's stage). Emit
# mutates one block of its manifest.
DOCUMENTS = [
    *((argv, preset(m), 2) for m in ("deit_tiny", "deit_small", "deit_base") for argv in (
        MODEL, search_one(model="{doc}"), ["schedule", "--model", "{doc}", "--hw", "vu9p"])),
    *((argv, preset("vu9p"), 3) for argv in (
        HARDWARE, search_one(hw="{doc}"), ["schedule", "--model", "deit-tiny", "--hw", "{doc}"])),
    (SEARCH + ["--search-config", "{doc}"], SEARCH_DOC, 4),
    *((argv, doc, 7) for doc in APPROX_DOCS
      for argv in (APPROX, COMPILE + ["--approx-config", "{doc}"])),
    (["emit", "--manifest", "{doc}"], MANIFEST, 6),
]
RETYPED = st.sampled_from(["4", True, [1], None, 1.5, 2**70])


@settings(max_examples=400)
@given(case=st.sampled_from(DOCUMENTS), data=st.data())
def test_mutated_documents_exit_with_their_stage(case, data):
    argv, doc, code = case
    doc = json.loads(json.dumps(doc))
    target = doc["tiles" if data.draw(st.booleans()) else "hardware"] if code == 6 else doc
    mutation = data.draw(st.sampled_from(["drop", "retype", "add", "bytes"]))
    if mutation == "bytes":
        doc = b"\xff\xfe{"
    elif mutation == "add":
        target[data.draw(st.sampled_from(["extra", "Name", "schema-version"]))] = 1
    else:
        key = data.draw(st.sampled_from(sorted(target)))
        if mutation == "drop":
            del target[key]
        else:
            target[key] = data.draw(RETYPED)
    with tempfile.TemporaryDirectory() as work:
        got, err = run(argv, {"doc": doc}, Path(work))
        if got or mutation in ("add", "bytes"):
            assert_exits(got, err, code, Path(work))


@pytest.fixture
def rule_tests(monkeypatch):
    """A count, per field name, of the rules ``check`` tests from here on, in every
    module that calls it (``vitmap.errors`` itself included)."""
    counts = collections.Counter()
    check = errors.check

    def counting(values, *tables):
        counts.update(name for table in tables for name in table if name in values)
        check(values, *tables)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("vitmap") and \
                getattr(module, "check", None) is check:
            monkeypatch.setattr(module, "check", counting)
    return counts


PARSES = {
    **{name: (parse_model, preset(name)) for name in ("deit_tiny", "deit_small", "deit_base")},
    "vu9p": (parse_hardware, preset("vu9p")),
    "search": (SearchConfig.from_doc, SEARCH_DOC),
    **{f"approx{i}": (ApproxConfig.from_doc, doc) for i, doc in enumerate(APPROX_DOCS)},
    "emit": (template_params_from_manifest, MANIFEST),
    "descriptor": (ScheduleDescriptor.from_doc, {"op_kind": "Softmax", "rows": 197, "banks": 4,
                                                 "kernels": 4, "heads": 3, "steps": 197}),
}


@pytest.mark.parametrize("parse, doc", PARSES.values(), ids=PARSES.keys())
def test_each_field_is_checked_once(rule_tests, parse, doc):
    # A field's rule is tested where its value is held, or by the reader where
    # no object holds it, never in both; a default is tested as its field.
    parse(doc)
    fields = doc.keys() - {"schema_version"}
    if parse is template_params_from_manifest:
        fields = doc["hardware"].keys() | doc["tiles"].keys()
    assert fields <= rule_tests.keys() and set(rule_tests.values()) == {1}, rule_tests


def readme_input_fields() -> dict:
    """The field names README's "Input documents" table gives each document,
    without ``schema_version`` and flags; the manifest's ``tiles`` row lists
    its own fields under "manifest.tiles"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"## Input documents\n.*?\n(\| Document.*?)\n\n", readme, re.S).group(1)
    fields: dict = {}
    for line in table.splitlines()[2:]:
        doc, names, rule = (cell.strip() for cell in line.strip("|").split("|")[:3])
        if doc:
            document = fields.setdefault(doc.split(",")[0], set())
        document.update(n for n in re.findall(r"`([^`]+)`", names)
                        if n != "schema_version" and not n.startswith("-"))
        if names == "`tiles`":
            fields["manifest.tiles"] = set(re.findall(r"`([^`]+)`", rule))
    return fields


def test_readme_input_table_names_each_rule_table_field():
    assert readme_input_fields() == {
        "model": MODEL_FIELDS.keys() | MODEL_OPTIONAL.keys(),
        "hardware": HARDWARE_FIELDS.keys() | HARDWARE_OPTIONAL.keys(),
        "search config": SEARCH_FIELDS.keys(),
        "approximation config": APPROX_FIELDS.keys(),
        "manifest": {"hardware", "tiles"},
        "manifest.tiles": TILE_FIELDS.keys(),
    }


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert "TileParams(" in capsys.readouterr().out
