"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from conftest import random_space, toy_hw
from vitmap.approx import (
    ApproxConfig,
    exact_gelu,
    exact_layernorm,
    exact_softmax,
    gelu_pwl,
    layernorm_approx,
    softmax_approx,
    softmax_out_to_float,
)
from vitmap.cli import main as cli_main
from vitmap.dse import SearchConfig, exhaustive_search, heuristic_search, pareto_front
from vitmap.hw import HardwareSpec, TileParams, compute_pm, matmul_cost, validate_tiles
from vitmap.layout import (
    Assignment,
    Schedule,
    ScheduleStep,
    schedule_layernorm,
    schedule_row_parallel,
    schedule_softmax,
    validate_schedule,
)

BOARD_S = 212 * 3072
BOARD_CONFIGS = (
    (35, 16, 210, 576),
    (99, 16, 198, 1600),
    (102, 16, 212, 3072),
)


def check(num: int, label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {label}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_pm_reproduction():
    start = time.perf_counter()
    ok = compute_pm(512, 16) == 16
    elapsed = time.perf_counter() - start
    check(1, "compute_pm(512, 16) == 16 on every board row", ok and elapsed < 1e-3,
          f"{elapsed * 1e6:.0f} us")


def test_criterion_2_board_feasibility():
    hw = HardwareSpec("board", 512, 16, BOARD_S, 4, 8, 2e8, 16)
    ok = True
    for pn, pm, tn, tm in BOARD_CONFIGS:
        verdict = validate_tiles(TileParams(pn, pm, tn, tm), hw)
        ok = ok and verdict.ok and pn * pm < tm
    margins = [f"{pn}<{tm // pm}" for pn, pm, _, tm in BOARD_CONFIGS]
    check(2, "published configurations feasible with strict pn bound", ok,
          ", ".join(margins))


def test_criterion_3_softmax_rounds():
    sched = schedule_softmax(12, 4, 197)
    per_row = {}
    for step in sched.steps:
        for a in step.assignments:
            per_row.setdefault(a.row, set()).add(step.index)
    rounds_per_row = {len(v) for v in per_row.values()}
    ok = len(sched.steps) == 591 and rounds_per_row == {3}
    check(3, "softmax: 3 rounds per row, 591 rounds total", ok,
          f"steps={len(sched.steps)}")


def test_criterion_4_layernorm_rotation():
    sched = schedule_layernorm(4, 4, 4)
    perm_ok = all(
        sorted(a.bank for a in st.assignments) == [0, 1, 2, 3] for st in sched.steps
    )
    step0 = [(a.kernel, a.bank, a.row) for a in sched.steps[0].assignments]
    step1 = [(a.kernel, a.bank, a.row) for a in sched.steps[1].assignments]
    # Worked example (0-indexed): kernel i on row i reads bank i, then bank i+1.
    verbatim = (
        step0 == [(i, i, i) for i in range(4)]
        and step1 == [(i, (i + 1) % 4, i) for i in range(4)]
    )
    check(4, "layernorm rotation: per-step bank permutation, first two steps verbatim",
          perm_ok and verbatim)


@pytest.fixture(scope="module")
def search_runs():
    """20 random spaces x 2 seeds: exhaustive baseline plus budgeted heuristic."""
    runs = []
    start = time.perf_counter()
    for i in range(20):
        dag, hw, space = random_space(i * 1000 + 17)
        size = space.feasible_size()
        exh = exhaustive_search(dag, hw, space)
        for seed in (0, 1):
            cfg = SearchConfig(
                set_size=min(60, max(20, size // 40)),
                iterations=30,
                preservation_size=8,
                seed=seed,
                max_evaluations=int(size * 0.19),
            )
            heur = heuristic_search(dag, hw, space, cfg)
            runs.append((size, exh, heur))
    return runs, time.perf_counter() - start


def test_criterion_5_heuristic_vs_exhaustive(search_runs):
    runs, elapsed = search_runs
    within_1pct = 0
    budget_ok = True
    for size, exh, heur in runs:
        if heur.best.latency_s <= exh.best.latency_s * 1.01:
            within_1pct += 1
        budget_ok = budget_ok and heur.evaluations_used <= 0.2 * size
    hit_rate = within_1pct / len(runs)
    ok = hit_rate >= 0.9 and budget_ok and elapsed < 120
    check(5, "heuristic within 1% of exhaustive on >=90% of pairs, <=20% evaluations",
          ok, f"hit {within_1pct}/{len(runs)}, {elapsed:.1f}s")


def test_criterion_6_pareto_coverage(search_runs):
    runs, _ = search_runs
    total_pairs = 0
    matched_pairs = 0
    antichain_ok = True
    for _, exh, heur in runs:
        front = pareto_front(exh.all_evaluated)
        heur_tiles = {e.tiles.astuple() for e in heur.all_evaluated}
        pairs = {}
        for p in front:
            key = (p.latency_s, p.parallelism)
            pairs[key] = pairs.get(key, False) or p.tiles.astuple() in heur_tiles
        total_pairs += len(pairs)
        matched_pairs += sum(pairs.values())
        hfront = pareto_front(heur.all_evaluated)
        for a in hfront:
            for b in hfront:
                if a is b:
                    continue
                strict = b.latency_s < a.latency_s or b.parallelism > a.parallelism
                if (b.latency_s <= a.latency_s and b.parallelism >= a.parallelism
                        and strict):
                    antichain_ok = False
    coverage = matched_pairs / total_pairs
    check(6, "heuristic covers >=90% of exhaustive Pareto points; front is an antichain",
          coverage >= 0.9 and antichain_ok,
          f"coverage {matched_pairs}/{total_pairs} = {coverage:.1%}")


def test_criterion_7_cost_model_oracle_equivalence():
    rng = np.random.default_rng(123)
    checked = 0
    ok = True
    while checked < 1000:
        dw = int(rng.choice([8, 16]))
        axi = int(rng.choice([64, 128, 256, 512]))
        if axi < 2 * dw:
            continue
        pm = axi // (2 * dw)
        tm = pm * int(rng.integers(2, 65))
        pn = int(rng.integers(1, tm // pm))
        tn = int(rng.integers(1, 257))
        hw = toy_hw(axi_width_bits=axi, data_width_bits=dw,
                    onchip_capacity_elems=tn * tm + int(rng.integers(0, 1000)),
                    num_kernels=int(rng.integers(1, 9)))
        dims = tuple(int(x) for x in rng.integers(1, 500, 3))
        heads = int(rng.integers(1, 17))
        head_flag = bool(rng.integers(0, 2))

        cost = matmul_cost(dims, TileParams(pn, pm, tn, tm), hw, head_flag, heads)

        # Independent rational evaluation of the latency formula.
        n, k, m = dims
        ops = Fraction(tn * tm * k * math.ceil(n / tn) * math.ceil(m / tm))
        kf = Fraction(math.ceil(heads / hw.num_kernels)) if head_flag \
            else Fraction(1, hw.num_kernels)
        adjusted = ops * kf / (pn * pm)
        latency = float(adjusted / Fraction(hw.frequency_hz))
        if cost.adjusted_cycles != adjusted:
            ok = False
            break
        if abs(cost.latency_s - latency) > math.ulp(latency):
            ok = False
            break
        checked += 1
    check(7, "matmul_cost equals independent rational evaluation (1000 tuples, 1 ulp)",
          ok, f"{checked} tuples")


def _encoder_block(x, weights, approx, cfg):
    fmt = cfg.fmt

    def ln(v, g, b):
        if not approx:
            return exact_layernorm(v, g, b, eps=cfg.ln_eps / fmt.one)
        return fmt.dequantize(layernorm_approx(fmt.quantize(v), fmt.quantize(g),
                                               fmt.quantize(b), cfg))

    def sm(v):
        if not approx:
            return exact_softmax(v)
        return softmax_out_to_float(softmax_approx(fmt.quantize(v), cfg))

    def gl(v):
        if not approx:
            return exact_gelu(v)
        return fmt.dequantize(gelu_pwl(fmt.quantize(v), cfg))

    d, h = 16, 2
    dh = d // h
    y = ln(x, weights["g1"], weights["b1"])
    q, k, v = y @ weights["q"], y @ weights["k"], y @ weights["v"]
    heads = []
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        att = sm(q[:, sl] @ k[:, sl].T / math.sqrt(dh))
        heads.append(att @ v[:, sl])
    x = x + np.concatenate(heads, axis=1) @ weights["p"]
    y = ln(x, weights["g2"], weights["b2"])
    return x + gl(y @ weights["f1"]) @ weights["f2"]


def test_criterion_8_approximation_accuracy():
    start = time.perf_counter()
    cfg = ApproxConfig()
    fmt = cfg.fmt
    rng = np.random.default_rng(42)

    rows = fmt.quantize(rng.normal(0, 1, (1000, 197)))
    out = softmax_out_to_float(softmax_approx(rows, cfg))
    sums_ok = bool(np.abs(out.sum(axis=1) - 1.0).max() <= 2e-2)

    order_ok = True
    for i in range(rows.shape[0]):
        order = np.argsort(rows[i], kind="stable")
        if not np.all(np.diff(out[i][order]) >= 0):
            order_ok = False
            break

    px, ps, pb = cfg.gelu_pieces
    f = fmt.frac_bits
    continuity_ok = all(
        ((int(ps[i - 1]) * int(px[i])) >> f) + int(pb[i - 1])
        == ((int(ps[i]) * int(px[i])) >> f) + int(pb[i])
        for i in range(1, len(px))
    )

    d = 16
    wrng = np.random.default_rng(11)
    worst_cos = 1.0
    for _ in range(3):
        weights = {
            "q": wrng.normal(0, d ** -0.5, (d, d)),
            "k": wrng.normal(0, d ** -0.5, (d, d)),
            "v": wrng.normal(0, d ** -0.5, (d, d)),
            "p": wrng.normal(0, d ** -0.5, (d, d)),
            "f1": wrng.normal(0, d ** -0.5, (d, 4 * d)),
            "f2": wrng.normal(0, (4 * d) ** -0.5, (4 * d, d)),
            "g1": np.ones(d), "b1": np.zeros(d),
            "g2": np.ones(d), "b2": np.zeros(d),
        }
        x = wrng.normal(0, 1, (8, d))
        ye = _encoder_block(x, weights, False, cfg)
        ya = _encoder_block(x, weights, True, cfg)
        cos = float((ye * ya).sum() / math.sqrt((ye * ye).sum() * (ya * ya).sum()))
        worst_cos = min(worst_cos, cos)

    elapsed = time.perf_counter() - start
    ok = sums_ok and order_ok and continuity_ok and worst_cos >= 0.99 and elapsed < 30
    check(8, "softmax sums/order, gelu continuity, encoder cosine >= 0.99", ok,
          f"cosine {worst_cos:.4f}, {elapsed:.1f}s")


def test_criterion_9_schedule_validation():
    rng = np.random.default_rng(9)
    clean = 0
    for _ in range(500):
        bn = int(rng.integers(1, 9))
        rows = int(rng.integers(1, 25))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            sched = schedule_row_parallel(rows, bn, int(rng.integers(1, bn + 1)))
        elif pick == 1:
            sched = schedule_softmax(int(rng.integers(1, 17)), bn, rows)
        else:
            sched = schedule_layernorm(rows, bn, bn)
        if validate_schedule(sched).ok:
            clean += 1

    conflict = Schedule(
        schedule_row_parallel(1, 2, 2).op_kind,
        (ScheduleStep(0, (Assignment(0, 1, 0, 0), Assignment(1, 1, 0, 1))),),
        kernels=2, banks=2, rows=1,
    )
    gap = schedule_row_parallel(2, 2, 2)
    gap = Schedule(gap.op_kind, gap.steps[:-1], gap.kernels, gap.banks, gap.rows)
    faults_rejected = (not validate_schedule(conflict).ok
                       and not validate_schedule(gap).ok)
    check(9, "500 randomized schedules clean; planted faults rejected",
          clean == 500 and faults_rejected, f"{clean}/500 clean")


def test_criterion_10_compile_determinism(tmp_path):
    model = tmp_path / "model.json"
    hw = tmp_path / "hw.json"
    model.write_text(json.dumps({
        "schema_version": 1, "name": "toy", "embed_dim": 8, "num_heads": 2,
        "num_layers": 1, "num_tokens": 16, "patch_pixels": 48, "num_classes": 10,
    }))
    hw.write_text(json.dumps({
        "schema_version": 1, "name": "toy", "axi_width_bits": 64,
        "data_width_bits": 16, "onchip_capacity_elems": 2048, "ddr_banks": 4,
        "num_kernels": 4, "frequency_hz": 2e8, "lop": 16,
    }))
    blobs = []
    for d in ("one", "two"):
        out = tmp_path / d
        code = cli_main(["compile", "--model", str(model), "--hw", str(hw),
                         "--seed", "5", "--out-dir", str(out)])
        assert code == 0
        blobs.append((out / "manifest.json").read_bytes())
    check(10, "cmd_compile is byte-identical for identical inputs and seed",
          blobs[0] == blobs[1])
