"""Output checks that do not trust the modules they check.

Every function here returns a list of problems (empty when the output is
right). The model structure, the cost formula, the search-space size and the
fixed-point kernels are re-derived from their documented definitions in
plain Python; nothing is imported from ``vitmap`` except data classes passed
in by the caller.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

EXP_FRAC = 15  # fractional bits of the exponential and softmax outputs

# Largest error, in output LSBs, of each kernel against its float64 oracle
# on the deit-base layer activations (Q8.8). About twice the worst value
# seen over seeds 0-19 at the commit that introduced the benchmark.
ACTIVATION_ULP_BOUND = {"softmax": 3200, "exp": 64, "layernorm": 52, "gelu": 40, "isqrt": 144}
# The same for the ``error_report`` sweeps, per format.
REPORT_ULP_BOUND = {
    "Q8.8": {"isqrt": 48, "exp": 64, "softmax": 24, "gelu": 40, "layernorm": 34},
    "Q4.4": {"isqrt": 2.2, "exp": 176, "softmax": 42, "gelu": 2.6, "layernorm": 4.8},
}
SOFTMAX_SUM_TOL = 2e-2  # acceptance criterion 8
MIN_COSINE = 0.99  # acceptance criterion 8, applied to each kernel's output


# --------------------------------------------------------------------------
# model structure and cost formula
# --------------------------------------------------------------------------

def model_nodes(model: dict, hw: dict, batch: int, fuse: bool = True):
    """The encoder-stack nodes of a model document, after fusion and batching.

    Returns ``(matmuls, nonlinear)``: matmuls as ``(n, k, m, heads,
    head_scoped)`` and non-matmul nodes as element counts. Mirrors the graph
    described in the ``vitmap.model_ir`` docstrings: an embedding matmul, per
    layer ln1, q/k/v (fused into one triple-width matmul plus a split when
    ``d * 3d`` fits on chip), per-head scores, softmax, per-head attention
    times V, concat, projection, add, ln2, fc1, gelu, fc2, add, and a
    classifier over the class-token row.
    """
    t, d = model["num_tokens"], model["embed_dim"]
    nh, layers = model["num_heads"], model["num_layers"]
    dh = d // nh
    h = int(round(d * model.get("mlp_ratio", 4.0)))
    pixels = model.get("patch_pixels", 16 * 16 * 3)
    classes = model.get("num_classes", 1000)
    fused = fuse and d * 3 * d <= hw["onchip_capacity_elems"]

    mms = [(t, pixels, d, 1, False)]
    nl = []
    for _ in range(layers):
        nl.append(t * d)  # ln1
        if fused:
            mms.append((t, d, 3 * d, 1, False))
            nl.append(t * 3 * d)  # split
        else:
            mms += [(t, d, d, 1, False)] * 3
        mms.append((t, dh, t, nh, True))  # scores
        nl.append(t * nh * t)  # softmax
        mms.append((t, t, dh, nh, True))  # attention x V
        nl += [t * d, t * d, t * d]  # concat, add1, ln2
        mms += [(t, d, d, 1, False), (t, d, h, 1, False), (t, h, d, 1, False)]
        nl += [t * h, t * d]  # gelu, add2
    mms.append((1, d, classes, 1, False))
    mms = [(n * batch, k, m, heads, scoped) for n, k, m, heads, scoped in mms]
    return mms, [e * batch for e in nl]


def pack_factor(hw: dict) -> int:
    return hw["axi_width_bits"] // (2 * hw["data_width_bits"])


def exact_latency_s(model: dict, hw: dict, batch: int, tiles: dict, fuse: bool = True) -> float:
    """Total latency by the cost formula of ``vitmap.hw``, in exact fractions."""
    mms, nl = model_nodes(model, hw, batch, fuse)
    pn, pm, tn, tm = tiles["pn"], tiles["pm"], tiles["tn"], tiles["tm"]
    kernels = hw["num_kernels"]
    cycles = Fraction(0)
    for n, k, m, heads, scoped in mms:
        ops = tn * tm * k * (-(-n // tn)) * (-(-m // tm))
        kf = Fraction(-(-heads // kernels)) if scoped else Fraction(1, kernels)
        cycles += Fraction(ops, pn * pm) * kf
    cycles += sum(-(-e // (hw["lop"] * kernels)) for e in nl)
    return float(cycles / Fraction(hw["frequency_hz"]))


def tile_problems(tiles: dict, hw: dict) -> list[str]:
    pn, pm, tn, tm = tiles["pn"], tiles["pm"], tiles["tn"], tiles["tm"]
    problems = []
    if min(pn, pm, tn, tm) < 1:
        problems.append(f"non-positive tile parameter in {tiles}")
        return problems
    if pm != pack_factor(hw):
        problems.append(f"pm {pm} != floor(AXI/(2*DW)) = {pack_factor(hw)}")
    if tm % pm:
        problems.append(f"tm {tm} not a multiple of pm {pm}")
    if not pn * pm < tm:
        problems.append(f"pn*pm = {pn * pm} not < tm = {tm}")
    if tn * tm > hw["onchip_capacity_elems"]:
        problems.append(f"tn*tm = {tn * tm} exceeds S = {hw['onchip_capacity_elems']}")
    return problems


def check_manifest(manifest: dict, model: dict, hw: dict, batch: int) -> list[str]:
    """Tiles, exact latency and schedule rows of one compile's manifest.

    The schedule-row problem is prefixed ``batch-rows:`` so callers can count
    it on its own.
    """
    tiles = manifest["tiles"]
    problems = tile_problems(tiles, hw)
    if problems:
        return problems
    want = exact_latency_s(model, hw, batch, tiles)
    got = manifest["latency"]["total_s"]
    if got != want:
        problems.append(f"latency.total_s {got!r} != exact {want!r}")
    rows = model["num_tokens"] * batch
    bad = sorted(k for k, s in manifest["schedules"].items() if s["rows"] != rows)
    if bad:
        problems.append(f"batch-rows: schedules {bad} have rows != tokens*batch = {rows}")
    return problems


# --------------------------------------------------------------------------
# search outputs
# --------------------------------------------------------------------------

def space_size(model: dict, hw: dict, batch: int = 1, fuse: bool = True) -> int:
    """Feasible (pn, tn, tm) triples of the uncapped space, by counting."""
    mms, _ = model_nodes(model, hw, batch, fuse)
    pm = pack_factor(hw)
    s = hw["onchip_capacity_elems"]
    tn_hi = min(max(n for n, *_ in mms), s // pm)
    tms = range(pm, min(max(m for _, _, m, *_ in mms), s) + 1, pm)
    pn_hi = max(tm // pm - 1 for tm in tms)
    return sum(max(0, min(pn_hi, tm // pm - 1)) * min(tn_hi, s // tm) for tm in tms)


def csv_rows(path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def pareto_problems(path) -> list[str]:
    """A Pareto front (latency down, parallelism up) must be an antichain."""
    with open(path, newline="") as fh:
        pts = [(float(r["latency_s"]), int(r["parallelism"])) for r in csv.DictReader(fh)]
    if not pts:
        return [f"{path.name}: empty front"]
    for i, (la, pa) in enumerate(pts):
        for lb, pb in pts[i + 1:]:
            if (la <= lb and pa >= pb and (la, pa) != (lb, pb)) or \
                    (lb <= la and pb >= pa and (la, pa) != (lb, pb)):
                return [f"{path.name}: ({la}, {pa}) and ({lb}, {pb}) are comparable"]
    return []


def check_search_report(out_dir, model: dict, hw: dict, reference: dict) -> list[str]:
    """Outputs of ``vitmap search --mode both`` against counts and a reference.

    ``reference`` is the manifest of ``vitmap compile --exhaustive`` on the
    same inputs.
    """
    problems = []
    want = space_size(model, hw)
    rows = csv_rows(out_dir / "evals_exhaustive.csv")
    if rows != want:
        problems.append(f"evals_exhaustive.csv has {rows} rows, space has {want} points")
    exh = json.loads((out_dir / "search_exhaustive.json").read_text())["best"]
    heur = json.loads((out_dir / "search_heuristic.json").read_text())["best"]
    if heur["latency_s"] < exh["latency_s"]:
        problems.append(f"heuristic best {heur['latency_s']!r} < exhaustive best "
                        f"{exh['latency_s']!r}")
    ref_tiles = reference["tiles"]
    if ({k: exh[k] for k in ref_tiles} != ref_tiles
            or exh["latency_s"] != reference["search"]["best_latency_s"]):
        problems.append(f"exhaustive best {exh} != compile --exhaustive "
                        f"{ref_tiles} at {reference['search']['best_latency_s']!r}")
    for name in ("pareto_exhaustive.csv", "pareto_heuristic.csv"):
        problems += pareto_problems(out_dir / name)
    return problems


# --------------------------------------------------------------------------
# fixed-point kernels: scalar golden models and oracle error bounds
# --------------------------------------------------------------------------

def _msb(x: int) -> int:
    return x.bit_length() - 1


def golden_isqrt(x: int, table, frac_bits: int, max_int: int) -> int:
    """1/sqrt(x): x = 2^e (1 + f), table[f] = 2^(-f/2) in 15 bits, odd e * 2^-1/2."""
    table_bits = len(table).bit_length() - 1
    msb = _msb(x)
    e = msb - frac_bits
    rem = x - (1 << msb)
    shift = msb - table_bits
    val = int(table[rem >> shift if shift >= 0 else rem << -shift])
    if e & 1:
        val = (val * round(2.0 ** -0.5 * (1 << EXP_FRAC))) >> EXP_FRAC
    s = frac_bits - EXP_FRAC - (e >> 1)
    return min(val << s if s >= 0 else val >> -s, max_int)


def _exp_consts(frac_bits: int) -> tuple[int, int]:
    log2e_q15 = math.floor(math.log2(math.e) * (1 << EXP_FRAC))
    ln2_qf = math.floor(math.log(2.0) * (1 << frac_bits))
    return log2e_q15, ln2_qf


def golden_exp(z: int, frac_bits: int) -> int:
    """e^z for z <= 0 as pade22(v) >> k with z = -k ln2 + v; 15-bit output."""
    log2e_q15, ln2_qf = _exp_consts(frac_bits)
    one = 1 << EXP_FRAC
    k = ((-z) * log2e_q15) >> (frac_bits + EXP_FRAC)
    v = (z + k * ln2_qf) << (EXP_FRAC - frac_bits)
    v2 = (v * v) >> EXP_FRAC
    return (((12 * one + 6 * v + v2) << EXP_FRAC) // (12 * one - 6 * v + v2)) >> k


def golden_softmax_row(row, lo_fixed: int, frac_bits: int, recip_table) -> list[int]:
    """Max-subtract, exponential, then scale by a leading-one reciprocal seed."""
    rt_bits = len(recip_table).bit_length() - 1
    row = [int(x) for x in row]
    m = max(row)
    ys = [golden_exp(max(x - m, lo_fixed), frac_bits) for x in row]
    total = sum(ys)
    msb = _msb(total)
    norm = total >> (msb - EXP_FRAC)
    recip = int(recip_table[(norm - (1 << EXP_FRAC)) >> (EXP_FRAC - rt_bits)])
    return [(y * recip) >> msb for y in ys]


def golden_gelu(x: int, pieces, frac_bits: int, min_int: int, max_int: int) -> int:
    """Piecewise-linear GELU: the rightmost piece whose start is <= x."""
    px, slope, intercept = pieces
    idx = max(i for i in range(len(px)) if px[i] <= x)
    y = ((int(slope[idx]) * x) >> frac_bits) + int(intercept[idx])
    return max(min_int, min(max_int, y))


def golden_layernorm_row(row, eps: int, table, frac_bits: int,
                         min_int: int, max_int: int) -> list[int]:
    """Unit-gamma, zero-beta row normalisation with the table isqrt."""
    n = len(row)
    row = [int(x) for x in row]
    mean = (2 * sum(row) + n) // (2 * n)
    var = (sum((x - mean) ** 2 for x in row) // n) >> frac_bits
    scale = golden_isqrt(var + eps, table, frac_bits, max_int)
    one = 1 << frac_bits
    return [max(min_int, min(max_int, ((((x - mean) * scale) >> frac_bits) * one) >> frac_bits))
            for x in row]


def golden_problems(inputs: dict, outputs: dict, cfg, sample) -> list[str]:
    """Compare sampled kernel outputs with the scalar golden models, bit for bit.

    ``sample`` maps each kernel to the flat element (or row) indices to check.
    """
    fmt = cfg.fmt
    f, lo, hi = fmt.frac_bits, fmt.min_int, fmt.max_int
    lo_exp = int(fmt.quantize(cfg.exp_domain_lo))
    problems = []

    def compare(name, idx, got, want):
        if got != want:
            problems.append(f"{name}[{idx}] = {got}, golden model gives {want}")

    for r in sample["softmax"]:
        got = [int(v) for v in outputs["softmax"][r]]
        want = golden_softmax_row(inputs["softmax"][r], lo_exp, f, cfg.recip_table)
        compare("softmax row", r, got, want)
    for r in sample["layernorm"]:
        got = [int(v) for v in outputs["layernorm"][r]]
        want = golden_layernorm_row(inputs["layernorm"][r], cfg.ln_eps, cfg.isqrt_table, f, lo, hi)
        compare("layernorm row", r, got, want)
    scalar = {
        "exp": lambda x: golden_exp(min(max(x, lo_exp), 0), f),
        "gelu": lambda x: golden_gelu(x, cfg.gelu_pieces, f, lo, hi),
        "isqrt": lambda x: golden_isqrt(x, cfg.isqrt_table, f, hi),
    }
    for name, fn in scalar.items():
        flat_in, flat_out = inputs[name].reshape(-1), outputs[name].reshape(-1)
        for i in sample[name]:
            compare(name, i, int(flat_out[i]), fn(int(flat_in[i])))
    return problems[:5]


def lsb(name: str, frac_bits: int) -> float:
    """Value of one LSB of a kernel's output format."""
    return 2.0 ** -EXP_FRAC if name in ("exp", "softmax") else 2.0 ** -frac_bits


def oracle_problems(errors_ulp: dict, cosines: dict, softmax_sum_err: float,
                    softmax_order_ok: bool) -> list[str]:
    """Oracle-error checks for the activation pass (Q8.8)."""
    problems = [f"{k}: max error {v:.1f} LSB > {ACTIVATION_ULP_BOUND[k]}"
                for k, v in errors_ulp.items() if not v <= ACTIVATION_ULP_BOUND[k]]
    problems += [f"{k}: cosine {v:.5f} < {MIN_COSINE}"
                 for k, v in cosines.items() if not v >= MIN_COSINE]
    if not softmax_sum_err <= SOFTMAX_SUM_TOL:
        problems.append(f"softmax row sums off by {softmax_sum_err:.4f} > {SOFTMAX_SUM_TOL}")
    if not softmax_order_ok:
        problems.append("softmax does not preserve the order of its inputs")
    return problems


def report_problems(fmt_name: str, errors_ulp: dict) -> list[str]:
    bounds = REPORT_ULP_BOUND[fmt_name]
    return [f"error_report {fmt_name} {k}: {v:.2f} LSB > {bounds[k]}"
            for k, v in errors_ulp.items() if not v <= bounds[k]]
