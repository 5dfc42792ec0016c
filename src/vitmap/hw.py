"""Accelerator hardware envelope and the analytical latency cost model.

The compute fabric is a row of ``pn`` processing elements, each holding
``pm`` MAC units fed from a packed memory bus; matrices are staged on chip
in ``tn`` x ``tm`` tiles. Matmul latency follows

    cycles = tn * tm * k * tiles_row * tiles_col * kernel_factor / (pn * pm)

with ``kernel_factor = ceil(heads / kernels)`` for head-grouped matmuls and
``1 / kernels`` otherwise. Non-matmul nodes are charged elementwise through
the non-linear units: ``ceil(elems / (lop * kernels))`` cycles. Tiling pads:
partial tiles cost the same as full ones, so ceiling tile counts are used.

This module owns the hardware envelope: which boards and which tile
configurations are valid. ``HardwareSpec`` rejects a malformed board, and
``HARDWARE_FIELDS`` lists the fields a hardware document gives, which the
manifest's hardware block repeats. A configuration is feasible when every
parameter is a positive integer, ``pm`` is the bus's pack factor, ``tm`` is
a multiple of ``pm``, ``pn·pm < tm`` and a ``tn × tm`` tile fits on chip.
``validate_tiles`` reports the violated constraints; ``graph_latency``
raises ``InfeasibleTilesError`` with the same list, and ``matmul_cost`` with
that list minus the pn bound. Other modules ask these functions rather than
restate the rules: ``vitmap emit`` re-checks a manifest's board and tiles
with them before it writes the template parameters.

Scalar entry points evaluate in exact integer/rational arithmetic. The
design-space search scores many tiles at once through the exact integer
scorer in ``_latency``, whose latencies equal ``graph_latency``'s bit for
bit.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InfeasibleTilesError, SchemaError
from .model_ir import Dag, OpKind

HW_SCHEMA_VERSION = 1

# The fields of a hardware document, and of the manifest's hardware block.
HARDWARE_FIELDS = ("name", "axi_width_bits", "data_width_bits", "onchip_capacity_elems",
                   "ddr_banks", "num_kernels", "frequency_hz", "lop")


@dataclass(frozen=True)
class HardwareSpec:
    """Accelerator envelope: bus, on-chip staging, memory banks, kernels."""

    name: str
    axi_width_bits: int
    data_width_bits: int
    onchip_capacity_elems: int
    ddr_banks: int
    num_kernels: int
    frequency_hz: float
    lop: int
    resource_budget: Optional[dict[str, int]] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"name must be a string, got {self.name!r}")
        for fname in ("axi_width_bits", "data_width_bits", "onchip_capacity_elems",
                      "ddr_banks", "num_kernels", "lop"):
            value = getattr(self, fname)
            if not _is_int(value) or value < 1:
                raise SchemaError(f"{fname} must be a positive integer, got {value!r}")
        freq = self.frequency_hz
        if not (_is_int(freq) or isinstance(freq, float)) or not 0 < freq <= sys.float_info.max:
            raise SchemaError(f"frequency_hz must be a positive finite number, got {freq!r}")
        object.__setattr__(self, "frequency_hz", float(freq))
        budget = self.resource_budget
        if budget is not None:
            if not isinstance(budget, Mapping) or not all(map(_is_int, budget.values())):
                raise SchemaError(f"resource_budget must be an object of integers, got {budget!r}")
            object.__setattr__(self, "resource_budget", dict(budget))
        compute_pm(self.axi_width_bits, self.data_width_bits)  # the bus fits two elements

    @property
    def pack_factor(self) -> int:
        """Elements packed per bus word."""
        return compute_pm(self.axi_width_bits, self.data_width_bits)


@dataclass(frozen=True)
class TileParams:
    """One searched configuration: PE count, MACs per PE, and tile shape."""

    pn: int
    pm: int
    tn: int
    tm: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.pn, self.pm, self.tn, self.tm)

    @property
    def parallelism(self) -> int:
        return self.pn * self.pm


@dataclass(frozen=True)
class FeasibilityVerdict:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CostBreakdown:
    total_ops: int
    ops_per_tile: int
    num_tiles_row: int
    num_tiles_col: int
    kernel_factor: Fraction
    adjusted_cycles: Fraction
    latency_s: float


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a JSON boolean is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def compute_pm(axi_width_bits: int, data_width_bits: int) -> int:
    """MAC units per PE, fixed by the bus word: floor(AXI / (2 * DW))."""
    if axi_width_bits < 2 * data_width_bits:
        raise SchemaError(
            f"axi_width_bits {axi_width_bits} < 2 * data_width_bits {data_width_bits}"
        )
    return axi_width_bits // (2 * data_width_bits)


def kernel_factor(num_heads: int, num_kernels: int, head_flag: bool) -> Fraction:
    """Cycle multiplier for spreading work across kernels.

    Head-grouped matmuls serialize head batches over the kernels; everything
    else splits rows evenly across them.
    """
    if num_heads < 1 or num_kernels < 1:
        raise SchemaError("num_heads and num_kernels must be >= 1")
    if head_flag:
        return Fraction(math.ceil(num_heads / num_kernels))
    return Fraction(1, num_kernels)


def _violations(tiles: TileParams, hw: HardwareSpec, pn_bound: bool = True) -> list[str]:
    """The hardware constraints a tile configuration breaks, in a fixed order.

    ``pn_bound`` includes the PE-count pipelining bound pn < tm/pm.
    """
    values = tiles.astuple()
    if not all(map(_is_int, values)):
        return [f"tile parameters must be integers, got {tiles}"]
    if min(values) < 1:
        return ["all tile parameters must be >= 1"]
    violations = []
    if tiles.pm != hw.pack_factor:
        violations.append(f"pm {tiles.pm} != floor(AXI/(2*DW)) = {hw.pack_factor}")
    if tiles.tm % tiles.pm != 0:
        violations.append(f"tm {tiles.tm} not a multiple of pm {tiles.pm}")
    if pn_bound and not tiles.pn * tiles.pm < tiles.tm:
        violations.append(f"pn {tiles.pn} not < tm/pm = {tiles.tm}/{tiles.pm}")
    if tiles.tn * tiles.tm > hw.onchip_capacity_elems:
        violations.append(
            f"tn*tm = {tiles.tn * tiles.tm} exceeds on-chip capacity "
            f"{hw.onchip_capacity_elems}"
        )
    return violations


def validate_tiles(tiles: TileParams, hw: HardwareSpec) -> FeasibilityVerdict:
    """Check a tile configuration against the hardware envelope."""
    violations = tuple(_violations(tiles, hw))
    return FeasibilityVerdict(not violations, violations)


def matmul_cost(dims: tuple[int, int, int], tiles: TileParams, hw: HardwareSpec,
                head_flag: bool = False, num_heads: int = 1) -> CostBreakdown:
    """Latency of one tiled matmul under a configuration, exact arithmetic.

    Checks the constraints the arithmetic depends on (capacity, packing,
    positivity); the PE-count pipelining bound pn < tm/pm is enforced where
    configurations get selected (validate_tiles, graph_latency, the search
    space), so pure cost queries on out-of-bound points still evaluate.
    """
    violations = _violations(tiles, hw, pn_bound=False)
    if violations:
        raise InfeasibleTilesError(violations)
    n, k, m = dims
    if min(n, k, m) < 1:
        raise SchemaError(f"matmul dims must be positive, got {dims}")
    num_tiles_row = -(-n // tiles.tn)
    num_tiles_col = -(-m // tiles.tm)
    ops_per_tile = tiles.tn * tiles.tm * k
    total_ops = ops_per_tile * num_tiles_row * num_tiles_col
    kf = kernel_factor(num_heads, hw.num_kernels, head_flag)
    adjusted_cycles = Fraction(total_ops, tiles.pn * tiles.pm) * kf
    latency_s = float(adjusted_cycles / Fraction(hw.frequency_hz))
    return CostBreakdown(
        total_ops=total_ops,
        ops_per_tile=ops_per_tile,
        num_tiles_row=num_tiles_row,
        num_tiles_col=num_tiles_col,
        kernel_factor=kf,
        adjusted_cycles=adjusted_cycles,
        latency_s=latency_s,
    )


def nonlinear_cycles(elems: int, hw: HardwareSpec) -> int:
    """Cycles for an elementwise/non-linear node: lop lanes per kernel."""
    return -(-elems // (hw.lop * hw.num_kernels))


@dataclass(frozen=True)
class GraphCost:
    total_latency_s: float
    matmul_latency_s: float
    nonlinear_latency_s: float
    per_node: tuple[tuple[str, float], ...]


def graph_latency(dag: Dag, tiles: TileParams, hw: HardwareSpec) -> GraphCost:
    """Total modeled latency of a DAG under one tile configuration.

    Raises ``InfeasibleTilesError`` listing every violated constraint, the
    pn bound included, when the configuration is infeasible.
    """
    violations = _violations(tiles, hw)
    if violations:
        raise InfeasibleTilesError(violations)
    freq = Fraction(hw.frequency_hz)
    per_node = []
    mm_cycles = Fraction(0)
    nl_cycles = 0
    for node in dag.nodes:
        if node.kind is OpKind.MATMUL:
            cost = matmul_cost(node.dims, tiles, hw, node.head_scoped, node.heads)
            mm_cycles += cost.adjusted_cycles
            per_node.append((node.id, cost.latency_s))
        else:
            cycles = nonlinear_cycles(node.work_elems, hw)
            nl_cycles += cycles
            per_node.append((node.id, float(Fraction(cycles) / freq)))
    return GraphCost(
        total_latency_s=float((mm_cycles + nl_cycles) / freq),
        matmul_latency_s=float(mm_cycles / freq),
        nonlinear_latency_s=float(Fraction(nl_cycles) / freq),
        per_node=tuple(per_node),
    )


def parse_hardware(doc: Mapping) -> HardwareSpec:
    """Validate a hardware-description document (parsed JSON)."""
    if not isinstance(doc, Mapping):
        raise SchemaError("hardware document must be a JSON object")
    if doc.get("schema_version") != HW_SCHEMA_VERSION:
        raise SchemaError(
            f"hardware document schema_version must be {HW_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    missing = [f for f in HARDWARE_FIELDS if f not in doc]
    if missing:
        raise SchemaError(f"hardware document missing fields: {missing}")
    kwargs = {f: doc[f] for f in HARDWARE_FIELDS}
    if "resource_budget" in doc:
        kwargs["resource_budget"] = doc["resource_budget"]
    return HardwareSpec(**kwargs)


def load_hardware(path) -> HardwareSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hardware(json.load(fh))
