"""Multi-bank memory layouts and static per-operation schedules.

Matrices are column-partitioned across the DDR banks, one contiguous
segment per bank, and packed so each bus word carries the bus's pack factor
of elements (``hw.compute_pm``), keeping every access a full burst. Three
schedule families cover the operation kinds:

* row-parallel (matmuls outside the heads, GELU, other elementwise ops):
  each kernel consumes one bank's segment of the current row;
* softmax (head-grouped ops): head h resides in bank ``h mod BN``, so one
  row finishes in ``ceil(heads / BN)`` rounds;
* layernorm: a rotating pattern where kernel i owns row ``base + i`` and at
  step t reads bank ``(i + t) mod BN``, so every step touches all banks.

Each schedule is closed-form in its shape ``(op kind, rows, banks, kernels,
heads)``, which ``ScheduleDescriptor`` holds; its ``expand`` runs the
generator below that lists every (step, kernel, bank, row, unit) assignment,
and ``validate_schedule`` checks such a list.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import EXTENT, EXTENT_MAX, INT64_MAX, SchemaError, check, json_text, read
from .hw import FeasibilityVerdict


class ScheduleKind(str, Enum):
    MATMUL_ROW_PARALLEL = "MatMulRowParallel"
    GELU = "Gelu"
    SOFTMAX = "Softmax"
    LAYERNORM = "LayerNorm"


@dataclass(frozen=True)
class Assignment:
    """One kernel's work item in a step; unit is a segment or head index."""

    kernel: int
    bank: int
    row: int
    unit: int


@dataclass(frozen=True)
class ScheduleStep:
    index: int
    assignments: tuple[Assignment, ...]


@dataclass(frozen=True)
class Schedule:
    op_kind: ScheduleKind
    steps: tuple[ScheduleStep, ...]
    kernels: int
    banks: int
    rows: int
    heads: int = 0  # 0 for segment-unit schedules

    @property
    def unit_count(self) -> int:
        """Work units per row: heads for softmax, bank segments otherwise."""
        return self.heads if self.heads else self.banks

    def to_json(self) -> str:
        return json_text({
            "op_kind": self.op_kind.value,
            "kernels": self.kernels,
            "banks": self.banks,
            "rows": self.rows,
            "heads": self.heads,
            "steps": [
                {"index": s.index,
                 "assignments": [[a.kernel, a.bank, a.row, a.unit] for a in s.assignments]}
                for s in self.steps
            ],
        })


def _shape_steps(kind: ScheduleKind, rows: int, banks: int, kernels: int,
                 heads: int = 0) -> int:
    """Check a schedule shape's preconditions and return its step count.

    The one statement of each family's rules, shared by the generators and
    ``ScheduleDescriptor``. Row-parallel kinds need ``1 <= kernels <= banks``
    and take ``rows * ceil(banks / kernels)`` steps; softmax needs ``kernels
    == banks`` and takes ``rows * ceil(heads / banks)``; layernorm needs
    ``1 <= kernels <= banks`` and takes ``ceil(rows / kernels) * banks``.
    Only softmax has head units; the other kinds need ``heads == 0``.
    """
    check({"rows": rows, "banks": banks, "kernels": kernels, "heads": heads}, DESCRIPTOR_FIELDS)
    if kind is ScheduleKind.SOFTMAX:
        if heads < 1:
            raise SchemaError(f"softmax schedule needs heads >= 1, got {heads}")
        if kernels != banks:
            raise SchemaError(f"softmax schedule requires kernels == banks, "
                              f"got {kernels} != {banks}")
        return rows * -(-heads // banks)
    if kernels > banks:
        raise SchemaError(f"kernels {kernels} > banks {banks}: one bank feeds one kernel per step")
    if heads:
        raise SchemaError(f"{kind.value} schedule has one unit per bank segment, "
                          f"got heads={heads}")
    if kind is ScheduleKind.LAYERNORM:
        return -(-rows // kernels) * banks
    return rows * -(-banks // kernels)


def schedule_row_parallel(rows: int, bn: int, kernels: int,
                          op_kind: ScheduleKind = ScheduleKind.MATMUL_ROW_PARALLEL) -> Schedule:
    """Same row, different banks, one kernel per bank segment.

    With fewer kernels than banks a row takes ``ceil(bn / kernels)`` passes;
    the kernel-to-bank map stays constant across rows.
    """
    _shape_steps(ScheduleKind.MATMUL_ROW_PARALLEL, rows, bn, kernels)
    steps = []
    index = 0
    for row in range(rows):
        for base in range(0, bn, kernels):
            assignments = tuple(
                Assignment(kernel=k, bank=base + k, row=row, unit=base + k)
                for k in range(min(kernels, bn - base))
            )
            steps.append(ScheduleStep(index, assignments))
            index += 1
    return Schedule(op_kind, tuple(steps), kernels, bn, rows)


def schedule_softmax(num_heads: int, bn: int, rows: int, kernels: int | None = None) -> Schedule:
    """Head-grouped schedule: same bank and same row, ceil(heads/BN) rounds.

    Head h is resident in bank ``h mod BN`` (column partition of the
    head-concatenated matrix), so round r of a row covers heads
    ``r*BN .. r*BN+BN-1``. Total steps = rows * ceil(heads / BN).
    """
    if kernels is None:
        kernels = bn
    _shape_steps(ScheduleKind.SOFTMAX, rows, bn, kernels, num_heads)
    rounds_per_row = -(-num_heads // bn)
    steps = []
    index = 0
    for row in range(rows):
        for r in range(rounds_per_row):
            assignments = tuple(
                Assignment(kernel=b, bank=b, row=row, unit=r * bn + b)
                for b in range(bn)
                if r * bn + b < num_heads
            )
            steps.append(ScheduleStep(index, assignments))
            index += 1
    return Schedule(ScheduleKind.SOFTMAX, tuple(steps), kernels, bn, rows, heads=num_heads)


def schedule_layernorm(rows: int, bn: int, kernels: int) -> Schedule:
    """Rotating schedule: kernel i works row base+i, reading bank (i+t) mod BN.

    Rows advance in blocks of the kernel count; within a block, BN rotation
    steps give each kernel every segment of its row while no two kernels
    share a bank in any step, so at most one kernel per bank may work.
    """
    _shape_steps(ScheduleKind.LAYERNORM, rows, bn, kernels)
    steps = []
    index = 0
    for base in range(0, rows, kernels):
        active = min(kernels, rows - base)
        for t in range(bn):
            assignments = tuple(
                Assignment(kernel=i, bank=(i + t) % bn, row=base + i, unit=(i + t) % bn)
                for i in range(active)
            )
            steps.append(ScheduleStep(index, assignments))
            index += 1
    return Schedule(ScheduleKind.LAYERNORM, tuple(steps), kernels, bn, rows)


# A schedule descriptor document's rules; rows may reach the product of two extents.
DESCRIPTOR_FIELDS = {"op_kind": ("choice", tuple(kind.value for kind in ScheduleKind)),
                     "rows": ("int", 1, INT64_MAX), "banks": EXTENT, "kernels": EXTENT,
                     "heads": ("int", 0, EXTENT_MAX), "steps": ("int", 1, INT64_MAX)}


@dataclass(frozen=True)
class ScheduleDescriptor:
    """A static schedule in closed form, as the manifest stores it.

    The shape determines the expanded schedule completely, so a descriptor
    is checked and its steps counted in O(1), whatever the row count;
    ``step_count`` is the count that check returned, and ``expand`` lists
    the steps only when they are wanted.
    """

    op_kind: ScheduleKind
    rows: int
    banks: int
    kernels: int
    heads: int = 0  # 0 for segment-unit schedules
    step_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.op_kind, ScheduleKind):
            raise SchemaError(f"op_kind must be a ScheduleKind, got {self.op_kind!r}")
        object.__setattr__(self, "step_count", _shape_steps(
            self.op_kind, self.rows, self.banks, self.kernels, self.heads))

    def to_doc(self) -> dict:
        return {"op_kind": self.op_kind.value, "rows": self.rows, "banks": self.banks,
                "kernels": self.kernels, "heads": self.heads, "steps": self.step_count}

    @classmethod
    def from_doc(cls, doc: Mapping) -> ScheduleDescriptor:
        """Inverse of ``to_doc``; ``steps`` must match the shape's step count."""
        fields = read(doc, "schedule descriptor", DESCRIPTOR_FIELDS)
        op_kind, steps = fields.pop("op_kind"), fields.pop("steps")
        check({"op_kind": op_kind}, DESCRIPTOR_FIELDS)
        desc = cls(ScheduleKind(op_kind), **fields)
        check({"steps": steps}, DESCRIPTOR_FIELDS)
        if steps != desc.step_count:
            raise SchemaError(f"schedule descriptor says {steps} steps, its shape has "
                              f"{desc.step_count}")
        return desc

    def expand(self) -> Schedule:
        """Every step of the schedule, from the generator of its kind."""
        if self.op_kind is ScheduleKind.SOFTMAX:
            return schedule_softmax(self.heads, self.banks, self.rows, self.kernels)
        if self.op_kind is ScheduleKind.LAYERNORM:
            return schedule_layernorm(self.rows, self.banks, self.kernels)
        return schedule_row_parallel(self.rows, self.banks, self.kernels, self.op_kind)


def validate_schedule(s: Schedule) -> FeasibilityVerdict:
    """Check bank-conflict freedom, occupancy, and exact unit coverage.

    Partial steps (fewer assignments than kernels) are tail remainders and
    reported as warnings; bank conflicts, duplicate kernels, and coverage
    gaps or repeats are violations.
    """
    violations: list[str] = []
    warnings: list[str] = []
    covered: dict[tuple[int, int], int] = {}
    for step in s.steps:
        banks = [a.bank for a in step.assignments]
        kernels = [a.kernel for a in step.assignments]
        if len(set(banks)) != len(banks):
            violations.append(f"step {step.index}: bank accessed twice")
        if len(set(kernels)) != len(kernels):
            violations.append(f"step {step.index}: kernel assigned twice")
        if not step.assignments:
            violations.append(f"step {step.index}: empty step")
        elif len(step.assignments) < s.kernels:
            warnings.append(
                f"step {step.index}: {len(step.assignments)}/{s.kernels} kernels busy"
            )
        for a in step.assignments:
            covered[(a.row, a.unit)] = covered.get((a.row, a.unit), 0) + 1

    required = {
        (row, unit) for row in range(s.rows) for unit in range(s.unit_count)
    }
    missing = required - covered.keys()
    extra = covered.keys() - required
    repeated = [u for u, c in covered.items() if c > 1]
    if missing:
        violations.append(f"{len(missing)} (row, unit) pairs never scheduled, e.g. {sorted(missing)[0]}")
    if extra:
        violations.append(f"{len(extra)} assignments outside required units, e.g. {sorted(extra)[0]}")
    if repeated:
        violations.append(f"{len(repeated)} (row, unit) pairs scheduled more than once")
    return FeasibilityVerdict(not violations, tuple(violations), tuple(warnings))
