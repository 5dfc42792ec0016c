"""Multi-bank memory layouts and static per-operation schedules.

Matrices are column-partitioned across the DDR banks and packed so each bus
word carries the bus's pack factor of elements (``hw.compute_pm``), keeping
every access a full burst. Three schedule families cover the operation kinds:

* row-parallel (matmuls outside the heads, GELU, other elementwise ops):
  each kernel consumes one bank's segment of the current row;
* softmax (head-grouped ops): head h resides in bank ``h mod BN``, so one
  row finishes in ``ceil(heads / BN)`` rounds;
* layernorm: a rotating pattern where kernel i owns row ``base + i`` and at
  step t reads bank ``(i + t) mod BN``, so every step touches all banks.

Each schedule is closed-form in its shape ``(op kind, rows, banks, kernels,
heads)``: ``ScheduleDescriptor`` holds that shape, checks it and counts its
steps in O(1), and ``expand`` runs the generator below that lists every
(step, kernel, bank, row, unit) assignment. ``validate_schedule`` checks an
expanded schedule for bank-conflict freedom, kernel occupancy, and exact
coverage of the required (row, segment/head) units.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError
from .hw import compute_pm


class ScheduleKind(str, Enum):
    MATMUL_ROW_PARALLEL = "MatMulRowParallel"
    GELU = "Gelu"
    SOFTMAX = "Softmax"
    LAYERNORM = "LayerNorm"


def pack_row(cols: int, axi_width_bits: int, data_width_bits: int) -> int:
    """Bus words per row of ``cols`` elements at full burst packing."""
    if cols < 1:
        raise SchemaError(f"cols must be >= 1, got {cols}")
    return -(-cols // compute_pm(axi_width_bits, data_width_bits))


@dataclass(frozen=True)
class BankLayout:
    """Column-contiguous split of a matrix across the DDR banks."""

    matrix_dims: tuple[int, int]
    bank_count: int
    segments: tuple[tuple[int, int], ...]  # per-bank [start, end) column interval
    words_per_row_segment: tuple[int, ...]

    def segment_width(self, bank: int) -> int:
        start, end = self.segments[bank]
        return end - start


def partition_banks(rows: int, cols: int, bn: int, pack_factor: int = 16) -> BankLayout:
    """Split ``cols`` columns contiguously over ``bn`` banks, widths within 1.

    Earlier banks take the remainder columns. Each bank's per-row word count
    is the packed width of its segment.
    """
    if rows < 1 or bn < 1:
        raise SchemaError("rows and bn must be >= 1")
    if cols < bn:
        raise SchemaError(f"cols {cols} < bank count {bn}")
    base, extra = divmod(cols, bn)
    segments = []
    start = 0
    for b in range(bn):
        width = base + (1 if b < extra else 0)
        segments.append((start, start + width))
        start += width
    words = tuple(-(-(e - s) // pack_factor) for s, e in segments)
    return BankLayout((rows, cols), bn, tuple(segments), words)


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

    def to_trace(self) -> str:
        """Line-oriented trace: step kernel bank row unit."""
        lines = [f"# {self.op_kind.value} kernels={self.kernels} banks={self.banks} rows={self.rows}"]
        for step in self.steps:
            for a in step.assignments:
                lines.append(f"{step.index} {a.kernel} {a.bank} {a.row} {a.unit}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
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
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    if kind is ScheduleKind.SOFTMAX:
        if heads < 1 or banks < 1 or rows < 1:
            raise SchemaError("num_heads, bn, rows must be >= 1")
        if kernels != banks:
            raise SchemaError(f"softmax schedule requires kernels == banks, "
                              f"got {kernels} != {banks}")
        return rows * -(-heads // banks)
    if rows < 1 or banks < 1 or kernels < 1:
        raise SchemaError("rows, bn, kernels must be >= 1")
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


_SHAPE_FIELDS = ("rows", "banks", "kernels", "heads")


@dataclass(frozen=True)
class ScheduleDescriptor:
    """A static schedule in closed form, as the manifest stores it.

    The shape determines the expanded schedule completely, so a descriptor
    is checked and its steps counted in O(1), whatever the row count;
    ``expand`` lists the steps only when a trace is wanted.
    """

    op_kind: ScheduleKind
    rows: int
    banks: int
    kernels: int
    heads: int = 0  # 0 for segment-unit schedules

    def __post_init__(self):
        if not isinstance(self.op_kind, ScheduleKind):
            raise SchemaError(f"op_kind must be a ScheduleKind, got {self.op_kind!r}")
        _shape_steps(self.op_kind, self.rows, self.banks, self.kernels, self.heads)

    @property
    def step_count(self) -> int:
        return _shape_steps(self.op_kind, self.rows, self.banks, self.kernels, self.heads)

    def to_doc(self) -> dict:
        doc = {name: getattr(self, name) for name in _SHAPE_FIELDS}
        doc.update(op_kind=self.op_kind.value, steps=self.step_count)
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> ScheduleDescriptor:
        """Inverse of ``to_doc``; ``steps`` must match the shape's step count."""
        try:
            kind = ScheduleKind(doc["op_kind"])
            shape = [doc[name] for name in _SHAPE_FIELDS]
            steps = doc["steps"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed schedule descriptor {doc!r}: {exc!r}") from exc
        if any(type(v) is not int for v in (*shape, steps)):
            raise SchemaError(f"schedule descriptor fields must be integers: {doc!r}")
        desc = cls(kind, *shape)
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


@dataclass(frozen=True)
class ScheduleVerdict:
    ok: bool
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_schedule(s: Schedule) -> ScheduleVerdict:
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
    return ScheduleVerdict(not violations, tuple(violations), tuple(warnings))
