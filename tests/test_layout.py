import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitmap.errors import SchemaError
from vitmap.layout import (
    Assignment,
    Schedule,
    ScheduleDescriptor,
    ScheduleKind,
    ScheduleStep,
    schedule_layernorm,
    schedule_row_parallel,
    schedule_softmax,
    validate_schedule,
)


class TestRowParallel:
    def test_two_rows_four_banks(self):
        s = schedule_row_parallel(2, 4, 4)
        assert len(s.steps) == 2
        assert sum(len(st.assignments) for st in s.steps) == 8

    def test_single_everything(self):
        s = schedule_row_parallel(1, 1, 1)
        assert len(s.steps) == 1

    def test_kernel_bank_map_constant_across_steps(self):
        s = schedule_row_parallel(3, 4, 4)
        assert len(s.steps) == 3
        maps = [tuple((a.kernel, a.bank) for a in st.assignments) for st in s.steps]
        assert len(set(maps)) == 1

    def test_fewer_kernels_multi_pass(self):
        s = schedule_row_parallel(2, 4, 2)
        assert len(s.steps) == 4  # two passes per row
        assert validate_schedule(s).ok

    def test_more_kernels_than_banks_rejected(self):
        with pytest.raises(SchemaError):
            schedule_row_parallel(2, 2, 4)


class TestSoftmaxSchedule:
    def test_published_head_count_three_rounds(self):
        s = schedule_softmax(12, 4, 197)
        assert len(s.steps) == 591
        rows_seen = {a.row for st in s.steps for a in st.assignments}
        assert len(rows_seen) == 197

    def test_exact_fit_single_round(self):
        s = schedule_softmax(4, 4, 1)
        assert len(s.steps) == 1

    def test_partial_last_round(self):
        s = schedule_softmax(6, 4, 2)
        assert len(s.steps) == 4
        verdict = validate_schedule(s)
        assert verdict.ok
        assert verdict.warnings  # tail rounds with idle kernels

    def test_heads_live_in_bank_mod(self):
        s = schedule_softmax(12, 4, 1)
        for st in s.steps:
            for a in st.assignments:
                assert a.bank == a.unit % 4

    def test_rounds_formula_for_all_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            heads = int(rng.integers(1, 33))
            bn = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 40))
            s = schedule_softmax(heads, bn, rows)
            assert len(s.steps) == rows * -(-heads // bn)

    def test_kernels_must_match_banks(self):
        with pytest.raises(SchemaError):
            schedule_softmax(4, 4, 2, kernels=2)


class TestLayernormSchedule:
    def test_rotation_matches_worked_example(self):
        s = schedule_layernorm(4, 4, 4)
        assert len(s.steps) == 4
        step0 = [(a.kernel, a.bank) for a in s.steps[0].assignments]
        step1 = [(a.kernel, a.bank) for a in s.steps[1].assignments]
        assert step0 == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert step1 == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_single_bank_trivial(self):
        s = schedule_layernorm(3, 1, 1)
        assert len(s.steps) == 3
        assert validate_schedule(s).ok

    def test_two_row_blocks(self):
        s = schedule_layernorm(8, 4, 4)
        assert len(s.steps) == 8
        first_block_rows = {a.row for st in s.steps[:4] for a in st.assignments}
        second_block_rows = {a.row for st in s.steps[4:] for a in st.assignments}
        assert first_block_rows == {0, 1, 2, 3}
        assert second_block_rows == {4, 5, 6, 7}

    def test_every_step_is_bank_permutation(self):
        s = schedule_layernorm(16, 4, 4)
        for st in s.steps:
            assert sorted(a.bank for a in st.assignments) == [0, 1, 2, 3]

    def test_fewer_kernels_than_banks_validates_clean(self):
        s = schedule_layernorm(8, 4, 3)
        assert s.kernels == 3
        assert len(s.steps) == 3 * 4  # ceil(8 / 3) row blocks of 4 rotation steps
        assert validate_schedule(s).ok

    def test_more_kernels_than_banks_raises(self):
        with pytest.raises(SchemaError, match="kernels 8 > banks 4"):
            schedule_layernorm(8, 4, 8)


class TestValidateSchedule:
    def test_generators_produce_clean_schedules(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            bn = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 30))
            kernels = int(rng.integers(1, bn + 1))
            heads = int(rng.integers(1, 17))
            for sched in (
                schedule_row_parallel(rows, bn, kernels),
                schedule_softmax(heads, bn, rows),
                schedule_layernorm(rows, bn, bn),
            ):
                verdict = validate_schedule(sched)
                assert verdict.ok, verdict.violations

    def test_planted_bank_conflict_rejected(self):
        step = ScheduleStep(0, (
            Assignment(kernel=0, bank=2, row=0, unit=0),
            Assignment(kernel=1, bank=2, row=0, unit=1),
        ))
        s = Schedule(ScheduleKind.GELU, (step,), kernels=2, banks=2, rows=1)
        verdict = validate_schedule(s)
        assert not verdict.ok
        assert any("bank" in v for v in verdict.violations)

    def test_missing_coverage_rejected(self):
        good = schedule_row_parallel(2, 2, 2)
        s = Schedule(good.op_kind, good.steps[:-1], good.kernels, good.banks, good.rows)
        verdict = validate_schedule(s)
        assert not verdict.ok
        assert any("never scheduled" in v for v in verdict.violations)

    def test_duplicate_kernel_rejected(self):
        step = ScheduleStep(0, (
            Assignment(kernel=0, bank=0, row=0, unit=0),
            Assignment(kernel=0, bank=1, row=0, unit=1),
        ))
        s = Schedule(ScheduleKind.GELU, (step,), kernels=2, banks=2, rows=1)
        assert not validate_schedule(s).ok

    def test_repeated_unit_rejected(self):
        good = schedule_row_parallel(1, 2, 2)
        s = Schedule(good.op_kind, good.steps + good.steps, good.kernels,
                     good.banks, good.rows)
        verdict = validate_schedule(s)
        assert any("more than once" in v for v in verdict.violations)


class TestExports:
    def test_json_round_trips_counts(self):
        import json

        s = schedule_softmax(6, 4, 3)
        payload = json.loads(s.to_json())
        assert payload["heads"] == 6
        assert len(payload["steps"]) == len(s.steps)


def generate(kind, rows, banks, kernels, heads):
    """The generator call for a schedule shape, with the generators' defaults."""
    if kind is ScheduleKind.SOFTMAX:
        return schedule_softmax(heads, banks, rows, kernels)
    if kind is ScheduleKind.LAYERNORM:
        return schedule_layernorm(rows, banks, kernels)
    return schedule_row_parallel(rows, banks, kernels, kind)


@st.composite
def valid_shapes(draw):
    kind = draw(st.sampled_from(list(ScheduleKind)))
    rows = draw(st.integers(1, 40))
    banks = draw(st.integers(1, 8))
    if kind is ScheduleKind.SOFTMAX:
        return kind, rows, banks, banks, draw(st.integers(1, 24))
    return kind, rows, banks, draw(st.integers(1, banks)), 0


class TestScheduleDescriptor:
    @settings(max_examples=300)
    @given(valid_shapes())
    def test_expansion_matches_closed_form(self, shape):
        desc = ScheduleDescriptor(*shape)
        sched = desc.expand()
        assert len(sched.steps) == desc.step_count
        verdict = validate_schedule(sched)
        assert verdict.ok, verdict.violations
        assert (sched.op_kind, sched.rows, sched.banks, sched.kernels, sched.heads) == shape
        assert ScheduleDescriptor.from_doc(desc.to_doc()) == desc

    @settings(max_examples=400)
    @given(st.sampled_from(list(ScheduleKind)), st.integers(-1, 12), st.integers(-1, 6),
           st.integers(-1, 8), st.one_of(st.just(0), st.integers(-1, 12)))
    def test_violations_rejected_by_descriptor_and_generator(self, kind, rows, banks,
                                                             kernels, heads):
        if kind is ScheduleKind.SOFTMAX:
            valid = min(rows, banks, heads) >= 1 and kernels == banks
        else:
            valid = min(rows, banks, kernels) >= 1 and kernels <= banks and heads == 0
        try:
            ScheduleDescriptor(kind, rows, banks, kernels, heads)
        except SchemaError:
            assert not valid
            if kind is ScheduleKind.SOFTMAX or heads == 0:  # segment generators take no heads
                with pytest.raises(SchemaError):
                    generate(kind, rows, banks, kernels, heads)
        else:
            assert valid

    def test_published_step_counts(self):
        assert ScheduleDescriptor(ScheduleKind.SOFTMAX, 197, 4, 4, 12).step_count == 591
        assert ScheduleDescriptor(ScheduleKind.LAYERNORM, 197, 4, 4).step_count == 200
        assert ScheduleDescriptor(ScheduleKind.GELU, 197, 4, 2).step_count == 394

    def test_counts_without_expanding(self, monkeypatch):
        import vitmap.layout as layout

        def refuse(*args, **kwargs):
            raise AssertionError("expanded")

        for name in ("schedule_row_parallel", "schedule_softmax", "schedule_layernorm"):
            monkeypatch.setattr(layout, name, refuse)
        desc = ScheduleDescriptor(ScheduleKind.SOFTMAX, 197 * 10**6, 4, 4, 12)
        assert desc.step_count == 591 * 10**6
        assert desc.to_doc()["steps"] == desc.step_count

    def test_shape_checked_once_per_descriptor(self, monkeypatch):
        # The count the check returned is kept, so writing the document
        # does not check the shape again.
        import vitmap.layout as layout

        calls = []
        shape_steps = layout._shape_steps
        monkeypatch.setattr(layout, "_shape_steps",
                            lambda *args: calls.append(args) or shape_steps(*args))
        desc = ScheduleDescriptor(ScheduleKind.GELU, 197, 4, 2)
        assert desc.to_doc() == {"op_kind": "Gelu", "rows": 197, "banks": 4, "kernels": 2,
                                 "heads": 0, "steps": 394}
        assert len(calls) == 1
        assert dataclasses.replace(desc, rows=3).step_count == 6
        assert repr(desc) == ("ScheduleDescriptor(op_kind=<ScheduleKind.GELU: 'Gelu'>, "
                              "rows=197, banks=4, kernels=2, heads=0)")

    def test_plain_string_kind_rejected(self):
        with pytest.raises(SchemaError):
            ScheduleDescriptor("Softmax", 4, 4, 4, 2)

    @pytest.mark.parametrize("change", [
        {"steps": 5},
        {"steps": "4"},
        {"rows": 4.0},
        {"heads": True},
        {"op_kind": "Conv"},
        {"banks": 0},
        {"rows": None},
    ])
    def test_from_doc_rejects_inconsistent_documents(self, change):
        doc = ScheduleDescriptor(ScheduleKind.GELU, 4, 4, 4).to_doc()
        assert doc["steps"] == 4
        with pytest.raises(SchemaError):
            ScheduleDescriptor.from_doc({**doc, **change})

    def test_from_doc_rejects_missing_field(self):
        doc = ScheduleDescriptor(ScheduleKind.GELU, 4, 4, 4).to_doc()
        del doc["kernels"]
        with pytest.raises(SchemaError):
            ScheduleDescriptor.from_doc(doc)
