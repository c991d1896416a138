import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewstep.importance import ImportanceCurve, compute_importance, schedule_fingerprint
from fewstep.schedules import build_schedule
from fewstep.timesteps import (
    EQUIDISTANT,
    IMPORTANCE,
    TimestepSchedule,
    adaptive_schedule,
    equidistant_schedule,
)


def reference_equidistant(num_train_steps, n):
    # Independent spacing rule: real positions rounded half to even.
    span = num_train_steps - 1
    return [round(span - i * span / (n - 1)) for i in range(n)]


def reference_argmax(curve, n):
    # Slot i takes the first maximum of the (n - 1 - i)-th of n contiguous intervals.
    T = curve.values.size
    picks = []
    for j in reversed(range(n)):
        block = curve.values[(j * T) // n:((j + 1) * T) // n]
        picks.append((j * T) // n + int(np.flatnonzero(block == block.max())[0]))
    return picks


def reference_adaptive(curve, n, theta):
    # Independent merge: a slot takes its interval's first argmax when that
    # exceeds theta and its equidistant step otherwise, then steps down one at
    # a time until it lies below its predecessor.
    steps, provenance = [], []
    for pick, t in zip(reference_argmax(curve, n), reference_equidistant(curve.values.size, n)):
        chosen = curve.values[pick] > theta
        t = pick if chosen else t
        while steps and t >= steps[-1]:
            t -= 1
        steps.append(t)
        provenance.append(IMPORTANCE if chosen else EQUIDISTANT)
    return steps, tuple(provenance)


@st.composite
def merge_cases(draw):
    """A linear schedule of T in [3, 64] with an arbitrary curve (an exact 1.0, and ties) and n in [2, T]."""
    T = draw(st.integers(min_value=3, max_value=64))
    level = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    values = draw(st.lists(level, min_size=T, max_size=T))
    values[draw(st.integers(0, T - 1))] = 1.0
    return "linear", T, values, draw(st.integers(min_value=2, max_value=T))


def curve_for(schedule, values):
    return ImportanceCurve(
        values=np.asarray(values, dtype=np.float64),
        source_schedule_id=schedule_fingerprint(schedule),
    )


class TestEquidistant:
    def test_coarse_grid(self, linear_schedule):
        ts = equidistant_schedule(linear_schedule, 4)
        assert ts.steps.tolist() == [999, 666, 333, 0]
        assert ts.provenance == (EQUIDISTANT,) * 4
        assert ts.curve is None

    def test_two_point_grid_hits_both_ends(self, linear_schedule):
        assert equidistant_schedule(linear_schedule, 2).steps.tolist() == [999, 0]

    def test_full_grid_identity(self):
        schedule = build_schedule("linear", 8, 0.01, 0.02)
        assert equidistant_schedule(schedule, 8).steps.tolist() == [7, 6, 5, 4, 3, 2, 1, 0]

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 64])
    def test_matches_reference_spacing(self, linear_schedule, n):
        ts = equidistant_schedule(linear_schedule, n)
        assert ts.steps.tolist() == reference_equidistant(1000, n)

    def test_rejects_out_of_range_counts(self, linear_schedule):
        with pytest.raises(ValueError, match="step count"):
            equidistant_schedule(linear_schedule, 1)
        with pytest.raises(ValueError, match="step count"):
            equidistant_schedule(linear_schedule, 1001)


class TestImportanceSelection:
    """theta = 0 takes every importance candidate, since every importance is positive."""

    def test_picks_one_argmax_per_interval(self, linear_schedule, default_curve):
        ts = adaptive_schedule(linear_schedule, default_curve, 4, theta=0.0)
        assert ts.steps.tolist() == reference_argmax(default_curve, 4)
        assert ts.provenance == (IMPORTANCE,) * 4
        assert ts.curve is default_curve

    def test_global_peak_is_always_selected(self, linear_schedule, default_curve):
        peak = int(np.argmax(default_curve.values))
        for n in (2, 4, 8, 16):
            assert peak in adaptive_schedule(linear_schedule, default_curve, n, theta=0.0).steps

    def test_ties_break_to_lowest_index(self, linear_schedule):
        schedule = build_schedule("linear", 4, 0.01, 0.02)
        curve = curve_for(schedule, [1.0, 1.0, 0.3, 0.2])
        assert adaptive_schedule(schedule, curve, 2, theta=0.0).steps.tolist() == [2, 0]

    def test_steps_cluster_where_curve_is_high(self, linear_schedule, default_curve):
        chosen = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.0).steps
        uniform = equidistant_schedule(linear_schedule, 8).steps
        assert default_curve.values[chosen].mean() > default_curve.values[uniform].mean()


class TestAdaptive:
    @pytest.mark.parametrize("kind", ["linear", "scaled_linear", "cosine"])
    @pytest.mark.parametrize("n", [2, 12, 999, 1000])  # up to T - 1 and T
    def test_threshold_one_degenerates_to_equidistant(self, kind, n):
        # The merge takes its equidistant slots from equidistant_schedule, so theta = 1 is that schedule exactly.
        schedule = build_schedule(kind, 1000)
        curve = compute_importance(schedule)
        merged = adaptive_schedule(schedule, curve, n, theta=1.0)
        uniform = equidistant_schedule(schedule, n)
        assert np.array_equal(merged.steps, uniform.steps)
        assert merged.provenance == (EQUIDISTANT,) * n
        assert merged.curve is curve

    def test_threshold_zero_selects_every_slot_by_importance(
        self, linear_schedule, default_curve
    ):
        merged = adaptive_schedule(linear_schedule, default_curve, 12, theta=0.0)
        assert merged.steps.tolist() == reference_argmax(default_curve, 12)
        assert merged.provenance == (IMPORTANCE,) * 12

    def test_default_threshold_mixes_sources(self, linear_schedule, default_curve):
        merged = adaptive_schedule(linear_schedule, default_curve, 8)
        assert merged.steps.tolist() == [999, 856, 625, 500, 375, 349, 249, 0]
        assert merged.provenance == (
            EQUIDISTANT,
            EQUIDISTANT,
            IMPORTANCE,
            IMPORTANCE,
            IMPORTANCE,
            IMPORTANCE,
            IMPORTANCE,
            EQUIDISTANT,
        )

    def test_collisions_decrement_the_later_step(self):
        schedule = build_schedule("linear", 5, 0.01, 0.02)
        curve = curve_for(schedule, [0.2, 0.3, 0.5, 1.0, 0.4])
        # Slot 0 takes the importance pick 3; slot 1 falls back to the
        # equidistant pick, also 3, and is pushed down to 2.
        merged = adaptive_schedule(schedule, curve, 4, theta=0.7)
        assert merged.steps.tolist() == [3, 2, 1, 0]
        assert merged.provenance == (IMPORTANCE, EQUIDISTANT, EQUIDISTANT, EQUIDISTANT)

    def test_equidistant_slot_count_grows_with_threshold(
        self, linear_schedule, default_curve
    ):
        counts = [
            adaptive_schedule(linear_schedule, default_curve, 16, theta=theta).provenance.count(
                EQUIDISTANT
            )
            for theta in np.linspace(0.0, 1.0, 11)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[-1] == 16

    def test_rejects_curve_from_another_schedule(self, default_curve):
        other = build_schedule("scaled_linear", 1000, 1e-4, 0.02)
        with pytest.raises(ValueError, match="different schedule"):
            adaptive_schedule(other, default_curve, 8)

    def test_rejects_threshold_outside_unit_interval(self, linear_schedule, default_curve):
        with pytest.raises(ValueError, match="theta"):
            adaptive_schedule(linear_schedule, default_curve, 8, theta=1.5)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        theta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        data=st.data(),
    )
    def test_merged_schedule_invariants(self, linear_schedule, default_curve, n, theta, data):
        merged = adaptive_schedule(linear_schedule, default_curve, n, theta=theta)
        assert merged.steps.size == n
        assert np.all(np.diff(merged.steps) < 0)
        assert 0 <= merged.steps[-1] and merged.steps[0] <= 999
        assert len(merged.provenance) == n
        # A short schedule and an arbitrary curve: slot i never falls below
        # n - 1 - i, so the merge always fits n distinct steps into [0, T - 1].
        T = data.draw(st.integers(min_value=max(n, 3), max_value=64), label="num_train_steps")
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T), label="values")
        values[data.draw(st.integers(0, T - 1), label="peak")] = 1.0
        schedule = build_schedule("linear", T, 1e-4, 0.02)
        merged = adaptive_schedule(schedule, curve_for(schedule, values), n, theta=theta)
        assert np.all(np.diff(merged.steps) < 0) and merged.steps[0] <= T - 1
        assert np.all(merged.steps >= n - 1 - np.arange(n))

    @settings(max_examples=200, deadline=None)
    @given(case=merge_cases(), theta=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 0.7, 1.0])))
    # The built-in curves at T = 1000; values=None takes the schedule's own curve.
    @example(case=("linear", 1000, None, 8), theta=0.7)
    @example(case=("scaled_linear", 1000, None, 12), theta=0.3)
    @example(case=("cosine", 1000, None, 4), theta=0.7)
    def test_matches_an_independent_merge(self, case, theta):
        kind, T, values, n = case
        schedule = build_schedule(kind, T)
        curve = compute_importance(schedule) if values is None else curve_for(schedule, values)
        merged = adaptive_schedule(schedule, curve, n, theta=theta)
        steps, provenance = reference_adaptive(curve, n, theta)
        assert merged.steps.tolist() == steps
        assert merged.provenance == provenance
        assert merged.curve is curve


class TestValidation:
    def test_rejects_non_decreasing_steps(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            TimestepSchedule(steps=[5, 5, 0], provenance=(EQUIDISTANT,) * 3)

    def test_rejects_fewer_than_two_steps(self):
        for steps in ([5], [[5, 0]]):
            with pytest.raises(ValueError, match="at least 2 entries"):
                TimestepSchedule(steps=steps, provenance=(EQUIDISTANT,) * 2)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="non-negative"):
            TimestepSchedule(steps=[5, 2, -1], provenance=(EQUIDISTANT,) * 3)

    def test_rejects_mismatched_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            TimestepSchedule(steps=[5, 2, 0], provenance=(EQUIDISTANT,))
        with pytest.raises(ValueError, match="provenance"):
            TimestepSchedule(steps=[5, 2, 0], provenance=("eq", "eq", "eq"))

    @pytest.mark.parametrize("steps, dtype", [
        ([999.9, 500.5, 0.7], "float64"),
        ([1e30, 5], "float64"),
        (["9", "3", "0"], "<U1"),
        ([True, False], "bool"),
        ([2**70, 5], "object"),
    ], ids=["fractional", "float-beyond-int64", "strings", "booleans", "int-beyond-int64"])
    def test_rejects_steps_that_are_not_integers(self, steps, dtype):
        # Casting them would truncate a float, parse a string, count a bool as 1 or overflow.
        with pytest.raises(ValueError, match=re.escape(f"steps must be integers, got dtype {dtype}")):
            TimestepSchedule(steps=steps, provenance=(EQUIDISTANT,) * len(steps))

    @pytest.mark.parametrize("view", [True, False], ids=["view-of-a-writeable-base", "owned-array"])
    def test_the_schedule_keeps_its_own_copy_of_the_steps(self, view):
        base = np.array([9, 5, 0])
        given = base[:] if view else base
        ts = TimestepSchedule(steps=given, provenance=(EQUIDISTANT,) * 3)
        assert given.flags.writeable
        base[:] = [0, 5, 9]
        assert ts.steps.tolist() == [9, 5, 0]

    def test_steps_are_immutable(self, linear_schedule):
        ts = equidistant_schedule(linear_schedule, 4)
        with pytest.raises(ValueError):
            ts.steps[0] = 0
