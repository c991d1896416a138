"""Inference timestep selection: equidistant, and an adaptive merge of importance argmax and equidistant slots."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .importance import ImportanceCurve, schedule_fingerprint
from .schedules import NoiseSchedule

__all__ = [
    "EQUIDISTANT",
    "IMPORTANCE",
    "TimestepSchedule",
    "equidistant_schedule",
    "adaptive_schedule",
]

EQUIDISTANT = "equidistant"
IMPORTANCE = "importance"


@dataclass(frozen=True, eq=False)
class TimestepSchedule:
    """Strictly decreasing integer inference timesteps with per-slot selection provenance.

    ``provenance[i]`` records whether slot ``i`` came from the equidistant grid
    or from an importance argmax. Schedules that involved importance selection
    keep a reference to the curve so samplers can read per-step importance.
    """

    steps: np.ndarray
    provenance: tuple[str, ...]
    curve: ImportanceCurve | None = field(default=None, repr=False)

    def __post_init__(self):
        steps = np.asarray(self.steps)
        if steps.ndim != 1 or steps.size < 2:
            raise ValueError("steps must be a 1-D array with at least 2 entries")
        if steps.dtype == bool or not np.can_cast(steps.dtype, np.int64):  # no float is truncated, no string parsed
            raise ValueError(f"steps must be integers, got dtype {steps.dtype}")
        steps = steps.astype(np.int64)  # a copy, so the caller's array stays the caller's
        if np.any(np.diff(steps) >= 0):
            raise ValueError("steps must be strictly decreasing")
        if steps[-1] < 0:
            raise ValueError("steps must be non-negative")
        if len(self.provenance) != steps.size:
            raise ValueError("provenance must have one flag per step")
        if any(p not in (EQUIDISTANT, IMPORTANCE) for p in self.provenance):
            raise ValueError(f"provenance flags must be {EQUIDISTANT!r} or {IMPORTANCE!r}")
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n(self) -> int:
        return int(self.steps.size)


def _equidistant_steps(num_train_steps: int, n: int) -> np.ndarray:
    # Uniform real positions over [0, T - 1], highest first, rounded to nearest.
    return np.rint(np.linspace(num_train_steps - 1, 0, n)).astype(np.int64)


def _check_n(n: int, num_train_steps: int) -> None:
    if not 2 <= n <= num_train_steps:
        raise ValueError(f"step count {n} outside [2, {num_train_steps}]")


def _interval_argmax(curve: ImportanceCurve, n: int) -> np.ndarray:
    # Slot i draws from the (n - 1 - i)-th of n contiguous intervals over
    # [0, T - 1], so slots keep the sampling order, high noise first. Argmax
    # takes the lowest index on ties.
    T = curve.values.size
    edges = [(j * T) // n for j in range(n + 1)]
    picks = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = edges[n - 1 - i], edges[n - i]
        picks[i] = lo + int(np.argmax(curve.values[lo:hi]))
    return picks


def equidistant_schedule(schedule: NoiseSchedule, n: int) -> TimestepSchedule:
    """Uniformly spaced timesteps anchored at the highest trained step."""
    _check_n(n, schedule.num_steps)
    steps = _equidistant_steps(schedule.num_steps, n)
    return TimestepSchedule(steps=steps, provenance=(EQUIDISTANT,) * n)


def adaptive_schedule(
    schedule: NoiseSchedule, curve: ImportanceCurve, n: int, theta: float = 0.7
) -> TimestepSchedule:
    """Merge importance-selected and equidistant timesteps under a threshold.

    Slot ``i`` takes its interval's importance argmax when the importance at
    that candidate exceeds ``theta``, and the equidistant candidate otherwise.
    ``theta = 1`` therefore reproduces the equidistant schedule exactly, while
    ``theta = 0`` selects every slot by importance, since every importance is
    positive: these are the two pure selections. Collisions after the merge
    are resolved by decrementing the later (smaller) timestep, which preserves
    the high-noise anchor.

    Args:
        schedule: the noise schedule the curve was computed from.
        curve: importance curve; must belong to ``schedule``.
        n: inference step count, ``2 <= n <= num_steps``.
        theta: selection threshold in ``[0, 1]``. Default 0.7.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if curve.source_schedule_id != schedule_fingerprint(schedule):
        raise ValueError("importance curve was computed from a different schedule")
    _check_n(n, schedule.num_steps)

    equidistant = _equidistant_steps(schedule.num_steps, n)
    candidates = _interval_argmax(curve, n)
    chosen = curve.values[candidates] > theta
    steps = np.where(chosen, candidates, equidistant)
    # Both candidates of slot i are >= n - 1 - i (n <= T), and so is each decrement: no step goes negative.
    for i in range(1, n):
        if steps[i] >= steps[i - 1]:
            steps[i] = steps[i - 1] - 1
    provenance = tuple(IMPORTANCE if c else EQUIDISTANT for c in chosen)
    return TimestepSchedule(steps=steps, provenance=provenance, curve=curve)
