"""Per-timestep importance derived from the slope of a schedule's log-SNR curve.

A timestep is important where the signal-to-noise ratio changes slowly, so the
importance of step ``t`` is the inverse magnitude of the discrete log-SNR
gradient, normalized by the largest inverse over the whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import NoiseSchedule

__all__ = ["ImportanceCurve", "compute_importance", "schedule_fingerprint"]

_GUARD = 1e-8  # added inside the logarithm and used as the gradient floor


def schedule_fingerprint(schedule: NoiseSchedule) -> bytes:
    """A schedule's betas as bytes, used to pair derived curves; betas in (0, 1) make equal bytes equal betas."""
    return schedule.betas.tobytes()


@dataclass(frozen=True, eq=False)
class ImportanceCurve:
    """Normalized inverse log-SNR slope per timestep, in ``[0, 1]`` with max exactly 1."""

    values: np.ndarray
    source_schedule_id: bytes = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 3:
            raise ValueError("importance values must be a 1-D array of length >= 3")
        if not np.all((values >= 0.0) & (values <= 1.0)):  # written so that a NaN fails
            raise ValueError("importance values must lie in [0, 1]")
        if values.max() != 1.0:
            raise ValueError("importance values must attain a maximum of exactly 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def compute_importance(schedule: NoiseSchedule) -> ImportanceCurve:
    """Compute the importance curve of a noise schedule; ``ImportanceCurve`` rejects fewer than 3 timesteps.

    The guard is fixed at 1e-8. The discrete gradient of ``log(snr + 1e-8)``
    uses central differences at interior points and one-sided differences at
    the ends. Inverse magnitudes are capped at ``1e8`` where a gradient
    vanishes, then divided by their maximum so the curve peaks at exactly 1.
    """
    snr = schedule.alpha_bars / (1.0 - schedule.alpha_bars)
    grad = np.gradient(np.log(snr + _GUARD))
    inverse = 1.0 / np.maximum(np.abs(grad), _GUARD)
    return ImportanceCurve(
        values=inverse / inverse.max(),
        source_schedule_id=schedule_fingerprint(schedule),
    )
