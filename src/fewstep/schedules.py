"""Discrete variance-preserving noise schedules and their alpha-bar derived quantities."""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SCHEDULE_KINDS", "NoiseSchedule", "build_schedule"]

SCHEDULE_KINDS = ("linear", "scaled_linear", "cosine")


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Forward-diffusion schedule over integer timesteps ``0 .. num_steps - 1``.

    ``betas`` holds per-step variance increments. ``alpha_bars`` is derived
    from them, the cumulative signal retention ``prod(1 - betas[: t + 1])``,
    so a schedule's betas fix all of it. It owns both arrays, and both are immutable.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.array(self.betas, dtype=np.float64)
        if betas.ndim != 1:
            raise ValueError("betas must be a 1-D array")
        if betas.size < 2:
            raise ValueError(f"a schedule needs at least 2 timesteps, got {betas.size}")
        if not np.all((betas > 0.0) & (betas < 1.0)):  # written so that a NaN fails
            raise ValueError("all betas must lie strictly inside (0, 1)")
        alpha_bars = np.cumprod(1.0 - betas)
        # In float, a tiny first beta rounds alpha_bar to 1, a long schedule
        # underflows it to 0, and a tiny later beta ties two neighbours.
        if np.any(alpha_bars <= 0.0) or np.any(alpha_bars >= 1.0):
            raise ValueError("all alpha_bars must lie strictly inside (0, 1)")
        if np.any(np.diff(alpha_bars) >= 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        for arr, name in ((betas, "betas"), (alpha_bars, "alpha_bars")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_steps(self) -> int:
        return int(self.betas.size)

    def alpha_bar_at(self, t: int) -> float:
        """``alpha_bars[t]``; a timestep outside ``[0, num_steps - 1]`` raises ``IndexError``."""
        t = operator.index(t)
        if not 0 <= t < self.num_steps:
            raise IndexError(f"timestep {t} outside [0, {self.num_steps - 1}]")
        return float(self.alpha_bars[t])

    def snr(self, t: int) -> float:
        """Signal-to-noise ratio ``alpha_bar_t / (1 - alpha_bar_t)`` at timestep ``t``."""
        ab = self.alpha_bar_at(t)
        return float(ab / (1.0 - ab))

    def forward_diffuse(self, x0: np.ndarray, t: int, noise: np.ndarray) -> np.ndarray:
        """Diffuse clean data to timestep ``t``: ``sqrt(ab_t) * x0 + sqrt(1 - ab_t) * noise``, in ``x0``'s layout."""
        return _forward(x0, self.alpha_bar_at(t), noise)


def _forward(x: np.ndarray, keep: float, noise: np.ndarray) -> np.ndarray:
    """``sqrt(keep) * x + sqrt(1 - keep) * noise``, the one forward kernel, in ``x``'s layout whatever the noise's."""
    x, noise = (np.asarray(v, dtype=np.float64) for v in (x, noise))
    if noise.shape != x.shape:
        raise ValueError(f"noise shape {noise.shape} does not match state shape {x.shape}")
    out = np.multiply(x, math.sqrt(keep))  # the noise term too is formed in x's layout, so the add mixes none
    return np.add(out, np.multiply(noise, math.sqrt(1.0 - keep), out=np.empty_like(out)), out=out)


def _cosine_alpha_bars(num_steps: int) -> np.ndarray:
    # Squared-cosine signal-retention profile evaluated at step boundaries.
    ts = np.arange(num_steps + 1, dtype=np.float64) / num_steps
    f = np.cos((ts + 0.008) / 1.008 * np.pi / 2.0) ** 2
    return f / f[0]


def build_schedule(
    kind: str = "linear",
    num_steps: int = 1000,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
) -> NoiseSchedule:
    """Build a noise schedule of the given kind.

    Args:
        kind: one of ``linear`` (betas uniformly spaced from ``beta_start`` to
            ``beta_end``), ``scaled_linear`` (uniform in ``sqrt(beta)``), or
            ``cosine`` (squared-cosine alpha-bar profile; ignores the beta
            range and caps each beta at 0.999).
        num_steps: number of discrete timesteps, at least 2.
        beta_start: first beta, in ``(0, 1)``.
        beta_end: last beta, at least ``beta_start`` and below 1.

    Returns:
        An immutable :class:`NoiseSchedule`.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    if num_steps < 2:
        raise ValueError(f"num_steps must be at least 2, got {num_steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"beta range must satisfy 0 < beta_start <= beta_end < 1, got "
            f"({beta_start}, {beta_end})"
        )

    if kind == "linear":
        betas = np.linspace(beta_start, beta_end, num_steps)
    elif kind == "scaled_linear":
        betas = np.linspace(beta_start**0.5, beta_end**0.5, num_steps) ** 2
    else:
        profile = _cosine_alpha_bars(num_steps)
        betas = np.minimum(1.0 - profile[1:] / profile[:-1], 0.999)

    return NoiseSchedule(betas=betas)
