"""Classifier-free guidance combinations of conditional and unconditional predictions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "GUIDANCE_MODES",
    "GuidanceConfig",
    "guide_interpolate",
    "guide_negative",
    "compounding_scale",
]

GUIDANCE_MODES = ("interpolate", "negative_prompt", "none")


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance mode and scale; ``distill_omega`` enables the compounding diagnostic."""

    omega: float = 7.5
    mode: str = "none"
    distill_omega: Optional[float] = None

    def __post_init__(self):
        if self.mode not in GUIDANCE_MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}, expected one of {GUIDANCE_MODES}")
        if not 0.0 <= self.omega < np.inf:  # written so that a NaN fails
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if self.distill_omega is not None and not 0.0 <= self.distill_omega < np.inf:
            raise ValueError(f"distill_omega must be finite and non-negative, got {self.distill_omega}")


def _predictions(a: np.ndarray, b: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= omega < np.inf:  # written so that a NaN fails
        raise ValueError(f"omega must be finite and non-negative, got {omega}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"prediction shapes differ: {a.shape} vs {b.shape}")
    return a, b


def guide_interpolate(eps_cond: np.ndarray, eps_uncond: np.ndarray, omega: float) -> np.ndarray:
    """Extrapolate beyond the unconditional prediction: ``(1 + omega) * eps_cond - omega * eps_uncond``."""
    eps_cond, eps_uncond = _predictions(eps_cond, eps_uncond, omega)
    return (1.0 + omega) * eps_cond - omega * eps_uncond


def guide_negative(eps_cond: np.ndarray, eps_neg: np.ndarray, omega: float) -> np.ndarray:
    """Guide away from a negative prediction: ``eps_neg + omega * (eps_cond - eps_neg)``.

    Equivalent to :func:`guide_interpolate` at scale ``omega - 1`` when the
    negative prediction is the unconditional one.
    """
    eps_cond, eps_neg = _predictions(eps_cond, eps_neg, omega)
    return eps_neg + omega * (eps_cond - eps_neg)


class CompoundingScale(NamedTuple):
    scale: float
    alpha: Optional[float]


def compounding_scale(omega: float, distill_omega: float) -> CompoundingScale:
    """Effective amplification when guidance is applied atop a guidance-distilled model.

    Returns the product ``omega * distill_omega`` together with the mixing
    coefficient ``alpha = (omega - 1) / (omega * distill_omega)``, reported as
    ``None`` when the product is zero.
    """
    if not (0.0 <= omega < np.inf and 0.0 <= distill_omega < np.inf):  # written so that a NaN fails
        raise ValueError("omega and distill_omega must be finite and non-negative")
    scale = omega * distill_omega
    alpha = (omega - 1.0) / scale if scale != 0.0 else None
    return CompoundingScale(scale=scale, alpha=alpha)
