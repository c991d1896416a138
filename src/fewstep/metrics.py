"""Sample-quality metrics against analytic mixtures, and run report assembly.

Sliced W1 works in cache-sized blocks of directions and never holds all ``directions x batch`` projections.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .mixture import MixtureModel, _finite
from .seeding import STREAM_PROJECTIONS, stream

__all__ = [
    "mixture_moments",
    "moments_error",
    "wasserstein_1d",
    "sliced_wasserstein",
    "saturation_fraction",
    "RunReport",
]

_BLOCK_VALUES = 1 << 16  # projected values per sample set in one block of sliced-W1 directions: 512 KB


def mixture_moments(model: MixtureModel) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and covariance of an isotropic Gaussian mixture."""
    mean = model.weights @ model.means
    centered = model.means - mean
    cov = np.einsum("k,ki,kj->ij", model.weights, centered, centered)
    cov += np.diag(np.full(model.dim, model.weights @ model.variances))
    return mean, cov


def moments_error(samples: np.ndarray, model: MixtureModel) -> tuple[float, float]:
    """L2 mean and Frobenius covariance errors against the mixture's moments; the covariance is np.cov's (bias=True)."""
    samples = _finite(samples, "moment error")
    if samples.ndim != 2 or samples.shape[0] == 0 or samples.shape[1] != model.dim:
        raise ValueError(f"expected a non-empty (batch, {model.dim}) array, got shape {samples.shape}")
    true_mean, true_cov = mixture_moments(model)
    mean = samples.mean(axis=0)
    centred = (samples - mean).T
    cov = np.dot(centred, centred.T)
    cov *= np.true_divide(1, len(samples))
    return float(np.linalg.norm(mean - true_mean)), float(np.linalg.norm(cov - true_cov))


def _sorted_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean gap of sorted values along the last axis of equal-size sets; sorts both in place, overwrites ``a``."""
    if a.shape[-1] != b.shape[-1] or a.shape[-1] == 0:
        raise ValueError(f"sample sets must be non-empty and of equal size, got {a.shape[-1]} and {b.shape[-1]}")
    a.sort(axis=-1)
    b.sort(axis=-1)
    return np.abs(np.subtract(a, b, out=a), out=a).mean(axis=-1)


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact empirical 1-D Wasserstein-1 distance between two equal-size 1-D sample sets."""
    a, b = (_finite(x, "Wasserstein distance").copy() for x in (a, b))  # copies: sorted in place
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"expected two 1-D sample sets, got shapes {a.shape} and {b.shape}; see sliced_wasserstein")
    return float(_sorted_gap(a, b))


def sliced_wasserstein(a: np.ndarray, b: np.ndarray, directions: int = 32, rng_seed: int = 0) -> float:
    """Average 1-D Wasserstein-1 distance over seeded random unit projections of equal-size sets."""
    a, b = (_finite(x, "sliced distance") for x in (a, b))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"expected (batch, dim) arrays of equal dim, got {a.shape} and {b.shape}")
    if a.shape[1] < 2:
        raise ValueError("sliced distance needs dim >= 2; use wasserstein_1d for scalars")
    if directions < 8:
        raise ValueError(f"need at least 8 projection directions, got {directions}")
    proj = stream(rng_seed, STREAM_PROJECTIONS).standard_normal((directions, a.shape[1]))
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    step = max(1, _BLOCK_VALUES // max(1, a.shape[0]))
    gaps = [_sorted_gap(p @ a.T, p @ b.T) for p in np.split(proj, range(step, directions, step))]
    return float(np.concatenate(gaps).mean())


def saturation_fraction(x: np.ndarray) -> float:
    """Share of entries with magnitude above 0.99."""
    x = _finite(x, "saturation fraction")
    if x.size == 0:
        raise ValueError("saturation fraction of an empty array is undefined")
    return float(np.count_nonzero(np.abs(x) > 0.99) / x.size)


@dataclass
class RunReport:
    """Metrics of one sampling run plus the configuration that produced it."""

    config_echo: dict
    mean_error: float
    cov_error: float
    wasserstein1: float
    saturation_fraction: float
    wall_time: float

    def __post_init__(self):
        metrics = (self.mean_error, self.cov_error, self.wasserstein1, self.saturation_fraction)
        if not all(np.isfinite(m) and m >= 0.0 for m in metrics):
            raise ValueError(f"metrics must be finite and non-negative, got {metrics}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
