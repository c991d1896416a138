"""Analytic Gaussian-mixture oracle with exact scores and noise predictions.

Components are isotropic, so the diffused mixture at timestep ``t`` stays a
mixture with means ``sqrt(ab_t) * mu_k`` and variances ``ab_t * var_k + (1 - ab_t)``,
and the score is available in closed form. Component indices double as
condition labels for guidance experiments: conditioning restricts the model to
a single component, the unconditional model is the full mixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .schedules import NoiseSchedule

__all__ = ["MixtureModel", "MIXTURE_PRESETS", "mixture_preset", "mixture_from_config"]


@dataclass(frozen=True)
class MixtureModel:
    """Isotropic Gaussian mixture over ``dim`` ambient dimensions."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        variances = np.asarray(self.variances, dtype=np.float64)
        if weights.ndim != 1 or variances.ndim != 1 or means.ndim != 2:
            raise ValueError("weights and variances must be 1-D, means 2-D (components, dim)")
        if not weights.size == variances.size == means.shape[0]:
            raise ValueError("weights, means and variances must have one entry per component")
        if np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in (0, 1]")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {weights.sum()!r}")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be strictly positive")
        for arr, name in ((weights, "weights"), (means, "means"), (variances, "variances")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    def component(self, label: int) -> "MixtureModel":
        """Restrict to one component, the conditional model for that label."""
        label = int(label)
        if not 0 <= label < self.num_components:
            raise ValueError(f"unknown condition label {label}, model has {self.num_components} components")
        return MixtureModel(
            weights=np.ones(1),
            means=self.means[label : label + 1],
            variances=self.variances[label : label + 1],
        )

    def diffused_params(self, schedule: NoiseSchedule, t: int) -> "MixtureModel":
        """Exact mixture parameters after diffusing to timestep ``t``."""
        ab = schedule.alpha_bar_at(t)
        return MixtureModel(
            weights=self.weights,
            means=np.sqrt(ab) * self.means,
            variances=ab * self.variances + (1.0 - ab),
        )

    def _component_log_densities(self, x: np.ndarray) -> np.ndarray:
        # Rows of x against every component; returns (batch, components).
        sq = ((x[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=-1)
        return (
            np.log(self.weights)[None, :]
            - 0.5 * self.dim * np.log(2.0 * np.pi * self.variances)[None, :]
            - 0.5 * sq / self.variances[None, :]
        )

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Mixture log-density at ``x`` of shape ``(d,)`` or ``(batch, d)``."""
        x, squeeze = _as_batch(x, self.dim)
        out = _logsumexp(self._component_log_densities(x))
        return out[0] if squeeze else out

    def responsibilities(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Posterior component probabilities under the diffused mixture at ``t``."""
        x, squeeze = _as_batch(x, self.dim)
        ll = self.diffused_params(schedule, t)._component_log_densities(x)
        r = np.exp(ll - _logsumexp(ll)[:, None])
        return r[0] if squeeze else r

    def score(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Gradient of the diffused mixture's log-density at ``x``."""
        x, squeeze = _as_batch(x, self.dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("score requires finite input")
        diffused = self.diffused_params(schedule, t)
        ll = diffused._component_log_densities(x)
        r = np.exp(ll - _logsumexp(ll)[:, None])
        pulls = (diffused.means[None, :, :] - x[:, None, :]) / diffused.variances[None, :, None]
        out = (r[:, :, None] * pulls).sum(axis=1)
        return out[0] if squeeze else out

    def epsilon_prediction(
        self,
        schedule: NoiseSchedule,
        x: np.ndarray,
        t: int,
        condition: Optional[int] = None,
    ) -> np.ndarray:
        """Exact noise prediction ``-sqrt(1 - ab_t) * score`` at timestep ``t``.

        With ``condition`` set, the score is that of the named component's
        diffused density instead of the full mixture's.
        """
        model = self if condition is None else self.component(condition)
        ab = schedule.alpha_bar_at(t)
        return -np.sqrt(1.0 - ab) * model.score(schedule, x, t)

    def sample_ground_truth(self, count: int, rng_seed) -> np.ndarray:
        """Exact ancestral samples of shape ``(count, dim)``, deterministic per seed."""
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        rng = np.random.default_rng(rng_seed)
        labels = rng.choice(self.num_components, size=count, p=self.weights)
        noise = rng.standard_normal((count, self.dim))
        return self.means[labels] + np.sqrt(self.variances[labels])[:, None] * noise


def _logsumexp(ll: np.ndarray) -> np.ndarray:
    """Row-wise ``log(sum(exp(ll)))``, shifted by each row's max; a row of ``-inf`` gives ``-inf``."""
    peak = ll.max(axis=1).clip(min=np.finfo(np.float64).min)
    return peak + np.log(np.exp(ll - peak[:, None]).sum(axis=1))


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"expected vectors of dimension {dim}, got shape {x.shape}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected shape (batch, {dim}), got {x.shape}")
    return x, False


def _bimodal_1d() -> MixtureModel:
    return MixtureModel(
        weights=[0.6, 0.4], means=[[-0.6], [0.6]], variances=[0.04, 0.04]
    )


def _grid_2d() -> MixtureModel:
    return MixtureModel(
        weights=[0.25] * 4,
        means=[[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]],
        variances=[0.01] * 4,
    )


def _skewed_2d() -> MixtureModel:
    return MixtureModel(
        weights=[0.5, 0.35, 0.15],
        means=[[0.4, -0.4], [0.2, -0.15], [-0.55, 0.5]],
        variances=[0.01, 0.02, 0.015],
    )


MIXTURE_PRESETS = {
    "bimodal-1d": _bimodal_1d,
    "grid-2d": _grid_2d,
    "skewed-2d": _skewed_2d,
}


def mixture_preset(name: str) -> MixtureModel:
    """Look up a built-in mixture by name."""
    try:
        return MIXTURE_PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown mixture preset {name!r}, expected one of {sorted(MIXTURE_PRESETS)}"
        ) from None


def mixture_from_config(source: Union[str, Path, dict]) -> MixtureModel:
    """Build a mixture from a JSON config file or an already-parsed mapping.

    Expected shape: ``{"components": [{"weight": w, "mean": [...], "variance": v}, ...]}``.
    """
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    if not isinstance(source, dict):
        raise ValueError(f"mixture config must be a JSON object, got {type(source).__name__}")
    components = source.get("components")
    if not components:
        raise ValueError("mixture config must list at least one component")
    try:
        weights = [c["weight"] for c in components]
        means = [np.atleast_1d(c["mean"]) for c in components]
        variances = [c["variance"] for c in components]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mixture component entry: {exc}") from None
    return MixtureModel(weights=weights, means=means, variances=variances)
