"""Analytic Gaussian-mixture oracle with exact scores and noise predictions.

Components are isotropic, so the diffused mixture at timestep ``t`` stays a
mixture with means ``sqrt(ab_t) * mu_k`` and variances ``ab_t * var_k + (1 - ab_t)``,
and the score is available in closed form. Component indices double as
condition labels for guidance experiments: conditioning restricts the model to
a single component, the unconditional model is the full mixture.

A noise prediction diffuses the selected components as plain arrays and builds
no model. A single component, as in every conditioned prediction, has the score
``(mu' - x) / var'``; only several components need posterior responsibilities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .config import _EXPECTED, _accepts
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
        if means.shape[1] < 1:
            raise ValueError("means must have at least one dimension")
        if not weights.size == variances.size == means.shape[0]:
            raise ValueError("weights, means and variances must have one entry per component")
        if not all(np.all(np.isfinite(arr)) for arr in (weights, means, variances)):
            raise ValueError("weights, means and variances must be finite")
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

    def _rows(self, label: int) -> slice:
        label = int(label)
        if not 0 <= label < self.num_components:
            raise ValueError(f"unknown condition label {label}, model has {self.num_components} components")
        return slice(label, label + 1)

    def component(self, label: int) -> "MixtureModel":
        """Restrict to one component, the conditional model for that label."""
        rows = self._rows(label)
        return MixtureModel(weights=np.ones(1), means=self.means[rows], variances=self.variances[rows])

    def _diffused(self, ab: float, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        # Means and variances of the components in ``rows`` at alpha-bar ``ab``.
        return np.sqrt(ab) * self.means[rows], ab * self.variances[rows] + (1.0 - ab)

    def diffused_params(self, schedule: NoiseSchedule, t: int) -> "MixtureModel":
        """Exact mixture parameters after diffusing to timestep ``t``."""
        means, variances = self._diffused(schedule.alpha_bar_at(t))
        return MixtureModel(weights=self.weights, means=means, variances=variances)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Mixture log-density at ``x`` of shape ``(d,)`` or ``(batch, d)``."""
        x, squeeze = _as_batch(x, self.dim)
        out = _logsumexp(self._log_densities(self.variances, self.means - x[:, None, :]))
        return out[0] if squeeze else out

    def responsibilities(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Posterior component probabilities under the diffused mixture at ``t``."""
        x, squeeze = _as_batch(x, self.dim)
        means, variances = self._diffused(schedule.alpha_bar_at(t))
        r = self._posterior(variances, means - x[:, None, :])
        return r[0] if squeeze else r

    def score(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Gradient of the diffused mixture's log-density at ``x``."""
        return self._score(schedule.alpha_bar_at(t), x)

    def _score(self, ab: float, x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        # Score at alpha-bar ``ab`` of one component's density, or of the whole mixture's.
        x, squeeze = _as_batch(x, self.dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("score requires finite input")
        means, variances = self._diffused(ab, rows)
        diff = means - x[:, None, :]
        pulls = diff / variances[:, None]
        if variances.size == 1:
            out = pulls[:, 0]
        else:
            out = (self._posterior(variances, diff)[:, :, None] * pulls).sum(axis=1)
        return out[0] if squeeze else out

    def _log_densities(self, variances: np.ndarray, diff: np.ndarray) -> np.ndarray:
        # Weighted log-densities (batch, components) of all components, from the offsets mu - x.
        return (
            np.log(self.weights)[None, :]
            - 0.5 * self.dim * np.log(2.0 * np.pi * variances)[None, :]
            - 0.5 * (diff**2).sum(axis=-1) / variances[None, :]
        )

    def _posterior(self, variances: np.ndarray, diff: np.ndarray) -> np.ndarray:
        ll = self._log_densities(variances, diff)
        return np.exp(ll - _logsumexp(ll)[:, None])

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
        rows = slice(None) if condition is None else self._rows(condition)
        ab = schedule.alpha_bar_at(t)
        return -np.sqrt(1.0 - ab) * self._score(ab, x, rows)

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


MIXTURE_PRESETS = {
    "bimodal-1d": {"components": [
        {"weight": 0.6, "mean": [-0.6], "variance": 0.04},
        {"weight": 0.4, "mean": [0.6], "variance": 0.04},
    ]},
    "grid-2d": {"components": [
        {"weight": 0.25, "mean": mean, "variance": 0.01}
        for mean in ([-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5])
    ]},
    "skewed-2d": {"components": [
        {"weight": 0.5, "mean": [0.4, -0.4], "variance": 0.01},
        {"weight": 0.35, "mean": [0.2, -0.15], "variance": 0.02},
        {"weight": 0.15, "mean": [-0.55, 0.5], "variance": 0.015},
    ]},
}


def mixture_preset(name: str) -> MixtureModel:
    """Build a built-in mixture by name; each preset is a mapping in the mixture-file format."""
    if name not in MIXTURE_PRESETS:
        raise ValueError(f"unknown mixture preset {name!r}, expected one of {sorted(MIXTURE_PRESETS)}")
    return mixture_from_config(MIXTURE_PRESETS[name])


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
        means = [c["mean"] if isinstance(c["mean"], list) else [c["mean"]] for c in components]
        variances = [c["variance"] for c in components]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mixture component entry: {exc}") from None
    # Config files' number rule, applied before NumPy would coerce booleans and strings.
    entries = {"weight": weights, "mean": [v for mean in means for v in mean], "variance": variances}
    for key, values in entries.items():
        for value in values:
            if not _accepts(float, value):
                raise ValueError(f"every {key} entry must be {_EXPECTED[float]}, got {value!r}")
    return MixtureModel(weights=weights, means=means, variances=variances)
