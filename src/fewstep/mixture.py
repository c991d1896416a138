"""Analytic Gaussian-mixture oracle with exact scores and noise predictions.

Components are isotropic, so the diffused mixture at timestep ``t`` stays a
mixture with means ``sqrt(ab_t) * mu_k`` and variances ``ab_t * var_k + (1 - ab_t)``,
and the score is available in closed form. Component indices double as
condition labels for guidance experiments. ``component(label)`` is the one place
a label becomes a model, its one-component model, built once and shared; a label
must be an integer, and anything else raises ``TypeError``. A conditioned noise
prediction is asked of that model; the unconditional model is the full mixture.

A noise prediction diffuses the model's components as plain arrays, builds no
model and keeps its input's memory layout. A single component has the score
``(mu' - x) / var'``. Several components go through one kernel, shared with
``log_density``, that lays the offsets ``mu' - x`` out component-major as
``(K, d, batch)``: squared distances and the weighted pull are ``einsum``s and
the log-sum-exp reduces over K, never over a short axis once per row. A row's
prediction and log-density do not depend on its batch: NumPy sums a one-row
batch's ``einsum``s in another order, so a lone row goes in as the first of two.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import _EXPECTED, _accepts
from .schedules import NoiseSchedule

__all__ = ["MixtureModel", "MIXTURE_PRESETS", "mixture_preset", "mixture_from_config"]

_FLOAT_MIN = np.finfo(np.float64).min


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Isotropic Gaussian mixture over ``dim`` ambient dimensions."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    _components: dict = field(default_factory=dict, init=False, repr=False)  # component() by label

    def __post_init__(self):
        weights, means, variances = (np.array(_finite(getattr(self, name), f"the {name} array"))
                                     for name in ("weights", "means", "variances"))
        means = np.atleast_2d(means)
        if weights.ndim != 1 or variances.ndim != 1 or means.ndim != 2:
            raise ValueError("weights and variances must be 1-D, means 2-D (components, dim)")
        if means.shape[1] < 1:
            raise ValueError("means must have at least one dimension")
        if not weights.size == variances.size == means.shape[0]:
            raise ValueError("weights, means and variances must have one entry per component")
        if np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in (0, 1]")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {float(weights.sum())}")
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
        """Restrict to one component, the conditional model for that label; built once per label and shared."""
        label = operator.index(label)
        if not 0 <= label < self.num_components:
            raise ValueError(f"unknown condition label {label}, model has {self.num_components} components")
        if label not in self._components:
            rows = slice(label, label + 1)
            self._components[label] = MixtureModel(np.ones(1), self.means[rows], self.variances[rows])
        return self._components[label]

    def _diffused(self, ab: float) -> tuple[np.ndarray, np.ndarray]:
        # Means and variances of the components at alpha-bar ``ab``.
        return math.sqrt(ab) * self.means, ab * self.variances + (1.0 - ab)

    def diffused_params(self, schedule: NoiseSchedule, t: int) -> "MixtureModel":
        """Exact mixture parameters after diffusing to timestep ``t``."""
        means, variances = self._diffused(schedule.alpha_bar_at(t))
        return MixtureModel(weights=self.weights, means=means, variances=variances)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Mixture log-density at ``x`` of shape ``(d,)`` or ``(batch, d)``."""
        x, rows = _as_batch(x, self.dim)
        _, _, total, peak = self._kernel(self.means, self.variances, x)
        out = peak + np.log(total)
        return out[rows]

    def score(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Gradient of the diffused mixture's log-density at ``x``."""
        return self._score(schedule.alpha_bar_at(t), x)

    def _score(self, ab: float, x: np.ndarray) -> np.ndarray:
        # Score of the diffused density at alpha-bar ``ab``.
        x, rows = _as_batch(x, self.dim)
        means, variances = self._diffused(ab)
        if variances.size == 1:
            out = (means[0] - x) / variances[0]
        else:
            diff, shifted, total, _ = self._kernel(means, variances, x)
            shifted /= variances[:, None] * total
            out = np.einsum("kdb,kb->bd", diff, shifted, order="F" if np.isfortran(x) else "C")
        return out[rows]

    def _kernel(self, means: np.ndarray, variances: np.ndarray, x: np.ndarray) -> tuple:
        # Offsets mu - x as (K, d, B), exp(log-density - peak) as (K, B), its sum over K and
        # the peak, so log p = peak + log(total); a row all at -inf keeps a finite peak.
        diff = np.subtract(means[:, :, None], x.T, order="C")
        ll = (np.log(self.weights) - 0.5 * self.dim * np.log(2.0 * np.pi * variances))[:, None] - (
            0.5 * np.einsum("kdb,kdb->kb", diff, diff) / variances[:, None]
        )
        peak = ll.max(axis=0).clip(min=_FLOAT_MIN)
        shifted = np.exp(ll - peak)
        return diff, shifted, shifted.sum(axis=0), peak

    def epsilon_prediction(self, schedule: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
        """Exact noise prediction ``-sqrt(1 - ab_t) * score`` at ``t``; ``component(label)`` conditions it."""
        ab = schedule.alpha_bar_at(t)
        return -math.sqrt(1.0 - ab) * self._score(ab, x)

    def sample_ground_truth(self, count: int, rng_seed) -> np.ndarray:
        """Exact samples ``(count, dim)`` from a seed or Generator; the labels are ``Generator.choice(p=weights)``."""
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        rng = np.random.default_rng(rng_seed)
        if self.num_components == 1:  # the label draw's uniforms are spent, so the stream moves on as below
            rng.random(count)
            return self.means + np.sqrt(self.variances) * rng.standard_normal((count, self.dim))
        labels = rng.choice(self.num_components, count, p=self.weights)
        noise = rng.standard_normal((count, self.dim))
        return self.means[labels] + np.sqrt(self.variances[labels])[:, None] * noise


def _finite(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} needs finite entries")
    return x


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, int | slice]:
    x = _finite(x, "the mixture oracle's input")
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"expected vectors of dimension {dim}, got shape {x.shape}")
        return np.repeat(x[None, :], 2, axis=0), 0
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"expected shape (batch, {dim}), got {x.shape}")
    return (np.repeat(x, 2, axis=0), slice(1)) if len(x) == 1 else (x, slice(None))


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


@functools.cache
def mixture_preset(name: str) -> MixtureModel:
    """A built-in mixture by name, built once per process and shared; each preset is a mixture-file mapping."""
    if name not in MIXTURE_PRESETS:
        raise ValueError(f"unknown mixture preset {name!r}, expected one of {sorted(MIXTURE_PRESETS)}")
    return mixture_from_config(MIXTURE_PRESETS[name])


def mixture_from_config(source: dict) -> MixtureModel:
    """Build a mixture from a parsed mixture file (``config.load_json_object`` reads one).

    Expected shape: ``{"components": [{"weight": w, "mean": [...], "variance": v}, ...]}``; any other key,
    at the top or in a component, raises ``ValueError``.
    """
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
    unknown = sorted(set(source) - {"components"}) + sorted(set().union(*components) - {"weight", "mean", "variance"})
    if unknown:
        raise ValueError(f"unknown mixture keys: {unknown}")
    # Config files' number rule, applied before NumPy would coerce booleans and strings.
    entries = {"weight": weights, "mean": [v for mean in means for v in mean], "variance": variances}
    for key, values in entries.items():
        for value in values:
            if not _accepts(float, value):
                raise ValueError(f"every {key} entry must be {_EXPECTED[float]}, got {value!r}")
    return MixtureModel(weights=weights, means=means, variances=variances)
