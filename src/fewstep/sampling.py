"""Few-step reverse samplers over a timestep schedule.

Three variants share one loop. ``plain`` steps deterministically from anchor
to anchor. ``gamma`` denoises past each anchor to ``round((1 - gamma) * t)``
and re-noises back up, trading determinism for fresh noise. ``gamma_i`` does
the same except that transitions into importance-selected anchors denoise to
``round(I_t * t)`` instead, reading ``I`` from the curve bound to the
schedule. :func:`step_plan` lists these transitions, checked against the
noise schedule, and :func:`run_sampler` walks that plan alone. The final
transition lands on the data axis without re-noising: a clean-state estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .importance import schedule_fingerprint
from .schedules import NoiseSchedule, _forward
from .seeding import STREAM_RENOISE, stream
from .timesteps import IMPORTANCE, TimestepSchedule

__all__ = [
    "SAMPLER_VARIANTS",
    "CLIP_TIMING",
    "NumericalError",
    "SamplerConfig",
    "SampleTrajectory",
    "denoise_step",
    "noisify",
    "run_sampler",
    "step_plan",
]

SAMPLER_VARIANTS = ("plain", "gamma", "gamma_i")
CLIP_TIMING = ("every-step", "final-only")
_BLOCK_VALUES = 2**14  # per row block of a step: 128 KiB temporaries come from malloc's free lists, not fresh pages


class NumericalError(RuntimeError):
    """Raised when a sampler state or prediction stops being finite."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler variant, randomness proportion, and clean-state postprocessing.

    ``clip`` is a vectorized map applied to every intermediate clean-state
    estimate (or only to the terminal one with ``clip_timing="final-only"``);
    ``None`` disables it. :func:`fewstep.postprocess.batch_clip` builds one per
    clip method. It must act on each chain's row alone: it may get a block of rows.
    """

    variant: str = "plain"
    gamma: float = 0.2
    clip: Optional[Callable[[np.ndarray], np.ndarray]] = None
    clip_timing: str = "every-step"
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in SAMPLER_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {SAMPLER_VARIANTS}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.clip_timing not in CLIP_TIMING:
            raise ValueError(f"clip_timing must be one of {CLIP_TIMING}, got {self.clip_timing!r}")


@dataclass(eq=False)
class SampleTrajectory:
    """States visited while sampling plus the terminal clean-state estimate.

    ``states`` lists ``(timestep, state)`` pairs in visit order, including the
    intermediate denoise targets of the gamma variants; each state holds every
    chain, or only the first ``chains`` rows when :func:`run_sampler` was given
    ``chains``. ``final`` always holds every chain; it has no timestep, it lives
    on the data axis.
    """

    states: List[Tuple[int, np.ndarray]]
    final: np.ndarray


def denoise_step(
    eps_model,
    schedule: NoiseSchedule,
    x: np.ndarray,
    t_from: int,
    t_to: Optional[int],
    clip: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Deterministic solver step from ``t_from`` down to ``t_to``.

    Forms the clean-state estimate ``x0_hat = (x - sqrt(1 - ab_from) * eps) / sqrt(ab_from)``, maps it
    through ``clip`` if one is given, and re-attaches the same noise with ``schedule.forward_diffuse``.
    ``t_to=None`` targets the data axis and returns ``x0_hat`` itself. A ``t_to`` that is not below
    ``t_from`` raises ``ValueError`` before the model is called. ``x0_hat`` must be finite before
    the clip, so a clip cannot hide an overflowing estimate.
    """
    x = np.asarray(x, dtype=np.float64)
    ab = schedule.alpha_bar_at(t_from)
    # NoiseSchedule keeps alpha_bar strictly decreasing in t, so a t_to not below t_from has no larger alpha_bar.
    if t_to is not None and schedule.alpha_bar_at(t_to) <= ab:
        raise ValueError(f"denoise must move down in time, got {t_from} -> {t_to}")
    eps = np.asarray(eps_model(x, int(t_from)), dtype=np.float64)
    if eps.shape != x.shape:
        raise ValueError(f"eps model returned shape {eps.shape} for state shape {x.shape}")
    if not np.isfinite(eps).all():
        raise NumericalError(f"non-finite noise prediction at timestep {t_from}")
    x0_hat = (x - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)
    if clip is not None:
        if not np.isfinite(x0_hat).all():
            raise NumericalError(f"non-finite clean-state estimate at timestep {t_from}")
        x0_hat = clip(x0_hat)
    x = x0_hat if t_to is None else schedule.forward_diffuse(x0_hat, t_to, eps)
    if not np.isfinite(x).all():
        raise NumericalError(f"non-finite state after the step from timestep {t_from}")
    return x


def noisify(
    schedule: NoiseSchedule,
    x: np.ndarray,
    t_from: int,
    t_to: int,
    noise: np.ndarray,
) -> np.ndarray:
    """Forward kernel from ``t_from`` up to ``t_to``, preserving marginals, in ``x``'s layout.

    ``x_to = sqrt(ab_to / ab_from) * x + sqrt(1 - ab_to / ab_from) * noise``, ``forward_diffuse``'s
    kernel. A ``t_to`` that is not above ``t_from`` raises ``ValueError``.
    """
    # alpha_bar falls strictly with t, so the ratio is below 1 exactly when t_to is above t_from.
    ratio = schedule.alpha_bar_at(t_to) / schedule.alpha_bar_at(t_from)
    if ratio >= 1.0:
        raise ValueError(f"noisify must move up in time, got {t_from} -> {t_to}")
    return _forward(x, ratio, noise)


def step_plan(
    config: SamplerConfig, schedule: NoiseSchedule, timesteps: TimestepSchedule
) -> List[Tuple[int, int, int]]:
    """The walk, one ``(t_from, mid, t_to)`` per transition: ``mid = round(f * t_to)``, ``f`` is 1 for ``plain``,
    ``I_{t_to}`` on a ``gamma_i`` importance slot, else ``1 - gamma``; a ``mid`` below ``t_to`` is re-noised to it.
    Checks in order: a curve the walk reads belongs to ``schedule``, the first step lies in it, that curve is bound."""
    steps, curve = timesteps.steps.tolist(), timesteps.curve
    reads_curve = config.variant == "gamma_i" and IMPORTANCE in timesteps.provenance[1:]  # slot 0 is never a target
    if reads_curve and curve is not None and curve.source_schedule_id != schedule_fingerprint(schedule):
        raise ValueError("timestep schedule's importance curve belongs to a different noise schedule")
    schedule.alpha_bar_at(steps[0])  # TimestepSchedule keeps every later step below it and non-negative
    if reads_curve and curve is None:
        raise ValueError("gamma_i needs the importance curve bound to the timestep schedule")
    factors = [1.0 if config.variant == "plain" else (curve.values[t] if reads_curve and kind == IMPORTANCE
               else 1.0 - config.gamma) for t, kind in zip(steps[1:], timesteps.provenance[1:])]
    return [(t_from, int(np.rint(f * t)), t) for t_from, t, f in zip(steps, steps[1:], factors)]


def run_sampler(
    config: SamplerConfig,
    schedule: NoiseSchedule,
    timesteps: TimestepSchedule,
    eps_model: Callable[[np.ndarray, int], np.ndarray],
    initial: np.ndarray,
    chains: Optional[int] = None,
) -> SampleTrajectory:
    """Run one batch of chains along a timestep schedule, walking its :func:`step_plan`.

    Args:
        config: sampler variant and options.
        schedule: noise schedule shared by the model and the timesteps.
        timesteps: anchor timesteps, highest first, read only by
            :func:`step_plan`, which makes every check of the walk.
        eps_model: callable ``(state, t) -> noise prediction``, vectorized over
            rows and acting on each row alone; guidance, if any, is already
            composed into it. It and the clip receive column-major states: the
            batch, or one block of rows at a time when it spans more than 16,384
            values. A prediction of the wrong shape names the block's shape.
        initial: full-noise start, shape ``(batch, dim)`` with ``dim >= 1``;
            one chain is ``initial[None, :]``. A ``plain`` chain's bytes do not
            depend on its batch; the gamma variants' re-noise is one stream,
            drawn block by block in row order: the bytes of one whole-batch draw.
        chains: how many leading chains each visited state keeps, as its own
            copy, so the trajectory need not hold a full batch per visited
            state; ``None`` keeps every chain.

    Returns:
        The visited states, each ``(chains, dim)`` or shaped like ``initial``,
        and the terminal clean-state estimate, shaped like ``initial``; each
        is C-ordered and owns its data.
    """
    if np.ndim(initial) != 2:
        raise ValueError(f"initial state must have shape (batch, dim), got {np.shape(initial)}")
    if np.shape(initial)[1] < 1:
        raise ValueError(f"initial state must have at least one column, got shape {np.shape(initial)}")
    # The loop runs on batch-contiguous (column-major) states, so a per-column or per-row broadcast is one long
    # inner loop, not one of length dim per row. The loop writes into this state, so it is always the sampler's own
    # copy. Dropping ``initial`` frees a draw the caller passed straight in.
    x = np.array(initial, dtype=np.float64, order="F")
    del initial
    if not np.isfinite(x).all():
        raise NumericalError("initial state contains non-finite entries")
    if chains is not None and chains < 1:
        raise ValueError(f"chains must be at least 1, got {chains}")

    plan = step_plan(config, schedule, timesteps)

    step_clip = config.clip if config.clip_timing == "every-step" else None
    rng = stream(config.rng_seed, STREAM_RENOISE)
    batch, dim = x.shape
    rows = max(1, _BLOCK_VALUES // dim)  # per contiguous row block, at least one; a batch that fits is one block
    blocks = [slice(a, a + rows) for a in range(0, batch, rows)]

    # Each state is a copy of the kept rows, since the loop overwrites ``x`` block by block. Each step operation
    # allocates its result, so a block is written back only once its new value is whole.
    states = [(plan[0][0], x[:chains].copy())]
    for t_prev, mid, t_anchor in plan:
        for b in blocks:
            x[b] = denoise_step(eps_model, schedule, x[b], t_prev, mid, step_clip)
        if mid != t_anchor:  # each block's re-noise, drawn in row order: the bytes of one whole-batch draw
            states.append((mid, x[:chains].copy()))
            for b in blocks:
                x[b] = noisify(schedule, x[b], mid, t_anchor, rng.standard_normal(x[b].shape))
        states.append((t_anchor, x[:chains].copy()))
    for b in blocks:
        x[b] = denoise_step(eps_model, schedule, x[b], plan[-1][2], None, config.clip)
    return SampleTrajectory(states=states, final=np.ascontiguousarray(x))
