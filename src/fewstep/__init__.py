"""Few-step diffusion sampling toolkit.

Builds discrete noise schedules, scores timesteps by the inverse log-SNR
slope, selects inference timesteps adaptively, and runs plain/gamma/gamma-I
samplers with classifier-free guidance and exposure correction, all verified
against analytic Gaussian-mixture oracles.

The root re-exports the names of the README's example plus the config-driven
entry point; every other public name is imported from its own module.
"""

from .cli import run_experiment
from .config import ExperimentConfig
from .importance import compute_importance
from .mixture import mixture_preset
from .sampling import SamplerConfig, run_sampler
from .schedules import build_schedule
from .seeding import STREAM_INITIAL_NOISE, stream
from .timesteps import adaptive_schedule

__all__ = [
    "ExperimentConfig",
    "STREAM_INITIAL_NOISE",
    "SamplerConfig",
    "adaptive_schedule",
    "build_schedule",
    "compute_importance",
    "mixture_preset",
    "run_experiment",
    "run_sampler",
    "stream",
]
