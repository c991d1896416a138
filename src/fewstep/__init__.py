"""Few-step diffusion sampling toolkit.

Builds discrete noise schedules, scores timesteps by the inverse log-SNR
slope, selects inference timesteps adaptively, and runs plain/gamma/gamma-I
samplers with classifier-free guidance and exposure correction, all verified
against analytic Gaussian-mixture oracles.
"""

from .cli import main, run_experiment
from .config import ConfigError, ExperimentConfig
from .guidance import (
    GUIDANCE_MODES,
    GuidanceConfig,
    compounding_scale,
    guide_interpolate,
    guide_negative,
)
from .importance import ImportanceCurve, compute_importance, schedule_fingerprint
from .metrics import (
    RunReport,
    mixture_moments,
    moments_error,
    saturation_fraction,
    sliced_wasserstein,
    wasserstein_1d,
)
from .mixture import MIXTURE_PRESETS, MixtureModel, mixture_from_config, mixture_preset
from .postprocess import (
    CLIP_METHODS,
    batch_clip,
    color_balance,
    exposure_correct,
    quantile_clip,
    smooth_clip,
)
from .sampling import (
    NumericalError,
    SamplerConfig,
    denoise_step,
    noisify,
    run_sampler,
)
from .schedules import SCHEDULE_KINDS, NoiseSchedule, build_schedule
from .seeding import (
    STREAM_GROUND_TRUTH,
    STREAM_INITIAL_NOISE,
    STREAM_PROJECTIONS,
    STREAM_RENOISE,
    stream,
)
from .timesteps import (
    EQUIDISTANT,
    IMPORTANCE,
    TimestepSchedule,
    adaptive_schedule,
    equidistant_schedule,
    importance_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "CLIP_METHODS",
    "ConfigError",
    "EQUIDISTANT",
    "ExperimentConfig",
    "GUIDANCE_MODES",
    "GuidanceConfig",
    "IMPORTANCE",
    "ImportanceCurve",
    "MIXTURE_PRESETS",
    "MixtureModel",
    "NoiseSchedule",
    "NumericalError",
    "RunReport",
    "SCHEDULE_KINDS",
    "STREAM_GROUND_TRUTH",
    "STREAM_INITIAL_NOISE",
    "STREAM_PROJECTIONS",
    "STREAM_RENOISE",
    "SamplerConfig",
    "TimestepSchedule",
    "adaptive_schedule",
    "batch_clip",
    "build_schedule",
    "color_balance",
    "compounding_scale",
    "compute_importance",
    "denoise_step",
    "equidistant_schedule",
    "exposure_correct",
    "guide_interpolate",
    "guide_negative",
    "importance_schedule",
    "main",
    "mixture_from_config",
    "mixture_moments",
    "mixture_preset",
    "moments_error",
    "noisify",
    "quantile_clip",
    "run_experiment",
    "run_sampler",
    "saturation_fraction",
    "schedule_fingerprint",
    "sliced_wasserstein",
    "smooth_clip",
    "stream",
    "wasserstein_1d",
]
