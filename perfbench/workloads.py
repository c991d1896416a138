"""Workload generators: each maps a seed to a fixed list of ExperimentConfigs.

The seed only fills the ``seed`` field of the configs; every other field is a
constant of the workload, so fewstep receives nothing but these configs.
fewstep is imported on first use, so the launcher can read the workload table
without paying for NumPy and SciPy.
"""

from __future__ import annotations

import itertools

PRESETS = ("bimodal-1d", "grid-2d", "skewed-2d")
CFG_MODES = ("none", "interpolate", "negative_prompt")
CLIP_METHODS = ("none", "tanh-balance", "quantile")
VARIANTS = ("plain", "gamma", "gamma_i")

# Number of `fewstep sample` subprocesses a measured run makes. The timed
# loop runs in as many slices, one CLI call after each, so the CLI samples
# spread over the whole run instead of one stretch of it.
CLI_CALLS = 8


def _config(**fields):
    from fewstep import ExperimentConfig

    return ExperimentConfig(**fields)


def _guidance_fields(cfg_mode: str) -> dict:
    if cfg_mode == "interpolate":
        return {"cfg_mode": cfg_mode, "condition": 1}
    if cfg_mode == "negative_prompt":
        return {"cfg_mode": cfg_mode, "condition": 0, "negative_condition": 1}
    return {"cfg_mode": cfg_mode}


def sweep_512(seed: int) -> list:
    """The 81-config ablation matrix: presets x guidance x clips x variants."""
    return [
        _config(
            mixture=preset,
            clip_method=clip,
            variant=variant,
            batch=512,
            steps=8,
            cfg_scale=3.0,
            seed=seed,
            **_guidance_fields(mode),
        )
        for preset, mode, clip, variant in itertools.product(PRESETS, CFG_MODES, CLIP_METHODS, VARIANTS)
    ]


def bulk_65536(seed: int) -> list:
    """One array-bound config: 65,536 chains of a guided 8-step gamma-I run."""
    return [
        _config(
            mixture="skewed-2d",
            clip_method="tanh-balance",
            variant="gamma_i",
            steps=8,
            batch=65536,
            seed=seed,
            **_guidance_fields("negative_prompt"),
        )
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep-512": sweep_512,
    "bulk-65536": bulk_65536,
}


def cli_configs(configs: list) -> list:
    """The configs the CLI subprocesses run: CLI_CALLS picks spread over the list."""
    return [configs[i * len(configs) // CLI_CALLS] for i in range(CLI_CALLS)]
