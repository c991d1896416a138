"""Resolved experiment configuration shared by the command-line entry points.

Resolution order is package defaults, then a JSON config file, then explicit
command-line flags, so flags always win. The resolved form is a flat mapping
that round-trips through JSON unchanged.

Each knob is declared once, as an annotated ``ExperimentConfig`` field (with
its allowed values in ``CHOICES``). The CLI builds its flags from ``FIELDS``,
and every value, from a flag, a file or a caller, is checked against it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .guidance import GUIDANCE_MODES
from .postprocess import CLIP_METHODS
from .sampling import CLIP_TIMING, SAMPLER_VARIANTS
from .schedules import SCHEDULE_KINDS

__all__ = ["ConfigError", "ExperimentConfig", "CHOICES", "FIELDS", "load_json_object"]

# Allowed values of the enumerated fields, owned by the modules that act on them.
CHOICES = {
    "schedule_kind": SCHEDULE_KINDS,
    "variant": SAMPLER_VARIANTS,
    "cfg_mode": GUIDANCE_MODES,
    "clip_method": CLIP_METHODS,
    "clip_timing": CLIP_TIMING,
}

_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}

# Cap on batch, directions and num_train_steps. A run near it needs terabytes; under it, NumPy refuses an array
# too large to allocate with a MemoryError, which the CLI reports, not with a ValueError on the shape.
_MAX_SIZE = 2**40


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _accepts(kind: type, value) -> bool:
    if isinstance(value, bool):
        return False
    if kind is float:
        # Ints pass uncoerced, so a config echoes as it was written. The bound
        # rejects NaN, the infinities and ints beyond the float range.
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a schedule/sample/compare run, with sensible defaults."""

    schedule_kind: str = "linear"
    num_train_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    steps: int = 8
    theta: float = 0.7
    variant: str = "gamma_i"
    gamma: float = 0.2
    cfg_mode: str = "none"
    cfg_scale: float = 7.5
    distill_omega: Optional[float] = None
    condition: Optional[int] = None
    negative_condition: Optional[int] = None
    clip_method: str = "none"
    clip_shift: float = 0.75
    clip_timing: str = "every-step"
    quantile_q: float = 0.995
    quantile_ceiling: float = 1.0
    mixture: str = "bimodal-1d"
    batch: int = 512
    seed: int = 0
    directions: int = 32

    def __post_init__(self):
        for name, (kind, optional) in FIELDS.items():
            value = getattr(self, name)
            if not (value is None and optional or _accepts(kind, value)):
                raise ConfigError(f"{name} must be {_EXPECTED[kind]}{' or null' if optional else ''}, got {value!r}")
            if name in CHOICES and value not in CHOICES[name]:
                raise ConfigError(f"{name} must be one of {CHOICES[name]}")
        checks = (
            (3 <= self.num_train_steps <= _MAX_SIZE, f"num_train_steps must lie in [3, {_MAX_SIZE}]"),
            (0.0 < self.beta_start <= self.beta_end < 1.0, "beta range must satisfy 0 < start <= end < 1"),
            (2 <= self.steps <= self.num_train_steps, "steps must lie in [2, num_train_steps]"),
            (0.0 <= self.theta <= 1.0, "theta must lie in [0, 1]"),
            (0.0 <= self.gamma < 1.0, "gamma must lie in [0, 1)"),
            (self.cfg_scale >= 0.0, "cfg_scale must be non-negative"),
            (self.distill_omega is None or self.distill_omega >= 0.0, "distill_omega must be non-negative"),
            (self.cfg_mode == "none" or self.condition is not None, f"cfg_mode {self.cfg_mode!r} needs --condition"),
            (self.negative_condition is None or self.cfg_mode == "negative_prompt",
             "negative_condition needs cfg_mode 'negative_prompt'"),
            (0.0 < self.quantile_q <= 1.0, "quantile_q must lie in (0, 1]"),
            (self.quantile_ceiling >= 1.0, "quantile_ceiling must be at least 1"),
            (1 <= self.batch <= _MAX_SIZE, f"batch must lie in [1, {_MAX_SIZE}]"),
            (self.seed >= 0, "seed must be non-negative"),
            (8 <= self.directions <= _MAX_SIZE, f"directions must lie in [8, {_MAX_SIZE}]"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        unknown = sorted(set(mapping) - set(FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**mapping)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# Field name -> (value type, whether None is allowed), read from the annotations.
FIELDS = {
    name: (get_args(hint)[0], True) if get_args(hint) else (hint, False)
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def _unique_keys(pairs: list) -> dict:
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ValueError(f"key {key!r} is repeated")
        mapping[key] = value
    return mapping


def _parse_json(text: str):
    """``json.loads``, reporting a repeated key or nesting too deep to parse as malformed JSON (a ``ValueError``)."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def load_json_object(path: str | Path, kind: str) -> dict:
    """Parse a JSON file that must hold an object, without further validation; ``kind`` names the file in errors."""
    path = Path(path)
    try:
        parsed = _parse_json(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, a repeated key, too deep nesting, or non-UTF-8 bytes
        raise ConfigError(f"{kind} {path} is not valid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise ConfigError(f"{kind} {path} must hold a JSON object")
    return parsed
