"""Command-line entry point: schedule inspection, sampling runs, and comparisons.

Exit codes: 0 on success, 1 for configuration problems (flag-parsing errors
included), 2 for numerical failures: a non-finite sampler state, metric or
compounding diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import itertools
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .config import _MAX_SIZE, CHOICES, FIELDS, ConfigError, ExperimentConfig, _parse_json, load_json_object
from .guidance import compounding_scale, guide_interpolate, guide_negative
from .importance import ImportanceCurve, compute_importance
from .metrics import RunReport, moments_error, saturation_fraction, sliced_wasserstein, wasserstein_1d
from .mixture import MIXTURE_PRESETS, MixtureModel, mixture_from_config, mixture_preset
from .postprocess import batch_clip
from .sampling import NumericalError, SampleTrajectory, SamplerConfig, run_sampler
from .schedules import NoiseSchedule, build_schedule
from .seeding import STREAM_GROUND_TRUTH, STREAM_INITIAL_NOISE, stream
from .timesteps import TimestepSchedule, adaptive_schedule

__all__ = ["main", "run_experiment"]

TRAJECTORY_CHAIN_LIMIT = 8
SCHEDULE_TABLES = ("curve.csv", "schedules.csv")  # the files that schedule --out DIR writes


class _ArgumentParser(argparse.ArgumentParser):
    """Reports flag-parsing errors as configuration errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


# Flags are named after the config fields; these are the ones with a help line.
FLAG_HELP = {
    "steps": "inference step count",
    "theta": "adaptive selection threshold in [0, 1]",
    "gamma": "re-noising proportion in [0, 1)",
    "condition": "mixture component used as the guidance condition",
    "negative_condition": "negative_prompt guidance's negative component; full mixture when absent",
    "clip_method": "tanh-balance is tanh(balance(x)), balance-tanh is balance(tanh(x))",
    "clip_shift": "fraction of each chain's mean removed by tanh-balance and balance-tanh",
    "quantile_q": "quantile of |x| the quantile clip thresholds at; inert at the default ceiling of 1",
    "quantile_ceiling": "threshold cap of the quantile clip, whose floor is 1: the default 1 makes it clip(x, -1, 1)",
    "mixture": "preset name or mixture JSON path",
    "directions": "sliced-distance projection count",
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action="append", default=None, metavar="FILE",
                        help="JSON config file; explicit flags override its values")
    # Defaults stay None so explicit flags can be told apart from absent ones
    # when merging with config files.
    for name, (kind, _) in FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind, choices=CHOICES.get(name),
                            default=None, help=FLAG_HELP.get(name))
    parser.add_argument("--out", default=None, help="output path (directory for schedule, file otherwise)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fewstep",
        description="Few-step diffusion sampling experiments on analytic mixture oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schedule = sub.add_parser("schedule", help="emit importance curve and timestep schedules as CSV")
    _add_common_flags(p_schedule)

    p_sample = sub.add_parser("sample", help="run batch sampling and emit a JSON report")
    _add_common_flags(p_sample)
    p_sample.add_argument("--trajectory-out", default=None, metavar="FILE",
                          help=f"also write visited states of the first {TRAJECTORY_CHAIN_LIMIT} chains as CSV")

    p_compare = sub.add_parser("compare", help="run several configs and emit a metric matrix CSV")
    _add_common_flags(p_compare)
    p_compare.add_argument("--sweep", action="append", default=None, metavar="KEY=V1,V2,...",
                           help="sweep one config field over comma-separated values; "
                                "several --sweep flags run every combination")
    return parser


def _json_or_text(raw: str):
    try:
        return _parse_json(raw)
    except ValueError:
        return raw


def _mixture_file(cfg: ExperimentConfig) -> Optional[Path]:
    """The resolved file that a mixture other than a preset names, or None."""
    path = Path(cfg.mixture)
    return path.resolve() if cfg.mixture not in MIXTURE_PRESETS and path.is_file() else None


def _resolve_runs(args: argparse.Namespace) -> list[tuple[str, ExperimentConfig]]:
    """Cross each --config file (or the flags alone) with every combination of the --sweep values.

    Files vary slowest, then the sweeps in flag order. A swept value beats a flag, and a flag beats the
    file. A label joins the swept parts with commas, after the file stem when there are several files or no sweep;
    files that share a stem are named by their path as given. A value listed twice in one sweep, two names for one
    file among the command's inputs and outputs, and an output that is a directory or lies under a file are errors,
    so nothing runs or is written; the runs read one mixture file however they spell it.
    """
    flags = {name: value for name, value in vars(args).items() if name in FIELDS and value is not None}
    stems = [Path(path).stem for path in args.config or []]
    files = [(path if stems.count(stem) > 1 else stem, load_json_object(path, "config file"))
             for path, stem in zip(args.config or [], stems)] or [("", {})]
    sweeps = {}
    for text in getattr(args, "sweep", None) or []:
        key, _, values = text.partition("=")
        key = key.strip()
        if not values or key not in FIELDS or key in sweeps:
            raise ConfigError(f"--sweep expects FIELD=V1,V2,... with a known field swept once, got {text!r}")
        sweeps[key] = [(f"{key}={raw}", _json_or_text(raw)) for raw in map(str.strip, values.split(","))]
        for (part, value), (other, twin) in itertools.combinations(sweeps[key], 2):
            if value == twin and isinstance(value, bool) == isinstance(twin, bool):  # 1 == 1.0, but true is not 1
                raise ConfigError(f"--sweep {text!r} lists one value twice: {part} and {other}")
    named = len(files) > 1 or not sweeps
    runs = []
    for (stem, mapping), combo in itertools.product(files, itertools.product(*sweeps.values())):
        label = ",".join(([stem] if named else []) + [part for part, _ in combo])
        swept = dict(zip(sweeps, (value for _, value in combo)))
        runs.append((label, ExperimentConfig.from_mapping({**mapping, **flags, **swept})))
    mixtures = {file: cfg.mixture for _, cfg in runs if (file := _mixture_file(cfg)) is not None}
    schedule_dir = args.out if args.command == "schedule" else None
    outs = [args.out] if schedule_dir is None else [str(Path(schedule_dir) / name) for name in SCHEDULE_TABLES]
    outputs = [*(("--out", path) for path in outs), ("--trajectory-out", getattr(args, "trajectory_out", None))]
    paths = [*(("--config", path) for path in args.config or []), *(("--mixture", path) for path in mixtures.values()),
             *outputs]
    # os.path.realpath, unlike Path.resolve, raises no RuntimeError on a symlink loop; _unwritable reports it.
    for (flag, path), (other_flag, other) in itertools.combinations(paths, 2):
        if None not in (path, other) and os.path.realpath(path) == os.path.realpath(other):
            raise ConfigError(f"{flag} {path} and {other_flag} {other} name the same file")
    for flag, path in outputs:
        if path is not None and (code := _unwritable(path)):
            raise ConfigError(f"{flag} {path}: {os.strerror(code)}")
    return runs


def _unwritable(path: str) -> Optional[int]:
    """The errno that writing a file at ``path`` would fail with for its place in the tree, or None."""
    target = os.path.realpath(path)
    try:
        os.stat(target)
    except FileNotFoundError:  # the write makes the missing directories
        return None
    except OSError as exc:  # a file among the ancestors, a symlink loop
        return exc.errno
    return errno.EISDIR if os.path.isdir(target) else None


@functools.lru_cache(maxsize=1)
def _set_up(kind: str, num_train_steps: int, beta_start: float, beta_end: float, steps: int,
            theta: float) -> tuple[NoiseSchedule, ImportanceCurve, TimestepSchedule]:
    """The noise schedule, its importance curve and the adaptive timesteps; each is immutable, so calls share them."""
    try:
        schedule = build_schedule(kind, num_train_steps, beta_start, beta_end)
        curve = compute_importance(schedule)
    except ValueError as exc:
        raise ConfigError(f"bad noise schedule: {exc}") from None
    return schedule, curve, adaptive_schedule(schedule, curve, steps, theta)


def _set_up_for(cfg: ExperimentConfig) -> tuple[NoiseSchedule, ImportanceCurve, TimestepSchedule]:
    return _set_up(cfg.schedule_kind, cfg.num_train_steps, cfg.beta_start, cfg.beta_end, cfg.steps, cfg.theta)


def _mixture(cfg: ExperimentConfig) -> MixtureModel:
    """The config's mixture: the shared preset, or the model its file holds, read and checked on every call."""
    if cfg.mixture in MIXTURE_PRESETS:
        return mixture_preset(cfg.mixture)
    if _mixture_file(cfg) is None:
        raise ConfigError(f"mixture {cfg.mixture!r} is neither a preset ({sorted(MIXTURE_PRESETS)}) "
                          "nor an existing file")
    path = Path(cfg.mixture)  # named as given in the messages, not resolved
    mapping = load_json_object(path, "mixture file")  # its ConfigError is a ValueError, so read outside the try
    try:
        return mixture_from_config(mapping)
    except ValueError as exc:
        raise ConfigError(f"bad mixture file {path}: {exc}") from None


def _prepare(cfg: ExperimentConfig, model: MixtureModel) -> Callable[[float], tuple[RunReport, SampleTrajectory]]:
    """Every check a run on ``model`` makes and every part its config fixes, in order; returns the run.

    The run takes its start time and does only the seed's work, so no check waits for a sampler.
    """
    if cfg.batch * model.dim > _MAX_SIZE:  # the initial noise and the ground truth are (batch, dim)
        raise ConfigError(f"batch {cfg.batch} times the mixture dimension {model.dim} exceeds {_MAX_SIZE} values")
    for label, flag in ((cfg.condition, "--condition"), (cfg.negative_condition, "--negative-condition")):
        if label is not None and not 0 <= label < model.num_components:
            raise ConfigError(f"{flag} {label} out of range for a {model.num_components}-component mixture")
    schedule, _, timesteps = _set_up_for(cfg)
    sampler_config = SamplerConfig(
        variant=cfg.variant,
        gamma=cfg.gamma,
        clip=batch_clip(cfg.clip_method, shift=cfg.clip_shift, q=cfg.quantile_q, ceiling=cfg.quantile_ceiling),
        clip_timing=cfg.clip_timing,
        rng_seed=cfg.seed,
    )
    config_echo = cfg.to_dict()
    if cfg.distill_omega is not None:
        diag = compounding_scale(cfg.cfg_scale, cfg.distill_omega)
        if not all(math.isfinite(v) for v in diag if v is not None):
            raise NumericalError(f"non-finite compounding diagnostic: scale {diag.scale}, alpha {diag.alpha}")
        config_echo["compounding"] = {"scale": diag.scale, "alpha": diag.alpha}
    reference, other = (model if label is None else model.component(label)
                        for label in (cfg.condition, cfg.negative_condition))
    if cfg.cfg_mode == "none":
        eps_model = lambda x, t: reference.epsilon_prediction(schedule, x, t)
    else:
        combine = guide_interpolate if cfg.cfg_mode == "interpolate" else guide_negative
        eps_model = lambda x, t: combine(reference.epsilon_prediction(schedule, x, t),
                                         other.epsilon_prediction(schedule, x, t), cfg.cfg_scale)

    def run(start: float) -> tuple[RunReport, SampleTrajectory]:
        """The initial noise, the sampler, the ground truth, the metrics and the report."""
        # The initial draw goes straight in, so run_sampler can free it once it holds its own copy. Only
        # --trajectory-out reads visited states, and only those of the first chains.
        trajectory = run_sampler(sampler_config, schedule, timesteps, eps_model,
                                 stream(cfg.seed, STREAM_INITIAL_NOISE).standard_normal((cfg.batch, reference.dim)),
                                 chains=TRAJECTORY_CHAIN_LIMIT)
        truth = reference.sample_ground_truth(cfg.batch, stream(cfg.seed, STREAM_GROUND_TRUTH))
        mean_error, cov_error = moments_error(trajectory.final, reference)
        if reference.dim == 1:
            w1 = wasserstein_1d(trajectory.final[:, 0], truth[:, 0])
        else:
            w1 = sliced_wasserstein(trajectory.final, truth, cfg.directions, rng_seed=cfg.seed)
        if not all(math.isfinite(m) for m in (mean_error, cov_error, w1)):
            raise NumericalError(f"non-finite metrics: mean {mean_error}, covariance {cov_error}, W1 {w1}")
        report = RunReport(config_echo=config_echo, mean_error=mean_error, cov_error=cov_error, wasserstein1=w1,
                           saturation_fraction=saturation_fraction(trajectory.final),
                           wall_time=time.perf_counter() - start)
        return report, trajectory

    return run


def run_experiment(cfg: ExperimentConfig) -> tuple[RunReport, SampleTrajectory]:
    """Run one sampling experiment and score it against the analytic reference.

    Sampling always follows the adaptive schedule; ``theta=1`` reduces it to
    the equidistant baseline. The reference distribution is the conditioned
    component when a condition is set, the full mixture otherwise. The
    trajectory's visited states hold the first ``TRAJECTORY_CHAIN_LIMIT``
    chains, the ones ``sample --trajectory-out`` writes; its ``final`` holds
    every chain.
    """
    start = time.perf_counter()
    return _prepare(cfg, _mixture(cfg))(start)


def _write_text(flag: str, path: Optional[str], text: str, stdout) -> None:
    if path is None:
        stdout.write(text)
        return
    target = Path(os.path.realpath(path))  # where _unwritable looked: a symlink's target
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ConfigError(f"{flag} {path}: {exc.strerror or exc}") from None


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _curve_csv(schedule: NoiseSchedule, curve: ImportanceCurve) -> str:
    return _csv_text(["t", "alpha_bar", "snr", "importance"], (
        [t, repr(float(schedule.alpha_bars[t])), repr(schedule.snr(t)), repr(float(curve.values[t]))]
        for t in range(schedule.num_steps)
    ))


def _schedules_csv(named: dict[str, TimestepSchedule], curve: ImportanceCurve) -> str:
    return _csv_text(["schedule", "slot", "timestep", "importance", "provenance"], (
        [name, slot, int(t), repr(float(curve.values[t])), ts.provenance[slot]]
        for name, ts in named.items() for slot, t in enumerate(ts.steps)
    ))


def cmd_schedule(cfg: ExperimentConfig, out: Optional[str], stdout) -> int:
    schedule, curve, adaptive = _set_up_for(cfg)
    # theta = 1 and theta = 0 give the two pure selections.
    named = {name: adaptive_schedule(schedule, curve, cfg.steps, theta)
             for name, theta in (("equidistant", 1.0), ("importance", 0.0))}
    named["adaptive"] = adaptive
    tables = dict(zip(SCHEDULE_TABLES, (_curve_csv(schedule, curve), _schedules_csv(named, curve))))
    if out is None:
        _write_text("--out", None, "\n".join(tables.values()), stdout)
    else:
        for name, text in tables.items():
            _write_text("--out", str(Path(out) / name), text, stdout)
    return 0


def _trajectory_csv(trajectory: SampleTrajectory) -> str:
    chains = range(min(TRAJECTORY_CHAIN_LIMIT, trajectory.final.shape[0]))
    # The terminal estimate lives on the data axis, marked with timestep -1.
    visits = [*trajectory.states, (-1, trajectory.final)]
    return _csv_text(["index", "timestep", "chain"] + [f"x{i}" for i in range(trajectory.final.shape[1])], (
        [index, t, chain] + [repr(float(v)) for v in state[chain]]
        for index, (t, state) in enumerate(visits) for chain in chains
    ))


def cmd_sample(cfg: ExperimentConfig, out: Optional[str], trajectory_out: Optional[str], stdout) -> int:
    report, trajectory = run_experiment(cfg)
    _write_text("--out", out, report.to_json(), stdout)
    if trajectory_out is not None:
        _write_text("--trajectory-out", trajectory_out, _trajectory_csv(trajectory), stdout)
    return 0


# After the label, each compare row holds these config fields, then these report fields.
COMPARE_CONFIG_COLUMNS = ("steps", "theta", "variant", "gamma", "cfg_mode", "cfg_scale", "clip_method")
COMPARE_REPORT_COLUMNS = ("mean_error", "cov_error", "wasserstein1", "saturation_fraction")


def cmd_compare(labeled: list[tuple[str, ExperimentConfig]], out: Optional[str], stdout) -> int:
    if len(labeled) < 2:
        raise ConfigError("compare needs at least 2 configurations (--config and/or --sweep)")
    labels = [label for label, _ in labeled]
    repeated = [label for label in dict.fromkeys(labels) if labels.count(label) > 1]
    if repeated:
        raise ConfigError(f"compare rows need distinct labels, got {repeated} more than once")
    mixtures = {str(_mixture_file(cfg) or cfg.mixture) for _, cfg in labeled}
    seeds = {cfg.seed for _, cfg in labeled}
    if len(mixtures) > 1 or len(seeds) > 1:
        raise ConfigError(
            f"compare requires a shared mixture and seed, got mixtures {sorted(mixtures)} and seeds {sorted(seeds)}"
        )
    model = _mixture(labeled[0][1])  # the rows share it, so it is read once
    runs = [(label, cfg, _prepare(cfg, model)) for label, cfg in labeled]  # every row is checked before the first run
    rows = []
    for label, cfg, run in runs:
        report, _ = run(time.perf_counter())
        rows.append([label, *(getattr(cfg, name) for name in COMPARE_CONFIG_COLUMNS),
                     *(getattr(report, name) for name in COMPARE_REPORT_COLUMNS)])
    header = ("label", *COMPARE_CONFIG_COLUMNS, *COMPARE_REPORT_COLUMNS)
    _write_text("--out", out, _csv_text(header, rows), stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    # Every result the commands report is checked for finiteness, so NumPy's floating-point warnings
    # would only precede the one-line numerical failure.
    try:
        with np.errstate(all="ignore"):
            args = build_parser().parse_args(argv)
            if args.command != "compare" and len(args.config or []) > 1:
                raise ConfigError(f"{args.command} accepts a single --config file")
            runs = _resolve_runs(args)
            if args.command == "compare":
                return cmd_compare(runs, args.out, stdout)
            ((_, cfg),) = runs
            if args.command == "schedule":
                return cmd_schedule(cfg, args.out, stdout)
            return cmd_sample(cfg, args.out, args.trajectory_out, stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # MemoryError: arrays the configured sizes ask for do not fit
        print(f"error: {exc}", file=sys.stderr)
        return 1

