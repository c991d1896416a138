import contextlib
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fewstep.cli
from fewstep.cli import TRAJECTORY_CHAIN_LIMIT, main, run_experiment
from fewstep.config import CHOICES, FIELDS, ConfigError, ExperimentConfig, load_json_object
from fewstep.guidance import guide_interpolate, guide_negative
from fewstep.mixture import MIXTURE_PRESETS, MixtureModel, mixture_preset


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestExperimentConfig:
    def test_defaults_are_valid_and_stable(self):
        cfg = ExperimentConfig()
        assert cfg.steps == 8
        assert cfg.theta == 0.7
        assert cfg.variant == "gamma_i"
        assert cfg.mixture == "bimodal-1d"

    def test_json_roundtrip_is_idempotent(self, tmp_path):
        cfg = ExperimentConfig(steps=16, variant="gamma", cfg_scale=3.0)
        path = tmp_path / "config.json"
        path.write_text(cfg.to_json())
        again = ExperimentConfig.from_mapping(load_json_object(path, "config file"))
        assert again == cfg
        assert again.to_json() == cfg.to_json()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"step": 4})

    def test_to_dict_is_the_dataclass_mapping(self):
        cfg = ExperimentConfig(steps=16, cfg_mode="interpolate", condition=1, distill_omega=2.0)
        got, want = cfg.to_dict(), dataclasses.asdict(cfg)
        assert got == want
        assert list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("theta", 1.5),
            ("gamma", 1.0),
            ("variant", "heun"),
            ("steps", 1),
            ("steps", 2000),
            ("quantile_ceiling", 0.2),
            ("beta_start", 0.0),
            ("directions", 2),
            ("steps", 8.5),
            ("seed", 1.5),
            ("batch", True),
            ("condition", "0"),
            ("clip_shift", math.nan),
            ("seed", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"cfg_mode": "interpolate"}, "cfg_mode 'interpolate' needs --condition"),
        ({"cfg_mode": "negative_prompt"}, "cfg_mode 'negative_prompt' needs --condition"),
        ({"negative_condition": 2}, "negative_condition needs cfg_mode 'negative_prompt'"),
        ({"cfg_mode": "interpolate", "condition": 0, "negative_condition": 1},
         "negative_condition needs cfg_mode 'negative_prompt'"),
    ], ids=["interpolate-unconditioned", "negative-unconditioned", "negative-unguided", "negative-interpolated"])
    def test_guidance_fields_are_checked_together(self, fields, message):
        # Guidance needs a condition, and only negative-prompt guidance reads a negative condition.
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**fields)

    def test_load_rejects_bad_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        bad = tmp_path / "bad.json"
        bad.write_text("{steps:")
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        for kind in ("config file", "mixture file"):
            with pytest.raises(ConfigError, match=f"cannot read {kind}"):
                load_json_object(missing, kind)
            with pytest.raises(ConfigError, match=f"{kind} .* is not valid JSON"):
                load_json_object(bad, kind)
            with pytest.raises(ConfigError, match=f"{kind} .* must hold a JSON object"):
                load_json_object(listy, kind)


class TestScheduleCommand:
    def test_stdout_contains_curve_and_schedule_tables(self):
        code, out = run_cli("schedule", "--steps", "8")
        assert code == 0
        curve_text, table_text = out.split("\n\n", 1)
        header, rows = parse_csv(curve_text)
        assert header == ["t", "alpha_bar", "snr", "importance"]
        assert len(rows) == 1000
        importances = [float(r[3]) for r in rows]
        assert max(importances) == 1.0
        assert float(rows[999][1]) == pytest.approx(4.0358e-5, rel=1e-3)

    def test_writes_csv_files_into_directory(self, tmp_path):
        out_dir = tmp_path / "tables"
        code, out = run_cli("schedule", "--steps", "6", "--out", str(out_dir))
        assert code == 0
        assert out == ""
        header, rows = parse_csv((out_dir / "schedules.csv").read_text())
        assert header == ["schedule", "slot", "timestep", "importance", "provenance"]
        assert len(rows) == 3 * 6
        names = {r[0] for r in rows}
        assert names == {"equidistant", "importance", "adaptive"}

    def test_threshold_one_collapses_adaptive_onto_equidistant(self, tmp_path):
        out_dir = tmp_path / "tables"
        code, _ = run_cli("schedule", "--steps", "8", "--theta", "1", "--out", str(out_dir))
        assert code == 0
        _, rows = parse_csv((out_dir / "schedules.csv").read_text())
        by_name = {}
        for name, slot, timestep, _, provenance in rows:
            by_name.setdefault(name, []).append((int(slot), int(timestep), provenance))
        assert [t for _, t, _ in by_name["adaptive"]] == [t for _, t, _ in by_name["equidistant"]]
        assert all(p == "equidistant" for _, _, p in by_name["adaptive"])

    def test_rejects_oversized_step_count(self):
        code, _ = run_cli("schedule", "--num-train-steps", "16", "--steps", "32")
        assert code == 1

    def test_guidance_rules_apply_to_schedule_too(self, capsys):
        code, out = run_cli("schedule", "--cfg-mode", "none", "--negative-condition", "2")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: negative_condition needs cfg_mode 'negative_prompt'\n"

    def test_out_that_is_a_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "f.txt"
        target.write_text("")
        code, out = run_cli("schedule", "--steps", "4", "--out", str(target))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: --out {target / 'curve.csv'}: ")

    def test_underflowing_schedule_exits_one(self, capsys):
        # alpha_bar underflows to 0 long before timestep 5000 at this beta range.
        code, _ = run_cli("sample", "--beta-end", "0.5", "--num-train-steps", "5000")
        assert code == 1
        assert "error: bad noise schedule" in capsys.readouterr().err


CLIP_OVERFLOW = ("--mixture", "grid-2d", "--clip-method", "balance-tanh")


class TestSampleCommand:
    def test_report_on_stdout(self):
        code, out = run_cli("sample", "--steps", "4", "--batch", "64")
        assert code == 0
        report = json.loads(out)
        assert report["config_echo"]["steps"] == 4
        assert "step_count" not in report
        assert report["config_echo"]["batch"] == 64
        assert report["config_echo"]["mixture"] == "bimodal-1d"
        assert report["wasserstein1"] >= 0.0
        assert 0.0 <= report["saturation_fraction"] <= 1.0

    def test_report_and_trajectory_files(self, tmp_path):
        report_path = tmp_path / "report.json"
        trajectory_path = tmp_path / "trajectory.csv"
        code, out = run_cli(
            "sample", "--steps", "4", "--batch", "16", "--variant", "plain",
            "--theta", "1", "--out", str(report_path),
            "--trajectory-out", str(trajectory_path),
        )
        assert code == 0
        assert out == ""
        report = json.loads(report_path.read_text())
        assert report["config_echo"]["variant"] == "plain"
        header, rows = parse_csv(trajectory_path.read_text())
        assert header == ["index", "timestep", "chain", "x0"]
        # Four visited states plus the terminal estimate, eight chains each.
        assert len(rows) == 5 * 8
        assert [r[1] for r in rows[:8]] == ["999"] * 8
        assert all(r[1] == "-1" for r in rows[-8:])

    @pytest.mark.parametrize("flag", ["--out", "--trajectory-out"])
    def test_output_path_that_is_a_directory_exits_one(self, flag, tmp_path, capsys):
        code, _ = run_cli("sample", "--batch", "8", "--steps", "2", flag, str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} {tmp_path}: ")

    @pytest.mark.parametrize("trajectory_name", ["same.csv", "./same.csv"], ids=["same-spelling", "dot-segment"])
    def test_one_path_for_report_and_trajectory_exits_one(self, trajectory_name, tmp_path, capsys):
        out, trajectory_out = str(tmp_path / "same.csv"), str(tmp_path / trajectory_name)
        code, stdout = run_cli("sample", "--batch", "8", "--steps", "2", "--out", out, "--trajectory-out", trajectory_out)
        assert (code, stdout) == (1, "")
        assert capsys.readouterr().err == f"error: --out {out} and --trajectory-out {trajectory_out} name the same file\n"
        assert not (tmp_path / "same.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"steps": 16, "variant": "plain", "batch": 32}))
        code, out = run_cli("sample", "--config", str(path), "--steps", "4")
        assert code == 0
        report = json.loads(out)
        assert report["config_echo"]["steps"] == 4
        assert "step_count" not in report
        assert report["config_echo"]["variant"] == "plain"
        assert report["config_echo"]["batch"] == 32

    def test_compounding_diagnostic_in_echo(self):
        code, out = run_cli(
            "sample", "--steps", "4", "--batch", "16",
            "--cfg-mode", "interpolate", "--condition", "0",
            "--cfg-scale", "7.5", "--distill-omega", "2",
        )
        assert code == 0
        diag = json.loads(out)["config_echo"]["compounding"]
        assert diag["scale"] == 15.0
        assert diag["alpha"] == pytest.approx(6.5 / 15.0)

    def test_mixture_file(self, tmp_path):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps({
            "components": [
                {"weight": 0.5, "mean": [-1.0, 0.0], "variance": 0.02},
                {"weight": 0.5, "mean": [1.0, 0.0], "variance": 0.02},
            ]
        }))
        code, out = run_cli("sample", "--steps", "4", "--batch", "32", "--mixture", str(path))
        assert code == 0
        assert json.loads(out)["config_echo"]["mixture"] == str(path)

    def test_unknown_mixture_exits_one(self, capsys):
        code, _ = run_cli("sample", "--mixture", "sixmodal-9d")
        assert code == 1
        assert "neither a preset" in capsys.readouterr().err

    @pytest.mark.parametrize("mixture", ["", "DIRECTORY"], ids=["empty", "directory"])
    def test_mixture_that_is_not_a_file_exits_one(self, mixture, tmp_path, capsys):
        # Path("") is the working directory: neither names a mixture file.
        mixture = str(tmp_path) if mixture == "DIRECTORY" else mixture
        code, _ = run_cli("sample", "--batch", "8", "--mixture", mixture)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: mixture {mixture!r} is neither a preset")

    def test_non_object_mixture_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "mixture.json"
        path.write_text("[1, 2]")
        code, _ = run_cli("sample", "--mixture", str(path))
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("sample", "--steps", "8.5"),
        ("sample", "--variant", "euler"),
        ("compare", "--seed", "1.5"),
        ("sample", "--no-such-flag"),
        (),
    ])
    def test_flag_parsing_errors_exit_one(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage: fewstep" in err and "error:" in err

    def test_a_negative_clip_shift_runs_in_both_working_spellings(self):
        # After a space argparse reads an exponent-form "-1e-3" as a flag, so that form is written with "=".
        reports = []
        for argv in (("--clip-shift=-1e-3",), ("--clip-shift", "-0.001")):
            code, out = run_cli("sample", "--batch", "8", "--steps", "4", "--clip-method", "tanh-balance", *argv)
            assert code == 0
            report = json.loads(out)
            del report["wall_time"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["config_echo"]["clip_shift"] == -0.001

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "--clip-method" in capsys.readouterr().out

    def test_out_of_range_condition_exits_one(self):
        code, _ = run_cli("sample", "--cfg-mode", "interpolate", "--condition", "5")
        assert code == 1

    def test_guidance_without_condition_exits_one(self, capsys):
        code, _ = run_cli("sample", "--cfg-mode", "negative_prompt")
        assert code == 1
        assert "needs --condition" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv, failure", [
        # A mean this large keeps the one-component score finite, since it is
        # the closed form (mu' - x) / var', but the samples' moments overflow.
        (("--steps", "4", "--mixture", "MIXTURE_FILE"), "non-finite metrics"),
        # With components at +-1e200 every squared distance overflows, so no
        # component has a finite density and the prediction is non-finite.
        (("--steps", "4", "--mixture", "FAR_COMPONENTS_FILE"), "non-finite noise prediction"),
        # A finite but extreme clip shift leaves a clipped state the next
        # oracle prediction overflows on (the shift times a tanh mean stays finite)...
        ((*CLIP_OVERFLOW, "--clip-shift", "1e308"), "non-finite noise prediction"),
        # ...or, when only the terminal estimate is clipped, the metrics.
        ((*CLIP_OVERFLOW, "--clip-shift", "1e308", "--clip-timing", "final-only"), "non-finite metrics"),
        # Finite guidance knobs whose compounding scale overflows, or whose
        # mixing coefficient does once the scale is subnormal.
        (("--cfg-scale", "1e308", "--distill-omega", "8.5"), "compounding"),
        (("--cfg-scale", "1e-160", "--distill-omega", "1e-160"), "compounding"),
    ], ids=["oracle", "oracle-all-components", "clip-every-step", "clip-final-only",
            "compounding-scale", "compounding-alpha"])
    def test_numerical_failure_exits_two(self, argv, failure, tmp_path, capsys):
        files = {}
        for name, means in (("MIXTURE_FILE", [1e200]), ("FAR_COMPONENTS_FILE", [1e200, -1e200])):
            files[name] = tmp_path / f"{name.lower()}.json"
            files[name].write_text(json.dumps({"components": [
                {"weight": 1.0 / len(means), "mean": [mean], "variance": 1.0} for mean in means
            ]}))
        argv = [str(files.get(arg, arg)) for arg in argv]
        code, _ = run_cli("sample", "--batch", "8", *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert failure in err

    # An error filter turns a NumPy floating-point warning into an exception that main does not catch.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0", "--cfg-scale", "1e308"),
        ("--cfg-mode", "interpolate", "--condition", "1", "--cfg-scale", "1e308"),
        (*CLIP_OVERFLOW, "--clip-shift", "1e308"),
    ], ids=["negative-prompt", "interpolate", "clip"])
    def test_numerical_failure_prints_one_line_and_no_warning(self, argv, capsys):
        code, out = run_cli("sample", "--batch", "8", "--steps", "4", *argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_weights_that_do_not_sum_to_one_exit_one(self, tmp_path, capsys):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps({"components": [{"weight": 0.25, "mean": [0.0], "variance": 1.0}] * 2}))
        code, out = run_cli("sample", "--batch", "8", "--mixture", str(path))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: bad mixture file {path}: weights must sum to 1 within 1e-12, got 0.5\n"

    @pytest.mark.parametrize("mapping, unknown", [
        ({"components": [{"weight": 1.0, "mean": [0.0], "variance": 1.0}], "extra": 1}, "['extra']"),
        ({"components": [{"weight": 1.0, "mean": [0.0], "variance": 1.0, "bogus": 3}]}, "['bogus']"),
    ], ids=["top-level", "component"])
    def test_unknown_mixture_keys_exit_one(self, mapping, unknown, tmp_path, capsys):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(mapping))
        code, out = run_cli("sample", "--batch", "8", "--mixture", str(path))
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: bad mixture file {path}: unknown mixture keys: {unknown}\n"

    @pytest.mark.parametrize("component, phrase", [
        ({"weight": math.nan, "mean": [0.0], "variance": 1.0}, "finite"),
        ({"weight": 1.0, "mean": [math.nan], "variance": 1.0}, "finite"),
        ({"weight": 1.0, "mean": [0.0], "variance": math.inf}, "finite"),
        ({"weight": True, "mean": [0.0], "variance": 1.0}, "finite"),
        ({"weight": 1.0, "mean": ["0.5"], "variance": 1.0}, "finite"),
        ({"weight": 1.0, "mean": [0.0], "variance": "1"}, "finite"),
        ({"weight": 1.0, "mean": [], "variance": 1.0}, "at least one dimension"),
    ], ids=["nan-weight", "nan-mean", "inf-variance", "bool-weight", "string-mean", "string-variance",
            "empty-mean"])
    def test_non_finite_mixture_file_exits_one(self, component, phrase, tmp_path, capsys):
        # json.loads reads NaN and Infinity, and NumPy would coerce true and
        # "0.5" to numbers, so each entry is checked as a config number is.
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps({"components": [component]}))
        code, _ = run_cli("sample", "--batch", "8", "--mixture", str(path))
        assert code == 1
        # The phrase is looked for after the path, which holds the test's name.
        prefix = f"error: bad mixture file {path}: "
        err = capsys.readouterr().err
        assert err.startswith(prefix) and phrase in err[len(prefix):]


# Valid values per field, kept small: batch <= 8, steps <= 8, num_train_steps
# <= 1000, preset mixtures (config files also draw mixture files, below).
# Some valid combinations still fail, such as an underflowing beta range or an
# overflowing clip.
VALID_VALUES = {
    **{name: list(values) for name, values in CHOICES.items()},
    "num_train_steps": [3, 16, 1000],
    "beta_start": [1e-4, 0.02],
    "beta_end": [0.02, 0.5],
    "steps": [2, 8],
    "theta": [0, 0.7, 1.0],
    "gamma": [0.0, 0.2],
    "cfg_scale": [0, 7.5, 1e308],
    "distill_omega": [0, 2.0],
    "condition": [0, 1, 5],
    "negative_condition": [0, 1],
    "clip_shift": [0.75, 1e308],
    "quantile_q": [0.5, 0.995],
    "quantile_ceiling": [1.0, 3.0],
    "mixture": sorted(MIXTURE_PRESETS),
    "batch": [1, 8],
    "seed": [0, 7],
    "directions": [8, 32],
}
WRONG_VALUES = [None, True, 8.5, "x", math.nan, math.inf, -1]
# Keyed by FIELDS, so a field without a pool fails at collection.
VALID_FIELDS = {name: st.sampled_from(VALID_VALUES[name]) for name in FIELDS}


@st.composite
def mixture_files(draw):
    """A small mixture file: 1-3 equally weighted components of dimension <= 2,
    with up to two numbers swapped for a non-finite, zero or negative one."""
    count, dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    means = st.lists(st.sampled_from([-0.6, 0.0, 0.5]), min_size=dim, max_size=dim)
    components = [
        {"weight": 1.0 / count, "mean": draw(means), "variance": draw(st.sampled_from([0.01, 1.0]))}
        for _ in range(count)
    ]
    for _ in range(draw(st.integers(0, 2))):
        component = draw(st.sampled_from(components))
        key = draw(st.sampled_from(["weight", "mean", "variance"]))
        odd = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.5]))
        if key == "mean":
            component["mean"][draw(st.integers(0, dim - 1))] = odd
        else:
            component[key] = odd
    return {"components": components}


# A config file holds valid values for some fields, and a few fields take a
# wrong value instead, so most examples still run. batch is always drawn, so
# the default of 512 chains never runs here. So is the mixture: a preset or a
# mixture file, which is written next to the config file.
CONFIG_MAPPINGS = st.builds(
    lambda valid, wrong: {**valid, **wrong},
    st.fixed_dictionaries(
        {"batch": VALID_FIELDS["batch"], "mixture": st.one_of(VALID_FIELDS["mixture"], mixture_files())},
        optional={name: values for name, values in VALID_FIELDS.items() if name not in ("batch", "mixture")},
    ),
    st.dictionaries(st.sampled_from(sorted(FIELDS)), st.sampled_from(WRONG_VALUES), max_size=2),
)
# One field swept over two values, each valid or wrong.
SWEEPS = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: st.lists(st.sampled_from(VALID_VALUES[name] + WRONG_VALUES), min_size=2, max_size=2)
    .map(lambda values: name + "=" + ",".join(json.dumps(v) for v in values))
)


def run_config_file(argv, mapping):
    """Run ``main`` with ``mapping`` as its config file and check the exit-code contract."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        if isinstance(mapping.get("mixture"), dict):
            mixture_path = Path(tmp) / "mixture.json"
            mixture_path.write_text(json.dumps(mapping["mixture"]))
            mapping = {**mapping, "mixture": str(mixture_path)}
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(mapping))
        code = main([*argv, "--config", str(path)], stdout=stdout)
    assert code in (0, 1, 2)
    if code:
        assert stderr.getvalue().startswith(("error: ", "numerical failure: "))
    return code, stdout.getvalue()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(mapping=CONFIG_MAPPINGS)
# Rare inputs that 60 random examples can miss: a compounding scale that
# overflows, and a one-component mixture whose only weight is NaN.
@example(mapping={"batch": 1, "cfg_scale": 1e308, "distill_omega": 2.0})
@example(mapping={"batch": 1, "mixture": {"components": [{"weight": math.nan, "mean": [0.0], "variance": 1.0}]}})
def test_any_config_file_exits_zero_one_or_two(mapping):
    code, out = run_config_file(["sample"], mapping)
    if code == 0:
        json.loads(out, parse_constant=reject_constant)


@settings(max_examples=60, deadline=None)
@given(mapping=CONFIG_MAPPINGS)
# More inference steps than trained timesteps.
@example(mapping={"batch": 1, "num_train_steps": 3, "steps": 8})
def test_any_schedule_config_file_exits_zero_one_or_two(mapping):
    run_config_file(["schedule"], mapping)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(mapping=CONFIG_MAPPINGS, sweeps=st.lists(SWEEPS, min_size=1, max_size=2))
def test_any_compare_sweep_exits_zero_one_or_two(mapping, sweeps):
    run_config_file(["compare", *(arg for sweep in sweeps for arg in ("--sweep", sweep))], mapping)


# Extreme but finite mixture files, as (mean, variance) per equally weighted
# component: every number passes the file's checks, so whatever overflows or
# underflows on the way is the run's to report. mixture_files draws none of them.
EXTREME_MIXTURES = {
    "far-means-1d": [([1e308], 1.0), ([-1e308], 1.0)],
    "tiny-variances-2d": [([0.0, 1.0], 5e-324), ([1.0, -1.0], 1e-300)],
    "far-mean-tiny-variance-3d": [([1e200, 0.0, -1.0], 1e-300)],
    "mixed-3d": [([0.0, 1e200, -1e308], 5e-324), ([1.0, 0.0, 0.0], 1e308), ([0.0, -1e200, 1e200], 1e-300)],
}
GUIDANCE_FIELDS = {
    "unguided": {},
    "interpolate": {"cfg_mode": "interpolate", "condition": 0},
    "negative-prompt": {"cfg_mode": "negative_prompt", "condition": 0},
}


@pytest.mark.parametrize("clip_method", CHOICES["clip_method"])
@pytest.mark.parametrize("guidance", sorted(GUIDANCE_FIELDS))
@pytest.mark.parametrize("mixture", sorted(EXTREME_MIXTURES))
def test_an_extreme_finite_mixture_file_exits_zero_one_or_two(mixture, guidance, clip_method):
    components = EXTREME_MIXTURES[mixture]
    mapping = {
        "batch": 4, "steps": 4, "clip_method": clip_method, "quantile_ceiling": 3.0, **GUIDANCE_FIELDS[guidance],
        "mixture": {"components": [
            {"weight": 1.0 / len(components), "mean": mean, "variance": variance} for mean, variance in components
        ]},
    }
    code, out = run_config_file(["sample"], mapping)
    if code == 0:
        json.loads(out, parse_constant=reject_constant)


@pytest.mark.parametrize("argv", [["sample"], ["schedule"], ["compare", "--sweep", "theta=0,1"]],
                         ids=["sample", "schedule", "compare"])
def test_non_utf8_config_file_exits_one(argv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff{}")
    code, _ = run_cli(*argv, "--config", str(path))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path} is not valid JSON")


@pytest.mark.parametrize("site", ["config", "mixture", "sweep"])
def test_deeply_nested_json_exits_one(site, tmp_path, capsys):
    # Nesting this deep makes json.loads raise RecursionError, not a JSONDecodeError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    argv = {
        "config": ["sample", "--config", str(path)],
        "mixture": ["sample", "--mixture", str(path)],
        "sweep": ["compare", "--sweep", "theta=" + "[" * 20_000 + ",1"],
    }[site]
    code, out = run_cli(*argv)
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if site != "sweep":  # a swept value that is not JSON is read as text, which theta rejects
        assert err.endswith("JSON nested too deeply to parse\n")


@pytest.mark.parametrize("argv, field", [
    (["sample", "--batch", str(10**15)], "batch"),
    (["schedule", "--num-train-steps", str(10**15)], "num_train_steps"),
    (["sample", "--batch", str(10**22)], "batch"),
    (["sample", "--mixture", "grid-2d", "--directions", str(10**21)], "directions"),
], ids=["batch", "num-train-steps", "batch-beyond-int64", "directions-beyond-int64"])
def test_impossible_sizes_exit_one(argv, field, capsys):
    # NumPy refuses each of these without allocating: a MemoryError below about 2**60 values, a ValueError
    # above. The config caps the field before either.
    code, out = run_cli(*argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith(f"error: {field} must lie in [")


@pytest.mark.parametrize("dim", [2, 2**20])
def test_batch_times_dimension_beyond_the_size_cap_exits_one(dim, tmp_path, capsys):
    # Each factor passes its own cap; their product sizes the initial noise and the ground truth. Left to
    # NumPy, 2**20 dimensions give "array is too big", a ValueError that main does not catch.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"components": [{"weight": 1.0, "mean": [0.0] * dim, "variance": 1.0}]}))
    code, out = run_cli("sample", "--steps", "2", "--batch", str(2**40), "--mixture", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: batch {2**40} times the mixture dimension {dim} exceeds {2**40} values\n"
    )


def test_state_too_large_to_allocate_exits_one(monkeypatch, capsys):
    # The size caps leave runs that still outgrow memory. 2**40 * 1,000 values (8 PiB) is more than any
    # allocator grants, so NumPy raises its MemoryError without allocating.
    monkeypatch.setattr(fewstep.cli, "run_experiment", lambda cfg: np.empty((2**40, 1000)))
    code, out = run_cli("sample", "--batch", "8")
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["sample"], ["compare", "--sweep", "theta=0,1"]], ids=["sample", "compare"])
@pytest.mark.parametrize("key", ["clip_alpha", "clip_beta", "clip_order"])
def test_removed_balance_keys_exit_one(argv, key, tmp_path, capsys):
    # On a row, alpha and beta acted only as alpha + beta - alpha * beta, so clip_shift is the one
    # field; the clip's order is part of clip_method (tanh-balance or balance-tanh).
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: 0.5, "batch": 8}))
    code, out = run_cli(*argv, "--config", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"


def test_removed_importance_epsilon_exits_one(tmp_path, capsys):
    # The importance curve's log guard is fixed at 1e-8; neither a flag nor a file sets it.
    code, out = run_cli("sample", "--batch", "8", "--importance-epsilon", "1e-8")
    assert (code, out) == (1, "")
    assert "\nerror: fewstep: unrecognized arguments: --importance-epsilon 1e-8\n" in capsys.readouterr().err
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"importance_epsilon": 1e-8, "batch": 8}))
    code, out = run_cli("sample", "--config", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: unknown config keys: ['importance_epsilon']\n"


@pytest.mark.parametrize("flags", [["--clip-method", "tanh-only"], ["--clip-order", "tanh-first"]],
                         ids=["tanh-only", "clip-order"])
def test_removed_clip_settings_exit_one(flags, capsys):
    # tanh-only is tanh-balance at --clip-shift 0, and --clip-order tanh-first is --clip-method balance-tanh.
    code, out = run_cli("sample", "--batch", "8", *flags)
    assert (code, out) == (1, "")
    assert "\nerror: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "schedule"])
def test_two_config_files_exit_one(command, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"batch": 8}))
    code, out = run_cli(command, "--config", str(path), "--config", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {command} accepts a single --config file\n"


@pytest.mark.parametrize("source", ["--config", "--mixture"])
@pytest.mark.parametrize("command, output, target, shown", [
    (["sample", "--batch", "8", "--steps", "2"], ["--out", "./in.json"], "in.json", "--out ./in.json"),
    (["sample", "--batch", "8", "--steps", "2"], ["--trajectory-out", "in.json"], "in.json", "--trajectory-out in.json"),
    (["compare", "--batch", "8", "--steps", "2", "--sweep", "theta=0,1"], ["--out", "in.json"], "in.json",
     "--out in.json"),
    (["schedule", "--steps", "4"], ["--out", "tables"], "tables/curve.csv", "--out tables/curve.csv"),
    (["schedule", "--steps", "4"], ["--out", "tables/"], "tables/schedules.csv", "--out tables/schedules.csv"),
], ids=["sample-out", "sample-trajectory-out", "compare-out", "schedule-curve", "schedule-schedules"])
def test_an_output_that_names_an_input_exits_one_before_any_run(source, command, output, target, shown, tmp_path,
                                                                 monkeypatch, capsys):
    # Each write would replace the file that the command reads.
    monkeypatch.chdir(tmp_path)
    Path(target).parent.mkdir(exist_ok=True)
    content = {"batch": 8} if source == "--config" else MIXTURE_PRESETS["skewed-2d"]
    Path(target).write_text(json.dumps(content))
    calls = []
    monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
    code, out = run_cli(*command, source, target, *output)
    assert (code, out, calls) == (1, "", [])
    assert capsys.readouterr().err == f"error: {source} {target} and {shown} name the same file\n"
    assert json.loads(Path(target).read_text()) == content
    assert sorted(str(path) for path in tmp_path.rglob("*") if path.is_file()) == [str(tmp_path / target)]


@pytest.mark.parametrize("argv, flag, path, code", [
    (["sample", "--batch", "8", "--steps", "2"], "--out", "", errno.EISDIR),
    (["compare", "--batch", "8", "--steps", "2", "--sweep", "theta=0,1"], "--out", "tables", errno.EISDIR),
    (["sample", "--batch", "8", "--steps", "2"], "--out", "afile/r.json", errno.ENOTDIR),
    (["sample", "--batch", "8", "--steps", "2"], "--trajectory-out", "afile/deeper/t.csv", errno.ENOTDIR),
], ids=["sample-out-empty", "compare-out-directory", "sample-out-under-a-file", "trajectory-out-under-a-file"])
def test_an_output_that_cannot_be_written_exits_one_before_any_run(argv, flag, path, code, tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.chdir(tmp_path)
    Path("tables").mkdir()
    Path("afile").write_text("")
    monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: pytest.fail("a run started"))
    assert run_cli(*argv, flag, path) == (1, "")
    assert capsys.readouterr().err == f"error: {flag} {path}: {os.strerror(code)}\n"
    assert sorted(str(p) for p in tmp_path.rglob("*")) == [str(tmp_path / "afile"), str(tmp_path / "tables")]


def test_an_output_on_a_symlink_loop_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("loop").symlink_to("loop")
    code, out = run_cli("sample", "--batch", "8", "--steps", "2", "--out", "loop", "--trajectory-out", "t.csv")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: --out loop: {os.strerror(errno.ELOOP)}\n"


def test_an_output_that_is_a_dangling_symlink_is_written_at_its_target(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("dang").symlink_to("nowhere/x")
    assert run_cli("sample", "--batch", "8", "--steps", "2", "--out", "dang") == (0, "")
    assert capsys.readouterr().err == ""
    assert json.loads(Path("nowhere/x").read_text())["config_echo"]["batch"] == 8
    assert Path("dang").read_text() == Path("nowhere/x").read_text()


@pytest.mark.parametrize("flag, path", [("--out", "loop"), ("--out", "loop/r.json"), ("--trajectory-out", "loop")],
                         ids=["out", "out-under-the-loop", "trajectory-out"])
def test_an_output_on_a_symlink_loop_exits_one_before_any_run(flag, path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("loop").symlink_to("loop")
    monkeypatch.setattr(fewstep.cli, "run_experiment", lambda cfg: pytest.fail("a run started"))
    assert run_cli("sample", "--batch", "8", "--steps", "2", flag, path) == (1, "")
    assert capsys.readouterr().err == f"error: {flag} {path}: {os.strerror(errno.ELOOP)}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loop"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
def test_a_write_that_fails_exits_one(capsys):
    assert run_cli("sample", "--batch", "8", "--steps", "2", "--out", "/dev/full") == (1, "")
    assert capsys.readouterr().err == f"error: --out /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_a_config_file_that_is_also_the_mixture_exits_one(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"batch": 8, "mixture": str(path)}))
    code, out = run_cli("sample", "--config", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: --config {path} and --mixture {path} name the same file\n"


@pytest.mark.parametrize("site", ["config", "mixture"])
def test_a_repeated_json_key_exits_one(site, tmp_path, capsys):
    # Python's json keeps the last value of a repeated key; the reader rejects the file instead.
    path = tmp_path / f"{site}.json"
    if site == "config":
        path.write_text('{"steps": 2, "batch": 8, "steps": 4}')
        argv, key = ["sample", "--config", str(path)], "steps"
    else:
        path.write_text('{"components": [{"weight": 1.0, "mean": [0.0], "weight": 0.5, "variance": 0.1}]}')
        argv, key = ["sample", "--batch", "8", "--steps", "2", "--mixture", str(path)], "weight"
    code, out = run_cli(*argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {site} file {path} is not valid JSON: key '{key}' is repeated\n"


def test_broken_stdout_exits_one(capsys):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    assert main(["schedule", "--steps", "4"], stdout=BrokenPipe()) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestCompareCommand:
    def test_theta_sweep_produces_one_row_per_value(self):
        code, out = run_cli(
            "compare", "--steps", "4", "--batch", "32",
            "--sweep", "theta=0,0.6,0.7,0.8,0.9,1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "label"
        assert [r[0] for r in rows] == [
            "theta=0", "theta=0.6", "theta=0.7", "theta=0.8", "theta=0.9", "theta=1",
        ]
        assert {r[1] for r in rows} == {"4"}

    def test_header_is_label_config_columns_then_metrics(self):
        code, out = run_cli("compare", "--steps", "2", "--batch", "8", "--sweep", "theta=0,1")
        assert code == 0
        header, _ = parse_csv(out)
        assert header == [
            "label", "steps", "theta", "variant", "gamma", "cfg_mode", "cfg_scale", "clip_method",
            "mean_error", "cov_error", "wasserstein1", "saturation_fraction",
        ]

    def test_identical_configs_give_identical_rows(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / f"{name}.json").write_text(json.dumps({"steps": 4, "batch": 32}))
        code, out = run_cli("compare", "--config", str(tmp_path / "a.json"), "--config", str(tmp_path / "b.json"))
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["a", "b"]
        assert rows[0][1:] == rows[1][1:]

    @pytest.mark.parametrize("second", ["a.json", "./a.json"], ids=["same-spelling", "dot-slash"])
    def test_a_file_named_twice_exits_one_before_any_run(self, tmp_path, monkeypatch, capsys, second):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.json").write_text(json.dumps({"steps": 2, "batch": 8}))
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--config", "a.json", "--config", second)
        assert (code, out, calls) == (1, "", [])
        assert capsys.readouterr().err == f"error: --config a.json and --config {second} name the same file\n"

    def test_two_rows_with_one_label_exit_one_before_any_run(self, tmp_path, monkeypatch, capsys):
        # Files that share a stem are labelled by their path, and b.json.json's stem is b.json.
        monkeypatch.chdir(tmp_path)
        Path("c").mkdir()
        for name in ("b.json", "c/b.json", "b.json.json"):
            Path(name).write_text(json.dumps({"batch": 16, "steps": 2}))
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--config", "b.json", "--config", "c/b.json", "--config", "b.json.json")
        assert (code, out, calls) == (1, "", [])
        assert capsys.readouterr().err == "error: compare rows need distinct labels, got ['b.json'] more than once\n"

    @pytest.mark.parametrize("sweep, error", [
        ("theta=1,1", "--sweep 'theta=1,1' lists one value twice: theta=1 and theta=1"),
        ("theta=1,1.0", "--sweep 'theta=1,1.0' lists one value twice: theta=1 and theta=1.0"),
        ("batch=4,4", "--sweep 'batch=4,4' lists one value twice: batch=4 and batch=4"),
        ("theta=0, 1e0, 0.5, 1", "--sweep 'theta=0, 1e0, 0.5, 1' lists one value twice: theta=1e0 and theta=1"),
        ("theta=true,1", "theta must be a finite number, got True"),
    ], ids=["theta=1,1", "theta=1,1.0", "batch=4,4", "exponent", "true-is-not-1"])
    def test_a_value_listed_twice_exits_one_before_any_run(self, sweep, error, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--batch", "16", "--steps", "2", "--sweep", sweep)
        assert (code, out, calls) == (1, "", [])
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_one_mixture_file_spelled_two_ways_is_shared(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("fam.json").write_text(json.dumps(MIXTURE_PRESETS["skewed-2d"]))
        for name, mixture in (("a", "fam.json"), ("b", "./fam.json")):
            Path(f"{name}.json").write_text(json.dumps({"steps": 2, "batch": 16, "mixture": mixture}))
        code, out = run_cli("compare", "--config", "a.json", "--config", "b.json")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["a", "b"]
        assert rows[0][1:] == rows[1][1:]

    def test_rejects_single_config(self):
        code, _ = run_cli("compare", "--steps", "4")
        assert code == 1

    def test_rejects_mismatched_seeds(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"seed": 0, "batch": 16}))
        b.write_text(json.dumps({"seed": 1, "batch": 16}))
        code, _ = run_cli("compare", "--config", str(a), "--config", str(b))
        assert code == 1
        assert "shared mixture and seed" in capsys.readouterr().err

    def test_sweeps_run_every_combination_in_flag_order(self):
        code, out = run_cli(
            "compare", "--batch", "8", "--sweep", "steps=2,4",
            "--sweep", "clip_method=none,tanh-balance,quantile", "--sweep", "theta=1,0.7",
        )
        assert code == 0
        header, rows = parse_csv(out)
        grid = list(itertools.product(["2", "4"], ["none", "tanh-balance", "quantile"], ["1", "0.7"]))
        assert len(rows) == 12
        assert [r[0] for r in rows] == [f"steps={s},clip_method={c},theta={t}" for s, c, t in grid]
        columns = [header.index(name) for name in ("steps", "clip_method", "theta")]
        assert [tuple(r[i] for i in columns) for r in rows] == grid

    def test_a_sweep_beats_a_flag_and_a_flag_beats_the_file(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"steps": 6, "theta": 0.3, "gamma": 0.1, "batch": 8}))
        code, out = run_cli("compare", "--config", str(path), "--steps", "4", "--theta", "0.5",
                            "--sweep", "theta=0,1")
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["theta=0", "theta=1"]
        for name, want in (("steps", ["4", "4"]), ("theta", ["0", "1"]), ("gamma", ["0.1", "0.1"])):
            assert [r[header.index(name)] for r in rows] == want

    def test_only_resolved_runs_are_validated(self, tmp_path):
        # The file's theta is out of range, but every run sweeps it to a valid one.
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"theta": 5, "steps": 2, "batch": 8}))
        code, out = run_cli("compare", "--config", str(path), "--sweep", "theta=0,1")
        assert code == 0
        assert len(parse_csv(out)[1]) == 2

    def test_several_files_times_a_sweep_prefix_each_label_with_the_stem(self, tmp_path):
        for name, steps in (("a", 2), ("b", 4)):
            (tmp_path / f"{name}.json").write_text(json.dumps({"steps": steps, "batch": 8}))
        code, out = run_cli("compare", "--config", str(tmp_path / "a.json"), "--config", str(tmp_path / "b.json"),
                            "--sweep", "theta=0,1")
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["a,theta=0", "a,theta=1", "b,theta=0", "b,theta=1"]
        assert [r[header.index("steps")] for r in rows] == ["2", "2", "4", "4"]

    def test_files_that_share_a_stem_are_labelled_by_path(self, tmp_path):
        paths = [tmp_path / "d1" / "c.json", tmp_path / "d2" / "c.json", tmp_path / "d3" / "other.json"]
        for path, steps in zip(paths, (2, 4, 2)):
            path.parent.mkdir()
            path.write_text(json.dumps({"steps": steps, "batch": 8}))
        code, out = run_cli("compare", *(arg for path in paths for arg in ("--config", str(path))))
        assert code == 0
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == [str(paths[0]), str(paths[1]), "other"]
        assert [r[header.index("steps")] for r in rows] == ["2", "4", "2"]

    def test_a_field_swept_twice_exits_one(self, capsys):
        code, out = run_cli("compare", "--batch", "8", "--sweep", "theta=0,1", "--sweep", "steps=2,4",
                            "--sweep", "theta=0.5")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("error: --sweep expects FIELD=V1,V2,... with a known field swept once")

    def test_a_grid_with_a_bad_combination_fails_before_any_run(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--batch", "8", "--condition", "0", "--negative-condition", "1",
                            "--sweep", "cfg_mode=negative_prompt,interpolate")
        assert (code, out, calls) == (1, "", [])
        assert "negative_condition needs cfg_mode 'negative_prompt'" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, message", [
        ("condition=0,1,5", "--condition 5 out of range for a 3-component mixture"),
        ("negative_condition=1,2,7", "--negative-condition 7 out of range for a 3-component mixture"),
        (f"batch=8,{2**40}", f"batch {2**40} times the mixture dimension 2 exceeds {2**40} values"),
    ], ids=["condition", "negative-condition", "batch-times-dimension"])
    def test_a_row_that_does_not_fit_the_mixture_fails_before_any_run(self, sweep, message, monkeypatch, capsys):
        # Only the mixture shows these rows to be invalid; the rows before them are valid.
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0",
                            "--steps", "4", "--sweep", sweep)
        assert (code, out, calls) == (1, "", [])
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_row_with_a_bad_noise_schedule_fails_before_any_run(self, monkeypatch, capsys):
        # At this beta range alpha_bar underflows to 0 within 5,000 train steps but not within 10.
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli("compare", "--beta-start", "0.5", "--beta-end", "0.999", "--batch", "8", "--steps", "4",
                            "--sweep", "num_train_steps=10,5000")
        assert (code, out, calls) == (1, "", [])
        assert capsys.readouterr().err == "error: bad noise schedule: all alpha_bars must lie strictly inside (0, 1)\n"

    def test_each_row_reads_its_mixture_and_builds_its_schedule_once(self, monkeypatch):
        # The rows share one mixture file, read once per call; each row's schedule is built once, when it is checked.
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        reads, builds = [], []
        load, build = fewstep.cli.load_json_object, fewstep.cli.build_schedule
        monkeypatch.setattr(fewstep.cli, "load_json_object", lambda *args: reads.append(args) or load(*args))
        monkeypatch.setattr(fewstep.cli, "build_schedule", lambda *args: builds.append(args) or build(*args))
        fewstep.cli._set_up.cache_clear()
        code, out = run_cli("compare", "--batch", "8", "--steps", "4", "--mixture", "tools/family-8d.json",
                            "--sweep", "theta=0,0.5,1")
        assert code == 0
        assert [r[0] for r in parse_csv(out)[1]] == ["theta=0", "theta=0.5", "theta=1"]
        assert (len(reads), len(builds)) == (1, 3)

    @pytest.mark.parametrize("argv", [["compare", "--sweep", "variant=plain,gamma"], ["sample"]],
                             ids=["compare", "sample"])
    def test_an_overflowing_compounding_diagnostic_fails_before_any_sampler(self, argv, monkeypatch, capsys):
        # The config alone fixes the diagnostic, so it is checked with the config, not after a run.
        calls = []
        monkeypatch.setattr(fewstep.cli, "run_sampler", lambda *args: calls.append(args))
        code, out = run_cli(*argv, "--cfg-scale", "1e308", "--distill-omega", "8.5")
        assert (code, out, calls) == (2, "", [])
        assert capsys.readouterr().err == "numerical failure: non-finite compounding diagnostic: scale inf, alpha 0.0\n"

    def test_rejects_unknown_sweep_field(self):
        code, _ = run_cli("compare", "--sweep", "omega=1,2")
        assert code == 1

    def test_sweep_over_clip_method_changes_saturation_column(self):
        code, out = run_cli(
            "compare", "--steps", "4", "--batch", "64",
            "--cfg-mode", "negative_prompt", "--condition", "1",
            "--negative-condition", "0", "--cfg-scale", "7.5",
            "--sweep", "clip_method=none,tanh-balance",
        )
        assert code == 0
        header, rows = parse_csv(out)
        sat = header.index("saturation_fraction")
        method = header.index("clip_method")
        assert [r[method] for r in rows] == ["none", "tanh-balance"]
        assert float(rows[0][sat]) != float(rows[1][sat])

    def test_writes_matrix_to_file(self, tmp_path):
        out_path = tmp_path / "matrix.csv"
        code, out = run_cli(
            "compare", "--steps", "4", "--batch", "16",
            "--sweep", "variant=plain,gamma", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        _, rows = parse_csv(out_path.read_text())
        assert len(rows) == 2


class TestRunExperiment:
    def test_reports_are_reproducible_up_to_wall_time(self):
        cfg = ExperimentConfig(steps=4, batch=64, variant="gamma", seed=3)
        a, _ = run_experiment(cfg)
        b, _ = run_experiment(cfg)
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_conditioned_runs_score_against_the_component(self):
        cfg = ExperimentConfig(
            steps=8, batch=256, mixture="bimodal-1d", condition=1,
            cfg_mode="none", variant="plain", theta=1.0,
        )
        report, trajectory = run_experiment(cfg)
        assert trajectory.final.mean() == pytest.approx(0.6, abs=0.05)
        assert report.mean_error < 0.05

    def test_the_trajectory_keeps_the_written_chains_and_every_final_one(self):
        _, trajectory = run_experiment(ExperimentConfig(steps=4, batch=64, variant="gamma", mixture="grid-2d"))
        assert {state.shape for _, state in trajectory.states} == {(TRAJECTORY_CHAIN_LIMIT, 2)}
        assert trajectory.final.shape == (64, 2)

    def test_run_memory_does_not_grow_with_the_step_count(self):
        def traced_peak(cfg):
            run_experiment(cfg)  # warms the set-up cache and the preset's models
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                if not was_tracing:
                    tracemalloc.stop()

        cfg = ExperimentConfig(mixture="skewed-2d", cfg_mode="negative_prompt", condition=0, negative_condition=1,
                               clip_method="tanh-balance", batch=4096, steps=4)
        state_bytes = cfg.batch * 2 * np.dtype(np.float64).itemsize
        assert abs(traced_peak(dataclasses.replace(cfg, steps=16)) - traced_peak(cfg)) < state_bytes

    def test_multivariate_runs_use_the_sliced_distance(self):
        cfg = ExperimentConfig(steps=4, batch=64, mixture="grid-2d")
        report, _ = run_experiment(cfg)
        assert report.wasserstein1 > 0.0

    # A run's sampler gets guide_*(conditional, other): the condition's prediction, or the mixture's without
    # one, against the negative label's, or the mixture's without one.
    @pytest.mark.parametrize("fields, combine, other", [
        ({}, None, None),
        ({"condition": 2}, None, None),
        ({"cfg_mode": "interpolate", "condition": 1}, guide_interpolate, None),
        ({"cfg_mode": "negative_prompt", "condition": 0, "negative_condition": 1}, guide_negative, 1),
        ({"cfg_mode": "negative_prompt", "condition": 0}, guide_negative, None),
    ], ids=["none", "none-conditioned", "interpolate", "negative-label", "negative-mixture"])
    def test_guidance_composes_the_oracle_predictions(self, fields, combine, other, monkeypatch):
        captured, run_sampler = [], fewstep.cli.run_sampler

        def spy(config, schedule, timesteps, eps_model, initial, chains=None):
            captured.append((schedule, eps_model))
            return run_sampler(config, schedule, timesteps, eps_model, initial, chains=chains)

        monkeypatch.setattr(fewstep.cli, "run_sampler", spy)
        cfg = ExperimentConfig(mixture="skewed-2d", steps=4, batch=16, **fields)
        run_experiment(cfg)
        ((schedule, eps_model),) = captured
        model = mixture_preset("skewed-2d")
        side = lambda label: model if label is None else model.component(label)
        x = np.random.default_rng(7).normal(size=(32, 2))
        for t in (0, 250, 700, 999):
            expected = side(cfg.condition).epsilon_prediction(schedule, x, t)
            if combine is not None:
                expected = combine(expected, side(other).epsilon_prediction(schedule, x, t), cfg.cfg_scale)
            got = eps_model(x, t)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


    def test_a_prepared_run_called_twice_gives_the_same_bytes(self, monkeypatch):
        # A prepared run may be called again (stacked seeds will call one per seed): each call gives the same
        # bytes, and the models it reads were all built when it was prepared.
        built, post_init = [], MixtureModel.__post_init__
        monkeypatch.setattr(MixtureModel, "__post_init__", lambda model: built.append(model) or post_init(model))

        def outcome(run):
            report, trajectory = run(0.0)
            echo = json.loads(report.to_json())
            echo.pop("wall_time")
            states = [(t, state.shape, state.tobytes()) for t, state in trajectory.states]
            return json.dumps(echo), states, trajectory.final.shape, trajectory.final.tobytes()

        for fields in ({"cfg_mode": "negative_prompt", "condition": 0, "negative_condition": 1,
                        "clip_method": "tanh-balance"},
                       {"cfg_mode": "none", "condition": 2},
                       {"cfg_mode": "interpolate", "condition": 1, "variant": "gamma"}):
            cfg = ExperimentConfig(mixture="skewed-2d", batch=64, **fields)
            run = fewstep.cli._prepare(cfg, fewstep.cli._mixture(cfg))
            first = outcome(run)
            built.clear()
            assert outcome(run) == first, fields
            assert built == [], fields

class TestSetUpCache:
    """Runs that share the six set-up fields share one schedule, importance curve and timestep set."""

    KEY_CHANGES = [{"schedule_kind": "cosine"}, {"num_train_steps": 500}, {"beta_start": 2e-4},
                   {"beta_end": 0.03}, {"steps": 4}, {"theta": 0.5}]

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The (schedule, curve, timesteps) that each run_experiment call hands its sampler."""
        seen, run_sampler = [], fewstep.cli.run_sampler

        def spy(config, schedule, timesteps, eps_model, initial, chains=None):
            seen.append((schedule, timesteps.curve, timesteps))
            return run_sampler(config, schedule, timesteps, eps_model, initial, chains=chains)

        monkeypatch.setattr(fewstep.cli, "run_sampler", spy)
        fewstep.cli._set_up.cache_clear()
        return seen

    @pytest.mark.parametrize("change", [{"seed": 5}, {"variant": "gamma"}, {"clip_method": "quantile"}],
                             ids=["seed", "variant", "clip_method"])
    def test_other_fields_share_the_set_up(self, change, sampled):
        cfg = ExperimentConfig(steps=4, batch=16, variant="gamma_i", theta=0.0)
        run_experiment(cfg)
        run_experiment(dataclasses.replace(cfg, **change))
        first, second = sampled
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("change", KEY_CHANGES, ids=[next(iter(c)) for c in KEY_CHANGES])
    def test_each_key_field_rebuilds(self, change, sampled):
        cfg = ExperimentConfig(steps=8, batch=16)
        run_experiment(cfg)
        run_experiment(dataclasses.replace(cfg, **change))
        first, second = sampled
        assert not any(a is b for a, b in zip(first, second))

    def test_a_bad_schedule_raises_on_every_call(self, monkeypatch):
        # alpha_bar underflows to 0 within 5000 steps of betas this large; a failed build is not kept.
        builds = []
        build = fewstep.cli.build_schedule
        monkeypatch.setattr(fewstep.cli, "build_schedule", lambda *args: builds.append(args) or build(*args))
        cfg = ExperimentConfig(batch=8, beta_start=0.5, beta_end=0.999, num_train_steps=5000)
        for _ in range(2):
            with pytest.raises(ConfigError, match="^bad noise schedule: "):
                run_experiment(cfg)
        assert len(builds) == 2

    def test_a_report_is_the_same_from_a_cold_and_a_warm_cache(self):
        cfg = ExperimentConfig(steps=6, batch=64, mixture="grid-2d", cfg_mode="interpolate", condition=2,
                               cfg_scale=3.0, variant="gamma_i", clip_method="tanh-balance", theta=0.5)

        def report_bytes():
            fields = json.loads(run_experiment(cfg)[0].to_json())
            fields.pop("wall_time")
            return json.dumps(fields)

        fewstep.cli._set_up.cache_clear()
        cold = report_bytes()
        assert fewstep.cli._set_up.cache_info().currsize == 1
        assert report_bytes() == cold
        assert fewstep.cli._set_up.cache_info().hits >= 1

    def test_the_shared_arrays_are_read_only(self, sampled):
        run_experiment(ExperimentConfig(steps=4, batch=8))
        ((schedule, curve, timesteps),) = sampled
        for array in (schedule.betas, schedule.alpha_bars, curve.values, timesteps.steps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fewstep", "sample", "--steps", "2", "--batch", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["config_echo"]["steps"] == 2
    assert "step_count" not in report


def test_cli_import_loads_no_scipy():
    # NumPy is the only runtime dependency; SciPy serves the tests as an oracle.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fewstep.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
