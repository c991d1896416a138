import subprocess
import sys
import shutil
from pathlib import Path

import pytest

from fewstep import ExperimentConfig
from workloads import CLI_CALLS, WORKLOADS, cli_configs

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_emits_only_configs(name):
    configs = WORKLOADS[name](7)
    assert configs == WORKLOADS[name](7)
    assert configs and all(type(cfg) is ExperimentConfig for cfg in configs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_only_sets_the_seed_field(name):
    for a, b in zip(WORKLOADS[name](1), WORKLOADS[name](2)):
        da, db = a.to_dict(), b.to_dict()
        assert da.pop("seed") != db.pop("seed")
        assert da == db


def test_sweep_is_the_full_matrix():
    configs = WORKLOADS["sweep-512"](0)
    assert len(set(configs)) == 81
    assert {(c.batch, c.steps, c.cfg_scale) for c in configs} == {(512, 8, 3.0)}


def test_cli_configs_come_from_the_workload():
    configs = WORKLOADS["sweep-512"](0)
    chosen = cli_configs(configs)
    assert len(chosen) == CLI_CALLS and all(c in configs for c in chosen)


def test_launcher_fails_without_fewstep_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-512", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
