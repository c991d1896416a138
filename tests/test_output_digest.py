import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fewstep.config import FIELDS

ROOT = Path(__file__).resolve().parents[1]
# The largest drift measured between forced OpenBLAS kernels and NumPy SIMD caps is 2.4e-14 relative.
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def digest_run():
    """One run of tools/output_digest.py: what it prints, every report metric of its calls by call name, and
    the config of every run whose report it hashes."""
    script = ("import json, runpy; "
              f"tool = runpy.run_path({str(ROOT / 'tools' / 'output_digest.py')!r}, run_name='__main__'); "
              "print(json.dumps([tool['metrics'], tool['run_configs']]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *printed, ran = done.stdout.splitlines(keepends=True)
    return "".join(printed), *json.loads(ran)


@pytest.fixture(scope="module")
def digest(digest_run):
    """What the tool prints, then every report metric of its calls by call name."""
    printed, metrics, _ = digest_run
    return printed, metrics


def test_output_digest_runs(digest):
    # The tool sets config fields by name and runs the benchmark's workloads, so a removed field
    # or flag that it still sets fails here, not only when someone next compares digests.
    # The printed pair follows the BLAS kernel and the SIMD cap, so it goes to the log of every run.
    printed, _ = digest
    print(printed, end="")
    assert re.fullmatch(r"[0-9a-f]{64}\n[0-9a-f]{64} numbers\n", printed)


def test_every_report_metric_matches_the_recorded_numbers(digest):
    # The digest's SHA-256 pair follows the BLAS kernel; these numbers must hold on any host.
    # A change that moves a number on purpose re-records them with tools/record_digest_numbers.py.
    _, metrics = digest
    recorded = json.loads((ROOT / "tools" / "digest_numbers.json").read_text())
    assert {call: list(row) for call, row in metrics.items()} == {call: list(row) for call, row in recorded.items()}
    moved = {f"{call}: {name}": (value, recorded[call][name]) for call, row in metrics.items()
             for name, value in row.items() if not math.isclose(value, recorded[call][name], rel_tol=REL_TOL)}
    assert moved == {}


def test_every_config_field_takes_two_values(digest_run):
    # A field that holds one value across every hashed run could be ignored, or read from the wrong place,
    # without moving a digest byte or a recorded number.
    _, _, run_configs = digest_run
    values = {name: {json.dumps(cfg[name]) for cfg in run_configs} for name in FIELDS}
    assert {name: sorted(seen) for name, seen in values.items() if len(seen) < 2} == {}
