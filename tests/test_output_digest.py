import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The largest drift measured between forced OpenBLAS kernels and NumPy SIMD caps is 2.4e-14 relative.
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def digest():
    """One run of tools/output_digest.py: what it prints, then every report metric of its calls by call name."""
    script = ("import json, runpy; "
              f"print(json.dumps(runpy.run_path({str(ROOT / 'tools' / 'output_digest.py')!r}, "
              "run_name='__main__')['metrics']))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *printed, metrics = done.stdout.splitlines(keepends=True)
    return "".join(printed), json.loads(metrics)


def test_output_digest_runs(digest):
    # The tool sets config fields by name and runs the benchmark's workloads, so a removed field
    # or flag that it still sets fails here, not only when someone next compares digests.
    printed, _ = digest
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
