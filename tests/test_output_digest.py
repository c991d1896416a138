import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digest_runs():
    # The tool sets config fields by name and runs the benchmark's workloads, so a removed field
    # or flag that it still sets fails here, not only when someone next compares digests.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n[0-9a-f]{64} numbers\n", done.stdout)
