"""Print two SHA-256 digests over fewstep's outputs, to show that a refactor changes no byte.

Both cover the report JSON (minus ``wall_time``), every visited state and the
final state of each ``sweep-512`` and ``bulk-65536`` benchmark config at seeds
0 and 1, and the stdout of six fixed ``schedule`` and ``compare`` calls; one
crosses two ``--sweep`` flags, one runs both exposure clip orders, and the last
runs two clips at both clip timings. Every benchmark mixture has at most two
dimensions, where any order of a row mean's products rounds alike, so the runs
also cover ``family-8d``: the 8-dimensional mixture in ``tools/family-8d.json``
under guidance, with each of the three clips, at the same two seeds.
Last come the files of one ``sample --out --trajectory-out`` call (with
``--distill-omega`` on a ``scaled_linear`` schedule) and of one
``schedule --out DIR`` call, written under a temporary directory.
The first line hashes each report whole. The second, ``numbers``, leaves out
each report's ``config_echo``, so it stays equal across a change that renames,
adds or removes config keys but moves no number.

Usage, from the repository root, before and after a change:

    PYTHONPATH=src python3 tools/output_digest.py
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Read the benchmark's workload table without writing bytecode into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from fewstep.cli import main, run_experiment  # noqa: E402
from fewstep.config import ExperimentConfig  # noqa: E402

# Reports echo the mixture path as given, so it is relative to the repository root.
os.chdir(ROOT)


def family_8d(seed: int) -> list:
    """Criterion 7's guided 8-dimensional family under each clip; the quantile clip's ceiling lets q act."""
    return [
        ExperimentConfig(mixture="tools/family-8d.json", cfg_mode="negative_prompt", condition=0,
                         negative_condition=1, cfg_scale=7.5, variant="gamma", clip_method=method,
                         quantile_q=0.9, quantile_ceiling=4.0, seed=seed)
        for method in ("tanh-balance", "balance-tanh", "quantile")
    ]


ARGVS = (
    ["schedule", "--steps", "8", "--theta", "0.7"],
    ["schedule", "--schedule-kind", "cosine", "--num-train-steps", "200", "--steps", "12", "--theta", "0.3"],
    ["compare", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0",
     "--negative-condition", "1", "--batch", "64", "--sweep", "theta=0,0.7,1"],
    ["compare", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0",
     "--negative-condition", "1", "--batch", "64", "--sweep", "clip_method=none,tanh-balance,quantile",
     "--sweep", "theta=1,0.7"],
    ["compare", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0",
     "--negative-condition", "1", "--batch", "64", "--clip-shift", "0.5",
     "--sweep", "clip_method=tanh-balance,balance-tanh"],
    ["compare", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt", "--condition", "0",
     "--negative-condition", "1", "--batch", "64", "--variant", "gamma_i",
     "--sweep", "clip_method=tanh-balance,quantile", "--sweep", "clip_timing=every-step,final-only"],
)

full, numbers = hashlib.sha256(), hashlib.sha256()


def update(data: bytes) -> None:
    full.update(data)
    numbers.update(data)


def update_report(text: str) -> None:
    """Hash a report's JSON without ``wall_time``, and its ``config_echo`` into the first line only."""
    fields = json.loads(text)
    del fields["wall_time"]
    full.update(json.dumps(fields, sort_keys=True).encode())
    del fields["config_echo"]
    numbers.update(json.dumps(fields, sort_keys=True).encode())


def run_cli(argv: list) -> str:
    out = io.StringIO()
    if main(argv, stdout=out) != 0:
        sys.exit(f"fewstep {' '.join(argv)} failed")
    return out.getvalue()


for configs in (WORKLOADS["sweep-512"], WORKLOADS["bulk-65536"], family_8d):
    for seed in (0, 1):
        for cfg in configs(seed):
            report, trajectory = run_experiment(cfg)
            update_report(report.to_json())
            for t, state in [*trajectory.states, (-1, trajectory.final)]:
                update(str(t).encode() + state.tobytes())
for argv in ARGVS:
    update(run_cli(argv).encode())
with tempfile.TemporaryDirectory() as tmp:
    report_file, trajectory_file, table_dir = (Path(tmp) / name for name in ("report.json", "trajectory.csv", "tables"))
    run_cli(["sample", "--schedule-kind", "scaled_linear", "--mixture", "skewed-2d", "--cfg-mode", "interpolate",
             "--condition", "1", "--distill-omega", "2", "--batch", "64", "--out", str(report_file),
             "--trajectory-out", str(trajectory_file)])
    update_report(report_file.read_text())
    update(trajectory_file.read_bytes())
    run_cli(["schedule", "--steps", "6", "--theta", "0.5", "--out", str(table_dir)])
    for name in ("curve.csv", "schedules.csv"):
        update((table_dir / name).read_bytes())
print(full.hexdigest())
print(numbers.hexdigest(), "numbers")
