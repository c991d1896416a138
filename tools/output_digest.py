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
``schedule --out DIR`` call, written under a temporary directory, and the
stdout of one ``compare --config A --config B`` call on two config files
written there.
The first line hashes each report whole. The second, ``numbers``, leaves out
each report's ``config_echo``, so it stays equal across a change that renames,
adds or removes config keys but moves no number.
Both lines follow the BLAS kernel and NumPy's SIMD level, so they prove "same
bytes" only between runs on one host. ``metrics`` collects every report
metric of the calls by call name; ``tools/record_digest_numbers.py`` writes it
to ``tools/digest_numbers.json``, and a tier-1 test compares a fresh run with
that file at a relative bound that holds on any kernel.

Usage, from the repository root, before and after a change:

    PYTHONPATH=src python3 tools/output_digest.py
"""

import csv
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

from fewstep.cli import COMPARE_REPORT_COLUMNS, main, run_experiment  # noqa: E402
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
metrics = {}


def record(call: str, fields: dict) -> None:
    metrics[call] = {name: float(fields[name]) for name in COMPARE_REPORT_COLUMNS}


def update(data: bytes) -> None:
    full.update(data)
    numbers.update(data)


def update_report(call: str, text: str) -> None:
    """Hash a report's JSON without ``wall_time``, and its ``config_echo`` into the first line only."""
    fields = json.loads(text)
    record(call, fields)
    del fields["wall_time"]
    full.update(json.dumps(fields, sort_keys=True).encode())
    del fields["config_echo"]
    numbers.update(json.dumps(fields, sort_keys=True).encode())


def run_cli(call: str, argv: list) -> str:
    out = io.StringIO()
    if main(argv, stdout=out) != 0:
        sys.exit(f"fewstep {' '.join(argv)} failed")
    if argv[0] == "compare":
        for row in csv.DictReader(io.StringIO(out.getvalue())):
            record(f"{call} {row['label']}", row)
    return out.getvalue()


for name, configs in (("sweep-512", WORKLOADS["sweep-512"]), ("bulk-65536", WORKLOADS["bulk-65536"]),
                      ("family-8d", family_8d)):
    for seed in (0, 1):
        for index, cfg in enumerate(configs(seed)):
            report, trajectory = run_experiment(cfg)
            update_report(f"{name} seed {seed} config {index}", report.to_json())
            for t, state in [*trajectory.states, (-1, trajectory.final)]:
                update(str(t).encode() + state.tobytes())
for index, argv in enumerate(ARGVS):
    update(run_cli(f"ARGVS[{index}]", argv).encode())
with tempfile.TemporaryDirectory() as tmp:
    report_file, trajectory_file, table_dir = (Path(tmp) / name for name in ("report.json", "trajectory.csv", "tables"))
    run_cli("sample", ["sample", "--schedule-kind", "scaled_linear", "--mixture", "skewed-2d", "--cfg-mode",
                       "interpolate", "--condition", "1", "--distill-omega", "2", "--batch", "64",
                       "--out", str(report_file), "--trajectory-out", str(trajectory_file)])
    update_report("sample", report_file.read_text())
    update(trajectory_file.read_bytes())
    run_cli("schedule", ["schedule", "--steps", "6", "--theta", "0.5", "--out", str(table_dir)])
    for name in ("curve.csv", "schedules.csv"):
        update((table_dir / name).read_bytes())
    configs = {"plain.json": {"variant": "plain", "theta": 1}, "gamma-i.json": {"variant": "gamma_i", "gamma": 0.3}}
    for name, fields in configs.items():
        (Path(tmp) / name).write_text(json.dumps({"steps": 4, "mixture": "grid-2d", "batch": 64, **fields}))
    argv = ["compare", *(arg for name in configs for arg in ("--config", str(Path(tmp) / name)))]
    update(run_cli("compare --config", argv).encode())
print(full.hexdigest())
print(numbers.hexdigest(), "numbers")
