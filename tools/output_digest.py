"""Print two SHA-256 digests over fewstep's outputs, to show that a refactor changes no byte.

Both cover the report JSON (minus ``wall_time``), the first
``TRAJECTORY_CHAIN_LIMIT`` chains of every visited state (the ones
``run_experiment`` keeps), and every chain of the final state, of each
``sweep-512`` and ``bulk-65536`` benchmark config at seeds 0 and 1, and the
stdout of six fixed ``schedule`` and ``compare`` calls; one
crosses two ``--sweep`` flags, one runs both exposure clip orders, and the last
runs two clips at both clip timings. Every benchmark mixture has at most two
dimensions, where any order of a row mean's products rounds alike, so the runs
also cover ``family-8d``: the 8-dimensional mixture in ``tools/family-8d.json``
under guidance, with each of the three clips, at the same two seeds. Two runs
per seed are wider than one sampler row block, on paths that ``bulk-65536``
does not take: unguided ``grid-2d`` at batch 20,000, and ``family-8d`` guided
against its full mixture at batch 5,000.
The reports of three ``sample`` calls on ``skewed-2d`` follow, set-ups that no
other call runs: a condition without guidance, ``negative_prompt`` without
``--negative-condition``, which guides against the full mixture, and the
quantile clip at d = 2 under a ceiling of 2.5, where every threshold lies
between 1 and the ceiling, so the per-row quantile moves the numbers. At the
default ceiling of 1 the clip is ``clip(x, -1, 1)`` and takes no quantile.
Two more ``sample`` calls give the config fields that nothing else varies a
second value: a linear schedule with its own step count, betas, ``theta``,
``gamma`` and ``directions``, and a cosine run with ``--clip-shift`` and
``--clip-timing final-only``. ``run_configs`` lists the config of every run whose
report is hashed, so a test can check that each field takes two values.
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

from fewstep.cli import COMPARE_REPORT_COLUMNS, TRAJECTORY_CHAIN_LIMIT, main, run_experiment  # noqa: E402
from fewstep.config import FIELDS, ExperimentConfig  # noqa: E402

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


def multi_block(seed: int) -> list:
    """Runs wider than one sampler row block (2**14 values) on paths that ``bulk-65536`` does not take."""
    return [
        ExperimentConfig(mixture="grid-2d", clip_method="balance-tanh", batch=20_000, seed=seed),
        ExperimentConfig(mixture="tools/family-8d.json", cfg_mode="interpolate", condition=1, cfg_scale=3.0,
                         variant="gamma", clip_method="quantile", quantile_q=0.9, quantile_ceiling=4.0, batch=5_000,
                         seed=seed),
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
SAMPLE_ARGVS = {
    "sample none condition": ["sample", "--steps", "4", "--mixture", "skewed-2d", "--condition", "2", "--batch", "64"],
    "sample negative_prompt mixture": ["sample", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode",
                                       "negative_prompt", "--condition", "0", "--batch", "64"],
    "sample quantile ceiling": ["sample", "--steps", "4", "--mixture", "skewed-2d", "--cfg-mode", "negative_prompt",
                                "--condition", "0", "--negative-condition", "1", "--batch", "64",
                                "--clip-method", "quantile", "--quantile-ceiling", "2.5", "--quantile-q", "0.9"],
    "sample linear betas": ["sample", "--num-train-steps", "500", "--beta-start", "2e-4", "--beta-end", "0.03",
                            "--steps", "6", "--theta", "0.4", "--gamma", "0.35", "--mixture", "grid-2d",
                            "--directions", "9", "--batch", "64", "--seed", "2"],
    "sample cosine": ["sample", "--schedule-kind", "cosine", "--steps", "4", "--mixture", "skewed-2d", "--variant",
                      "plain", "--clip-method", "tanh-balance", "--clip-shift", "0.5", "--clip-timing", "final-only",
                      "--batch", "64"],
}

full, numbers = hashlib.sha256(), hashlib.sha256()
metrics, run_configs = {}, []


def record(call: str, fields: dict) -> None:
    metrics[call] = {name: float(fields[name]) for name in COMPARE_REPORT_COLUMNS}


def update(data: bytes) -> None:
    full.update(data)
    numbers.update(data)


def update_report(call: str, text: str) -> None:
    """Hash a report's JSON without ``wall_time``, and its ``config_echo`` into the first line only."""
    fields = json.loads(text)
    record(call, fields)
    run_configs.append({name: fields["config_echo"][name] for name in FIELDS})
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
                      ("family-8d", family_8d), ("multi-block", multi_block)):
    for seed in (0, 1):
        for index, cfg in enumerate(configs(seed)):
            report, trajectory = run_experiment(cfg)
            update_report(f"{name} seed {seed} config {index}", report.to_json())
            for t, state in trajectory.states:
                update(str(t).encode() + state[:TRAJECTORY_CHAIN_LIMIT].tobytes())
            update(b"-1" + trajectory.final.tobytes())
for index, argv in enumerate(ARGVS):
    update(run_cli(f"ARGVS[{index}]", argv).encode())
for call, argv in SAMPLE_ARGVS.items():
    update_report(call, run_cli(call, argv))
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
