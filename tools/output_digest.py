"""Print two SHA-256 digests over fewstep's outputs, to show that a refactor changes no byte.

Both cover the report JSON (minus ``wall_time``), every visited state and the
final state of each ``sweep-512`` and ``bulk-65536`` benchmark config at seeds
0 and 1, and the stdout of five fixed ``schedule`` and ``compare`` calls; one
crosses two ``--sweep`` flags, and the last runs both exposure clip orders.
The first line hashes each report whole. The second, ``numbers``, leaves out
each report's ``config_echo``, so it stays equal across a change that renames,
adds or removes config keys but moves no number.

Usage, from the repository root, before and after a change:

    PYTHONPATH=src python3 tools/output_digest.py
"""

import hashlib
import io
import json
import sys
from pathlib import Path

# Read the benchmark's workload table without writing bytecode into perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from fewstep.cli import main, run_experiment  # noqa: E402

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
)

full, numbers = hashlib.sha256(), hashlib.sha256()


def update(data: bytes) -> None:
    full.update(data)
    numbers.update(data)


for workload in ("sweep-512", "bulk-65536"):
    for seed in (0, 1):
        for cfg in WORKLOADS[workload](seed):
            report, trajectory = run_experiment(cfg)
            fields = json.loads(report.to_json())
            del fields["wall_time"]
            full.update(json.dumps(fields, sort_keys=True).encode())
            del fields["config_echo"]
            numbers.update(json.dumps(fields, sort_keys=True).encode())
            for t, state in [*trajectory.states, (-1, trajectory.final)]:
                update(str(t).encode() + state.tobytes())
for argv in ARGVS:
    out = io.StringIO()
    if main(argv, stdout=out) != 0:
        sys.exit(f"fewstep {' '.join(argv)} failed")
    update(out.getvalue().encode())
print(full.hexdigest())
print(numbers.hexdigest(), "numbers")
