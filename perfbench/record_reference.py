"""Rewrite reference.json: the report metrics of every workload config at the
reference seed, which every benchmark run re-checks.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

from fewstep.cli import run_experiment
from worker import REFERENCE_FILE, REFERENCE_SEED, report_values
from workloads import WORKLOADS


def main() -> None:
    recorded = {
        name: [report_values(run_experiment(cfg)[0]) for cfg in configs(REFERENCE_SEED)]
        for name, configs in WORKLOADS.items()
    }
    blocks = [
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(values)}" for values in rows) + "\n  ]"
        for name, rows in recorded.items()
    ]
    REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
