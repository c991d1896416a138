"""Write ``tools/digest_numbers.json``: every report metric of ``tools/output_digest.py``'s calls, by call name.

A tier-1 test compares a fresh run of those calls with the file at 1e-12 relative, a bound that holds under
every BLAS kernel and NumPy SIMD level tried. Re-record only for a change that moves a number on purpose,
and say in the change why it moved.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/record_digest_numbers.py
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

HERE = Path(__file__).resolve().parent

with contextlib.redirect_stdout(io.StringIO()):
    metrics = runpy.run_path(str(HERE / "output_digest.py"), run_name="__main__")["metrics"]
(HERE / "digest_numbers.json").write_text(json.dumps(metrics, indent=1) + "\n")
print(f"{sum(map(len, metrics.values()))} metrics of {len(metrics)} calls")
