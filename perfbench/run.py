"""fewstep benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload sweep-512 --seed 3 --seconds 25 --trace 0

Each measurement runs in a fresh interpreter (worker.py) with BLAS and OpenMP
limited to THREADS threads and ``src`` first on PYTHONPATH. One client drives
fewstep in a closed loop. The CLI calls and the extra set-up probes run
between slices of the timed loop, so each figure spreads over the whole run.
The end-to-end timings are divided by the host's slowdown, which a
calibration kernel timed during the loop measures. README.md describes the
workloads and metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from summary import pass_time, tail_percentile
from worker import canonical
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh interpreters whose set-up is timed per run, besides the measured one.
SETUP_PROBES = 2
# Fresh interpreters timing `import fewstep` per traced run.
IMPORT_PROBES = 5
# Every process of one workload run must end within this many seconds.
DEADLINE_S = 170.0
DEFAULT_SECONDS = 25
# The calibration kernel's median time (worker.HostClock) on a 2-vCPU Intel
# Xeon host at 2.0 GHz. Timings are reported as if the host ran it this fast.
CALIBRATION_REF_S = 0.022

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ms": "ms",
    "samples_per_s": "1/s",
    "cli_p50_ms": "ms",
    "rss_peak_mb": "MB",
    "w1_mean": "data_units",
}
PER_LAYER_UNITS = {
    "mixture.calls": "count",
    "mixture.self_ms": "ms",
    "mixture.models_built": "count",
    "mixture.models_per_eval": "ratio",
    "mixture.rows_per_s": "1/s",
    "mixture.ground_truth_ms": "ms",
    "metrics.calls": "count",
    "metrics.self_ms": "ms",
    "metrics.rows_per_s": "1/s",
    "postprocess.calls": "count",
    "postprocess.self_ms": "ms",
    "sampling.self_ms": "ms",
    "sampling.overhead_us_per_step": "us",
    "sampling.noisify_calls": "count",
    "schedules.self_ms": "ms",
    "importance.self_ms": "ms",
    "importance.fingerprints": "count",
    "timesteps.self_ms": "ms",
    "guidance.calls": "count",
    "guidance.self_ms": "ms",
    "seeding.streams": "count",
    "config.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "trace.run_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def start_worker(mode: str, workload: str, seed: int, seconds: float, stdin=subprocess.DEVNULL) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds)],
        cwd=ROOT,
        env=child_env(),
        stdin=stdin,
        stdout=subprocess.PIPE,
        text=True,
    )


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def read_line(proc: subprocess.Popen, deadline: Deadline) -> str:
    """The worker's next stdout line, read before any later output exists."""
    if not select.select([proc.stdout], [], [], deadline.left())[0]:
        raise BenchError(f"{proc.args[2]} worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"{proc.args[2]} worker exited with {proc.wait()}")
    return line


def finish(proc: subprocess.Popen, deadline: Deadline) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{proc.args[2]} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[2]} worker exited with {proc.returncode}")
    return out


def timed_setup(proc: subprocess.Popen, launched: float, deadline: Deadline) -> float:
    """Seconds from launching a worker until its ready line."""
    line = read_line(proc, deadline)
    ready = time.perf_counter()
    if line.strip() != "ready":
        raise BenchError(f"worker did not get ready: {line!r}")
    return ready - launched


def measured_worker(mode: str, workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[float, str]:
    """Run one worker to the end; return its set-up time and the rest of its output."""
    launched = time.perf_counter()
    proc = start_worker(mode, workload, seed, seconds)
    try:
        setup = timed_setup(proc, launched, deadline)
        return setup, finish(proc, deadline)
    finally:
        stop(proc)


def import_probe(deadline: Deadline) -> float:
    proc = start_worker("import", "-", 0, 0)
    try:
        return json.loads(finish(proc, deadline))["import_s"]
    finally:
        stop(proc)


def cli_call(call: dict, work: Path, deadline: Deadline) -> tuple[float, str | None]:
    """Time one `python -m fewstep sample` on a config and compare its report."""
    cfg_path, out_path = work / "config.json", work / "report.json"
    cfg_path.write_text(json.dumps(call["config"]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "fewstep", "sample", "--config", str(cfg_path), "--out", str(out_path)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=deadline.left(),
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        return elapsed, f"cli: exit {done.returncode}: {done.stderr.strip()[-200:]}"
    if canonical(out_path.read_text()) != call["report"]:
        return elapsed, "cli: report differs from the in-process report"
    return elapsed, None


def run_untraced(workload: str, seed: int, seconds: float, deadline: Deadline) -> dict:
    launched = time.perf_counter()
    proc = start_worker("run", workload, seed, seconds, stdin=subprocess.PIPE)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        setups = [timed_setup(proc, launched, deadline)]
        calls = json.loads(read_line(proc, deadline))["cli"]
        probes_at = {i * len(calls) // SETUP_PROBES for i in range(SETUP_PROBES)}
        cli = []
        for i, call in enumerate(calls):
            # The worker has run a slice of its loop and waits for "go".
            line = read_line(proc, deadline)
            if line.strip() != "slice":
                raise BenchError(f"expected a slice mark, got {line!r}")
            if i in probes_at:
                setups.append(measured_worker("setup", workload, seed, 0, deadline)[0])
            cli.append(cli_call(call, work, deadline))
            proc.stdin.write("go\n")
            proc.stdin.flush()
        result = json.loads(finish(proc, deadline))
    finally:
        stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    cli_times = [elapsed for elapsed, _ in cli]
    problems = [problem for _, problem in cli if problem]
    timed = result["timed"]
    durations = [duration for _, duration in timed]
    # How much slower than the reference the host ran during this run.
    slowdown = statistics.median(result["calibration_s"]) / CALIBRATION_REF_S
    wall = {
        "setup_s": statistics.median(setups),
        "pass_ms": pass_time(timed) * 1e3,
        "samples_per_s": result["samples_per_s"],
        "cli_p50_ms": statistics.median(cli_times) * 1e3,
    }
    metrics = {name: value / slowdown for name, value in wall.items() if name != "samples_per_s"}
    metrics.update(
        samples_per_s=wall["samples_per_s"] * slowdown,
        rss_peak_mb=result["rss_peak_mb"],
        w1_mean=statistics.fmean(result["w1"]),
    )
    p90 = tail_percentile(durations, 90)
    detail = {
        "host_slowdown": slowdown,
        "calibration_samples": len(result["calibration_s"]),
        "wall": wall,
        "calls": len(durations),
        "run_p50_ms": statistics.median(durations) * 1e3,
        "run_p90_ms": None if p90 is None else p90[0] * 1e3,
        "run_p90_beyond": None if p90 is None else p90[1],
        "setup_samples_s": setups,
        "cli_samples_ms": [t * 1e3 for t in cli_times],
    }
    return outcome(result, metrics, detail, problems, len(cli_times), END_TO_END_UNITS)


def run_traced(workload: str, seed: int, seconds: float, deadline: Deadline) -> dict:
    imports = [import_probe(deadline) for _ in range(IMPORT_PROBES)]
    result = json.loads(measured_worker("trace", workload, seed, seconds, deadline)[1])
    metrics = dict(result["layers"], **{"cli.import_ms": statistics.median(imports) * 1e3})
    checks = result["checks"]
    problems = [f"tracer left {attr} patched" for attr in checks["unrestored"]]
    if not checks["additive"]:
        problems.append(
            f"layer self times sum to {checks['layer_self_sum_s']} s, traced runs to {checks['traced_run_s']} s"
        )
    detail = {"nfe_per_call": result["nfe_per_call"], "trace_checks": checks}
    return outcome(result, metrics, detail, problems, 0, PER_LAYER_UNITS)


def outcome(result: dict, metrics: dict, detail: dict, problems: list, extra_calls: int, units: dict) -> dict:
    if set(metrics) != set(units):
        raise BenchError(f"metric names {sorted(set(metrics) ^ set(units))} do not match the unit table")
    attempted = result["attempted"] + extra_calls
    failed = result["failed"] + len(problems)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": dict(
            detail,
            failed_frac=failed / attempted,
            failures=result["failures"] + problems,
            inputs=result["inputs"],
        ),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return max(caches)[1] if caches else "unknown"


def host_block() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "thread_settings": {var: str(THREADS) for var in THREAD_VARS},
        "client": "one process, closed loop",
    }


def print_table(workload: str, res: dict) -> None:
    for name, metric in res["metrics"].items():
        print(f"{workload:<14} {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    detail = res["detail"]
    print(f"{workload:<14} {'failed_frac':<30} {detail['failed_frac']:>14.6g} fraction")
    if "wall" in detail:
        print(f"{workload:<14} {'host_slowdown':<30} {detail['host_slowdown']:>14.6g} ratio")
        for name, value in detail["wall"].items():
            unit = res["metrics"][name]["unit"]
            print(f"{workload:<14} {'wall.' + name:<30} {value:>14.6g} {unit} (as measured)")
    if "run_p50_ms" in detail:
        print(f"{workload:<14} {'run_p50_ms':<30} {detail['run_p50_ms']:>14.6g} ms ({detail['calls']} calls)")
        if detail["run_p90_ms"] is None:
            print(f"{workload:<14} {'run_p90_ms':<30} {'n/a':>14} ms (fewer than 10 of {detail['calls']} calls beyond p90)")
        else:
            print(
                f"{workload:<14} {'run_p90_ms':<30} {detail['run_p90_ms']:>14.6g} ms "
                f"({detail['calls']} calls, {detail['run_p90_beyond']} beyond)"
            )
    for failure in detail["failures"]:
        print(f"{workload:<14} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; both when absent")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "fewstep" / "__init__.py").is_file():
        print(f"error: no fewstep sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    try:
        for name in names:
            for mode in modes:
                run = run_traced if mode else run_untraced
                res = run(name, args.seed, args.seconds, Deadline(DEADLINE_S))
                print_table(name, res)
                print("detail " + json.dumps({"workload": name, "trace": mode, **res["detail"]}))
                results[(name, mode)] = res
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("host " + json.dumps(host_block()))

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{m}": v for (name, _), res in results.items() for m, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
