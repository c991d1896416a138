"""One fresh-interpreter benchmark process, started by run.py.

Usage: worker.py MODE WORKLOAD SEED SECONDS

  import  time ``import fewstep`` and print it
  setup   import fewstep, build the workload's configs, call run_experiment
          once per distinct config, print "ready" and exit
  run     as setup, then print the CLI calls for run.py to make and run the
          untraced closed loop for SECONDS, in CLI_CALLS slices: after each
          slice print "slice" and wait for "go" on stdin. HostClock samples
          the host's speed during the loop
  trace   as setup, then untraced and traced loops in turn, SECONDS/2 of each

``run`` and ``trace`` then re-run the configs of the reference seed against
``reference.json`` and print one JSON result line for run.py.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from summary import breakdown, pass_time
from workloads import CLI_CALLS, WORKLOADS, cli_configs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
# Report metrics may drift by reordered floating-point sums, not by more.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
REPORT_METRICS = ("mean_error", "cov_error", "wasserstein1", "saturation_fraction")
# Keep the first few failure messages; the rest are only counted.
FAILURE_SAMPLE = 5
# The calibration kernel's length, and the loop time between its samples.
CALIBRATION_ROUNDS = 100
CALIBRATE_EVERY_S = 0.5
# Untraced and traced blocks of a traced run, each.
TRACE_BLOCKS = 4


def canonical(report_json: str) -> str:
    """Report bytes with the run-dependent ``wall_time`` removed."""
    fields = json.loads(report_json)
    fields.pop("wall_time")
    return json.dumps(fields, sort_keys=True)


def report_values(report) -> list[float]:
    return [getattr(report, name) for name in REPORT_METRICS]


def metric_problem(report) -> str | None:
    values = report_values(report)
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return f"non-finite or negative metric in {values}"
    return None


class Tally:
    """Attempted and failed calls, with a sample of failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problem: str | None, label: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < FAILURE_SAMPLE:
                self.messages.append(f"{label}: {problem}")


def checked_call(run, cfg, tally: Tally, label: str, check=metric_problem):
    """One counted call; ``check`` maps its report to a problem or None."""
    try:
        report, _ = run(cfg)
    except Exception as exc:  # a failed call is counted, the run goes on
        tally.record(f"{type(exc).__name__}: {exc}", label)
        return None
    tally.record(check(report), label)
    return report


def warm_up(run, configs, tally: Tally) -> list:
    """One call per config; returns the reports, None where a call failed."""
    return [checked_call(run, cfg, tally, f"warm-up {i}") for i, cfg in enumerate(configs)]


def closed_loop(run, configs, order, expected: list, seconds: float, tally: Tally, after=None):
    """Call run_experiment on configs[next(order)] until SECONDS have passed.

    Each call starts when the previous one returns. Checks run after the loop
    and ``after`` runs outside the timed interval, so the wall time counts
    nothing but run_experiment calls. Returns (config index, seconds) per
    timed call, the batch total and the wall time.
    """
    timed, done, batches, attempts, paused = [], [], 0, 0, 0.0
    clock = time.perf_counter
    start = clock()
    while attempts == 0 or clock() - start - paused < seconds:
        attempts += 1
        index = next(order)
        t0 = clock()
        try:
            report, _ = run(configs[index])
        except Exception as exc:  # counted as failed, never timed
            tally.record(f"{type(exc).__name__}: {exc}", f"config {index}")
            continue
        timed.append((index, clock() - t0))
        if after is not None:
            t1 = clock()
            after(configs[index])
            paused += clock() - t1
        done.append((index, report))
        batches += configs[index].batch
    wall = clock() - start - paused
    for index, report in done:
        problem = metric_problem(report)
        if problem is None and canonical(report.to_json()) != expected[index]:
            problem = f"report bytes differ from the first call of config {index}"
        tally.record(problem, f"config {index}")
    return timed, batches, wall


class HostClock:
    """Times a fixed calibration kernel every CALIBRATE_EVERY_S seconds.

    On a shared host the whole machine slows by 20-40% for minutes at a time,
    for fewstep's calls and for this kernel alike. The kernel is NumPy on small
    arrays, like most of fewstep's calls, and uses no fewstep code, so no
    change to fewstep moves it. run.py divides the run's timings by its median.
    """

    def __init__(self) -> None:
        # Imported here, not at the top: main() times `import fewstep`,
        # which imports NumPy.
        import numpy as np

        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((512, 2))
        self.means = rng.standard_normal((8, 2))
        self.samples: list[float] = []
        self.due = 0.0

    def kernel(self) -> None:
        import numpy as np

        for _ in range(CALIBRATION_ROUNDS):
            dist = ((self.points[:, None, :] - self.means[None]) ** 2).sum(-1)
            low = dist.min(1)
            np.exp(low[:, None] - dist).sum(1)
            np.clip(self.points, -1.0, 1.0)

    def __call__(self, _cfg=None) -> None:
        now = time.perf_counter()
        if now >= self.due:
            self.kernel()
            done = time.perf_counter()
            self.samples.append(done - now)
            self.due = done + CALIBRATE_EVERY_S


def reference_problem(want: list[float], report) -> str | None:
    got = report_values(report)
    if not all(math.isclose(g, w, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL) for g, w in zip(got, want)):
        return f"metrics {got} differ from recorded {want}"
    return metric_problem(report)


def reference_check(run, name: str, tally: Tally) -> list:
    """Re-run the reference seed's configs and compare with reference.json.

    Returns the reports, None where a call failed.
    """
    recorded = json.loads(REFERENCE_FILE.read_text())[name]
    configs = WORKLOADS[name](REFERENCE_SEED)
    if len(recorded) != len(configs):
        tally.record(f"{len(recorded)} recorded reports for {len(configs)} configs", "reference")
        return []
    return [
        checked_call(run, cfg, tally, f"reference {i}", functools.partial(reference_problem, want))
        for i, (cfg, want) in enumerate(zip(configs, recorded))
    ]


def input_sizes(configs) -> list[dict]:
    """Per distinct mixture: batch, steps and the computed bytes of the main arrays."""
    from fewstep import mixture_preset

    sizes = {}
    for cfg in configs:
        dim = mixture_preset(cfg.mixture).dim
        sliced = dim >= 2
        sizes[cfg.mixture] = {
            "mixture": cfg.mixture,
            "dim": dim,
            "batch": cfg.batch,
            "steps": cfg.steps,
            "state_bytes_computed": cfg.batch * dim * 8,
            "w1_projection_matrix_bytes_computed": cfg.directions * dim * 8 if sliced else 0,
            "w1_projected_samples_bytes_computed": 2 * cfg.batch * cfg.directions * 8 if sliced else 0,
        }
    return list(sizes.values())


def layer_metrics(tracer, totals: dict, calls: int, steps: int) -> dict:
    """Per-layer metrics per traced run_experiment call."""
    layer, counts = totals["layer"], tracer.counts

    def ms(label: str) -> float:
        return layer.get(label, 0.0) / calls * 1e3

    def per_call(*names: str) -> float:
        return sum(counts[name] for name in names) / calls

    evals = counts["mixture.epsilon_prediction"]
    return {
        "mixture.calls": per_call("mixture.epsilon_prediction"),
        "mixture.self_ms": ms("mixture"),
        "mixture.models_built": per_call("mixture.MixtureModel"),
        "mixture.models_per_eval": counts["mixture.MixtureModel"] / evals if evals else 0.0,
        "mixture.rows_per_s": counts["mixture.rows_x_components"] / layer["mixture"],
        "mixture.ground_truth_ms": totals["name"].get("mixture.sample_ground_truth", 0.0) / calls * 1e3,
        "metrics.calls": per_call(
            "metrics.moments_error", "metrics.wasserstein_1d", "metrics.sliced_wasserstein",
            "metrics.saturation_fraction", "metrics.RunReport",
        ),
        "metrics.self_ms": ms("metrics"),
        "metrics.rows_per_s": counts["metrics.rows"] / layer["metrics"],
        "postprocess.calls": per_call("postprocess.clip"),
        "postprocess.self_ms": ms("postprocess"),
        "sampling.self_ms": ms("sampling"),
        "sampling.overhead_us_per_step": totals["name"].get("sampling.run_sampler", 0.0) / steps * 1e6,
        "sampling.noisify_calls": per_call("sampling.noisify"),
        "schedules.self_ms": ms("schedules"),
        "importance.self_ms": ms("importance"),
        "importance.fingerprints": per_call("importance.schedule_fingerprint"),
        "timesteps.self_ms": ms("timesteps"),
        "guidance.calls": per_call("guidance.guide_interpolate", "guidance.guide_negative"),
        "guidance.self_ms": ms("guidance"),
        "seeding.streams": per_call("seeding.stream"),
        "config.self_ms": ms("config"),
        "cli.self_ms": ms("cli"),
        "trace.run_ms": totals["run"] / calls * 1e3,
        "trace.unattributed_frac": totals["unattributed"] / totals["run"],
    }


def traced_phase(run, configs, order, expected, seconds, tally):
    """Untraced and traced closed loops in turn, SECONDS/2 of each in all.

    Alternating blocks see the same host speed, so their difference is the
    tracing overhead. Every patched attribute is restored after each traced
    block. Returns the untraced and traced call times, the layer metrics and
    the tracer checks.
    """
    tracer = tracing.Tracer()
    totals = {"layer": {}, "name": {}, "run": 0.0, "unattributed": 0.0}
    root = tracer.wrap(run, "cli.run_experiment", "cli")
    calls = steps = 0

    def traced_run(cfg):
        tracer.call += 1
        return root(cfg)

    def after(cfg):
        # Spans left by a call that raised carry an older call id.
        nonlocal calls, steps
        split = breakdown([s for s in tracer.take() if s.call == tracer.call])
        totals["run"] += split.total
        totals["unattributed"] += split.unattributed
        for key in ("layer", "name"):
            for label, value in getattr(split, f"{key}_self").items():
                totals[key][label] = totals[key].get(label, 0.0) + value
        calls += 1
        steps += cfg.steps

    untraced, timed = [], []
    block = seconds / (2 * TRACE_BLOCKS)
    for _ in range(TRACE_BLOCKS):
        untraced += closed_loop(run, configs, order, expected, block, tally)[0]
        tracing.install(tracer)
        try:
            timed += closed_loop(traced_run, configs, order, expected, block, tally, after)[0]
        finally:
            tracer.restore()
    metrics = layer_metrics(tracer, totals, calls, steps)
    layer_sum = sum(totals["layer"].values())
    checks = {
        "unrestored": tracer.unrestored(),
        "layer_self_sum_s": layer_sum,
        "traced_run_s": totals["run"],
        "additive": math.isclose(layer_sum, totals["run"], rel_tol=1e-9),
    }
    return untraced, timed, metrics, checks


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    start = time.perf_counter()
    import fewstep

    import_s = time.perf_counter() - start
    if not Path(fewstep.__file__).resolve().is_relative_to(SRC):
        print(f"fewstep was imported from {fewstep.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    if mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    from fewstep.cli import run_experiment

    configs = WORKLOADS[name](seed)
    tally = Tally()
    reports = warm_up(run_experiment, configs, tally)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    expected = [None if r is None else canonical(r.to_json()) for r in reports]
    order = itertools.cycle(range(len(configs)))
    result = {}
    if mode == "run":
        cli = [{"config": c.to_dict(), "report": expected[configs.index(c)]} for c in cli_configs(configs)]
        print(json.dumps({"cli": cli}), flush=True)
        timed, batches, wall = [], 0, 0.0
        host = HostClock()
        for k in range(1, CLI_CALLS + 1):
            # Each slice runs up to its share of SECONDS, counting the time
            # earlier slices overran by finishing their last call.
            slice_timed, slice_batches, slice_wall = closed_loop(
                run_experiment, configs, order, expected, seconds * k / CLI_CALLS - wall, tally, host
            )
            timed += slice_timed
            batches += slice_batches
            wall += slice_wall
            print("slice", flush=True)
            if sys.stdin.readline().strip() != "go":
                print("run.py stopped sending go", file=sys.stderr)
                return 1
        result.update(timed=timed, samples_per_s=batches / wall, calibration_s=host.samples)
    else:
        untraced, traced, layers, checks = traced_phase(run_experiment, configs, order, expected, seconds, tally)
        untraced_pass = pass_time(untraced)
        layers["trace.overhead_frac"] = (pass_time(traced) - untraced_pass) / untraced_pass
        result.update(layers=layers, checks=checks, nfe_per_call=layers["mixture.calls"])
    checked = reference_check(run_experiment, name, tally)
    # w1_mean scores the reference seed's configs beside the run's own: on a
    # one-config workload, W1 alone varies by up to 20% from seed to seed.
    scored = reports + ([] if seed == REFERENCE_SEED else checked)
    result.update(
        w1=[r.wasserstein1 for r in scored if r is not None],
        rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.messages,
        inputs=input_sizes(configs),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
