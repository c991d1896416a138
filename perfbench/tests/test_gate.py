import itertools
import json
import math
import time
from types import SimpleNamespace

import pytest

from worker import HostClock, Tally, canonical, closed_loop, reference_problem


class FakeReport(SimpleNamespace):
    def to_json(self):
        return json.dumps(vars(self), sort_keys=True)


def report(w1=0.5, wall_time=0.1):
    return FakeReport(mean_error=0.1, cov_error=0.2, wasserstein1=w1, saturation_fraction=0.0, wall_time=wall_time)


def test_canonical_drops_only_wall_time():
    assert canonical(report(wall_time=1.0).to_json()) == canonical(report(wall_time=2.0).to_json())
    assert canonical(report(w1=0.5).to_json()) != canonical(report(w1=0.6).to_json())


def test_closed_loop_counts_changed_bytes_non_finite_metrics_and_raises():
    outputs = iter([report(), report(w1=0.7), report(w1=math.nan), ZeroDivisionError("boom")])

    def run(cfg):
        out = next(outputs, None) or report()
        if isinstance(out, Exception):
            raise out
        return out, None

    cfg = SimpleNamespace(batch=4)
    tally = Tally()
    expected = [canonical(report().to_json())]
    durations, batches, _ = closed_loop(run, [cfg], itertools.cycle([0]), expected, 0.05, tally)
    assert tally.failed == 3
    assert tally.attempted == len(durations) + 1
    assert batches == 4 * len(durations)


def test_reference_problem_uses_a_relative_tolerance():
    want = [0.1, 0.2, 0.5, 0.0]
    assert reference_problem(want, report(w1=0.5 * (1 + 1e-9))) is None
    assert "differ" in reference_problem(want, report(w1=0.5 * (1 + 1e-4)))


def test_closed_loop_keeps_the_after_hook_out_of_the_wall_time():
    def run(cfg):
        time.sleep(0.001)
        return report(), None

    tally = Tally()
    expected = [canonical(report().to_json())]
    timed, _, wall = closed_loop(
        run, [SimpleNamespace(batch=1)], itertools.cycle([0]), expected, 0.01, tally, lambda cfg: time.sleep(0.003)
    )
    assert wall == pytest.approx(sum(duration for _, duration in timed), abs=0.002)


def test_host_clock_samples_at_most_once_per_interval():
    host = HostClock()
    host()
    host()
    assert len(host.samples) == 1
    assert host.samples[0] > 0
