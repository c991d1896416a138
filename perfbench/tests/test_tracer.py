import pytest

import tracer as tracing
from fewstep import ExperimentConfig
from fewstep.cli import run_experiment
from summary import breakdown


def snapshot():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.fewstep_targets()]


def test_restore_puts_back_every_patched_attribute():
    before = snapshot()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def traced_call(cfg):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        report, _ = tracer.wrap(run_experiment, "cli.run_experiment", "cli")(cfg)
    finally:
        tracer.restore()
    return tracer, report


def test_traced_run_matches_untraced_output_and_adds_up():
    cfg = ExperimentConfig(
        mixture="grid-2d", batch=32, steps=6, cfg_mode="negative_prompt", condition=0,
        negative_condition=1, clip_method="quantile", variant="gamma",
    )
    tracer, report = traced_call(cfg)
    assert report.wasserstein1 == run_experiment(cfg)[0].wasserstein1
    split = breakdown(tracer.take())
    assert sum(split.layer_self.values()) == pytest.approx(split.total, rel=1e-12)
    assert {"mixture", "metrics", "postprocess", "sampling", "guidance", "seeding"} <= set(split.layer_self)
    # Guided: two oracle predictions per denoise step.
    assert tracer.counts["mixture.epsilon_prediction"] == 2 * cfg.steps
    assert tracer.counts["guidance.guide_negative"] == cfg.steps
    assert tracer.counts["postprocess.clip"] == cfg.steps


def test_a_raising_call_leaves_no_open_span():
    tracer, _ = traced_call(ExperimentConfig(batch=8))
    tracer.take()
    failing = tracer.wrap(lambda: 1 / 0, "cli.fail", "cli")
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer._stack == []
    assert [s.name for s in tracer.take()] == ["cli.fail"]
