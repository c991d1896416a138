import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewstep.schedules import SCHEDULE_KINDS, NoiseSchedule, build_schedule


def reference_alpha_bars(betas):
    # Straight-line product, independent of the vectorized implementation.
    out = []
    running = 1.0
    for beta in betas:
        running *= 1.0 - beta
        out.append(running)
    return np.array(out)


def test_linear_alpha_bars_match_reference_loop(linear_schedule):
    expected = reference_alpha_bars(np.linspace(1e-4, 0.02, 1000))
    assert np.allclose(linear_schedule.alpha_bars, expected, rtol=1e-12, atol=0.0)
    assert linear_schedule.alpha_bars[-1] == pytest.approx(4.04e-5, rel=2e-3)


def test_two_step_alpha_bars_by_hand():
    sched = build_schedule("linear", 2, 0.5, 0.5)
    assert sched.alpha_bars.tolist() == [0.5, 0.25]


def test_first_alpha_bar_is_one_minus_first_beta(linear_schedule):
    assert linear_schedule.alpha_bars[0] == 1.0 - 1e-4


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_invariants_hold_for_every_kind(kind):
    sched = build_schedule(kind, 1000, 1e-4, 0.02)
    assert sched.num_steps == 1000
    assert np.all(sched.betas > 0.0) and np.all(sched.betas < 1.0)
    assert np.all(np.diff(sched.alpha_bars) < 0.0)
    assert np.all(sched.alpha_bars > 0.0) and np.all(sched.alpha_bars < 1.0)
    assert sched.alpha_bars.tobytes() == np.cumprod(1.0 - sched.betas).tobytes()


def test_scaled_linear_is_square_of_linear_sqrt_grid():
    sched = build_schedule("scaled_linear", 10, 0.01, 0.04)
    expected = np.linspace(0.1, 0.2, 10) ** 2
    assert np.allclose(sched.betas, expected, rtol=0.0, atol=1e-15)


def test_cosine_caps_betas():
    sched = build_schedule("cosine", 1000)
    assert sched.betas.max() <= 0.999


@given(
    num_steps=st.integers(min_value=2, max_value=200),
    beta_start=st.floats(min_value=1e-6, max_value=0.1),
    spread=st.floats(min_value=1.0, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_monotone_snr_and_alpha_bars_property(num_steps, beta_start, spread):
    sched = build_schedule("linear", num_steps, beta_start, min(beta_start * spread, 0.5))
    assert np.all(np.diff(sched.alpha_bars) < 0.0)
    snrs = sched.alpha_bars / (1.0 - sched.alpha_bars)
    assert np.all(np.diff(snrs) < 0.0)


def test_snr_trivial_values(linear_schedule):
    ab = linear_schedule.alpha_bars
    t_half = int(np.argmin(np.abs(ab - 0.5)))
    assert linear_schedule.snr(t_half) == pytest.approx(ab[t_half] / (1 - ab[t_half]))
    expected = reference_alpha_bars(np.linspace(1e-4, 0.02, 1000))[500]
    assert linear_schedule.snr(500) == pytest.approx(expected / (1 - expected), rel=1e-12)


def test_snr_index_errors(linear_schedule):
    with pytest.raises(IndexError):
        linear_schedule.snr(1000)
    with pytest.raises(IndexError):
        linear_schedule.snr(-1)


def test_alpha_bar_at_takes_only_integer_timesteps(linear_schedule):
    assert linear_schedule.alpha_bar_at(np.int64(3)) == linear_schedule.alpha_bar_at(3)
    for t in (0.9, "2"):
        with pytest.raises(TypeError):
            linear_schedule.alpha_bar_at(t)


def test_forward_diffuse_zero_noise_scales_signal(linear_schedule):
    x0 = np.array([1.0, -2.0, 3.0])
    out = linear_schedule.forward_diffuse(x0, 100, np.zeros(3))
    assert np.allclose(out, np.sqrt(linear_schedule.alpha_bars[100]) * x0)


def test_forward_diffuse_full_noise_limit(linear_schedule):
    t = linear_schedule.num_steps - 1
    noise = np.array([0.7, -1.1])
    out = linear_schedule.forward_diffuse(np.array([5.0, 5.0]), t, noise)
    assert np.allclose(out, noise, atol=0.05)


def test_forward_diffuse_marginal_variance(linear_schedule):
    rng = np.random.default_rng(11)
    t = 400
    draws = linear_schedule.forward_diffuse(
        np.full(100_000, 0.8), t, rng.standard_normal(100_000)
    )
    target = 1.0 - linear_schedule.alpha_bars[t]
    se = target * np.sqrt(2.0 / (draws.size - 1))
    assert abs(draws.var(ddof=1) - target) < 3.0 * se


def test_forward_diffuse_shape_mismatch(linear_schedule):
    with pytest.raises(ValueError, match="shape"):
        linear_schedule.forward_diffuse(np.zeros(3), 10, np.zeros(4))


def test_forward_diffuse_rejects_noise_that_would_broadcast(linear_schedule):
    with pytest.raises(ValueError, match=re.escape("noise shape (1, 2) does not match state shape (4, 2)")):
        linear_schedule.forward_diffuse(np.zeros((4, 2)), 10, np.zeros((1, 2)))


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError, match="kind"):
        build_schedule("quadratic")
    with pytest.raises(ValueError, match="num_steps"):
        build_schedule("linear", 1)
    with pytest.raises(ValueError, match="beta"):
        build_schedule("linear", 10, 0.2, 0.1)
    with pytest.raises(ValueError, match="beta"):
        build_schedule("linear", 10, 0.0, 0.1)
    with pytest.raises(ValueError, match="beta"):
        build_schedule("linear", 10, 0.5, 1.0)


def test_identical_inputs_give_bit_identical_schedules():
    a = build_schedule("cosine", 500)
    b = build_schedule("cosine", 500)
    assert a.betas.tobytes() == b.betas.tobytes()
    assert a.alpha_bars.tobytes() == b.alpha_bars.tobytes()


def test_arrays_are_immutable(linear_schedule):
    with pytest.raises(ValueError):
        linear_schedule.betas[0] = 0.5


@pytest.mark.parametrize("view", [True, False], ids=["view-of-a-writeable-base", "owned-array"])
def test_the_schedule_keeps_its_own_copy_of_the_betas(view):
    # A schedule that froze the caller's array would make it read-only, or follow its later writes with its
    # betas while its alpha-bars kept the old values.
    base = np.linspace(1e-4, 0.02, 1000)
    given = base[:] if view else base
    schedule = NoiseSchedule(betas=given)
    betas, alpha_bars = schedule.betas.copy(), schedule.alpha_bars.copy()
    assert given.flags.writeable
    base[:] = 0.5
    assert schedule.betas.tobytes() == betas.tobytes() and schedule.alpha_bars.tobytes() == alpha_bars.tobytes()


def test_direct_construction_validates_consistency():
    # 1 - 1e-17 rounds to 1, so the second alpha-bar ties the first...
    with pytest.raises(ValueError, match="decreasing"):
        NoiseSchedule(betas=np.array([0.1, 1e-17]))
    # ...and a first beta of 1e-17 leaves the first alpha-bar at exactly 1.
    with pytest.raises(ValueError, match="strictly inside"):
        NoiseSchedule(betas=np.array([1e-17, 0.1]))


@pytest.mark.parametrize("betas, message", [
    ([[0.1, 0.2]], "1-D"),
    ([0.1], "at least 2 timesteps"),
    ([0.1, 1.0], "strictly inside"),
    ([0.0, 0.1], "strictly inside"),
], ids=["two-dimensional", "single-step", "beta-one", "beta-zero"])
def test_direct_construction_rejects_bad_betas(betas, message):
    with pytest.raises(ValueError, match=message):
        NoiseSchedule(betas=np.array(betas))


def test_a_nan_beta_is_rejected():
    # Every comparison with NaN is False, so a check written as "any beta out of range" passes it.
    betas = build_schedule().betas.copy()
    betas[500] = np.nan
    with pytest.raises(ValueError, match=re.escape("all betas must lie strictly inside (0, 1)")):
        NoiseSchedule(betas=betas)


@pytest.mark.parametrize("derived", [("alphas",), ("alpha_bars",), ("alphas", "alpha_bars"), ("kind",)])
def test_alpha_bars_come_only_from_betas(derived):
    betas = np.array([0.1, 0.2])
    given = {"alphas": 1.0 - betas, "alpha_bars": np.cumprod(1.0 - betas), "kind": "linear"}
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        NoiseSchedule(betas=betas, **{name: given[name] for name in derived})
