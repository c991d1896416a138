import numpy as np
import pytest

from fewstep.importance import ImportanceCurve, compute_importance, schedule_fingerprint
from fewstep.schedules import SCHEDULE_KINDS, NoiseSchedule, build_schedule


def reference_importance(alpha_bars, epsilon=1e-8):
    # Hand-rolled recomputation: explicit differences instead of np.gradient.
    logsnr = np.log(alpha_bars / (1.0 - alpha_bars) + epsilon)
    grad = np.empty_like(logsnr)
    grad[0] = logsnr[1] - logsnr[0]
    grad[-1] = logsnr[-1] - logsnr[-2]
    grad[1:-1] = (logsnr[2:] - logsnr[:-2]) / 2.0
    inverse = 1.0 / np.maximum(np.abs(grad), epsilon)
    return inverse / inverse.max()


def schedule_from_alpha_bars(alpha_bars):
    alpha_bars = np.asarray(alpha_bars, dtype=np.float64)
    alphas = np.empty_like(alpha_bars)
    alphas[0] = alpha_bars[0]
    alphas[1:] = alpha_bars[1:] / alpha_bars[:-1]
    return NoiseSchedule(betas=1.0 - alphas)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_normalization_for_every_kind(kind):
    curve = compute_importance(build_schedule(kind, 1000, 1e-4, 0.02))
    assert curve.values.max() == 1.0
    assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
    assert np.count_nonzero(curve.values == 1.0) == 1


def test_matches_reference_recomputation(linear_schedule, default_curve):
    expected = reference_importance(linear_schedule.alpha_bars)
    assert np.allclose(default_curve.values, expected, rtol=1e-12, atol=0.0)


def test_default_schedule_peaks_mid_trajectory(default_curve):
    peak = int(np.argmax(default_curve.values))
    assert 0 < peak < 999
    assert 200 < peak < 800


def test_two_segment_slope_inversion():
    # log-SNR falls with slope s on the first half and 4s on the second, so
    # importance should be about 4x higher on the first half.
    T, s = 100, 0.05
    t = np.arange(T)
    logsnr = 4.0 - s * np.minimum(t, T // 2) - 4.0 * s * np.maximum(t - T // 2, 0)
    snr = np.exp(logsnr)
    curve = compute_importance(schedule_from_alpha_bars(snr / (1.0 + snr)))
    first = curve.values[10 : T // 2 - 5]
    second = curve.values[T // 2 + 5 : -10]
    ratio = np.median(first) / np.median(second)
    assert ratio == pytest.approx(4.0, rel=1e-3)
    assert np.all(first > second.max())


def test_tiny_gradient_capped_not_singular():
    # The central difference at index 3 is about 1e-12, far below the 1e-8
    # floor, so its inverse is capped instead of exploding.
    logsnr = np.array([4.0, 3.0, 2.0 + 1e-12, 2.0, 2.0 - 1e-12, 1.0, 0.0])
    snr = np.exp(logsnr)
    curve = compute_importance(schedule_from_alpha_bars(snr / (1.0 + snr)))
    assert np.all(np.isfinite(curve.values))
    assert curve.values[3] == 1.0
    assert curve.values[2] < 1e-7 and curve.values[4] < 1e-7


def test_rejects_short_schedules():
    with pytest.raises(ValueError, match="3"):
        compute_importance(build_schedule("linear", 2, 0.1, 0.2))


@pytest.mark.parametrize("values, message", [
    ([1.0, 0.5], "length >= 3"),
    ([[1.0, 0.5, 0.2]], "length >= 3"),
    ([1.0, 0.5, -0.1], r"lie in \[0, 1\]"),
    ([0.9, 0.5, 0.2], "maximum of exactly 1"),
    ([np.nan, 1.0, 0.5], r"lie in \[0, 1\]"),
    ([1.0, np.nan, 0.5], r"lie in \[0, 1\]"),
], ids=["short", "two-dimensional", "negative", "peak-below-one", "nan", "nan-after-the-peak"])
def test_curve_constructor_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        ImportanceCurve(values=values, source_schedule_id="0" * 16)


@pytest.mark.parametrize("view", [True, False], ids=["view-of-a-writeable-base", "owned-array"])
def test_the_curve_keeps_its_own_copy_of_its_values(view):
    base = np.array([0.25, 1.0, 0.5])
    given = base[:] if view else base
    curve = ImportanceCurve(values=given, source_schedule_id=b"")
    assert given.flags.writeable
    base[:] = 0.0
    assert curve.values.tolist() == [0.25, 1.0, 0.5]


def test_fingerprint_pairs_curve_with_schedule(linear_schedule, default_curve):
    assert default_curve.source_schedule_id == schedule_fingerprint(linear_schedule)
    # The curve depends only on the betas, so equal betas give equal fingerprints.
    same_betas = NoiseSchedule(betas=linear_schedule.betas.copy())
    assert schedule_fingerprint(same_betas) == schedule_fingerprint(linear_schedule)
    other = build_schedule("linear", 1000, 1e-4, 0.021)
    assert schedule_fingerprint(other) != default_curve.source_schedule_id
