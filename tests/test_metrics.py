import itertools
import json
import re

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from fewstep.metrics import (
    _BLOCK_VALUES,
    RunReport,
    _sorted_gap,
    mixture_moments,
    moments_error,
    saturation_fraction,
    sliced_wasserstein,
    wasserstein_1d,
)
from fewstep.mixture import MixtureModel, mixture_preset
from fewstep.seeding import STREAM_PROJECTIONS, stream

# Sizes for the SciPy oracle: single points, a pair, an odd batch and a large one.
ORACLE_SIZES = [1, 2, 513, 10_000]


def tied_samples(seed, shape, scale=1.0, shift=0.0):
    # Rounded to one decimal, so values repeat within each set and across sets.
    return np.round(np.random.default_rng(seed).normal(size=shape) * scale + shift, 1)


class TestMoments:
    def test_single_gaussian(self):
        model = MixtureModel(weights=[1.0], means=[[0.3, -0.2]], variances=[0.05])
        mean, cov = mixture_moments(model)
        np.testing.assert_allclose(mean, [0.3, -0.2])
        np.testing.assert_allclose(cov, 0.05 * np.eye(2), atol=1e-15)

    def test_bimodal_by_hand(self):
        # Mean 0.6 * (-0.6) + 0.4 * 0.6 = -0.12; variance adds the spread of
        # the means around it to the shared component variance.
        model = mixture_preset("bimodal-1d")
        mean, cov = mixture_moments(model)
        assert mean[0] == pytest.approx(-0.12, abs=1e-15)
        spread = 0.6 * (-0.6 + 0.12) ** 2 + 0.4 * (0.6 + 0.12) ** 2
        assert cov[0, 0] == pytest.approx(spread + 0.04, abs=1e-15)

    def test_matches_monte_carlo(self):
        model = mixture_preset("skewed-2d")
        draws = model.sample_ground_truth(400_000, rng_seed=0)
        mean, cov = mixture_moments(model)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.005)
        np.testing.assert_allclose(np.cov(draws, rowvar=False), cov, atol=0.005)

    def test_error_vanishes_for_exact_moments(self):
        model = MixtureModel(weights=[1.0], means=[[0.0]], variances=[1.0])
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((2000, 1))
        samples = (samples - samples.mean()) / samples.std()
        mean_err, cov_err = moments_error(samples, model)
        assert mean_err < 1e-12
        assert cov_err < 1e-12

    def test_error_measures_a_known_shift(self):
        model = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((100_000, 2)) + np.array([0.3, -0.4])
        mean_err, _ = moments_error(samples, model)
        assert mean_err == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("batch", [1, 7, 512, 20_000])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_covariance_is_numpys_byte_for_byte(self, dim, batch):
        # The covariance centres on the mean that np.cov(rowvar=False, bias=True) takes, so both errors are
        # the ones NumPy gives, to the last bit, in either layout and past one sampler row block (16,384 values).
        model = MixtureModel(weights=[0.3, 0.7], means=[np.full(dim, -0.4), np.linspace(0.1, 0.9, dim)],
                             variances=[0.2, 0.05])
        mean, cov = mixture_moments(model)
        for seed, order in itertools.product(range(4), "CF"):
            samples = np.array(np.random.default_rng(seed).normal(loc=0.3, scale=1.7, size=(batch, dim)), order=order)
            empirical = np.cov(samples, rowvar=False, bias=True).reshape(cov.shape)
            assert moments_error(samples, model) == (
                float(np.linalg.norm(np.mean(samples, axis=0) - mean)), float(np.linalg.norm(empirical - cov))
            )

    def test_rejects_empty_and_flat_input(self):
        model = mixture_preset("bimodal-1d")
        with pytest.raises(ValueError, match="batch"):
            moments_error(np.zeros((0, 1)), model)
        with pytest.raises(ValueError, match="batch"):
            moments_error(np.zeros(5), model)

    @pytest.mark.parametrize("preset, dim", [("grid-2d", 1), ("bimodal-1d", 2), ("grid-2d", 3)])
    def test_rejects_samples_of_another_dimension(self, preset, dim):
        # One column against a 2-D mixture, or two against a 1-D one, would broadcast into a wrong error.
        model = mixture_preset(preset)
        with pytest.raises(ValueError, match=rf"\(batch, {model.dim}\) array, got shape \(6, {dim}\)"):
            moments_error(np.zeros((6, dim)), model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        samples = np.zeros((3, 2))
        samples[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            moments_error(samples, mixture_preset("grid-2d"))


class TestWasserstein1D:
    def test_identical_samples_have_zero_distance(self):
        a = np.random.default_rng(3).normal(size=500)
        assert wasserstein_1d(a, a) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([0.0], [2.5]) == pytest.approx(2.5, abs=1e-15)

    def test_shifted_unit_gaussians(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(100_000)
        b = rng.standard_normal(100_000) + 1.0
        assert wasserstein_1d(a, b) == pytest.approx(1.0, abs=0.02)

    def test_translation_invariance_of_the_gap(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=1000)
        b = rng.normal(size=1000) * 1.5
        base = wasserstein_1d(a, b)
        shifted = wasserstein_1d(a + 10.0, b + 10.0)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            wasserstein_1d([], [1.0])

    def test_rejects_two_empty_sets(self):
        # Equal in size, yet there is no distance between no samples.
        with pytest.raises(ValueError, match="non-empty and of equal size, got 0 and 0"):
            wasserstein_1d([], [])

    @pytest.mark.parametrize("size", ORACLE_SIZES)
    def test_matches_scipy(self, size):
        a = tied_samples(size, size)
        b = tied_samples(size + 1, size, scale=1.5, shift=0.2)
        np.testing.assert_allclose(wasserstein_1d(a, b), wasserstein_distance(a, b), rtol=1e-12, atol=0)

    def test_rejects_unequal_sizes(self):
        # A single point would otherwise broadcast against the whole other set.
        with pytest.raises(ValueError, match="equal size"):
            wasserstein_1d([0.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="equal size"):
            wasserstein_1d(np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize("a, b", [
        (np.zeros((4, 2)), np.ones((4, 2))),
        (np.zeros((4, 2)), np.ones((8, 1))),
        (np.zeros((4, 1)), np.ones(4)),
        (np.zeros(4), np.ones((4, 1))),
    ])
    def test_rejects_sets_that_are_not_1d(self, a, b):
        # Flattening would pool a batch's coordinates, and compare sets of different shapes.
        with pytest.raises(ValueError, match=re.escape(f"1-D sample sets, got shapes {a.shape} and {b.shape}")):
            wasserstein_1d(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wasserstein_1d(np.zeros(4), [bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            wasserstein_1d([0.0, 0.0, bad, 0.0], np.zeros(4))


class TestSlicedWasserstein:
    def test_identical_samples_have_zero_distance(self):
        a = np.random.default_rng(6).normal(size=(400, 3))
        assert sliced_wasserstein(a, a) == 0.0

    def test_unit_shift_matches_projected_expectation(self):
        # For a unit shift c in 3 dimensions the sliced distance estimates
        # E|<c, u>| over uniform unit directions, which is 1/2.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50_000, 3))
        b = rng.standard_normal((50_000, 3)) + np.array([1.0, 0.0, 0.0])
        got = sliced_wasserstein(a, b, directions=64, rng_seed=0)
        assert got == pytest.approx(0.5, abs=0.1)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(300, 2)) + 0.5
        assert sliced_wasserstein(a, b, rng_seed=3) == sliced_wasserstein(a, b, rng_seed=3)
        assert sliced_wasserstein(a, b, rng_seed=3) != sliced_wasserstein(a, b, rng_seed=4)

    def test_more_directions_reduce_estimator_noise(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20_000, 2))
        b = rng.standard_normal((20_000, 2)) + np.array([0.6, -0.3])
        shift = np.hypot(0.6, 0.3)
        dense = sliced_wasserstein(a, b, directions=512, rng_seed=0)
        # E|<c, u>| in 2 dimensions is |c| * 2 / pi.
        assert dense == pytest.approx(shift * 2.0 / np.pi, abs=0.02)

    def test_rejects_scalar_dimension_and_few_directions(self):
        a = np.zeros((10, 1))
        with pytest.raises(ValueError, match="dim >= 2"):
            sliced_wasserstein(a, a)
        b = np.zeros((10, 2))
        with pytest.raises(ValueError, match="directions"):
            sliced_wasserstein(b, b, directions=4)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="equal dim"):
            sliced_wasserstein(np.zeros((5, 2)), np.zeros((5, 3)))

    @pytest.mark.parametrize("size", ORACLE_SIZES)
    def test_each_projection_matches_scipy(self, size):
        a = tied_samples(size, (size, 2))
        b = tied_samples(size + 1, (size, 2), scale=0.8, shift=0.3)
        proj = stream(5, STREAM_PROJECTIONS).standard_normal((32, 2))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        pa, pb = proj @ a.T, proj @ b.T
        expected = [wasserstein_distance(u, v) for u, v in zip(pa, pb)]
        np.testing.assert_allclose(_sorted_gap(pa, pb), expected, rtol=1e-12, atol=0)
        got = sliced_wasserstein(a, b, directions=32, rng_seed=5)
        np.testing.assert_allclose(got, np.mean(expected), rtol=1e-12, atol=0)

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError, match="equal size"):
            sliced_wasserstein(np.zeros((1, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="equal size"):
            sliced_wasserstein(np.zeros((6, 2)), np.zeros((5, 2)))

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0)])
    def test_rejects_empty_sets(self, sizes):
        # An empty first set once sized the direction blocks by dividing by zero.
        with pytest.raises(ValueError, match=f"non-empty and of equal size, got {sizes[0]} and {sizes[1]}"):
            sliced_wasserstein(np.zeros((sizes[0], 2)), np.zeros((sizes[1], 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        poisoned = np.zeros((5, 2))
        poisoned[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sliced_wasserstein(np.zeros((5, 2)), poisoned)
        with pytest.raises(ValueError, match="finite"):
            sliced_wasserstein(poisoned, np.zeros((5, 2)))

    # Past 2,048 rows the 32 default directions no longer fit one block, 33
    # leaves a remainder, and from 32,769 rows a block holds one direction.
    # The BLAS kernel a product goes to follows its shape (gemv for one row,
    # and AVX2 gemm rounds small blocks unlike one large product), so the
    # answer equals a per-block reference bit for bit and one product only
    # within a relative 1e-14.
    @pytest.mark.parametrize(
        "batch, dim",
        [(2047, 2), (2048, 2), (2049, 2), (10_000, 2), (40_000, 8), (65_537, 2), (65_537, 3), (65_537, 8)],
    )
    @pytest.mark.parametrize("directions", [32, 33])
    def test_blocks_do_not_change_the_answer(self, batch, dim, directions):
        rng = np.random.default_rng(batch + dim)
        a = rng.normal(size=(batch, dim))
        b = rng.normal(size=(batch, dim)) * 1.3 + 0.2
        proj = stream(7, STREAM_PROJECTIONS).standard_normal((directions, dim))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        step = max(1, _BLOCK_VALUES // batch)
        blocked = np.concatenate([
            np.abs(np.sort(p @ a.T) - np.sort(p @ b.T)).mean(-1)
            for p in np.split(proj, range(step, directions, step))
        ]).mean()
        whole = np.abs(np.sort(proj @ a.T) - np.sort(proj @ b.T)).mean(-1).mean()
        result = sliced_wasserstein(a, b, directions, rng_seed=7)
        assert result == blocked
        assert result == pytest.approx(whole, rel=1e-14, abs=0)


def test_distances_leave_their_inputs_unchanged():
    rng = np.random.default_rng(12)
    final = rng.normal(size=(3000, 2))
    truth = rng.normal(size=(3000, 2)) + 0.5
    flat = rng.normal(size=(2, 700))
    # A contiguous 1-D set, whose ravel() is a view; a strided column; whole batches.
    for distance, a, b in [
        (wasserstein_1d, flat[0], flat[1]),
        (wasserstein_1d, final[:, 0], truth[:, 0]),
        (sliced_wasserstein, final, truth),
    ]:
        before = [x.tobytes() for x in (final, truth, flat)]
        distance(a, b)
        assert [x.tobytes() for x in (final, truth, flat)] == before


class TestSaturation:
    def test_counts_magnitudes_above_threshold(self):
        x = np.array([0.0, 0.5, -0.995, 1.2, 0.99])
        assert saturation_fraction(x) == pytest.approx(0.4)

    def test_threshold_is_exclusive(self):
        assert saturation_fraction(np.array([0.99, -0.99])) == 0.0

    @pytest.mark.parametrize("shape", [(1,), (3,), (7, 2), (512, 5), (65_537, 1)])
    def test_is_the_mean_of_the_saturated_mask(self, shape):
        x = np.random.default_rng(shape[0]).uniform(-1.02, 1.02, size=shape)
        got = saturation_fraction(x)
        assert type(got) is float and got == float(np.mean(np.abs(x) > 0.99))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            saturation_fraction(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            saturation_fraction(np.array([0.5, bad]))


class TestRunReport:
    @staticmethod
    def make_report(**overrides):
        fields = dict(
            config_echo={"variant": "plain", "steps": 8},
            mean_error=0.01,
            cov_error=0.02,
            wasserstein1=0.005,
            saturation_fraction=0.0,
            wall_time=0.37,
        )
        fields.update(overrides)
        return RunReport(**fields)

    def test_json_roundtrip_with_sorted_keys(self):
        report = self.make_report()
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["config_echo"]["variant"] == "plain"
        assert parsed["wasserstein1"] == 0.005

    def test_rejects_negative_or_non_finite_metrics(self):
        with pytest.raises(ValueError, match="finite"):
            self.make_report(mean_error=-0.1)
        with pytest.raises(ValueError, match="finite"):
            self.make_report(wasserstein1=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            self.make_report(cov_error=float("inf"))

    def test_serialization_is_stable(self):
        a = self.make_report().to_json()
        b = self.make_report().to_json()
        assert a == b
