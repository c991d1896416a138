import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewstep.postprocess import (
    CLIP_METHODS,
    batch_clip,
    color_balance,
    exposure_correct,
    quantile_clip,
    smooth_clip,
)

channel_tensors = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 32)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestColorBalance:
    def test_constant_tensor_keeps_a_quarter(self):
        x = np.full((3, 10), 2.0)
        out = color_balance(x)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_full_strength_centers_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=1.7, scale=0.4, size=(3, 50))
        out = color_balance(x, alpha=1.0, beta=1.0)
        assert np.all(np.abs(out.mean(axis=1)) < 1e-12)
        assert abs(out.mean()) < 1e-12

    def test_removes_the_expected_shift_fraction(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(3, 400))
        base -= base.mean(axis=1, keepdims=True)
        alpha, beta = 0.5, 0.5
        for shift in (1.0, 5.0, 10.0):
            out = color_balance(base + shift, alpha=alpha, beta=beta)
            remaining = (1.0 - alpha) * (1.0 - beta) * shift
            assert out.mean() == pytest.approx(remaining, abs=1e-10)

    def test_channel_means_shrink_independently(self):
        x = np.array([[4.0, 4.0], [-2.0, -2.0]])
        out = color_balance(x, alpha=1.0, beta=0.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_zero_strength_is_identity(self):
        x = np.random.default_rng(2).normal(size=(2, 9))
        np.testing.assert_array_equal(color_balance(x, alpha=0.0, beta=0.0), x)

    def test_one_channel_alpha_and_beta_act_as_one_shift(self):
        # With one channel the global mean is the channel mean, so (a, b) removes
        # (a + b - a * b) of it: equal in exact arithmetic, rounded in a different order.
        # The gap is measured in ULPs of the largest entry, since x - shift cancels. Two
        # is not a worst case: near-constant rows with a close to 1 can reach three.
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x = rng.normal(loc=rng.normal(scale=3.0), scale=rng.uniform(0.1, 3.0), size=(1, rng.integers(1, 64)))
            a, b = rng.uniform(0.0, 1.0, 2)
            gap = np.abs(color_balance(x, a, b) - color_balance(x, a + b - a * b, 0.0))
            assert gap.max() <= 2 * np.spacing(np.abs(x).max())
            np.testing.assert_array_equal(color_balance(x, 0.5, 0.5), color_balance(x, 0.75, 0.0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="channels"):
            color_balance(np.zeros(5))
        with pytest.raises(ValueError, match="non-finite"):
            color_balance(np.array([[np.nan, 1.0]]))


class TestSmoothClip:
    def test_fixed_points_and_bounds(self):
        x = np.array([[0.0, 5.0, -5.0]])
        out = smooth_clip(x)
        assert out[0, 0] == 0.0
        assert np.all(np.abs(out) < 1.0)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-4)
        assert out[0, 2] == -out[0, 1]

    def test_linear_regime_is_nearly_identity(self):
        x = np.linspace(-0.1, 0.1, 21)[None, :]
        out = smooth_clip(x)
        nonzero = x != 0.0
        rel = np.abs(out[nonzero] - x[nonzero]) / np.abs(x[nonzero])
        assert rel.max() < 0.004

    def test_monotone(self):
        x = np.sort(np.random.default_rng(3).normal(scale=3.0, size=(1, 100)))
        assert np.all(np.diff(smooth_clip(x)) >= 0.0)


class TestExposureCorrect:
    def test_balancing_first_defuses_saturation(self):
        # A heavily overexposed tensor saturates the plain squash; centering
        # the means first brings most values back into the linear regime.
        rng = np.random.default_rng(4)
        x = rng.normal(loc=4.0, scale=0.5, size=(3, 500))
        naive = np.mean(np.abs(smooth_clip(x)) > 0.99)
        corrected = np.mean(np.abs(exposure_correct(x, alpha=1.0, beta=1.0)) > 0.99)
        assert naive > 0.95
        assert corrected < 0.05

    def test_order_flag_swaps_composition(self):
        x = np.random.default_rng(5).normal(loc=1.0, size=(2, 40))
        first = exposure_correct(x, 0.5, 0.5, balance_first=True)
        np.testing.assert_array_equal(first, smooth_clip(color_balance(x, 0.5, 0.5)))
        after = exposure_correct(x, 0.5, 0.5, balance_first=False)
        np.testing.assert_array_equal(after, color_balance(smooth_clip(x), 0.5, 0.5))
        assert not np.array_equal(first, after)

    def test_squash_after_balancing_reintroduces_mean(self):
        x = np.random.default_rng(6).normal(loc=2.0, size=(3, 300))
        balanced_first = exposure_correct(x, alpha=1.0, beta=1.0, balance_first=True)
        squashed_first = exposure_correct(x, alpha=1.0, beta=1.0, balance_first=False)
        assert abs(squashed_first.mean()) < 1e-12
        assert abs(balanced_first.mean()) < 0.05


class TestQuantileClip:
    def test_in_range_tensor_is_untouched(self):
        x = np.random.default_rng(7).uniform(-0.9, 0.9, size=(2, 50))
        np.testing.assert_array_equal(quantile_clip(x), x)

    def test_uniform_overflow_collapses_to_sign(self):
        x = np.full((1, 20), 11.0)
        x[0, ::2] = -11.0
        out = quantile_clip(x, q=0.995, ceiling=1.0)
        np.testing.assert_array_equal(out, np.sign(x))

    def test_threshold_matches_reference_quantile(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1000))
        x[0, :10] = 50.0
        q = 0.9
        s = np.quantile(np.abs(x), q)
        assert s > 1.0
        expected = np.clip(x, -s, s) / s
        np.testing.assert_allclose(quantile_clip(x, q=q, ceiling=100.0), expected, rtol=1e-12)

    def test_ceiling_caps_the_threshold(self):
        x = np.full((1, 100), 30.0)
        out = quantile_clip(x, q=1.0, ceiling=4.0)
        np.testing.assert_array_equal(out, np.ones_like(x))

    def test_rejects_bad_parameters(self):
        x = np.zeros((1, 4))
        with pytest.raises(ValueError, match="quantile"):
            quantile_clip(x, q=0.0)
        with pytest.raises(ValueError, match="ceiling"):
            quantile_clip(x, ceiling=0.5)

    @settings(max_examples=50, deadline=None)
    @given(x=channel_tensors)
    def test_output_always_within_unit_interval(self, x):
        out = quantile_clip(x)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestBatchClip:
    def test_none_method_disables_clipping(self):
        assert batch_clip("none") is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="clip method"):
            batch_clip("hard")

    @pytest.mark.parametrize("method", ["tanh-balance", "balance-tanh"])
    def test_zero_shift_is_plain_squash(self, method):
        # With nothing to remove, both compositions reduce to tanh, bit for bit.
        clip = batch_clip(method, shift=0.0)
        rng = np.random.default_rng(9)
        for _ in range(300):
            x = rng.normal(scale=rng.uniform(0.1, 10.0), size=tuple(rng.integers(1, 17, size=2)))
            np.testing.assert_array_equal(clip(x), np.tanh(x))

    @pytest.mark.parametrize("method", ["tanh-balance", "quantile"])
    def test_rows_match_single_channel_tensors(self, method):
        # A batch row must transform exactly like the same data presented as
        # a one-channel tensor to the scalar ops: both run the same kernels.
        clip = batch_clip(method, shift=0.72, q=0.9, ceiling=5.0)
        batch = np.random.default_rng(10).normal(scale=2.0, size=(6, 40))
        out = clip(batch)
        for i, row in enumerate(batch):
            tensor = row[None, :]
            if method == "tanh-balance":
                expected = exposure_correct(tensor, alpha=0.72, beta=0.0)
            else:
                expected = quantile_clip(tensor, q=0.9, ceiling=5.0)
            np.testing.assert_array_equal(out[i], expected[0])

    @settings(max_examples=200, deadline=None)
    @given(
        elements=st.integers(1, 32),
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.just(1.0),
        seed=st.integers(0, 2**32 - 1),
        ceiling=st.sampled_from([1e6, 1.0]),
    )
    def test_quantile_threshold_is_numpys_bit_for_bit(self, elements, q, seed, ceiling):
        # Each row's threshold is np.quantile(|row|, q) clamped to [1, ceiling]. At 1e6 the
        # ceiling is out of reach. Uniform rows, 64 per draw: in a few percent of them a
        # one-sided lerp is an ulp off, and the division shows it.
        rows = np.random.default_rng(seed).uniform(-100.0, 100.0, (64, elements))
        out = batch_clip("quantile", q=q, ceiling=ceiling)(rows)
        for row, got in zip(rows, out):
            s = min(max(np.quantile(np.abs(row), q), 1.0), ceiling)
            np.testing.assert_array_equal(got, np.clip(row, -s, s) / s)
        if ceiling == 1.0:
            # The default ceiling fixes the threshold at 1, so q has no effect.
            np.testing.assert_array_equal(out, np.clip(rows, -1.0, 1.0))

    def test_rows_are_independent(self):
        clip = batch_clip("quantile", q=1.0, ceiling=10.0)
        calm = np.full((1, 4), 0.5)
        loud = np.full((1, 4), 8.0)
        together = clip(np.vstack([calm, loud]))
        np.testing.assert_array_equal(together[0], clip(calm)[0])
        np.testing.assert_array_equal(together[1], clip(loud)[0])

    def test_balance_tanh_squashes_before_balancing(self):
        x = np.random.default_rng(11).normal(loc=1.5, size=(3, 30))
        first = batch_clip("tanh-balance")(x)
        after = batch_clip("balance-tanh")(x)
        assert not np.array_equal(first, after)
        row = x[1][None, :]
        np.testing.assert_array_equal(first[1], exposure_correct(row, alpha=0.75, beta=0.0)[0])
        np.testing.assert_array_equal(after[1], exposure_correct(row, alpha=0.75, beta=0.0, balance_first=False)[0])

    def test_quantile_parameter_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            batch_clip("quantile", q=2.0)

    def test_method_list_is_exhaustive(self):
        assert set(CLIP_METHODS) == {"none", "tanh-balance", "balance-tanh", "quantile"}
