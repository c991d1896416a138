import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewstep.postprocess import CLIP_METHODS, batch_clip

row_batches = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 32)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


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

    def test_squash_fixed_points_and_bounds(self):
        out = batch_clip("tanh-balance", shift=0.0)(np.array([[0.0, 5.0, -5.0]]))
        assert out[0, 0] == 0.0
        assert np.all(np.abs(out) < 1.0)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-4)
        assert out[0, 2] == -out[0, 1]

    def test_squash_linear_regime_is_nearly_identity(self):
        x = np.linspace(-0.1, 0.1, 21)[None, :]
        out = batch_clip("tanh-balance", shift=0.0)(x)
        nonzero = x != 0.0
        rel = np.abs(out[nonzero] - x[nonzero]) / np.abs(x[nonzero])
        assert rel.max() < 0.004

    def test_squash_is_monotone(self):
        x = np.sort(np.random.default_rng(3).normal(scale=3.0, size=(1, 100)))
        assert np.all(np.diff(batch_clip("tanh-balance", shift=0.0)(x)) >= 0.0)

    @pytest.mark.parametrize("shift", [0.0, 0.5, 0.75, 1.0])
    def test_constant_row_keeps_one_minus_shift_of_its_mean(self, shift):
        x = np.full((3, 10), 2.0)
        np.testing.assert_allclose(batch_clip("tanh-balance", shift=shift)(x), np.tanh((1.0 - shift) * 2.0), atol=1e-12)
        np.testing.assert_allclose(batch_clip("balance-tanh", shift=shift)(x), (1.0 - shift) * np.tanh(2.0), atol=1e-12)

    @pytest.mark.parametrize("shift", [0.25, 0.75, 1.0])
    def test_balance_removes_the_shift_fraction_of_each_row_mean(self, shift):
        # balance-tanh balances last, so each output row mean is (1 - shift) of the squashed row's mean.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 400)) + np.array([[1.0], [5.0], [-10.0]])
        out = batch_clip("balance-tanh", shift=shift)(x)
        np.testing.assert_allclose(out.mean(axis=1), (1.0 - shift) * np.tanh(x).mean(axis=1), rtol=0, atol=1e-12)

    def test_full_shift_centres_each_row_exactly(self):
        x = np.random.default_rng(0).normal(loc=1.7, scale=0.4, size=(3, 50))
        assert np.all(np.abs(batch_clip("balance-tanh", shift=1.0)(x).mean(axis=1)) < 1e-12)

    def test_balancing_first_defuses_saturation(self):
        # A heavily overexposed row saturates the plain squash; centring its mean first brings
        # most values back into the linear regime.
        x = np.random.default_rng(4).normal(loc=4.0, scale=0.5, size=(3, 500))
        naive = np.mean(np.abs(np.tanh(x)) > 0.99)
        corrected = np.mean(np.abs(batch_clip("tanh-balance", shift=1.0)(x)) > 0.99)
        assert naive > 0.95
        assert corrected < 0.05

    def test_squashing_first_leaves_a_zero_row_mean(self):
        x = np.random.default_rng(6).normal(loc=2.0, size=(3, 300))
        balanced_first = batch_clip("tanh-balance", shift=1.0)(x)
        squashed_first = batch_clip("balance-tanh", shift=1.0)(x)
        assert np.all(np.abs(squashed_first.mean(axis=1)) < 1e-12)
        assert np.all(np.abs(balanced_first.mean(axis=1)) < 0.05)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("shift", [0.72, 1.0, -0.3])
    def test_exposure_clips_match_a_per_row_reference(self, dim, shift):
        # Bit for bit against one np.dot per row. At dim >= 3 and batch >= 7, a plain 2-D x @ w or
        # np.einsum rounds some row means differently, so this pins the product order.
        w = np.full(dim, 1.0 / dim)
        x = np.random.default_rng(dim).normal(loc=1.5, scale=2.0, size=(64, dim))
        first = batch_clip("tanh-balance", shift=shift)(x)
        after = batch_clip("balance-tanh", shift=shift)(x)
        for row, got_first, got_after in zip(x, first, after):
            np.testing.assert_array_equal(got_first, np.tanh(row - shift * np.dot(row, w)))
            squashed = np.tanh(row)
            np.testing.assert_array_equal(got_after, squashed - shift * np.dot(squashed, w))
        if dim > 1:
            assert not np.array_equal(first, after)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in a row mean
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 40])
    def test_exposure_clips_keep_the_stacked_product_on_edge_rows(self, dim, order):
        # The stacked product over C rows sums each mean from +0.0, one BLAS dot per row. Whatever
        # path a layout or a dimension takes, ±0.0, subnormal, ±1e308 and ±inf rows keep its values
        # and sign bits, NaNs included.
        edge = [0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, 1.5e-308, 1e308, -1e308, np.inf, -np.inf, 1.5]
        rng = np.random.default_rng(dim)
        rows = [np.full(dim, v) for v in edge] + [rng.choice(edge, size=dim) for _ in range(300)]
        x = np.array(rows, order=order)
        c = np.ascontiguousarray(x)
        w = np.full(dim, 1.0 / dim)
        for shift in (0.75, 1.0, -0.3):
            squashed = np.tanh(c)
            want = {"tanh-balance": np.tanh(c - shift * (c[:, None, :] @ w)),
                    "balance-tanh": squashed - shift * (squashed[:, None, :] @ w)}
            for method, expected in want.items():
                got = batch_clip(method, shift=shift)(x)
                assert np.ascontiguousarray(got).tobytes() == expected.tobytes(), (method, shift)

    def test_in_range_row_is_untouched(self):
        x = np.random.default_rng(7).uniform(-0.9, 0.9, size=(2, 50))
        np.testing.assert_array_equal(batch_clip("quantile")(x), x)

    def test_uniform_overflow_collapses_to_sign(self):
        x = np.full((1, 20), 11.0)
        x[0, ::2] = -11.0
        np.testing.assert_array_equal(batch_clip("quantile", q=0.995, ceiling=1.0)(x), np.sign(x))

    def test_threshold_matches_reference_quantile(self):
        x = np.random.default_rng(8).normal(size=(1, 1000))
        x[0, :10] = 50.0
        s = np.quantile(np.abs(x), 0.9)
        assert s > 1.0
        expected = np.clip(x, -s, s) / s
        np.testing.assert_allclose(batch_clip("quantile", q=0.9, ceiling=100.0)(x), expected, rtol=1e-12)

    def test_ceiling_caps_the_threshold(self):
        x = np.full((1, 100), 30.0)
        np.testing.assert_array_equal(batch_clip("quantile", q=1.0, ceiling=4.0)(x), np.ones_like(x))

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

    @settings(max_examples=50, deadline=None)
    @given(x=row_batches, ceiling=st.sampled_from([1.0, 5.0, 1e6]))
    def test_quantile_output_always_within_unit_interval(self, x, ceiling):
        out = batch_clip("quantile", q=0.9, ceiling=ceiling)(x)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_rows_are_independent(self):
        clip = batch_clip("quantile", q=1.0, ceiling=10.0)
        calm = np.full((1, 4), 0.5)
        loud = np.full((1, 4), 8.0)
        together = clip(np.vstack([calm, loud]))
        np.testing.assert_array_equal(together[0], clip(calm)[0])
        np.testing.assert_array_equal(together[1], clip(loud)[0])

    def test_quantile_parameter_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            batch_clip("quantile", q=2.0)
        with pytest.raises(ValueError, match="quantile"):
            batch_clip("quantile", q=0.0)
        with pytest.raises(ValueError, match="ceiling"):
            batch_clip("quantile", ceiling=0.5)

    def test_method_list_is_exhaustive(self):
        assert set(CLIP_METHODS) == {"none", "tanh-balance", "balance-tanh", "quantile"}
