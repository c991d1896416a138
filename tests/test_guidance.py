import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewstep.guidance import (
    GUIDANCE_MODES,
    GuidanceConfig,
    compounding_scale,
    guide_interpolate,
    guide_negative,
)

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def test_interpolate_hand_example():
    out = guide_interpolate(np.array([2.0]), np.array([1.0]), omega=3.0)
    assert out.tolist() == [5.0]


def test_interpolate_zero_scale_returns_conditional():
    cond = np.array([[0.3, -0.7], [1.2, 0.0]])
    uncond = np.array([[9.0, 9.0], [9.0, 9.0]])
    assert np.array_equal(guide_interpolate(cond, uncond, 0.0), cond)


def test_negative_hand_example():
    out = guide_negative(np.array([2.0]), np.array([1.0]), omega=3.0)
    assert out.tolist() == [4.0]


def test_negative_unit_scale_returns_conditional():
    cond = np.array([0.5, -0.25])
    neg = np.array([2.0, 2.0])
    assert np.allclose(guide_negative(cond, neg, 1.0), cond, rtol=0.0, atol=1e-15)


def test_negative_zero_scale_returns_negative_prediction():
    cond = np.array([0.5, -0.25])
    neg = np.array([2.0, -3.0])
    assert np.array_equal(guide_negative(cond, neg, 0.0), neg)


def test_equal_predictions_are_a_fixed_point():
    eps = np.linspace(-1.0, 1.0, 7)
    for omega in (0.0, 1.0, 7.5, 30.0):
        assert np.allclose(guide_interpolate(eps, eps, omega), eps, atol=1e-12)
        assert np.allclose(guide_negative(eps, eps, omega), eps, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    cond=finite_arrays,
    omega=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_modes_agree_at_shifted_scale(cond, omega):
    # Guiding away from a reference at scale omega + 1 is the same affine
    # combination as extrapolating past it at scale omega.
    rng = np.random.default_rng(0)
    other = rng.normal(size=cond.shape)
    a = guide_interpolate(cond, other, omega)
    b = guide_negative(cond, other, omega + 1.0)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shapes"):
        guide_interpolate(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="shapes"):
        guide_negative(np.zeros((2, 2)), np.zeros(4), 1.0)


def test_rejects_shapes_that_would_broadcast():
    with pytest.raises(ValueError, match=re.escape("prediction shapes differ: (4, 2) vs (1, 2)")):
        guide_negative(np.zeros((4, 2)), np.zeros((1, 2)), 1.0)


def test_negative_rejects_negative_scale():
    with pytest.raises(ValueError, match="omega"):
        guide_negative(np.zeros(2), np.zeros(2), -0.5)


def test_interpolate_rejects_negative_scale():
    with pytest.raises(ValueError, match="omega"):
        guide_interpolate(np.array([1.0]), np.array([0.0]), -1.0)


class TestCompounding:
    def test_scales_multiply(self):
        result = compounding_scale(7.5, 2.0)
        assert result.scale == 15.0
        assert result.alpha == pytest.approx(6.5 / 15.0, abs=1e-15)

    def test_zero_product_has_no_mixing_coefficient(self):
        assert compounding_scale(0.0, 2.0) == (0.0, None)
        assert compounding_scale(2.0, 0.0) == (0.0, None)

    def test_unit_omega_gives_zero_alpha(self):
        result = compounding_scale(1.0, 3.0)
        assert result.scale == 3.0
        assert result.alpha == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            compounding_scale(-1.0, 2.0)
        with pytest.raises(ValueError):
            compounding_scale(2.0, -1.0)


class TestGuidanceConfig:
    def test_defaults(self):
        config = GuidanceConfig()
        assert config.omega == 7.5
        assert config.mode == "none"
        assert config.distill_omega is None

    @pytest.mark.parametrize("mode", GUIDANCE_MODES)
    def test_accepts_known_modes(self, mode):
        assert GuidanceConfig(mode=mode).mode == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            GuidanceConfig(mode="clip")

    def test_rejects_negative_scales(self):
        with pytest.raises(ValueError, match="omega"):
            GuidanceConfig(omega=-1.0)
        with pytest.raises(ValueError, match="distill_omega"):
            GuidanceConfig(distill_omega=-2.0)
