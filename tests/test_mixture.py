import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from fewstep.cli import run_experiment
from fewstep.config import ExperimentConfig, load_json_object
from fewstep.mixture import MIXTURE_PRESETS, MixtureModel, mixture_from_config, mixture_preset
from fewstep.schedules import build_schedule

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bimodal():
    return mixture_preset("bimodal-1d")


@pytest.fixture(scope="module")
def skewed():
    return mixture_preset("skewed-2d")


def finite_difference_score(model, schedule, x, t, h=1e-6):
    # Central differences of the diffused log-density, one coordinate at a time.
    diffused = model.diffused_params(schedule, t)
    out = np.empty_like(x)
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += h
        lo[j] -= h
        out[j] = (diffused.log_density(hi) - diffused.log_density(lo)) / (2.0 * h)
    return out


class TestConstruction:
    def test_presets_are_normalized(self):
        for name in MIXTURE_PRESETS:
            model = mixture_preset(name)
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(model.variances > 0.0)
            assert model.means.shape == (model.num_components, model.dim)

    def test_preset_shapes(self, bimodal, skewed):
        assert (bimodal.num_components, bimodal.dim) == (2, 1)
        assert (skewed.num_components, skewed.dim) == (3, 2)
        grid = mixture_preset("grid-2d")
        assert (grid.num_components, grid.dim) == (4, 2)
        assert np.all(np.abs(grid.means) == 0.5)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            mixture_preset("trimodal")

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureModel(weights=[0.6, 0.5], means=[[0.0], [1.0]], variances=[1.0, 1.0])

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError, match="variance"):
            MixtureModel(weights=[1.0], means=[[0.0]], variances=[0.0])

    @pytest.mark.parametrize("field, value", [
        ("weights", [np.nan, 1.0]),
        ("weights", [np.inf, 0.5]),
        ("means", [[np.nan], [1.0]]),
        ("means", [[0.0], [-np.inf]]),
        ("variances", [1.0, np.inf]),
        ("variances", [np.nan, 1.0]),
    ], ids=["nan-weight", "inf-weight", "nan-mean", "inf-mean", "inf-variance", "nan-variance"])
    def test_rejects_non_finite_parameters(self, field, value):
        # A NaN weight would pass the range and sum checks, which compare false.
        params = {"weights": [0.5, 0.5], "means": [[0.0], [1.0]], "variances": [1.0, 1.0], field: value}
        with pytest.raises(ValueError, match="finite"):
            MixtureModel(**params)

    @pytest.mark.parametrize("params, message", [
        ({"weights": [[1.0]]}, "1-D"),
        ({"means": [[[0.0]]]}, "2-D"),
        ({"weights": [1.5, -0.5], "means": [[0.0], [1.0]], "variances": [1.0, 1.0]}, r"\(0, 1\]"),
    ], ids=["2d-weights", "3d-means", "weight-above-one"])
    def test_rejects_malformed_parameters(self, params, message):
        # The pair sums to 1, so only the range check can reject the 1.5 weight.
        with pytest.raises(ValueError, match=message):
            MixtureModel(**{"weights": [1.0], "means": [[0.0]], "variances": [1.0], **params})

    def test_rejects_ragged_component_counts(self):
        with pytest.raises(ValueError, match="per component"):
            MixtureModel(weights=[0.5, 0.5], means=[[0.0]], variances=[1.0, 1.0])

    def test_component_restriction(self, bimodal):
        cond = bimodal.component(1)
        assert cond.num_components == 1
        assert cond.weights.tolist() == [1.0]
        assert cond.means.tolist() == [[0.6]]
        with pytest.raises(ValueError, match="label"):
            bimodal.component(2)

    def test_component_takes_only_integer_labels(self, bimodal):
        assert bimodal.component(np.int64(1)) is bimodal.component(1)
        for label in (0.9, "2"):
            with pytest.raises(TypeError):
                bimodal.component(label)

    def test_arrays_are_immutable(self, bimodal):
        with pytest.raises(ValueError):
            bimodal.means[0, 0] = 0.0


class TestDiffusion:
    def test_diffused_arithmetic(self):
        # At alpha_bar 0.64 a variance of 0.25 becomes 0.64 * 0.25 + 0.36.
        model = MixtureModel(weights=[1.0], means=[[1.0]], variances=[0.25])
        schedule = build_schedule("linear", 2, 0.2, 0.2)
        assert schedule.alpha_bar_at(1) == pytest.approx(0.64, abs=1e-15)
        diffused = model.diffused_params(schedule, 1)
        assert diffused.means[0, 0] == pytest.approx(0.8, abs=1e-12)
        assert diffused.variances[0] == pytest.approx(0.52, abs=1e-12)

    def test_weights_unchanged_by_diffusion(self, skewed, linear_schedule):
        diffused = skewed.diffused_params(linear_schedule, 700)
        assert np.array_equal(diffused.weights, skewed.weights)

    def test_deep_noise_approaches_standard_normal(self, bimodal, linear_schedule):
        diffused = bimodal.diffused_params(linear_schedule, 999)
        assert np.all(np.abs(diffused.means) < 0.01)
        assert np.allclose(diffused.variances, 1.0, atol=1e-4)


class TestDensityAndScore:
    def test_log_density_matches_scipy_mixture(self, bimodal, linear_schedule):
        # The far-tail points put every component's exp(log-density) below the
        # smallest double, so only a max-shifted log-sum-exp stays finite there.
        xs = np.concatenate([np.linspace(-2.0, 2.0, 9), [-60.0, -40.0, 40.0, 60.0]])[:, None]
        got = bimodal.log_density(xs)
        parts = [
            np.log(w) + norm.logpdf(xs[:, 0], loc=m[0], scale=np.sqrt(v))
            for w, m, v in zip(bimodal.weights, bimodal.means, bimodal.variances)
        ]
        expected = np.logaddexp(*parts)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        # Squared distances that overflow leave every component at -inf.
        with np.errstate(over="ignore", divide="ignore"):
            assert bimodal.log_density(np.array([1e200])) == -np.inf

    def test_single_gaussian_score_closed_form(self, linear_schedule):
        model = MixtureModel(weights=[1.0], means=[[0.3, -0.2]], variances=[0.05])
        t = 400
        ab = linear_schedule.alpha_bar_at(t)
        x = np.array([0.7, 0.1])
        expected = -(x - np.sqrt(ab) * model.means[0]) / (ab * 0.05 + 1.0 - ab)
        np.testing.assert_allclose(model.score(linear_schedule, x, t), expected, rtol=1e-12)
        # It is exactly the pull (mu' - x) / var', finite where the squared
        # distance overflows.
        mean, var = np.sqrt(ab) * model.means[0], ab * model.variances[0] + (1.0 - ab)
        xs = np.array([x, [-1.5, 2.0], [1e200, -1e200]])
        got = model.score(linear_schedule, xs, t)
        assert np.array_equal(got, (mean - xs) / var)
        assert np.all(np.isfinite(got))

    def test_symmetric_mixture_score_vanishes_at_center(self, linear_schedule):
        model = MixtureModel(weights=[0.5, 0.5], means=[[-0.6], [0.6]], variances=[0.04, 0.04])
        score = model.score(linear_schedule, np.array([0.0]), 300)
        assert abs(score[0]) < 1e-14

    @pytest.mark.parametrize("t", [0, 250, 700, 999])
    def test_score_matches_finite_differences(self, skewed, linear_schedule, t):
        rng = np.random.default_rng(5)
        for x in rng.normal(scale=0.8, size=(6, 2)):
            got = skewed.score(linear_schedule, x, t)
            expected = finite_difference_score(skewed, linear_schedule, x, t)
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-7)

    def test_batch_and_single_row_agree(self, skewed, linear_schedule):
        xs = np.array([[0.1, -0.4], [0.9, 0.3]])
        batch = skewed.score(linear_schedule, xs, 200)
        singles = np.stack([skewed.score(linear_schedule, row, 200) for row in xs])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_rejects_wrong_dimension(self, skewed, linear_schedule):
        with pytest.raises(ValueError, match="dimension|shape"):
            skewed.score(linear_schedule, np.zeros(3), 100)

    def test_rejects_a_short_vector_that_would_broadcast(self, skewed, linear_schedule):
        with pytest.raises(ValueError, match=re.escape("expected vectors of dimension 2, got shape (1,)")):
            skewed.score(linear_schedule, np.zeros(1), 100)

    def test_rejects_three_dimensional_input(self, skewed, linear_schedule):
        with pytest.raises(ValueError, match=r"expected shape \(batch, 2\)"):
            skewed.score(linear_schedule, np.zeros((1, 1, 2)), 100)

    def test_rejects_non_finite_input(self, skewed, linear_schedule):
        with pytest.raises(ValueError, match="finite"):
            skewed.score(linear_schedule, np.array([np.nan, 0.0]), 100)

    @pytest.mark.parametrize("entry", ["log_density", "conditioned"])
    def test_every_entry_point_rejects_non_finite_input(self, skewed, linear_schedule, entry):
        call = {
            "log_density": skewed.log_density,
            "conditioned": lambda x: skewed.component(0).epsilon_prediction(linear_schedule, x, 100),
        }[entry]
        for x in (np.array([np.nan, 0.0]), np.array([[0.0, 0.0], [0.0, -np.inf]])):
            with pytest.raises(ValueError, match="finite"):
                call(x)


class TestEpsilonPrediction:
    def test_matches_scaled_score(self, bimodal, linear_schedule):
        x = np.array([0.25])
        t = 600
        ab = linear_schedule.alpha_bar_at(t)
        expected = -np.sqrt(1.0 - ab) * bimodal.score(linear_schedule, x, t)
        np.testing.assert_allclose(
            bimodal.epsilon_prediction(linear_schedule, x, t), expected, rtol=1e-14
        )

    def test_pure_noise_limit_returns_input(self, bimodal, linear_schedule):
        # At the deepest timestep the diffused mixture is nearly standard
        # normal, so the ideal noise prediction is nearly the input itself.
        xs = np.linspace(-2.0, 2.0, 9)[:, None]
        eps = bimodal.epsilon_prediction(linear_schedule, xs, 999)
        np.testing.assert_allclose(eps, xs, atol=0.02)

    def test_conditioning_restricts_to_component(self, bimodal, skewed, linear_schedule):
        x = np.array([0.5])
        t = 300
        near = bimodal.component(0).epsilon_prediction(linear_schedule, x, t)
        far = bimodal.component(1).epsilon_prediction(linear_schedule, x, t)
        assert not np.allclose(near, far)
        # A label's prediction is its one Gaussian's: -sqrt(1 - ab) * (sqrt(ab) * mu_k - x) / (ab * var_k + 1 - ab).
        xs = np.random.default_rng(6).normal(size=(32, 2))
        for label in range(skewed.num_components):
            mu, var = skewed.means[label], skewed.variances[label]
            for t in (0, 350, 999):
                ab = linear_schedule.alpha_bar_at(t)
                expected = -np.sqrt(1.0 - ab) * (np.sqrt(ab) * mu - xs) / (ab * var + 1.0 - ab)
                got = skewed.component(label).epsilon_prediction(linear_schedule, xs, t)
                np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("label", [None, 0])
    def test_a_prediction_keeps_its_input_layout(self, skewed, linear_schedule, label):
        # The sampler hands the oracle column-major rows; C-ordered callers get C-ordered predictions.
        model = skewed if label is None else skewed.component(label)
        x = np.random.default_rng(3).normal(size=(64, 2))
        for t in (0, 350, 999):
            c, f = (model.epsilon_prediction(linear_schedule, order(x), t)
                    for order in (np.ascontiguousarray, np.asfortranarray))
            assert c.flags.c_contiguous and np.isfortran(f)
            assert c.tobytes() == f.tobytes()

    def test_builds_no_model_per_call(self, monkeypatch):
        # The first guided run on a preset builds it, its reference component and its negative
        # label's component, however many noise predictions its sampler asks for; a later run
        # shares all three and builds nothing.
        mixture_preset.cache_clear()
        built = []
        post_init = MixtureModel.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MixtureModel, "__post_init__", counting_post_init)
        counts = {}
        for steps in (4, 8):
            built.clear()
            run_experiment(ExperimentConfig(
                mixture="skewed-2d", cfg_mode="negative_prompt", condition=0,
                negative_condition=1, steps=steps, batch=16,
            ))
            counts[steps] = len(built)
        assert (counts[4], counts[8]) == (3, 0)

    def test_shared_presets_and_components_are_safe_to_share(self):
        assert mixture_preset("skewed-2d") is mixture_preset("skewed-2d")
        model = mixture_preset("skewed-2d")
        assert model.component(1) is model.component(1)
        for shared in (model, model.component(1)):
            for arr in (shared.weights, shared.means, shared.variances):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        a = ExperimentConfig(mixture="skewed-2d", cfg_mode="negative_prompt", condition=0, negative_condition=1,
                             variant="gamma_i", clip_method="tanh-balance", steps=6, batch=64, seed=5)
        b = ExperimentConfig(mixture="skewed-2d", cfg_mode="interpolate", condition=2, clip_method="quantile",
                             variant="gamma", steps=4, batch=32, seed=5)

        def report_bytes(cfg):
            report, trajectory = run_experiment(cfg)
            report.wall_time = 0.0
            return report.to_json(), trajectory.final.tobytes()

        fresh = {}
        for cfg in (b, a):
            mixture_preset.cache_clear()
            fresh[cfg] = report_bytes(cfg)
        # A ran last on a fresh preset; B, then A again, share its instance and its components.
        assert [report_bytes(cfg) for cfg in (b, a)] == [fresh[b], fresh[a]]

    def test_recovers_forward_noise_single_gaussian(self, linear_schedule):
        # For a one-component model with tiny variance, diffusing a sample of
        # the mean and asking for the noise prediction returns nearly the
        # injected noise.
        model = MixtureModel(weights=[1.0], means=[[0.4]], variances=[1e-10])
        rng = np.random.default_rng(11)
        noise = rng.standard_normal((64, 1))
        t = 500
        x_t = linear_schedule.forward_diffuse(np.full((64, 1), 0.4), t, noise)
        eps = model.epsilon_prediction(linear_schedule, x_t, t)
        np.testing.assert_allclose(eps, noise, atol=1e-6)


class TestSampling:
    def test_deterministic_per_seed(self, skewed):
        a = skewed.sample_ground_truth(100, rng_seed=[7, 2])
        b = skewed.sample_ground_truth(100, rng_seed=[7, 2])
        c = skewed.sample_ground_truth(100, rng_seed=[8, 2])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments_converge(self, bimodal):
        draws = bimodal.sample_ground_truth(200_000, rng_seed=0)
        mean = bimodal.weights @ bimodal.means
        second = bimodal.weights @ (bimodal.means[:, 0] ** 2 + bimodal.variances)
        var = second - mean[0] ** 2
        assert draws.mean() == pytest.approx(mean[0], abs=4.0 * np.sqrt(var / 200_000))
        assert draws.var() == pytest.approx(var, rel=0.02)

    def test_component_fractions_match_weights(self, bimodal):
        draws = bimodal.sample_ground_truth(100_000, rng_seed=1)
        right = float(np.mean(draws[:, 0] > 0.0))
        assert right == pytest.approx(0.4, abs=0.01)

    @pytest.mark.parametrize("count", [1, 7, 512])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("preset", ["bimodal-1d", "grid-2d", "skewed-2d", "one component"])
    def test_draws_are_generator_choices(self, preset, seed, count):
        # The labels are Generator.choice's draw with p=weights, which a one-component model skips
        # without labels: the same samples, and the same next draw of the stream.
        if preset == "one component":
            model = MixtureModel(weights=[1.0], means=[[0.3, -0.2]], variances=[0.05])
        else:
            model = mixture_preset(preset)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        labels = reference.choice(model.num_components, size=count, p=model.weights)
        noise = reference.standard_normal((count, model.dim))
        want = model.means[labels] + np.sqrt(model.variances[labels])[:, None] * noise
        assert model.sample_ground_truth(count, rng).tobytes() == want.tobytes()
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("seed", range(4))
    def test_a_draw_on_a_cumulative_weight_takes_the_next_component(self, seed):
        # Weights (u, 1 - u), u the stream's first uniform: the first label's draw lands exactly on the
        # cumulative weight u, where Generator.choice picks component 1.
        u = np.random.default_rng(seed).random()
        model = MixtureModel(weights=[u, 1.0 - u], means=[[-5.0], [5.0]], variances=[1e-4, 1e-4])
        labels = np.random.default_rng(seed).choice(2, size=3, p=model.weights)
        assert labels[0] == 1
        assert (model.sample_ground_truth(3, rng_seed=seed)[:, 0] > 0.0).tolist() == (labels == 1).tolist()

    def test_rejects_empty_request(self, bimodal):
        with pytest.raises(ValueError, match="count"):
            bimodal.sample_ground_truth(0, rng_seed=0)


class TestConfig:
    def test_from_mapping(self):
        model = mixture_from_config(
            {
                "components": [
                    {"weight": 0.7, "mean": [0.0, 1.0], "variance": 0.1},
                    {"weight": 0.3, "mean": [1.0, -1.0], "variance": 0.2},
                ]
            }
        )
        assert model.num_components == 2
        assert model.dim == 2
        assert model.weights.tolist() == [0.7, 0.3]

    def test_from_file_roundtrip(self, tmp_path, skewed):
        payload = {
            "components": [
                {"weight": float(w), "mean": list(map(float, m)), "variance": float(v)}
                for w, m, v in zip(skewed.weights, skewed.means, skewed.variances)
            ]
        }
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(payload))
        model = mixture_from_config(load_json_object(path, "mixture file"))
        np.testing.assert_array_equal(model.means, skewed.means)
        np.testing.assert_array_equal(model.weights, skewed.weights)

    def test_scalar_means_promote_to_one_dimension(self):
        model = mixture_from_config(
            {"components": [{"weight": 1.0, "mean": 0.5, "variance": 0.3}]}
        )
        assert model.dim == 1

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(ValueError, match="at least one"):
            mixture_from_config({"components": []})
        with pytest.raises(ValueError, match="malformed"):
            mixture_from_config({"components": [{"weight": 1.0}]})
        with pytest.raises(ValueError, match="at least one dimension"):
            mixture_from_config({"components": [{"weight": 1.0, "mean": [], "variance": 1.0}]})
        with pytest.raises(ValueError, match="JSON object"):
            mixture_from_config([1, 2])

    @pytest.mark.parametrize("source, unknown", [
        ({"components": [{"weight": 1.0, "mean": [0.0], "variance": 1.0}], "extra": 1}, ["extra"]),
        ({"components": [{"weight": 1.0, "mean": [0.0], "variance": 1.0, "bogus": 3}]}, ["bogus"]),
        ({"components": [{"weight": 1.0, "mean": [0.0], "variance": 1.0, "b": 0, "a": 0}], "z": 0}, ["z", "a", "b"]),
    ], ids=["top-level", "component", "both"])
    def test_rejects_unknown_keys(self, source, unknown):
        with pytest.raises(ValueError, match=f"^unknown mixture keys: {re.escape(str(unknown))}$"):
            mixture_from_config(source)

    def test_an_empty_component_list_names_the_components(self):
        with pytest.raises(ValueError, match="^mixture config must list at least one component$"):
            mixture_from_config({"components": []})


def reference_oracle(model, ab, x):
    # Per component and per row in Python floats, with an explicit max-shifted
    # log-sum-exp: log-density and score of the mixture diffused to alpha-bar
    # ``ab``, plus each row's largest |log-density| term and the
    # responsibility-weighted |pull| per coordinate, which bound the rounding error.
    log_p, score, size, pull_size = [], [], [], []
    for row in x.tolist():
        lls, pulls, terms = [], [], []
        for w, mean, var in zip(model.weights, model.means.tolist(), model.variances):
            mean = [math.sqrt(ab) * m for m in mean]
            var = ab * var + (1.0 - ab)
            sq = sum((m - v) ** 2 for m, v in zip(mean, row))
            parts = (math.log(w), 0.5 * len(row) * math.log(2.0 * math.pi * var), 0.5 * sq / var)
            lls.append(parts[0] - parts[1] - parts[2])
            terms.append(sum(abs(p) for p in parts))
            pulls.append([(m - v) / var for m, v in zip(mean, row)])
        peak = max(lls)
        total = sum(math.exp(ll - peak) for ll in lls)
        r = [math.exp(ll - peak) / total for ll in lls]
        log_p.append(peak + math.log(total))
        score.append([sum(rk * p[j] for rk, p in zip(r, pulls)) for j in range(len(row))])
        size.append(max(terms))
        pull_size.append([sum(rk * abs(p[j]) for rk, p in zip(r, pulls)) for j in range(len(row))])
    return tuple(map(np.array, (log_p, score, size, pull_size)))


@settings(max_examples=150, deadline=None)
@given(
    components=st.integers(1, 5),
    dim=st.integers(1, 4),
    batch=st.integers(1, 64),
    t=st.integers(0, 999),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_matches_a_per_component_loop(linear_schedule, components, dim, batch, t, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, components)
    model = MixtureModel(
        weights=raw / raw.sum(),
        means=rng.uniform(-2.0, 2.0, (components, dim)),
        variances=rng.uniform(1e-3, 2.0, components),
    )
    ab = linear_schedule.alpha_bar_at(t)
    # Half the rows lie 10^3 diffused standard deviations beyond every mean,
    # where every component's unshifted exp(log-density) underflows to 0.
    x = rng.normal(scale=2.0, size=(batch, dim))
    far = rng.normal(size=(batch // 2, dim))
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    sigma = np.sqrt(ab * model.variances.max() + 1.0 - ab)
    x[: batch // 2] = far * (np.sqrt(ab) * np.abs(model.means).sum(axis=1).max() + 1e3 * sigma)
    log_p, score, size, pull_size = reference_oracle(model, ab, x)
    # rtol 1e-12 of the magnitudes summed: rounding moves a log-density by about
    # eps * size, and the score by that times the responsibility-weighted |pull|.
    size = np.maximum(size, 1.0)[:, None]
    assert np.all(np.abs(model._score(ab, x) - score) <= 1e-12 * size * pull_size)
    diffused = model.diffused_params(linear_schedule, t)
    assert np.all(np.abs(diffused.log_density(x) - log_p) <= 1e-12 * size[:, 0])


@pytest.mark.parametrize("source", [1, 3, 8, "family-8d"])
def test_a_row_alone_gets_the_bytes_of_its_batch_row(linear_schedule, source):
    # NumPy sums a one-row batch's einsums in another order than a longer batch's, which moved the last bits of
    # a lone row's prediction at d = 1 and d >= 3. A row as a (1, d) batch or a (d,) vector must not differ.
    differ = []
    for probe, t in enumerate((0, 150, 350, 500, 750, 999)):
        rng = np.random.default_rng(probe)
        if source == "family-8d":
            model = mixture_from_config(json.loads((ROOT / "tools" / "family-8d.json").read_text()))
        else:
            model = MixtureModel(weights=np.full(3, 1 / 3), means=rng.uniform(-1.0, 1.0, (3, source)),
                                 variances=rng.uniform(0.01, 0.5, 3))
        x = model.means.mean(axis=0) + rng.normal(scale=0.8, size=(37, model.dim))
        predictions = {"epsilon_prediction": lambda x: model.epsilon_prediction(linear_schedule, x, t),
                       "score": lambda x: model.score(linear_schedule, x, t),
                       "log_density": model.diffused_params(linear_schedule, t).log_density}
        for name, predict in predictions.items():
            batch = predict(x)
            differ += [(name, t, i) for i in range(len(x))
                       if predict(x[i:i + 1]).tobytes() != batch[i:i + 1].tobytes()
                       or np.asarray(predict(x[i])).tobytes() != batch[i].tobytes()]
    assert differ == []
