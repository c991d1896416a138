"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
when run with ``pytest -v``. Monte-Carlo thresholds are calibrated in-test
from ground-truth oracles, never tuned to the sampler output.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fewstep.cli import main, run_experiment
from fewstep.config import ExperimentConfig
from fewstep.guidance import compounding_scale, guide_interpolate, guide_negative
from fewstep.importance import compute_importance
from fewstep.metrics import saturation_fraction, wasserstein_1d
from fewstep.mixture import MixtureModel, mixture_preset
from fewstep.postprocess import batch_clip
from fewstep.sampling import SamplerConfig, run_sampler
from fewstep.schedules import SCHEDULE_KINDS, build_schedule
from fewstep.seeding import STREAM_INITIAL_NOISE, stream
from fewstep.timesteps import adaptive_schedule, equidistant_schedule


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_importance_normalization():
    with criterion(1, "importance curve normalized on every schedule kind"):
        start = time.perf_counter()
        for kind in SCHEDULE_KINDS:
            curve = compute_importance(build_schedule(kind, 1000, 1e-4, 0.02))
            assert curve.values.max() == 1.0
            assert np.all(curve.values >= 0.0)
            assert np.all(curve.values <= 1.0)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_degeneration_identities(linear_schedule, default_curve):
    with criterion(2, "threshold-1 and zero-gamma degenerations are exact"):
        for n in (2, 4, 8, 16):
            merged = adaptive_schedule(linear_schedule, default_curve, n, theta=1.0)
            uniform = equidistant_schedule(linear_schedule, n)
            assert np.array_equal(merged.steps, uniform.steps)
            assert merged.provenance == uniform.provenance

        model = mixture_preset("bimodal-1d")
        eps_model = lambda x, t: model.epsilon_prediction(linear_schedule, x, t)
        timesteps = equidistant_schedule(linear_schedule, 8)
        initial = stream(0, STREAM_INITIAL_NOISE).standard_normal((256, 1))
        plain = run_sampler(
            SamplerConfig(variant="plain"), linear_schedule, timesteps, eps_model, initial
        )
        degenerate = run_sampler(
            SamplerConfig(variant="gamma_i", gamma=0.0),
            linear_schedule, timesteps, eps_model, initial,
        )
        assert plain.final.tobytes() == degenerate.final.tobytes()
        assert len(plain.states) == len(degenerate.states)
        for (ta, sa), (tb, sb) in zip(plain.states, degenerate.states):
            assert ta == tb
            assert sa.tobytes() == sb.tobytes()


def test_criterion_3_analytic_score_oracle(linear_schedule):
    with criterion(3, "analytic scores match finite differences of log-density"):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        h = 1e-6
        triples = 0
        for _ in range(150):
            k = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 4))
            model = MixtureModel(
                weights=rng.dirichlet(np.ones(k)),
                means=rng.uniform(-1.0, 1.0, size=(k, dim)),
                variances=rng.uniform(0.01, 0.5, size=k),
            )
            for _ in range(7):
                t = int(rng.integers(0, 1000))
                ab = linear_schedule.alpha_bar_at(t)
                pick = int(rng.integers(0, k))
                clean = model.means[pick] + np.sqrt(model.variances[pick]) * rng.standard_normal(dim)
                x = np.sqrt(ab) * clean + np.sqrt(1.0 - ab) * rng.standard_normal(dim)
                diffused = model.diffused_params(linear_schedule, t)
                fd = np.empty(dim)
                for j in range(dim):
                    hi, lo = x.copy(), x.copy()
                    hi[j] += h
                    lo[j] -= h
                    fd[j] = (diffused.log_density(hi) - diffused.log_density(lo)) / (2.0 * h)
                np.testing.assert_allclose(
                    model.score(linear_schedule, x, t), fd, rtol=1e-5, atol=1e-7
                )
                triples += 1
        assert triples >= 1000
        assert time.perf_counter() - start < 10.0


def test_criterion_4_noisify_preserves_marginal_variance(linear_schedule):
    from fewstep.sampling import noisify

    with criterion(4, "forward/noisify compositions keep the marginal variance"):
        rng = np.random.default_rng(20260814)
        count = 100_000
        for _ in range(10):
            t_from = int(rng.integers(0, 998))
            t_to = int(rng.integers(t_from + 1, 1000))
            x_mid = linear_schedule.forward_diffuse(
                np.full((count, 1), 0.37), t_from, rng.standard_normal((count, 1))
            )
            x_to = noisify(
                linear_schedule, x_mid, t_from, t_to, rng.standard_normal((count, 1))
            )
            target = 1.0 - linear_schedule.alpha_bar_at(t_to)
            standard_error = target * np.sqrt(2.0 / (count - 1))
            assert abs(x_to.var() - target) < 3.0 * standard_error, (t_from, t_to)


def test_criterion_5_solver_convergence():
    with criterion(5, "64-step plain sampler reaches the sampling-noise floor"):
        start = time.perf_counter()
        model = mixture_preset("bimodal-1d")
        batch = 10_000
        # Calibration oracle: spread of the distance between two independent
        # ground-truth draws of the same size.
        draws = [
            wasserstein_1d(
                model.sample_ground_truth(batch, [5000 + i, 2])[:, 0],
                model.sample_ground_truth(batch, [6000 + i, 2])[:, 0],
            )
            for i in range(20)
        ]
        threshold = float(np.mean(draws) + 5.0 * np.std(draws))
        report, _ = run_experiment(
            ExperimentConfig(
                steps=64, theta=1.0, variant="plain", mixture="bimodal-1d",
                batch=batch, seed=0,
            )
        )
        print(f"  w1 {report.wasserstein1:.5f} vs calibrated threshold {threshold:.5f}")
        assert report.wasserstein1 < threshold
        assert time.perf_counter() - start < 30.0


def test_criterion_6_few_step_improvement_direction():
    with criterion(6, "adaptive gamma-I pipeline beats the uniform plain baseline"):
        arms = {
            "equidistant+plain": dict(theta=1.0, variant="plain", clip_method="none"),
            "adaptive+gamma_i+tanh": dict(
                theta=0.7, variant="gamma_i", clip_method="tanh-balance",
                clip_timing="every-step",
            ),
        }
        shared = dict(
            mixture="skewed-2d", cfg_mode="negative_prompt", condition=0,
            negative_condition=1, cfg_scale=7.5, batch=512,
        )
        medians = {}
        for label, arm in arms.items():
            for n in (2, 4, 8):
                distances = [
                    run_experiment(
                        ExperimentConfig(steps=n, seed=seed, **shared, **arm)
                    )[0].wasserstein1
                    for seed in range(10)
                ]
                medians[label, n] = float(np.median(distances))
        print("  median sliced-W1 over 10 seeds")
        print(f"  {'n':>3} {'equidistant+plain':>20} {'adaptive+gamma_i+tanh':>22}")
        for n in (2, 4, 8):
            print(
                f"  {n:>3} {medians['equidistant+plain', n]:>20.4f} "
                f"{medians['adaptive+gamma_i+tanh', n]:>22.4f}"
            )
        for n in (2, 4, 8):
            assert medians["adaptive+gamma_i+tanh", n] <= medians["equidistant+plain", n]


def test_criterion_7_exposure_mitigation_ordering(linear_schedule):
    with criterion(7, "smooth exposure correction beats quantile and raw output"):
        # Two well-separated components; guiding away from the second at
        # omega 7.5 tilts the effective target far outside the data range,
        # the synthetic analogue of an overexposed render.
        dim = 8
        family = MixtureModel(
            weights=[0.5, 0.5],
            means=[[0.5] * dim, [0.2] * dim],
            variances=[0.01, 0.01],
        )

        def guided(x, t):
            cond = family.epsilon_prediction(linear_schedule, x, t, condition=0)
            neg = family.epsilon_prediction(linear_schedule, x, t, condition=1)
            return guide_negative(cond, neg, 7.5)

        timesteps = equidistant_schedule(linear_schedule, 8)
        clips = {
            "none": None,
            "quantile": batch_clip("quantile", q=0.995, ceiling=1.0),
            "tanh-balance": batch_clip("tanh-balance"),
        }
        for seed in range(10):
            initial = stream(seed, STREAM_INITIAL_NOISE).standard_normal((512, dim))
            fractions = {}
            for label, clip in clips.items():
                config = SamplerConfig(variant="gamma", gamma=0.2, rng_seed=seed, clip=clip)
                out = run_sampler(config, linear_schedule, timesteps, guided, initial)
                fractions[label] = saturation_fraction(out.final)
                if label == "none":
                    shift = np.linalg.norm(out.final.mean(axis=0) - family.means[0])
                    assert shift >= 2.0, f"family precondition broke at seed {seed}"
            assert fractions["tanh-balance"] < fractions["quantile"] < fractions["none"], (
                seed, fractions,
            )


def test_criterion_8_guidance_algebra():
    with criterion(8, "guidance modes agree under scale shift, compounding is exact"):
        rng = np.random.default_rng(8)
        for _ in range(200):
            cond = rng.normal(size=rng.integers(1, 9))
            uncond = rng.normal(size=cond.shape)
            omega = float(rng.uniform(0.0, 30.0))
            np.testing.assert_allclose(
                guide_interpolate(cond, uncond, omega),
                guide_negative(cond, uncond, omega + 1.0),
                atol=1e-12,
            )
        result = compounding_scale(7.5, 2.0)
        assert result.scale == 15.0
        assert result.alpha == 6.5 / 15.0


def test_criterion_9_report_determinism(tmp_path):
    with criterion(9, "identical config and seed give byte-identical reports"):
        config = tmp_path / "config.json"
        config.write_text(
            ExperimentConfig(steps=8, variant="gamma_i", batch=256, seed=7).to_json()
        )
        outputs = []
        for run in range(2):
            out = tmp_path / f"report-{run}.json"
            assert main(["sample", "--config", str(config), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            payload.pop("wall_time")
            outputs.append(json.dumps(payload, sort_keys=True).encode())
        assert outputs[0] == outputs[1]
