import re
import tracemalloc

import numpy as np
import pytest

from fewstep import sampling
from fewstep.guidance import guide_interpolate, guide_negative
from fewstep.importance import ImportanceCurve, schedule_fingerprint
from fewstep.mixture import MixtureModel, mixture_preset
from fewstep.postprocess import batch_clip
from fewstep.sampling import (
    CLIP_TIMING,
    SAMPLER_VARIANTS,
    NumericalError,
    SamplerConfig,
    denoise_step,
    noisify,
    run_sampler,
)
from fewstep.schedules import build_schedule
from fewstep.seeding import STREAM_RENOISE, stream
from fewstep.timesteps import (
    EQUIDISTANT,
    IMPORTANCE,
    TimestepSchedule,
    adaptive_schedule,
    equidistant_schedule,
)


def make_eps_model(mixture, schedule):
    return lambda x, t: mixture.epsilon_prediction(schedule, x, t)


@pytest.fixture(scope="module")
def tight_gaussian():
    return MixtureModel(weights=[1.0], means=[[0.35]], variances=[0.0025])


class TestDenoiseStep:
    def test_recovers_clean_state_from_exact_noise(self, linear_schedule):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1.0, 1.0, size=(16, 3))
        eps = rng.standard_normal((16, 3))
        for t in (1, 400, 999):
            x_t = linear_schedule.forward_diffuse(x0, t, eps)
            out = denoise_step(lambda x, _t: eps, linear_schedule, x_t, t, None)
            np.testing.assert_allclose(out, x0, atol=1e-10)

    def test_exact_noise_telescopes_through_midpoints(self, linear_schedule):
        # With the true noise the two-hop path lands exactly where the
        # one-hop path does.
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1.0, 1.0, size=(4, 2))
        eps = rng.standard_normal((4, 2))
        model = lambda x, t: eps
        x_t = linear_schedule.forward_diffuse(x0, 800, eps)
        via = denoise_step(model, linear_schedule, x_t, 800, 300)
        np.testing.assert_allclose(
            via, linear_schedule.forward_diffuse(x0, 300, eps), atol=1e-12
        )
        np.testing.assert_allclose(
            denoise_step(model, linear_schedule, via, 300, None), x0, atol=1e-10
        )

    def test_rejects_equal_timesteps_without_model_call(self, linear_schedule):
        def exploding_model(x, t):
            raise AssertionError("model must not be called")

        with pytest.raises(ValueError, match="denoise must move down in time, got 500 -> 500"):
            denoise_step(exploding_model, linear_schedule, np.array([[0.1, 0.2]]), 500, 500)

    def test_rejects_upward_step(self, linear_schedule):
        with pytest.raises(ValueError, match="down"):
            denoise_step(lambda x, t: x, linear_schedule, np.zeros((1, 1)), 100, 200)

    def test_rejects_out_of_range_timesteps(self, linear_schedule):
        with pytest.raises(IndexError):
            denoise_step(lambda x, t: x, linear_schedule, np.zeros((1, 1)), 1000, None)

    def test_rejects_an_out_of_range_target_without_model_call(self, linear_schedule):
        def exploding_model(x, t):
            raise AssertionError("model must not be called")

        with pytest.raises(IndexError, match="timestep 1000 outside"):
            denoise_step(exploding_model, linear_schedule, np.zeros((1, 1)), 500, 1000)

    def test_rejects_wrong_prediction_shape(self, linear_schedule):
        with pytest.raises(ValueError, match="shape"):
            denoise_step(
                lambda x, t: np.zeros(3), linear_schedule, np.zeros((1, 2)), 500, None
            )

    def test_rejects_a_prediction_that_would_broadcast(self, linear_schedule):
        with pytest.raises(ValueError, match=re.escape("eps model returned shape (1, 2) for state shape (4, 2)")):
            denoise_step(lambda x, t: np.zeros((1, 2)), linear_schedule, np.zeros((4, 2)), 500, None)

    def test_non_finite_prediction_raises(self, linear_schedule):
        with pytest.raises(NumericalError, match="non-finite"):
            denoise_step(
                lambda x, t: np.full_like(x, np.nan), linear_schedule,
                np.zeros((1, 2)), 500, None,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t_to", [None, 200])
    @pytest.mark.parametrize("method", ["none", "tanh-balance", "balance-tanh", "quantile"])
    def test_clip_cannot_hide_an_overflowing_estimate(self, linear_schedule, method, t_to):
        # x0_hat overflows to +inf; tanh then balancing would turn each row into 0.25. Without
        # a clip, the check on the state it returns fires.
        x = np.full((2, 3), 1e308)
        what = "state after the step from" if method == "none" else "clean-state estimate at"
        with pytest.raises(NumericalError, match=f"non-finite {what} timestep 500"):
            denoise_step(lambda x, t: np.full_like(x, -1e308), linear_schedule, x, 500, t_to, batch_clip(method))


class TestNoisify:
    def test_rejects_equal_timesteps(self, linear_schedule):
        with pytest.raises(ValueError, match="noisify must move up in time, got 300 -> 300"):
            noisify(linear_schedule, np.array([[0.4]]), 300, 300, np.array([[99.0]]))

    def test_rejects_downward_move(self, linear_schedule):
        with pytest.raises(ValueError, match="up"):
            noisify(linear_schedule, np.zeros((1, 1)), 300, 200, np.zeros((1, 1)))

    def test_rejects_mismatched_noise(self, linear_schedule):
        with pytest.raises(ValueError, match="shape"):
            noisify(linear_schedule, np.zeros((1, 2)), 100, 200, np.zeros((1, 3)))

    def test_rejects_noise_that_would_broadcast(self, linear_schedule):
        with pytest.raises(ValueError, match=re.escape("noise shape (1, 2) does not match state shape (4, 2)")):
            noisify(linear_schedule, np.zeros((4, 2)), 100, 200, np.zeros((1, 2)))

    @pytest.mark.parametrize("t_from, t_to, bad", [(100, 1000, 1000), (-1, 5, -1)])
    def test_rejects_out_of_range_timesteps(self, linear_schedule, t_from, t_to, bad):
        with pytest.raises(IndexError, match=f"timestep {bad} outside"):
            noisify(linear_schedule, np.zeros((1, 1)), t_from, t_to, np.zeros((1, 1)))

    def test_preserves_forward_marginals(self, linear_schedule):
        # Diffusing to t1 and re-noising to t2 must match diffusing straight
        # to t2 in mean and variance.
        rng = np.random.default_rng(4)
        count, x0 = 200_000, 0.4
        t1, t2 = 200, 700
        x_t1 = linear_schedule.forward_diffuse(
            np.full((count, 1), x0), t1, rng.standard_normal((count, 1))
        )
        x_t2 = noisify(linear_schedule, x_t1, t1, t2, rng.standard_normal((count, 1)))
        ab2 = linear_schedule.alpha_bar_at(t2)
        assert x_t2.mean() == pytest.approx(np.sqrt(ab2) * x0, abs=4.0 / np.sqrt(count))
        assert x_t2.var() == pytest.approx(1.0 - ab2, rel=0.02)


@pytest.mark.parametrize("kind", ["linear", "scaled_linear", "cosine"])
def test_scalar_coefficients_match_numpy_square_roots_bitwise(kind):
    # The steps take sqrt(ab) and sqrt(1 - ab) of Python floats with math.sqrt; at every timestep
    # the results equal the np.sqrt expressions they replaced, byte for byte.
    schedule = build_schedule(kind)
    rng = np.random.default_rng(12)
    x, eps = rng.standard_normal((2, 64, 3))
    alpha_bars = [schedule.alpha_bar_at(t) for t in range(schedule.num_steps)]
    for t, ab in enumerate(alpha_bars):
        diffused = np.sqrt(ab) * x + np.sqrt(1.0 - ab) * eps
        assert schedule.forward_diffuse(x, t, eps).tobytes() == diffused.tobytes()
        x0_hat = (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        assert denoise_step(lambda _x, _t: eps, schedule, x, t, None).tobytes() == x0_hat.tobytes()
        if t == 0:
            continue
        ab_to = alpha_bars[t - 1]
        stepped = np.sqrt(ab_to) * x0_hat + np.sqrt(1.0 - ab_to) * eps
        assert denoise_step(lambda _x, _t: eps, schedule, x, t, t - 1).tobytes() == stepped.tobytes()
        ratio = ab / ab_to
        noised = np.sqrt(ratio) * x + np.sqrt(1.0 - ratio) * eps
        assert noisify(schedule, x, t - 1, t, eps).tobytes() == noised.tobytes()


class TestLoopIsTheDocumentedSteps:
    """``run_sampler`` is a loop of ``denoise_step`` and ``noisify``, and nothing else."""

    @staticmethod
    def reference_loop(config, schedule, timesteps, eps_model, initial):
        rng = stream(config.rng_seed, STREAM_RENOISE)
        step_clip = config.clip if config.clip_timing == "every-step" else None
        steps = [int(t) for t in timesteps.steps]
        x, visits = initial, [(steps[0], initial)]
        for slot in range(1, timesteps.n):
            anchor = steps[slot]
            if config.variant == "plain":
                target = anchor
            elif config.variant == "gamma_i" and timesteps.provenance[slot] == IMPORTANCE:
                target = round(timesteps.curve.values[anchor] * anchor)
            else:
                target = round((1.0 - config.gamma) * anchor)
            x = denoise_step(eps_model, schedule, x, steps[slot - 1], target, step_clip)
            if target != anchor:
                visits.append((target, x))
                x = noisify(schedule, x, target, anchor, rng.standard_normal(x.shape))
            visits.append((anchor, x))
        return visits, denoise_step(eps_model, schedule, x, steps[-1], None, config.clip)

    @pytest.mark.parametrize("clip_timing", ["every-step", "final-only"])
    @pytest.mark.parametrize("clip_method", ["none", "tanh-balance", "quantile"])
    @pytest.mark.parametrize("variant", ["plain", "gamma", "gamma_i"])
    def test_run_sampler_matches_the_hand_written_loop(
        self, linear_schedule, default_curve, variant, clip_method, clip_timing
    ):
        # Guided skewed-2d pushes x0-hat past the clip range, so every clip acts.
        mixture = mixture_preset("skewed-2d")

        def eps_model(x, t):
            cond = mixture.component(0).epsilon_prediction(linear_schedule, x, t)
            return guide_negative(cond, mixture.component(1).epsilon_prediction(linear_schedule, x, t), 7.5)

        timesteps = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        assert IMPORTANCE in timesteps.provenance
        config = SamplerConfig(
            variant=variant, clip=batch_clip(clip_method), clip_timing=clip_timing, rng_seed=3
        )
        initial = np.random.default_rng(11).standard_normal((64, 2))
        out = run_sampler(config, linear_schedule, timesteps, eps_model, initial)
        visits, final = self.reference_loop(config, linear_schedule, timesteps, eps_model, initial)
        assert [t for t, _ in out.states] == [t for t, _ in visits]
        for (_, got), (_, want) in zip(out.states, visits):
            assert got.tobytes() == want.tobytes()
        assert out.final.tobytes() == final.tobytes()


def guided_or_full_model(dim, schedule):
    """A guided conditioned pair on skewed-2d at dim 2; an unguided full five-component mixture otherwise."""
    if dim == 2:
        mixture = mixture_preset("skewed-2d")
        return lambda x, t: guide_negative(mixture.component(0).epsilon_prediction(schedule, x, t),
                                           mixture.component(1).epsilon_prediction(schedule, x, t), 7.5)
    rng = np.random.default_rng(dim)
    mixture = MixtureModel(weights=np.full(5, 0.2), means=rng.uniform(-1.0, 1.0, (5, dim)),
                           variances=rng.uniform(0.01, 0.05, 5))
    return lambda x, t: mixture.epsilon_prediction(schedule, x, t)


class TestLayout:
    """The loop runs on column-major ``(batch, dim)`` rows; what it hands back is C-ordered and its own."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("clip_timing", CLIP_TIMING)
    @pytest.mark.parametrize("variant", SAMPLER_VARIANTS)
    def test_c_and_f_ordered_initial_give_the_same_bytes(self, linear_schedule, default_curve, variant, clip_timing,
                                                         dim):
        timesteps = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        config = SamplerConfig(variant=variant, clip=batch_clip("tanh-balance"), clip_timing=clip_timing, rng_seed=3)
        initial = np.random.default_rng(11).standard_normal((64, dim))
        eps_model = guided_or_full_model(dim, linear_schedule)
        c, f = (run_sampler(config, linear_schedule, timesteps, eps_model, order(initial))
                for order in (np.ascontiguousarray, np.asfortranarray))
        assert [t for t, _ in c.states] == [t for t, _ in f.states]
        for (_, a), (_, b) in zip(c.states + [(None, c.final)], f.states + [(None, f.final)]):
            assert a.tobytes() == b.tobytes()
            for out in (a, b):
                assert out.flags.c_contiguous and out.flags.owndata

    def test_model_and_clip_see_column_major_rows(self, linear_schedule, default_curve):
        seen = []
        eps_model = guided_or_full_model(2, linear_schedule)
        clip = batch_clip("tanh-balance")

        def spy(name, fn):
            def call(x, *args):
                seen.append((name, x.shape, np.isfortran(x)))
                return fn(x, *args)
            return call

        timesteps = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        initial = np.random.default_rng(11).standard_normal((64, 2))
        for clip_timing in CLIP_TIMING:
            config = SamplerConfig(variant="gamma_i", clip=spy("clip", clip), clip_timing=clip_timing)
            run_sampler(config, linear_schedule, timesteps, spy("model", eps_model), initial)
        assert {name for name, _, _ in seen} == {"model", "clip"}
        assert all(shape == (64, 2) and fortran for _, shape, fortran in seen)


@pytest.mark.parametrize("order", ["C", "F"])
def test_step_operations_leave_their_inputs_alone(linear_schedule, order):
    # Each step operation allocates its result; writing into an argument would raise here, because every
    # input is read-only.
    rng = np.random.default_rng(5)
    inputs = [np.array(rng.standard_normal((16, 3)), order=order) for _ in range(4)]
    for a in inputs:
        a.flags.writeable = False
    x, noise, cond, neg = inputs
    before = [a.tobytes() for a in inputs]
    mixture = MixtureModel(weights=[0.3, 0.7], means=[[0.5, -0.2, 0.1], [-0.4, 0.3, 0.0]], variances=[0.02, 0.05])
    clips = [batch_clip(method) for method in ("tanh-balance", "balance-tanh", "quantile")]
    outputs = [
        denoise_step(lambda _x, _t: cond, linear_schedule, x, 400, t_to, clip)
        for t_to in (None, 300) for clip in (None, *clips)
    ] + [
        noisify(linear_schedule, x, 300, 400, noise),
        linear_schedule.forward_diffuse(x, 300, noise),
        guide_negative(cond, neg, 3.0),
        guide_interpolate(cond, neg, 3.0),
        mixture.epsilon_prediction(linear_schedule, x, 400),
        mixture.component(1).epsilon_prediction(linear_schedule, x, 400),
        mixture.score(linear_schedule, x, 400),
        mixture.score(linear_schedule, x[0], 400),
        mixture.component(0).score(linear_schedule, x, 400),
        *(clip(x) for clip in clips),
        mixture.sample_ground_truth(16, 0),
    ]
    assert [a.tobytes() for a in inputs] == before
    for out in outputs:
        assert out.flags.writeable and not any(np.shares_memory(out, a) for a in inputs)


@pytest.mark.parametrize("writeable", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("variant", SAMPLER_VARIANTS)
def test_run_sampler_leaves_its_initial_alone(linear_schedule, default_curve, monkeypatch, variant, order, writeable):
    # np.asfortranarray hands an F-ordered float64 initial back as the same array, so the loop must never write
    # into its state: a read-only initial would raise, a writeable one would change under the caller.
    monkeypatch.setattr(sampling, "_BLOCK_VALUES", 100)
    initial = np.array(np.random.default_rng(4).standard_normal((120, 3)), order=order)
    initial.flags.writeable = writeable
    before = initial.tobytes(order="A")
    config = SamplerConfig(variant=variant, clip=batch_clip("tanh-balance"), rng_seed=3)
    timesteps = adaptive_schedule(linear_schedule, default_curve, 6, theta=0.7)
    out = run_sampler(config, linear_schedule, timesteps, row_block_model("full", 3, linear_schedule), initial)
    assert initial.tobytes(order="A") == before and initial.flags.writeable == writeable
    assert not any(np.shares_memory(state, initial) for _, state in out.states + [(None, out.final)])


@pytest.mark.parametrize("state_order, noise_order", [("C", "F"), ("F", "C")])
def test_forward_kernels_keep_the_state_layout(linear_schedule, state_order, noise_order):
    # The sampler hands a column-major state to the model, so re-noising must not turn it to C order
    # whatever layout the noise has; and the noise's layout moves no byte of the result.
    rng = np.random.default_rng(8)
    x = np.array(rng.standard_normal((16, 3)), order=state_order)
    noise = np.array(rng.standard_normal((16, 3)), order=noise_order)
    same = np.array(noise, order=state_order)
    for kernel in (lambda n: noisify(linear_schedule, x, 300, 400, n),
                   lambda n: linear_schedule.forward_diffuse(x, 300, n)):
        out = kernel(noise)
        assert (out.flags.c_contiguous, out.flags.f_contiguous) == (x.flags.c_contiguous, x.flags.f_contiguous)
        assert out.tobytes() == kernel(same).tobytes()


def row_block_model(kind, dim, schedule):
    """The ε model ``kind`` on a three-component mixture at ``dim``, unguided or guided, full or one component."""
    rng = np.random.default_rng(dim)
    mixture = MixtureModel(weights=[0.5, 0.3, 0.2], means=rng.uniform(-1.0, 1.0, (3, dim)),
                           variances=rng.uniform(0.01, 0.05, 3))
    eps = lambda model: (lambda x, t: model.epsilon_prediction(schedule, x, t))
    full, first, second = eps(mixture), eps(mixture.component(0)), eps(mixture.component(1))
    if kind == "full":
        return full
    if kind == "component":
        return first
    if kind == "interpolate":
        return lambda x, t: guide_interpolate(second(x, t), full(x, t), 3.0)
    return lambda x, t: guide_negative(first(x, t), second(x, t), 7.5)


class TestRowBlocks:
    """A batch wider than one block runs each step block by block, with the bytes of the whole-batch step."""

    # With 100-value blocks (100, 50 and 12 rows at d = 1, 2 and 8), 301 rows leave one row over at each d:
    # the last block is that lone row, and the first block holds fewer than CHAINS rows.
    BATCH, CHAINS = 301, 150

    @staticmethod
    def run(monkeypatch, block, config, schedule, timesteps, eps_model, initial, chains):
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block)
        calls = []
        model = lambda x, t: calls.append(x.shape) or eps_model(x, t)
        return run_sampler(config, schedule, timesteps, model, initial, chains=chains), len(calls)

    @pytest.mark.parametrize("chains", [None, CHAINS, 400])
    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("kind", ["full", "component", "interpolate", "negative_prompt"])
    @pytest.mark.parametrize("clip, clip_timing", [(batch_clip("quantile", q=0.9, ceiling=2.5), "every-step"),
                                                   (batch_clip("balance-tanh"), "every-step"),
                                                   (batch_clip("tanh-balance"), "final-only")])
    @pytest.mark.parametrize("variant", SAMPLER_VARIANTS)
    def test_blocks_give_the_whole_batch_bytes(self, linear_schedule, default_curve, monkeypatch, variant, clip,
                                               clip_timing, kind, dim, chains):
        timesteps = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        config = SamplerConfig(variant=variant, clip=clip, clip_timing=clip_timing, rng_seed=3)
        initial = np.random.default_rng(11).standard_normal((self.BATCH, dim))
        args = (config, linear_schedule, timesteps, row_block_model(kind, dim, linear_schedule), initial, chains)
        (blocked, blocked_calls), (whole, whole_calls) = (self.run(monkeypatch, block, *args)
                                                          for block in (100, self.BATCH * dim + 1))
        assert blocked_calls > whole_calls
        assert [t for t, _ in blocked.states] == [t for t, _ in whole.states]
        assert {state.shape for _, state in blocked.states} == {(min(chains or self.BATCH, self.BATCH), dim)}
        for (_, got), (_, want) in zip(blocked.states + [(None, blocked.final)], whole.states + [(None, whole.final)]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.owndata

    @pytest.mark.parametrize("block, calls", [(100, 4), (10_000, 1)])
    def test_a_non_finite_prediction_in_a_later_block_raises_the_same_error(self, linear_schedule, monkeypatch,
                                                                            block, calls):
        # Only the last row predicts NaN; with 100-value blocks it is the fourth block of the first step, alone.
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block)
        initial = np.zeros((self.BATCH, 1))
        initial[-1] = 1.0
        seen = []
        model = lambda x, t: seen.append(x.shape) or np.where(x > 0.5, np.nan, 0.0)
        with pytest.raises(NumericalError, match="^non-finite noise prediction at timestep 999$"):
            run_sampler(SamplerConfig(variant="plain"), linear_schedule, equidistant_schedule(linear_schedule, 4),
                        model, initial)
        assert len(seen) == calls

    def test_a_wrong_prediction_shape_names_the_block(self, linear_schedule, monkeypatch):
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 100)
        with pytest.raises(ValueError, match=re.escape("eps model returned shape (1, 2) for state shape (50, 2)")):
            run_sampler(SamplerConfig(variant="plain"), linear_schedule, equidistant_schedule(linear_schedule, 4),
                        lambda x, t: np.zeros((1, 2)), np.zeros((self.BATCH, 2)))

    def test_a_re_noised_run_holds_no_full_batch_noise_array(self, linear_schedule):
        # Each block draws its own re-noise, so a gamma run holds at most a few blocks more than a plain one.
        eps_model = make_eps_model(MixtureModel(weights=[1.0], means=[[0.3, -0.2]], variances=[0.04]),
                                   linear_schedule)
        initial = np.random.default_rng(0).standard_normal((100_000, 2))
        timesteps = equidistant_schedule(linear_schedule, 4)

        def traced_peak(variant):
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                run_sampler(SamplerConfig(variant=variant), linear_schedule, timesteps, eps_model, initial, chains=1)
                return (tracemalloc.get_traced_memory()[1] - before) / initial.nbytes
            finally:
                if not was_tracing:
                    tracemalloc.stop()

        plain, gamma = traced_peak("plain"), traced_peak("gamma")
        assert gamma - plain < 0.5, (plain, gamma)


@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("kind", ["full", "interpolate"])
def test_a_plain_chain_run_alone_gets_its_batch_bytes(linear_schedule, default_curve, kind, dim):
    # The gamma variants draw their re-noise from one stream in row order, so a chain alone draws other normals;
    # for them TestRowBlocks checks that blocks, a lone last row among them, give the whole-batch bytes.
    config = SamplerConfig(variant="plain", clip=batch_clip("tanh-balance"))
    args = (config, linear_schedule, adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7),
            row_block_model(kind, dim, linear_schedule))
    initial = np.random.default_rng(dim).standard_normal((9, dim))
    whole = run_sampler(*args, initial).final
    alone = [run_sampler(*args, initial[i:i + 1]).final for i in range(len(initial))]
    assert [i for i, final in enumerate(alone) if final.tobytes() != whole[i].tobytes()] == []


class TestVariantDegeneration:
    def test_zero_gamma_is_bitwise_plain(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(7).standard_normal((32, 1))
        plain = run_sampler(SamplerConfig(variant="plain"), linear_schedule, ts, eps_model, init)
        gamma = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.0), linear_schedule, ts, eps_model, init
        )
        assert plain.final.tobytes() == gamma.final.tobytes()
        assert [t for t, _ in plain.states] == [t for t, _ in gamma.states]

    def test_gamma_i_is_bitwise_gamma_without_importance_slots(
        self, linear_schedule, tight_gaussian
    ):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(8).standard_normal((32, 1))
        a = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.3, rng_seed=5),
            linear_schedule, ts, eps_model, init,
        )
        b = run_sampler(
            SamplerConfig(variant="gamma_i", gamma=0.3, rng_seed=5),
            linear_schedule, ts, eps_model, init,
        )
        assert a.final.tobytes() == b.final.tobytes()

    def test_gamma_renoising_changes_the_output(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(9).standard_normal((32, 1))
        plain = run_sampler(SamplerConfig(variant="plain"), linear_schedule, ts, eps_model, init)
        gamma = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.2), linear_schedule, ts, eps_model, init
        )
        assert not np.array_equal(plain.final, gamma.final)


@pytest.mark.parametrize("make", [
    lambda: build_schedule(),
    lambda: ImportanceCurve(values=[0.5, 1.0, 0.5], source_schedule_id=b""),
    lambda: TimestepSchedule(steps=[9, 5, 0], provenance=(EQUIDISTANT,) * 3),
    lambda: MixtureModel(weights=[0.5, 0.5], means=[[-1.0], [1.0]], variances=[0.1, 0.1]),
    lambda: sampling.SampleTrajectory(states=[(9, np.zeros((2, 1)))], final=np.zeros((2, 1))),
], ids=["NoiseSchedule", "ImportanceCurve", "TimestepSchedule", "MixtureModel", "SampleTrajectory"])
def test_objects_that_hold_arrays_compare_by_identity(make):
    # A field-wise == of arrays has no single truth value, so these objects are equal only to themselves.
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2


class TestTrajectory:
    def test_plain_records_one_state_per_anchor(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 4)
        out = run_sampler(
            SamplerConfig(variant="plain"), linear_schedule, ts,
            make_eps_model(tight_gaussian, linear_schedule),
            np.random.default_rng(0).standard_normal((3, 1)),
        )
        assert [t for t, _ in out.states] == [999, 666, 333, 0]
        assert all(state.shape == (3, 1) for _, state in out.states)
        assert out.final.shape == (3, 1)

    def test_gamma_records_intermediate_targets(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 4)
        out = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.2), linear_schedule, ts,
            make_eps_model(tight_gaussian, linear_schedule),
            np.random.default_rng(0).standard_normal((3, 1)),
        )
        # Overshoot targets round((1 - gamma) * t) appear before their anchors;
        # the t=0 anchor needs no overshoot.
        assert [t for t, _ in out.states] == [999, 533, 666, 266, 333, 0]

    def test_gamma_i_reads_overshoot_from_the_curve(self, linear_schedule, default_curve):
        ts = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        model = MixtureModel(weights=[1.0], means=[[0.0]], variances=[1.0])
        out = run_sampler(
            SamplerConfig(variant="gamma_i", gamma=0.2), linear_schedule, ts,
            make_eps_model(model, linear_schedule),
            np.random.default_rng(1).standard_normal((2, 1)),
        )
        expected = [999]
        for slot in range(1, ts.n):
            anchor = int(ts.steps[slot])
            factor = (
                default_curve.values[anchor]
                if ts.provenance[slot] == IMPORTANCE
                else 0.8
            )
            mid = int(np.rint(factor * anchor))
            if mid != anchor:
                expected.append(mid)
            expected.append(anchor)
        assert [t for t, _ in out.states] == expected
        # The curve peak has importance 1, so its anchor degenerates to a
        # plain transition.
        assert expected.count(349) == 1

    def test_one_model_call_per_slot(self, linear_schedule, tight_gaussian):
        calls = []

        def counting_model(x, t):
            calls.append(int(t))
            return tight_gaussian.epsilon_prediction(linear_schedule, x, t)

        for variant in ("plain", "gamma"):
            calls.clear()
            ts = equidistant_schedule(linear_schedule, 8)
            run_sampler(
                SamplerConfig(variant=variant), linear_schedule, ts, counting_model,
                np.random.default_rng(2).standard_normal((4, 1)),
            )
            assert len(calls) == 8

    @pytest.mark.parametrize("shape", [(1,), (2, 3, 1)], ids=["vector", "three-dimensional"])
    def test_initial_must_be_batch_by_dim(self, linear_schedule, shape):
        def eps_model(x, t):
            raise AssertionError("the model was called")

        with pytest.raises(ValueError, match=re.escape(f"shape (batch, dim), got {shape}")):
            run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, equidistant_schedule(linear_schedule, 4),
                eps_model, np.zeros(shape),
            )

    def test_states_own_their_memory(self, linear_schedule, tight_gaussian):
        # Only the first state is copied; it is the one that could alias the
        # caller's array, and no two recorded states may share memory.
        initial = np.random.default_rng(4).standard_normal((3, 1))
        out = run_sampler(
            SamplerConfig(variant="gamma"), linear_schedule, equidistant_schedule(linear_schedule, 4),
            make_eps_model(tight_gaussian, linear_schedule), initial,
        )
        first = initial.copy()
        initial[...] = 7.0
        assert np.array_equal(out.states[0][1], first)
        arrays = [state for _, state in out.states] + [out.final]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    @pytest.mark.parametrize("clip_timing", ["every-step", "final-only"])
    @pytest.mark.parametrize("variant", ["plain", "gamma", "gamma_i"])
    def test_chains_keeps_own_copies_of_the_leading_rows(self, linear_schedule, default_curve, variant, clip_timing):
        mixture = mixture_preset("skewed-2d")

        def eps_model(x, t):
            cond = mixture.component(0).epsilon_prediction(linear_schedule, x, t)
            return guide_negative(cond, mixture.component(1).epsilon_prediction(linear_schedule, x, t), 7.5)

        timesteps = adaptive_schedule(linear_schedule, default_curve, 8, theta=0.7)
        config = SamplerConfig(variant=variant, clip=batch_clip("tanh-balance"), clip_timing=clip_timing, rng_seed=3)
        initial = np.random.default_rng(11).standard_normal((64, 2))
        whole = run_sampler(config, linear_schedule, timesteps, eps_model, initial)
        kept = run_sampler(config, linear_schedule, timesteps, eps_model, initial, chains=5)
        assert [t for t, _ in kept.states] == [t for t, _ in whole.states]
        for (_, got), (_, want) in zip(kept.states, whole.states):
            assert got.shape == (5, 2) and got.tobytes() == want[:5].tobytes()
            assert got.base is None  # no view pins the full batch
        assert kept.final.tobytes() == whole.final.tobytes()


class TestConvergence:
    @pytest.mark.parametrize("n", [8, 32])
    def test_gaussian_target_mean_is_recovered(self, linear_schedule, tight_gaussian, n):
        ts = equidistant_schedule(linear_schedule, n)
        init = np.random.default_rng(3).standard_normal((4000, 1))
        out = run_sampler(
            SamplerConfig(variant="plain"), linear_schedule, ts,
            make_eps_model(tight_gaussian, linear_schedule), init,
        )
        assert out.final.mean() == pytest.approx(0.35, abs=0.005)
        assert out.final.std() < 0.05

    def test_dispersion_grows_with_step_count(self, linear_schedule, tight_gaussian):
        init = np.random.default_rng(3).standard_normal((4000, 1))
        stds = []
        for n in (8, 32):
            ts = equidistant_schedule(linear_schedule, n)
            out = run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, ts,
                make_eps_model(tight_gaussian, linear_schedule), init,
            )
            stds.append(out.final.std())
        assert stds[0] < stds[1]


class TestGuards:
    @pytest.mark.parametrize("chains", [0, -1])
    def test_chains_must_keep_a_chain(self, linear_schedule, tight_gaussian, chains):
        with pytest.raises(ValueError, match=f"chains must be at least 1, got {chains}"):
            run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, equidistant_schedule(linear_schedule, 4),
                make_eps_model(tight_gaussian, linear_schedule), np.zeros((2, 1)), chains=chains,
            )

    def test_a_state_needs_a_column(self, linear_schedule, tight_gaussian):
        args = (SamplerConfig(variant="gamma"), linear_schedule, equidistant_schedule(linear_schedule, 4),
                make_eps_model(tight_gaussian, linear_schedule))
        with pytest.raises(ValueError, match=re.escape("at least one column, got shape (5, 0)")):
            run_sampler(*args, np.zeros((5, 0)))
        empty = run_sampler(*args, np.zeros((0, 1)))
        assert empty.final.shape == (0, 1) and all(state.shape == (0, 1) for _, state in empty.states)

    def test_gamma_i_requires_bound_curve(self, linear_schedule, tight_gaussian):
        bare = TimestepSchedule(
            steps=[999, 500, 0], provenance=(EQUIDISTANT, IMPORTANCE, EQUIDISTANT)
        )
        with pytest.raises(ValueError, match="curve"):
            run_sampler(
                SamplerConfig(variant="gamma_i"), linear_schedule, bare,
                make_eps_model(tight_gaussian, linear_schedule), np.zeros((1, 1)),
            )

    def test_gamma_i_rejects_foreign_curve(self, linear_schedule, tight_gaussian):
        other = build_schedule("scaled_linear", 1000, 1e-4, 0.02)
        foreign = ImportanceCurve(
            values=np.linspace(0.0, 1.0, 1000),
            source_schedule_id=schedule_fingerprint(other),
        )
        ts = TimestepSchedule(
            steps=[999, 500, 0],
            provenance=(EQUIDISTANT, IMPORTANCE, EQUIDISTANT),
            curve=foreign,
        )
        with pytest.raises(ValueError, match="different noise schedule"):
            run_sampler(
                SamplerConfig(variant="gamma_i"), linear_schedule, ts,
                make_eps_model(tight_gaussian, linear_schedule), np.zeros((1, 1)),
            )

    @pytest.mark.parametrize("first", [1000, 4000])
    @pytest.mark.parametrize("variant", ["plain", "gamma", "gamma_i"])
    def test_first_step_past_the_schedule_raises_before_the_model(self, linear_schedule, default_curve, variant,
                                                                   first):
        def exploding_model(x, t):
            raise AssertionError("model must not be called")

        # The curve belongs to this schedule, so gamma_i passes its own guards and reaches the timestep check.
        ts = TimestepSchedule(steps=[first, first - 1, 0], provenance=(IMPORTANCE,) * 3, curve=default_curve)
        with pytest.raises(IndexError, match=f"timestep {first} outside"):
            run_sampler(SamplerConfig(variant=variant), linear_schedule, ts, exploding_model, np.zeros((1, 1)))

    def test_non_finite_initial_state_raises(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 4)
        with pytest.raises(NumericalError, match="initial"):
            run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, ts,
                make_eps_model(tight_gaussian, linear_schedule),
                np.array([[np.inf]]),
            )

    def test_non_finite_prediction_raises_mid_run(self, linear_schedule):
        ts = equidistant_schedule(linear_schedule, 4)

        def broken_model(x, t):
            return np.full_like(x, np.nan) if t < 900 else np.zeros_like(x)

        with pytest.raises(NumericalError, match="non-finite"):
            run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, ts, broken_model,
                np.zeros((1, 1)),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_state_raises(self, linear_schedule):
        # A finite prediction this large overflows the clean estimate, so the state check is what fires.
        ts = equidistant_schedule(linear_schedule, 4)
        with pytest.raises(NumericalError, match="non-finite state after the step from timestep 999"):
            run_sampler(
                SamplerConfig(variant="plain"), linear_schedule, ts, lambda x, t: np.full_like(x, 1e308),
                np.zeros((1, 1)),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="variant"):
            SamplerConfig(variant="euler")
        with pytest.raises(ValueError, match="gamma"):
            SamplerConfig(gamma=1.0)
        with pytest.raises(ValueError, match="clip_timing"):
            SamplerConfig(clip_timing="sometimes")


class TestClipTiming:
    def test_final_only_clips_exactly_the_terminal_estimate(
        self, linear_schedule, tight_gaussian
    ):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(6).standard_normal((16, 1))
        clip = lambda x: np.clip(x, -0.1, 0.1)
        raw = run_sampler(SamplerConfig(variant="plain"), linear_schedule, ts, eps_model, init)
        clipped = run_sampler(
            SamplerConfig(variant="plain", clip=clip, clip_timing="final-only"),
            linear_schedule, ts, eps_model, init,
        )
        np.testing.assert_array_equal(clipped.final, clip(raw.final))
        # ``clip=`` alone switches postprocessing on; there is no separate flag.
        assert not np.array_equal(clipped.final, raw.final)
        for (_, a), (_, b) in zip(raw.states, clipped.states):
            np.testing.assert_array_equal(a, b)

    def test_every_step_changes_the_path(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(6).standard_normal((16, 1))
        clip = lambda x: np.clip(x, -0.1, 0.1)
        final_only = run_sampler(
            SamplerConfig(variant="plain", clip=clip, clip_timing="final-only"),
            linear_schedule, ts, eps_model, init,
        )
        every_step = run_sampler(
            SamplerConfig(variant="plain", clip=clip),
            linear_schedule, ts, eps_model, init,
        )
        assert not np.array_equal(final_only.states[2][1], every_step.states[2][1])


class TestDeterminism:
    def test_same_seed_is_bitwise_reproducible(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(10).standard_normal((8, 1))
        config = SamplerConfig(variant="gamma", gamma=0.3, rng_seed=42)
        a = run_sampler(config, linear_schedule, ts, eps_model, init)
        b = run_sampler(config, linear_schedule, ts, eps_model, init)
        assert a.final.tobytes() == b.final.tobytes()

    def test_different_seed_changes_renoising(self, linear_schedule, tight_gaussian):
        ts = equidistant_schedule(linear_schedule, 6)
        eps_model = make_eps_model(tight_gaussian, linear_schedule)
        init = np.random.default_rng(10).standard_normal((8, 1))
        a = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.3, rng_seed=0),
            linear_schedule, ts, eps_model, init,
        )
        b = run_sampler(
            SamplerConfig(variant="gamma", gamma=0.3, rng_seed=1),
            linear_schedule, ts, eps_model, init,
        )
        assert not np.array_equal(a.final, b.final)
