"""Monte Carlo machinery: transforms, rejection/importance sampling, MH,
RBM Gibbs, and diagnostics.  All stochastic checks run under fixed seeds."""

import hashlib
import itertools
import json
import math
import signal
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from pgmlab import samplers
from pgmlab.errors import NumericError, ValidationError
from pgmlab.samplers import (
    POISSON_DEMO_DATA,
    RbmModel,
    SeededRng,
    Trace,
    ess,
    export_trace,
    gaussian_tail_probability,
    gaussian_tail_weights,
    gibbs_rbm,
    importance_expectation,
    laplace_logpdf,
    laplace_normal_bound,
    laplace_unit_ppf,
    mh,
    poisson_regression_log_pstar,
    rbm_conditionals,
    rbm_visible_unnorm_logpmf,
    rejection_normal_via_laplace,
    rejection_sample,
    sample_exponential,
    sample_laplace_unit,
    self_normalised_importance,
    standard_normal_logpdf,
)
from pgmlab.sequential import DiscreteHmm, alpha_filter

from conftest import hmm_joint_table


class TestSeededRng:
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_is_the_pcg64_generator_of_its_seed(self, seed):
        rng, ref = SeededRng(seed), np.random.Generator(np.random.PCG64(seed))
        assert isinstance(rng, np.random.Generator)
        assert rng.seed == seed
        assert_array_equal(rng.uniform(size=5), ref.uniform(size=5))
        assert rng.random() == ref.random()
        assert_array_equal(rng.standard_normal(4), ref.standard_normal(4))

    def test_negative_seed_refused(self):
        with pytest.raises(ValidationError, match=r"^seed must be a non-negative integer, got -3$"):
            SeededRng(-3)


class TestInverseTransform:
    def test_exponential_closed_form_point(self):
        # u = 0.5 maps to ln 2 under the unit-rate inverse cdf
        assert math.isclose(-math.log1p(-0.5), math.log(2))
        rng = SeededRng(0)
        draws = sample_exponential(rng, 2.0, size=200_000)
        assert math.isclose(draws.mean(), 0.5, rel_tol=0.02)

    def test_laplace_median_is_zero(self):
        assert laplace_unit_ppf(0.5) == 0.0

    def test_laplace_unit_variance(self):
        draws = sample_laplace_unit(SeededRng(1), size=1_000_000)
        assert math.isclose(draws.var(), 1.0, abs_tol=0.01)
        assert math.isclose(draws.mean(), 0.0, abs_tol=0.01)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValidationError):
            sample_exponential(SeededRng(2), 0.0)


class TestRejection:
    def test_acceptance_rate_near_optimum(self):
        _, rate = rejection_normal_via_laplace(SeededRng(7), 76_000)
        assert abs(rate - 0.76) < 0.02

    def test_bound_minimised_at_one(self):
        grid = np.linspace(0.5, 2.0, 151)
        best = min(grid, key=laplace_normal_bound)
        assert abs(best - 1.0) <= 0.011
        assert math.isclose(laplace_normal_bound(1.0), math.sqrt(2 * math.e / math.pi),
                            rel_tol=1e-12)

    def test_output_is_standard_normal(self):
        draws, _ = rejection_normal_via_laplace(SeededRng(8), 50_000)
        _, pvalue = stats.kstest(draws, "norm")
        assert pvalue > 1e-3

    def test_proposal_equal_to_target(self):
        rng = SeededRng(9)
        draws, rate = rejection_sample(
            rng, standard_normal_logpdf, lambda r: float(r.normal()),
            standard_normal_logpdf, 1.0, 500)
        assert rate == 1.0

    def test_bound_violation_detected(self):
        rng = SeededRng(10)
        with pytest.raises(NumericError):
            rejection_sample(rng, standard_normal_logpdf, lambda r: float(r.normal()),
                             standard_normal_logpdf, 0.5, 50)

    def test_bound_violation_beyond_float_range_reported(self):
        with pytest.raises(NumericError, match="acceptance inf"):
            rejection_sample(SeededRng(10), lambda x: 0.0, lambda r: float(r.normal()),
                             lambda x: -800.0, 1.0, 1)

    def test_target_that_never_accepts_ends(self, monkeypatch):
        # p* = 0 everywhere: no proposal is ever accepted.
        monkeypatch.setattr(samplers, "_MAX_PROPOSALS", 1000)

        def timed_out(*_):
            raise TimeoutError("rejection_sample did not end")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(3)
        try:
            with pytest.raises(NumericError, match="0 of n=1 samples accepted after 1000 proposals"):
                rejection_sample(SeededRng(11), lambda x: -math.inf, lambda r: float(r.uniform()),
                                 lambda x: 0.0, 1.0, 1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_call_needing_exactly_the_cap_ends(self, monkeypatch):
        # q = p* accepts every proposal, so n samples take n proposals.
        args = (standard_normal_logpdf, lambda r: float(r.normal()), standard_normal_logpdf, 1.0, 500)
        monkeypatch.setattr(samplers, "_MAX_PROPOSALS", 500)
        draws, rate = rejection_sample(SeededRng(9), *args)
        assert len(draws) == 500 and rate == 1.0
        monkeypatch.setattr(samplers, "_MAX_PROPOSALS", 499)
        with pytest.raises(NumericError, match="499 of n=500"):
            rejection_sample(SeededRng(9), *args)

    @pytest.mark.parametrize("seed, b, n", [
        (40, 1.0, 1), (41, 1.0, 300), (42, 0.3, 50), (43, 0.5, 7), (44, 2.0, 200), (45, 7.5, 30),
        (46, 0.22, 2),
    ])
    def test_preset_matches_per_draw_sampler(self, seed, b, n):
        # The per-draw callback sampler with the preset's densities is the
        # reference: same samples, rate and generator state after the call.
        scale = math.sqrt(2.0) * b
        ref_rng, rng = SeededRng(seed), SeededRng(seed)
        ref, ref_rate = rejection_sample(
            ref_rng, standard_normal_logpdf, lambda r: float(sample_laplace_unit(r)) * scale,
            lambda x: laplace_logpdf(x, b), laplace_normal_bound(b), n)
        draws, rate = rejection_normal_via_laplace(rng, n, b)
        assert draws.tobytes() == ref.tobytes() and rate == ref_rate
        assert float(rng.uniform()) == float(ref_rng.uniform())

    # Recorded from the sampler that drew one proposal at a time: hash of the
    # draws, the rate, then the next uniform.  n = 10,000 and 8,193 take more
    # proposals than one block holds.
    @pytest.mark.parametrize("seed, b, n, digest, rate, next_u", [
        (0, 1.0, 1, "1460c042e0a8117d", 1.0, 0.04097352393619469),
        (1, 1.0, 2, "7bf587f70dc9b42f", 0.6666666666666666, 0.8277025938204418),
        (2, 1.0, 999, "17534f840e335f26", 0.7672811059907834, 0.6719401300525977),
        (3, 0.5, 1, "209540ff9704fa6f", 1.0, 0.8012744652063969),
        (4, 0.5, 2, "48d001a22e6bedbb", 1.0, 0.6073558319950296),
        (5, 0.5, 999, "b8ac450584499bdd", 0.35176056338028167, 0.6325726722463691),
        (6, 2.0, 1, "74db99566700a198", 1.0, 0.36906723979537825),
        (7, 2.0, 2, "c102a80e05112fbe", 1.0, 0.30016628491122543),
        (8, 2.0, 999, "d1d6cf9de22a72ec", 0.5754608294930875, 0.8369885862683816),
        (9, 1.0, 10_000, "6a64e5dd18c084fb", 0.7623694442326752, 0.6611221795788715),
        (10, 2.0, 8_193, "4d2128eec62a79a3", 0.5592109753600437, 0.12209971897239136),
    ])
    def test_rejection_stream_is_pinned(self, seed, b, n, digest, rate, next_u):
        assert samplers._REJECTION_BLOCK == 8192
        rng = SeededRng(seed)
        draws, got_rate = rejection_normal_via_laplace(rng, n, b)
        assert draws.shape == (n,)
        assert hashlib.sha256(draws.tobytes()).hexdigest()[:16] == digest
        assert got_rate == rate
        assert float(rng.uniform()) == next_u

    # Messages recorded from the sampler that drew one proposal at a time.
    @pytest.mark.parametrize("seed, message", [
        (30, "envelope bound violated at x=-0.7516291789809069: acceptance 1.9392535833577067"),
        (31, "envelope bound violated at x=1.6416699369757068: acceptance 1.627877512211911"),
    ])
    def test_bound_violation_names_first_bad_proposal(self, monkeypatch, seed, message):
        bound = samplers.laplace_normal_bound
        monkeypatch.setattr(samplers, "laplace_normal_bound", lambda b: bound(b) / 2)
        with pytest.raises(NumericError) as info:
            rejection_normal_via_laplace(SeededRng(seed), 1000)
        assert str(info.value) == message

    def test_non_finite_acceptance_names_first_bad_proposal(self, monkeypatch):
        logpdf = samplers.standard_normal_logpdf
        monkeypatch.setattr(samplers, "standard_normal_logpdf",
                            lambda x: np.where(np.abs(x) > 2.0, np.nan, logpdf(x)))
        with pytest.raises(NumericError) as info:
            rejection_normal_via_laplace(SeededRng(32), 1000)
        assert str(info.value) == "non-finite acceptance probability at x=2.7129696648995116"

    def test_array_accept_test_matches_scalar_at_ties(self):
        u = np.append(SeededRng(33).uniform(size=2000), [0.0, 0.5, 1.0 - 2.0**-53])
        logs = np.array([math.log(v) if v > 0 else -math.inf for v in u])
        for log_acc in (logs, np.nextafter(logs, math.inf), np.nextafter(logs, -math.inf)):
            expected = [v > 0 and math.log(v) < a for v, a in zip(u, log_acc)]
            assert samplers._log_below(u, log_acc).tolist() == expected

    @pytest.mark.parametrize("b, message", [
        (math.nan, "b must be finite"), (math.inf, "b must be finite"),
        (-math.inf, "b must be positive"), (0.0, "b must be positive"),
        (0.01, "too small"), (1e-300, "too small"),
    ])
    def test_bound_rejects_bad_scale(self, b, message):
        with pytest.raises(ValidationError, match=message):
            laplace_normal_bound(b)


class TestImportance:
    def test_tail_probability(self):
        estimate = gaussian_tail_probability(SeededRng(11), 100_000)
        truth = float(stats.norm.sf(5.0))
        assert abs(estimate - truth) / truth < 0.05

    def test_weights_bounded_by_envelope(self):
        weights = gaussian_tail_weights(SeededRng(12), 100_000)
        peak = math.exp(-12.5) / math.sqrt(2 * math.pi)  # weight at the threshold
        assert weights.max() <= peak * (1 + 1e-12)
        assert np.all(np.isfinite(weights))

    def test_spread_across_seeds(self):
        estimates = [gaussian_tail_probability(SeededRng(s), 100_000) for s in range(10)]
        spread = (max(estimates) - min(estimates)) / np.mean(estimates)
        assert spread < 0.15

    @pytest.mark.filterwarnings("error")
    def test_far_threshold_gives_zero_weights_without_a_warning(self):
        # x^2 overflows to inf, so each weight is exp(-inf) = 0, the right answer.
        assert_array_equal(gaussian_tail_weights(SeededRng(1), 10, 1e200), np.zeros(10))

    def test_unit_weights_give_exact_average(self):
        rng = SeededRng(13)
        out = importance_expectation(rng, lambda x: 1.0, standard_normal_logpdf,
                                     lambda r: float(r.normal()),
                                     standard_normal_logpdf, 300)
        assert out == 1.0

    def test_cauchy_target_blows_up(self):
        # Gaussian proposal for a Cauchy target: running second moment of the
        # weights grows without bound as more samples arrive.
        rng = SeededRng(14)
        log_cauchy = lambda x: -math.log(math.pi) - math.log1p(x * x)
        n = 100_000
        draws = rng.normal(size=n)
        weights = np.exp([log_cauchy(x) - standard_normal_logpdf(x) for x in draws])
        checkpoints = [100, 1_000, 10_000, 100_000]
        second_moments = [float(np.mean(weights[:k] ** 2)) for k in checkpoints]
        assert all(b > a for a, b in zip(second_moments, second_moments[1:]))

    def test_non_finite_weight_reported(self):
        rng = SeededRng(15)
        with pytest.raises(NumericError):
            importance_expectation(rng, lambda x: 1.0, lambda x: math.inf,
                                   lambda r: float(r.normal()),
                                   standard_normal_logpdf, 10)


class TestSelfNormalisedImportance:
    def test_unit_factors_reduce_to_plain_average(self):
        rng = SeededRng(16)
        est, z = self_normalised_importance(
            rng, lambda x: x[0], lambda r: [float(r.normal())], [lambda v: 1.0], 2_000)
        assert z == 1.0
        assert abs(est) < 0.05

    def test_hmm_posterior_mean_and_likelihood(self):
        transition = np.array([[0.7, 0.3], [0.4, 0.6]])
        emission = np.array([[0.8, 0.2], [0.3, 0.7]])
        hmm = DiscreteHmm.homogeneous([0.6, 0.4], transition, emission, 3)
        obs = [1, 0, 1]

        def sample_prior_path(r):
            state = int(r.uniform() > 0.6)
            path = [state]
            for _ in range(2):
                state = int(r.uniform() > transition[state, 0])
                path.append(state)
            return path

        factors = [lambda x, t=t: float(emission[int(x), obs[t]]) for t in range(3)]
        est, z_hat = self_normalised_importance(
            SeededRng(17), lambda p: float(p[2]), sample_prior_path, factors, 100_000)
        table = hmm_joint_table(hmm, obs)
        z = sum(table.values())
        truth = sum(p * path[2] for path, p in table.items()) / z
        assert abs(est - truth) < 0.02
        _, log_lik = alpha_filter(hmm, obs)
        assert abs(z_hat - math.exp(log_lik)) / math.exp(log_lik) < 0.05

    def test_all_zero_weights(self):
        rng = SeededRng(18)
        with pytest.raises(NumericError):
            self_normalised_importance(rng, lambda x: 1.0,
                                       lambda r: [0.0], [lambda v: 0.0], 50)


class TestMetropolisHastings:
    def test_seed_determinism(self):
        target = lambda th: -0.5 * float(th @ th)
        a = mh(SeededRng(5), target, [0.0, 0.0], 2_000, 1.0, 100)
        b = mh(SeededRng(5), target, [0.0, 0.0], 2_000, 1.0, 100)
        assert np.array_equal(a.samples, b.samples)
        assert a.accepted == b.accepted and a.proposals == b.proposals

    def test_standard_normal_moments(self):
        trace = mh(SeededRng(5), lambda th: -0.5 * float(th @ th), [0.0, 0.0], 50_000)
        assert np.all(np.abs(trace.samples.mean(axis=0)) < 0.05)
        assert np.all(np.abs(trace.samples.var(axis=0) - 1.0) < 0.1)

    def test_far_initialisation_with_warmup(self):
        trace = mh(SeededRng(6), lambda th: -0.5 * float(th @ th), [7.0, 7.0],
                   50_000, 1.0, 1_000)
        assert np.all(np.abs(trace.samples.mean(axis=0)) < 0.1)

    def test_early_samples_form_a_trail_without_warmup(self):
        trace = mh(SeededRng(6), lambda th: -0.5 * float(th @ th), [7.0, 7.0], 5_000)
        assert np.linalg.norm(trace.samples[:20].mean(axis=0)) > 2.0

    def test_constant_target_accepts_everything(self):
        trace = mh(SeededRng(7), lambda th: 0.0, [0.0], 1_000, 1.0, 0)
        assert trace.acceptance_rate == 1.0

    def test_marginal_passes_ks(self):
        trace = mh(SeededRng(19), lambda th: -0.5 * float(th @ th), [0.0], 50_000,
                   1.0, 1_000)
        _, pvalue = stats.kstest(trace.samples[:, 0], "norm")
        assert pvalue > 1e-3

    def test_rejected_steps_copy_state(self):
        trace = mh(SeededRng(20), lambda th: -50.0 * float(th @ th), [0.0], 400,
                   25.0, 0)  # huge steps: most proposals rejected
        repeats = np.sum(np.all(trace.samples[1:] == trace.samples[:-1], axis=1))
        assert repeats > 0
        assert trace.accepted < trace.proposals

    def test_non_finite_init_rejected(self):
        with pytest.raises(NumericError):
            mh(SeededRng(21), lambda th: math.nan, [0.0], 10)

    @pytest.mark.parametrize("vari, message", [
        (math.nan, "vari must be finite, got nan"), (math.inf, "vari must be finite, got inf"),
        (-math.inf, "vari must be positive"), (0.0, "vari must be positive"),
    ])
    def test_bad_vari_named(self, vari, message):
        with pytest.raises(ValidationError, match=message):
            mh(SeededRng(21), lambda th: 0.0, [0.0], 10, vari)

    # Recorded from _mh_per_step, which draws the whole chain's normals and then
    # its uniforms: hash of the retained samples, accepted moves, then the next uniform.
    @pytest.mark.parametrize("seed, target, dim, n, vari, warmup, digest, accepted, next_u", [
        (11, "normal", 1, 500, 2.5, 100, "120fb5b238a22150", 357, 0.2083634644645207),
        (12, "normal", 3, 400, 0.3, 50, "3617ab0b6de2e00c", 297, 0.6045328311943555),
        (13, "normal", 2, 300, 1.0, 0, "7904632380e8d27a", 178, 0.8225625567726259),
        (14, "poisson", 2, 300, 0.5, 20, "e1fd4dae63a397b0", 144, 0.4200261469213544),
    ])
    def test_mh_stream_is_pinned(self, seed, target, dim, n, vari, warmup, digest,
                                 accepted, next_u):
        log_p = (poisson_regression_log_pstar(POISSON_DEMO_DATA) if target == "poisson"
                 else lambda th: -0.5 * float(th @ th))
        rng = SeededRng(seed)
        trace = mh(rng, log_p, np.zeros(dim), n, vari, warmup)
        assert trace.samples.shape == (n, dim) and trace.samples.dtype == float
        assert hashlib.sha256(trace.samples.tobytes()).hexdigest()[:16] == digest
        assert (trace.accepted, trace.proposals) == (accepted, n + warmup)
        assert float(rng.uniform()) == next_u

    @staticmethod
    def _assert_matches_per_step(seed, log_p, init, n, vari, warmup):
        stream, ref_stream = SeededRng(seed), SeededRng(seed)
        trace = mh(stream, log_p, init, n, vari, warmup)
        samples, accepted = _mh_per_step(ref_stream, log_p, init, n, vari, warmup)
        assert trace.samples.tobytes() == samples.tobytes()  # -0.0 and 0.0 differ too
        assert trace.samples.shape == samples.shape
        assert (trace.accepted, trace.proposals) == (accepted, n + warmup)
        assert stream.random() == ref_stream.random()

    @pytest.mark.parametrize("vari, warmup", [(0.05, 0), (1.0, 25), (9.0, 3), (400.0, 10)])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_mh_matches_the_per_step_reference(self, dim, vari, warmup):
        target = lambda th: -0.5 * float(th @ th)
        self._assert_matches_per_step(10 * dim + warmup, target, np.full(dim, 0.5), 600, vari, warmup)

    @pytest.mark.parametrize("seed, n, warmup", [(1, 1, 0), (2, 400, 40), (3, 1500, 0)])
    def test_poisson_mh_matches_the_per_step_reference(self, seed, n, warmup):
        log_p = poisson_regression_log_pstar(POISSON_DEMO_DATA)
        self._assert_matches_per_step(seed, log_p, [0.0, 0.0], n, 0.5, warmup)

    @pytest.mark.parametrize("vari", [0.5, 4.0])
    def test_mh_with_an_undefined_region_matches_the_per_step_reference(self, vari):
        # -inf above 1 and nan below -1.5: both are rejected moves.
        def log_p(th):
            x = float(th[0])
            return -math.inf if x > 1.0 else math.nan if x < -1.5 else -0.5 * float(th @ th)

        self._assert_matches_per_step(31, log_p, [0.0, 0.2], 2000, vari, 5)
        trace = mh(SeededRng(31), log_p, [0.0, 0.2], 2000, vari, 5)
        assert -1.5 <= trace.samples[:, 0].min() and trace.samples[:, 0].max() <= 1.0

    def test_mh_memory_per_step_is_bounded(self):
        # The chain is one float per coordinate and step, plus one kept
        # uniform, which exists briefly both as an array and as a list of
        # floats: about 48 B a step at dim 1.  The loop that kept one array
        # object per step peaked at about 133 B.
        n = 200_000
        tracemalloc.start()
        try:
            mh(SeededRng(1), lambda th: -0.5 * float(th @ th), [0.0], n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 80


def _mh_per_step(rng, log_p_star, init, num_samples, vari, warmup):
    """Random-walk MH that draws the whole chain's normals, then its uniforms,
    builds one new array per proposal, and joins the kept states at the end:
    the reference whose samples, counts and generator state ``mh`` must match."""
    current = np.asarray(init, dtype=float).reshape(-1)
    current_log = float(log_p_star(current))
    step = math.sqrt(vari)
    total = num_samples + warmup
    noise = rng.standard_normal((total, current.size))
    uniforms = rng.random(total)
    chain, accepted = [], 0
    for z, u in zip(noise, uniforms):
        proposal = z * step
        proposal += current
        proposal_log = float(log_p_star(proposal))
        log_ratio = proposal_log - current_log
        if log_ratio >= 0 or (u > 0 and math.log(u) < log_ratio):
            current, current_log = proposal, proposal_log
            accepted += 1
        chain.append(current)
    return np.concatenate(chain[warmup:]).reshape(num_samples, current.size), accepted


class TestPoissonRegression:
    def test_log_density_matches_scipy(self):
        log_p = poisson_regression_log_pstar(POISSON_DEMO_DATA)
        for alpha, beta in [(0.0, 0.0), (0.8, -0.2), (-1.0, 0.5)]:
            reference = (
                stats.norm.logpdf(alpha, 0, 10) + stats.norm.logpdf(beta, 0, 10)
                + sum(stats.poisson.logpmf(y, math.exp(alpha * x + beta))
                      for x, y in POISSON_DEMO_DATA)
            )
            assert math.isclose(log_p(np.array([alpha, beta])), reference, rel_tol=1e-9)

    def test_no_data_gives_prior_only(self):
        log_p = poisson_regression_log_pstar([])
        prior = 2 * float(stats.norm.logpdf(0.3, 0, 10))
        assert math.isclose(log_p(np.array([0.3, 0.3])), prior, rel_tol=1e-9)

    def test_array_and_pairs_give_the_same_bits(self):
        from_pairs = poisson_regression_log_pstar(POISSON_DEMO_DATA)
        from_array = poisson_regression_log_pstar(np.array(POISSON_DEMO_DATA))
        for theta in np.random.default_rng(0).normal(size=(20, 2)):
            assert from_pairs(theta) == from_array(theta)

    @pytest.mark.parametrize("data, message", [
        ([(0.1, 1.5)], "counts must be whole numbers"),  # not read as 1
        ([(0.1, -1)], "counts must be non-negative"),
        ([(0.1, 1, 2)], r"data must be \(x, y\) pairs"),
        ([0.1, 1], r"data must be \(x, y\) pairs"),
    ])
    def test_bad_data_rejected(self, data, message):
        with pytest.raises(ValidationError, match=message):
            poisson_regression_log_pstar(data)

    def test_posterior_moments(self):
        log_p = poisson_regression_log_pstar(POISSON_DEMO_DATA)
        trace = mh(SeededRng(2024), log_p, [0.0, 0.0], 5_000, 1.0, 1_000)
        mean_a, mean_b = trace.samples.mean(axis=0)
        corr = np.corrcoef(trace.samples.T)[0, 1]
        assert abs(mean_a - 0.84) < 0.15
        assert abs(mean_b + 0.2) < 0.15
        assert abs(corr + 0.63) < 0.15


class TestRbm:
    @pytest.fixture
    def small_model(self):
        rng = np.random.default_rng(0)
        return RbmModel(0.5 * rng.normal(size=(2, 2)), 0.3 * rng.normal(size=2),
                        0.3 * rng.normal(size=2))

    @staticmethod
    def _joint(model, v, h):
        v, h = np.asarray(v, float), np.asarray(h, float)
        return math.exp(v @ model.W @ h + model.a @ v + model.b @ h)

    def test_conditionals_match_enumeration(self, small_model):
        h_given_v, v_given_h = rbm_conditionals(small_model)
        for v in itertools.product((0, 1), repeat=2):
            total = sum(self._joint(small_model, v, h)
                        for h in itertools.product((0, 1), repeat=2))
            for j in range(2):
                mass = sum(self._joint(small_model, v, h)
                           for h in itertools.product((0, 1), repeat=2) if h[j] == 1)
                assert math.isclose(h_given_v(np.array(v))[j], mass / total, rel_tol=1e-12)

    def test_zero_weights_decouple(self):
        model = RbmModel(np.zeros((2, 3)), np.zeros(2), np.array([0.4, -0.3, 1.0]))
        h_given_v, _ = rbm_conditionals(model)
        assert_allclose(h_given_v(np.array([0, 0])), h_given_v(np.array([1, 1])))
        assert_allclose(h_given_v(np.array([0, 1])), 1 / (1 + np.exp(-model.b)))

    def test_unnormalised_marginal_matches_enumeration(self, small_model):
        for v in itertools.product((0, 1), repeat=2):
            direct = math.log(sum(self._joint(small_model, v, h)
                                  for h in itertools.product((0, 1), repeat=2)))
            assert math.isclose(rbm_visible_unnorm_logpmf(small_model, np.array(v)),
                                direct, rel_tol=1e-9)

    def test_gibbs_visible_distribution(self, small_model):
        sweeps = gibbs_rbm(SeededRng(17), small_model, 100_000)
        counts = Counter(map(tuple, sweeps.tolist()))
        log_masses = {
            v: rbm_visible_unnorm_logpmf(small_model, np.array(v))
            for v in itertools.product((0, 1), repeat=2)
        }
        z = sum(math.exp(lv) for lv in log_masses.values())
        tv = 0.5 * sum(abs(counts.get(v, 0) / 1e5 - math.exp(lv) / z)
                       for v, lv in log_masses.items())
        assert tv < 0.02

    def test_dimension_mismatch(self, small_model):
        h_given_v, _ = rbm_conditionals(small_model)
        with pytest.raises(ValidationError):
            h_given_v(np.array([0, 1, 1]))

    # Recorded from the sampler that drew n_hidden then n_visible uniforms
    # per half-sweep: hash of the visible sweeps, then the next uniform.
    # 1024 and 1025 sit on and just past the uniform block boundary.
    @pytest.mark.parametrize("seed, sweeps, v0, digest, next_u", [
        (0, 1, None, "9f44ac6acb8a37b0", 0.9127555772777217),
        (1, 1024, None, "104868d4ee104661", 0.18182824858896274),
        (2, 1025, None, "12d00e7d0e60dd8c", 0.7683515884551899),
        (3, 1, [1, 0, 1], "cf7605ed1bc735f6", 0.4331269402364738),
        (4, 1024, [0, 1, 1], "083ebd6c047d7f5e", 0.7573784121582634),
        (5, 1025, [1, 1, 0], "d30cb02a19cff6cb", 0.6980809760689654),
        (6, 2500, None, "f8a703cb624b9f5b", 0.06328564128528702),
    ])
    def test_gibbs_stream_is_pinned(self, seed, sweeps, v0, digest, next_u):
        assert samplers._GIBBS_BLOCK == 1024
        rng = np.random.default_rng(3)
        model = RbmModel(0.8 * rng.normal(size=(3, 2)), 0.3 * rng.normal(size=3),
                         0.3 * rng.normal(size=2))
        stream = SeededRng(seed)
        out = gibbs_rbm(stream, model, sweeps, v0)
        assert out.shape == (sweeps, 3)
        assert hashlib.sha256(out.astype(np.uint8).tobytes()).hexdigest()[:16] == digest
        assert float(stream.uniform()) == next_u

    @pytest.mark.parametrize("given_v0", [False, True])
    @pytest.mark.parametrize("sweeps", [1, 1024, 1025, 2500])
    @pytest.mark.parametrize("n_visible, n_hidden", [(1, 1), (2, 5), (3, 2), (7, 3), (12, 1), (12, 6)])
    def test_gibbs_matches_the_per_sweep_reference(self, n_visible, n_hidden, sweeps, given_v0):
        rng = np.random.default_rng(100 * n_visible + n_hidden)
        model = RbmModel(0.3 * rng.normal(size=(n_visible, n_hidden)), 0.2 * rng.normal(size=n_visible),
                         0.2 * rng.normal(size=n_hidden))
        v0 = rng.integers(0, 2, n_visible).tolist() if given_v0 else None
        seed = int(rng.integers(2**32))
        stream, ref_stream = SeededRng(seed), SeededRng(seed)
        out = gibbs_rbm(stream, model, sweeps, v0)
        assert out.dtype.kind == "i"
        assert_array_equal(out, _gibbs_per_sweep(ref_stream, model, sweeps, v0))
        assert float(stream.uniform()) == float(ref_stream.uniform())
        if n_visible == 12 and sweeps == 2500:  # more visible states than the rows kept
            assert len(np.unique(out, axis=0)) > samplers._GIBBS_BLOCK

    @pytest.mark.filterwarnings("error")
    def test_saturated_conditionals_warn_nothing(self):
        # exp(1e308) overflows to inf, so the sigmoid is exactly 0 or 1, as it should be.
        model = RbmModel([[1e308, -1e308]], [0.0], [-0.1, 0.2])
        h_given_v, v_given_h = rbm_conditionals(model)
        assert_array_equal(h_given_v([1]), [1.0, 0.0])
        assert_array_equal(v_given_h([0, 1]), [0.0])
        out = gibbs_rbm(SeededRng(1), model, 50)
        assert set(out.ravel().tolist()) <= {0, 1}

    @pytest.mark.parametrize("v0", [[0, 1, 1], [0, 2], [0.5, 1], [[0, 1]]])
    def test_gibbs_rejects_bad_v0(self, small_model, v0):
        with pytest.raises(ValidationError, match="v0 must"):
            gibbs_rbm(SeededRng(0), small_model, 5, v0)


def _gibbs_per_sweep(rng, model, sweeps, v0=None):
    """Block Gibbs that recomputes both conditional rows on every sweep: the
    reference whose chain and generator state ``gibbs_rbm`` must match."""
    v = samplers._check_binary(np.zeros(model.n_visible) if v0 is None else v0, model.n_visible, "v0")
    n_hidden = model.n_hidden
    out = np.empty((sweeps, model.n_visible), dtype=int)
    for start in range(0, sweeps, samplers._GIBBS_BLOCK):
        block = rng.uniform(size=(min(samplers._GIBBS_BLOCK, sweeps - start), n_hidden + model.n_visible))
        for k, u in enumerate(block, start):
            h = (u[:n_hidden] < samplers._hidden_probs(model, v)).astype(float)
            v = (u[n_hidden:] < samplers._visible_probs(model, h)).astype(float)
            out[k] = v
    return out


class TestEss:
    def test_iid_series(self):
        draws = SeededRng(21).normal(size=100_000)
        assert 0.9 < ess(draws) / 1e5 < 1.1

    def test_ar1_series(self):
        rng = SeededRng(22)
        noise = rng.normal(size=100_000)
        series = np.empty_like(noise)
        series[0] = 0.0
        for i in range(1, len(noise)):
            series[i] = 0.5 * series[i - 1] + noise[i]
        ratio = ess(series) / len(series)
        assert abs(ratio - 1 / 3) < 0.15 / 3  # analytic (1-rho)/(1+rho)

    def test_pair_variance_inflation_identity(self):
        # V(mean of two rho-correlated values) = sigma^2 (1 + rho) / 2,
        # i.e. the effective pair count is 2 / (1 + rho).
        rng = SeededRng(23)
        rho, sigma = 0.6, 1.0
        n = 400_000
        z1 = rng.normal(size=n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.normal(size=n)
        pair_means = 0.5 * (z1 + z2)
        expected = sigma**2 * (1 + rho) / 2
        assert math.isclose(pair_means.var(), expected, rel_tol=0.02)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError):
            ess(np.ones(100))
        with pytest.raises(ValidationError):
            ess([1.0])


class TestTraceExport:
    def test_round_trip(self, tmp_path):
        trace = mh(SeededRng(3), lambda th: -0.5 * float(th @ th), [0.0, 0.0], 500,
                   1.0, 50)
        csv_path = tmp_path / "trace.csv"
        json_path = tmp_path / "trace.json"
        export_trace(trace, csv_path, json_path, ["alpha", "beta"])
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "alpha,beta"
        assert len(rows) == 501
        sidecar = json.loads(json_path.read_text())
        assert sidecar["seed"] == 3 and sidecar["warmup"] == 50
        assert set(sidecar["ess"]) == {"alpha", "beta"}
        assert 0 < sidecar["acceptance_rate"] <= 1

    def test_trace_invariants(self):
        trace = mh(SeededRng(4), lambda th: -0.5 * float(th @ th), [0.0], 100, 1.0, 20)
        assert trace.samples.shape == (100, 1)
        assert trace.accepted <= trace.proposals == 120
        with pytest.raises(ValidationError):
            Trace(trace.samples, 0, 10, 5, 0)

    def test_coordinate_ess_is_null_without_spread(self):
        moving = [0.3, -1.0, 2.0, 0.5]
        trace = Trace(np.array([[1.5, x] for x in moving]), 0, 3, 4, 0)
        assert trace.coordinate_ess() == [None, ess(moving)]
        assert Trace(np.array([[0.2, 0.4]]), 0, 1, 1, 0).coordinate_ess() == [None, None]
        with pytest.raises(ValidationError, match="samples must be finite"):
            Trace(np.array([[0.0], [math.inf]]), 0, 1, 2, 0).coordinate_ess()
