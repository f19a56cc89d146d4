"""HMM filtering/smoothing/decoding/sampling and the scalar Kalman filter."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pgmlab.errors import ImpossibleEvidenceError, NumericError, ValidationError
from pgmlab.factors import DiscreteFactor
from pgmlab.graphs import Dag
from pgmlab.messages import condition_factor_graph, dag_to_factor_graph, max_sum_map, sum_product
from pgmlab.samplers import SeededRng
from pgmlab.sequential import (
    DiscreteHmm,
    Gaussian1,
    KalmanModel,
    alpha_filter,
    ffbs,
    ffbs_backward_kernel,
    ffbs_paths,
    gaussian_linear_marginal,
    gaussian_product,
    hidden_prediction,
    kalman_filter,
    predict_hidden,
    predict_visible,
    smooth,
    smooth_pairwise,
    viterbi,
)

from conftest import hmm_joint_table, random_hmm


class TestFiltering:
    def test_flip_model_first_step(self, flip_hmm):
        filtered, log_lik = alpha_filter(flip_hmm, [1])
        assert_allclose(filtered[0], [0.4, 0.6], rtol=1e-12)
        assert math.isclose(math.exp(log_lik), 0.5, rel_tol=1e-12)

    def test_deterministic_model_forces_path(self):
        hmm = DiscreteHmm.homogeneous([1.0, 0.0], np.array([[0.0, 1.0], [1.0, 0.0]]),
                                      np.eye(2), 4)
        filtered, _ = alpha_filter(hmm, [0, 1, 0, 1])
        assert_allclose(filtered[0], [1, 0])
        assert_allclose(filtered[1], [0, 1])
        assert_allclose(filtered[3], [0, 1])

    def test_loglik_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            hmm = random_hmm(rng, 2, 3, 3)
            obs = [int(v) for v in rng.integers(0, 3, size=3)]
            _, log_lik = alpha_filter(hmm, obs)
            z = sum(hmm_joint_table(hmm, obs).values())
            assert math.isclose(math.exp(log_lik), z, rel_tol=1e-12)

    def test_filtered_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            hmm = random_hmm(rng, 2, n)
            obs = [int(v) for v in rng.integers(0, 2, size=n)]
            filtered, _ = alpha_filter(hmm, obs)
            for t in range(1, n + 1):
                table = hmm_joint_table(
                    DiscreteHmm(hmm.prior, hmm.transitions[: t - 1], hmm.emissions[:t]),
                    obs[:t])
                marg = np.zeros(2)
                for path, p in table.items():
                    marg[path[-1]] += p
                assert_allclose(filtered[t - 1], marg / marg.sum(), rtol=1e-9)

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(2)
        hmm = random_hmm(rng, 3, 4)
        obs = [0, 1, 0, 1]
        filtered, _ = alpha_filter(hmm, obs)
        for f in filtered:
            assert math.isclose(f.sum(), 1.0, abs_tol=1e-12)
        for s in smooth(hmm, obs):
            assert math.isclose(s.sum(), 1.0, abs_tol=1e-12)
        assert math.isclose(predict_hidden(hmm, obs[:2], 4).sum(), 1.0, abs_tol=1e-12)

    def test_impossible_evidence(self):
        hmm = DiscreteHmm.homogeneous([1.0, 0.0], np.eye(2),
                                      np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
        with pytest.raises(ImpossibleEvidenceError):
            alpha_filter(hmm, [1])

    def test_symbol_out_of_alphabet(self, flip_hmm):
        with pytest.raises(ValidationError):
            alpha_filter(flip_hmm, [2])

    @pytest.mark.parametrize("obs", [[1.7, 0], ["1", 0], [-1, 0], [math.nan]])
    def test_non_integer_or_negative_symbol_is_refused(self, flip_hmm, obs):
        # Once truncated by int(): [1.7, 0] and ["1", 0] answered as [1, 0].
        with pytest.raises(ValidationError, match="observation"):
            alpha_filter(flip_hmm, obs)

    def test_integral_numpy_symbols_are_accepted(self, flip_hmm):
        assert alpha_filter(flip_hmm, np.array([1, 0]))[1] == alpha_filter(flip_hmm, [1, 0])[1]

    def test_loglik_matches_factor_graph_partition(self, flip_hmm):
        # build the chain-with-rungs factor graph and condition on evidence
        obs = [1, 0, 1]
        nodes = ["h1", "h2", "h3", "v1", "v2", "v3"]
        dag = Dag.from_edges(nodes, [("h1", "h2"), ("h2", "h3"),
                                     ("h1", "v1"), ("h2", "v2"), ("h3", "v3")])

        def cpt_from(matrix, child, parent):
            return DiscreteFactor.from_ndarray(
                [(child, 2), (parent, 2)], np.asarray(matrix).T)

        cpts = {
            "h1": DiscreteFactor([("h1", 2)], flip_hmm.prior),
            "h2": cpt_from(flip_hmm.transitions[0], "h2", "h1"),
            "h3": cpt_from(flip_hmm.transitions[1], "h3", "h2"),
            "v1": cpt_from(flip_hmm.emissions[0], "v1", "h1"),
            "v2": cpt_from(flip_hmm.emissions[1], "v2", "h2"),
            "v3": cpt_from(flip_hmm.emissions[2], "v3", "h3"),
        }
        fg = dag_to_factor_graph(dag, cpts)
        reduced, offset = condition_factor_graph(fg, {"v1": 1, "v2": 0, "v3": 1})
        res = sum_product(reduced)
        _, log_lik = alpha_filter(flip_hmm, obs)
        assert math.isclose(res.log_partition + offset, log_lik, rel_tol=1e-9)


class TestPrediction:
    def test_worked_alpha_h2(self, flip_hmm):
        probs, log_norm = hidden_prediction(flip_hmm, [1], 2)
        assert_allclose(probs * math.exp(log_norm), [0.3, 0.2], rtol=1e-9)
        assert_allclose(probs, [0.6, 0.4], rtol=1e-12)

    def test_worked_visible_prediction(self, flip_hmm):
        probs = predict_visible(flip_hmm, [1], 3)
        assert math.isclose(probs[1], 0.52, rel_tol=1e-9)

    def test_prediction_at_u_is_filtered(self, flip_hmm):
        filtered, _ = alpha_filter(flip_hmm, [1, 0])
        assert_allclose(predict_hidden(flip_hmm, [1, 0], 2), filtered[-1], rtol=1e-12)

    def test_uniform_everything_stays_uniform(self):
        hmm = DiscreteHmm.homogeneous([0.5, 0.5], np.full((2, 2), 0.5),
                                      np.full((2, 2), 0.5), 4)
        assert_allclose(predict_hidden(hmm, [0], 4), [0.5, 0.5])
        assert_allclose(predict_visible(hmm, [0], 4), [0.5, 0.5])

    def test_emission_independent_of_state(self):
        emission = np.array([[0.3, 0.7], [0.3, 0.7]])
        hmm = DiscreteHmm.homogeneous([0.2, 0.8], np.array([[0.6, 0.4], [0.1, 0.9]]),
                                      emission, 3)
        assert_allclose(predict_visible(hmm, [1], 3), [0.3, 0.7], rtol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            hmm = random_hmm(rng, 2, 4)
            obs = [int(v) for v in rng.integers(0, 2, size=2)]
            table = hmm_joint_table(hmm, [0, 0, 0, 0])  # placeholder structure
            # direct enumeration of p(h4, v1:2)
            total = np.zeros(2)
            z = 0.0
            import itertools
            for path in itertools.product(range(2), repeat=4):
                p = hmm.prior[path[0]] * hmm.emissions[0][path[0], obs[0]]
                p *= hmm.transitions[0][path[0], path[1]] * hmm.emissions[1][path[1], obs[1]]
                p *= hmm.transitions[1][path[1], path[2]]
                p *= hmm.transitions[2][path[2], path[3]]
                total[path[3]] += p
                z += p
            assert_allclose(predict_hidden(hmm, obs, 4), total / z, rtol=1e-9)


class TestSmoothing:
    def test_last_step_equals_filtered(self):
        rng = np.random.default_rng(4)
        hmm = random_hmm(rng, 2, 4)
        obs = [0, 1, 1, 0]
        filtered, _ = alpha_filter(hmm, obs)
        assert_allclose(smooth(hmm, obs)[-1], filtered[-1], rtol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            hmm = random_hmm(rng, 2, n)
            obs = [int(v) for v in rng.integers(0, 2, size=n)]
            table = hmm_joint_table(hmm, obs)
            z = sum(table.values())
            smoothed = smooth(hmm, obs)
            for t in range(n):
                marg = np.zeros(2)
                for path, p in table.items():
                    marg[path[t]] += p
                assert_allclose(smoothed[t], marg / z, atol=1e-9)

    def test_pairwise_matches_enumeration(self):
        rng = np.random.default_rng(6)
        hmm = random_hmm(rng, 2, 4)
        obs = [1, 0, 1, 1]
        table = hmm_joint_table(hmm, obs)
        z = sum(table.values())
        for t in range(2, 5):
            pair = smooth_pairwise(hmm, obs, t)
            ref = np.zeros((2, 2))
            for path, p in table.items():
                ref[path[t - 2], path[t - 1]] += p
            assert_allclose(pair, ref / z, atol=1e-9)


class TestViterbi:
    def test_single_step(self, flip_hmm):
        hmm = DiscreteHmm(flip_hmm.prior, [], [flip_hmm.emissions[0]])
        path, score = viterbi(hmm, [1])
        assert path == [1]
        assert math.isclose(math.exp(score), 0.5 * 0.6, rel_tol=1e-12)

    def test_flip_model_matches_enumeration(self, flip_hmm):
        obs = [1, 1, 1]
        table = hmm_joint_table(flip_hmm, obs)
        best = max(table, key=table.get)
        path, score = viterbi(flip_hmm, obs)
        assert tuple(path) == best
        assert math.isclose(math.exp(score), table[best], rel_tol=1e-12)

    def test_random_models_match_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            hmm = random_hmm(rng, 2, n)
            obs = [int(v) for v in rng.integers(0, 2, size=n)]
            table = hmm_joint_table(hmm, obs)
            path, score = viterbi(hmm, obs)
            assert math.isclose(math.exp(score), max(table.values()), rel_tol=1e-9)
            assert math.isclose(table[tuple(path)], max(table.values()), rel_tol=1e-9)

    def test_agrees_with_max_sum_on_factor_graph(self, flip_hmm):
        obs = [1, 0, 1]
        # chain factor tree over the hiddens with evidence folded in
        factors = {
            "f1": DiscreteFactor([("h1", 2)],
                                 flip_hmm.prior * flip_hmm.emissions[0][:, obs[0]]),
        }
        for t in range(1, 3):
            table = flip_hmm.transitions[t - 1] * flip_hmm.emissions[t][:, obs[t]][None, :]
            factors[f"f{t + 1}"] = DiscreteFactor.from_ndarray(
                [(f"h{t}", 2), (f"h{t + 1}", 2)], table)
        from pgmlab.messages import FactorGraph

        fg = FactorGraph([(f"h{t}", 2) for t in range(1, 4)], factors)
        ms = max_sum_map(fg, "h3")
        path, score = viterbi(flip_hmm, obs)
        assert [ms.assignment[f"h{t}"] for t in range(1, 4)] == path
        assert math.isclose(ms.log_score, score, rel_tol=1e-9)


class TestFfbs:
    def test_deterministic_model_unique_path(self):
        hmm = DiscreteHmm.homogeneous([1.0, 0.0], np.array([[0.0, 1.0], [1.0, 0.0]]),
                                      np.eye(2), 3)
        rng = SeededRng(0)
        for _ in range(20):
            assert ffbs(hmm, [0, 1, 0], rng) == [0, 1, 0]

    def test_backward_kernel_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        hmm = random_hmm(rng, 3, 4)
        obs = [0, 1, 1, 0]
        for t in range(2, 5):
            kernel = ffbs_backward_kernel(hmm, obs, t)
            assert_allclose(kernel.sum(axis=1), np.ones(3), atol=1e-12)

    def test_path_distribution_matches_posterior(self):
        rng = np.random.default_rng(10)
        hmm = random_hmm(rng, 2, 3)
        obs = [1, 0, 1]
        table = hmm_joint_table(hmm, obs)
        z = sum(table.values())
        draws = ffbs_paths(hmm, obs, SeededRng(99), 100_000)
        counts = Counter(map(tuple, draws.tolist()))
        tv = 0.5 * sum(abs(counts.get(path, 0) / 1e5 - p / z) for path, p in table.items())
        assert tv < 0.02

    def test_per_step_marginals_match_smoothing(self):
        rng = np.random.default_rng(11)
        hmm = random_hmm(rng, 2, 3)
        obs = [0, 0, 1]
        draws = ffbs_paths(hmm, obs, SeededRng(123), 100_000)
        smoothed = smooth(hmm, obs)
        for t in range(3):
            freq = np.bincount(draws[:, t], minlength=2) / draws.shape[0]
            assert_allclose(freq, smoothed[t], atol=0.02)


    def test_pinned_paths_for_a_fixed_seed(self):
        # Recorded from the kernel-per-step implementation; building the
        # kernels from one forward pass must not change a single draw.
        hmm = random_hmm(np.random.default_rng(5), 3, 12, 3)
        obs = [0, 2, 1, 1, 0, 2, 2, 1, 0, 0, 1, 2]
        paths = ffbs_paths(hmm, obs, np.random.default_rng(2024), 4)
        assert paths.tolist() == [
            [1, 0, 1, 1, 0, 1, 0, 2, 0, 1, 2, 2],
            [2, 0, 2, 0, 0, 0, 1, 2, 1, 0, 0, 1],
            [0, 2, 2, 1, 1, 1, 1, 0, 0, 2, 0, 1],
            [2, 1, 0, 1, 0, 1, 2, 0, 1, 2, 1, 2],
        ]
        # Structural zeros leave some kernel rows all zero.
        sparse = DiscreteHmm.homogeneous(
            [0.5, 0.5, 0.0], [[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
            [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], 10)
        paths = ffbs_paths(sparse, [0, 1, 1, 0, 1, 0, 0, 1, 1, 0], np.random.default_rng(7), 3)
        assert paths.tolist() == [
            [1, 0, 1, 0, 1, 0, 1, 0, 2, 1],
            [0, 2, 1, 2, 1, 2, 0, 2, 1, 2],
            [0, 2, 1, 0, 1, 2, 0, 2, 1, 2],
        ]


@st.composite
def hmm_and_observations(draw):
    """A random HMM with at most 3 states, 5 steps and 3 symbols, and a full
    observation sequence for it."""
    n_states, n_steps, n_symbols = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    hmm = random_hmm(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n_states, n_steps, n_symbols)
    obs = draw(st.lists(st.integers(0, n_symbols - 1), min_size=n_steps, max_size=n_steps))
    return hmm, obs


def _state_marginal(table: dict, t: int, n_states: int) -> np.ndarray:
    """p(h_t | evidence) from an enumerated joint table over hidden paths."""
    mass = np.zeros(n_states)
    for path, p in table.items():
        mass[path[t]] += p
    return mass / mass.sum()


class TestAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(case=hmm_and_observations(), data=st.data())
    def test_alpha_filter(self, case, data):
        hmm, obs = case
        prefix = obs[:data.draw(st.integers(1, len(obs)))]
        filtered, log_lik = alpha_filter(hmm, prefix)
        assert len(filtered) == len(prefix)
        for t in range(len(prefix)):
            expected = _state_marginal(hmm_joint_table(hmm, prefix[:t + 1]), t, hmm.n_states)
            assert_allclose(filtered[t], expected, rtol=1e-9, atol=1e-12)
        assert math.isclose(log_lik, math.log(sum(hmm_joint_table(hmm, prefix).values())), rel_tol=1e-9,
                            abs_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=hmm_and_observations())
    def test_smooth(self, case):
        hmm, obs = case
        table = hmm_joint_table(hmm, obs)
        smoothed = smooth(hmm, obs)
        assert len(smoothed) == len(obs)
        for t, probs in enumerate(smoothed):
            assert_allclose(probs, _state_marginal(table, t, hmm.n_states), rtol=1e-9, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=hmm_and_observations())
    def test_viterbi_attains_the_maximum(self, case):
        hmm, obs = case
        table = hmm_joint_table(hmm, obs)
        best = max(table.values())
        path, log_score = viterbi(hmm, obs)
        assert math.isclose(table[tuple(path)], best, rel_tol=1e-9)
        assert math.isclose(log_score, math.log(best), rel_tol=1e-9, abs_tol=1e-12)


class TestGaussianAlgebra:
    def test_equal_inputs_halve_variance(self):
        g = gaussian_product(Gaussian1(1.3, 0.8), Gaussian1(1.3, 0.8))
        assert math.isclose(g.mean, 1.3) and math.isclose(g.var, 0.4)

    def test_worked_product(self):
        g = gaussian_product(Gaussian1(0, 1), Gaussian1(2, 1))
        assert math.isclose(g.mean, 1.0) and math.isclose(g.var, 0.5)

    def test_symmetric_in_arguments(self):
        a, b = Gaussian1(-0.7, 2.0), Gaussian1(1.1, 0.5)
        assert gaussian_product(a, b) == gaussian_product(b, a)

    def test_product_matches_numeric_pdf_fit(self):
        a, b = Gaussian1(0.0, 1.0), Gaussian1(2.0, 1.0)
        got = gaussian_product(a, b)
        xs = np.linspace(-6, 8, 20001)
        pdf = np.exp(-0.5 * (xs - a.mean) ** 2 / a.var) * np.exp(-0.5 * (xs - b.mean) ** 2 / b.var)
        pdf /= np.trapezoid(pdf, xs)
        mean = np.trapezoid(xs * pdf, xs)
        var = np.trapezoid((xs - mean) ** 2 * pdf, xs)
        assert math.isclose(got.mean, mean, abs_tol=1e-6)
        assert math.isclose(got.var, var, abs_tol=1e-6)

    def test_linear_marginal_identity(self):
        prior = Gaussian1(0.4, 1.7)
        assert gaussian_linear_marginal(prior, 1.0, 0.0) == prior

    def test_linear_marginal_formula(self):
        out = gaussian_linear_marginal(Gaussian1(1.5, 2.0), 0.9, 0.5)
        assert math.isclose(out.mean, 1.35)
        assert math.isclose(out.var, 0.81 * 2.0 + 0.25)

    def test_linear_marginal_matches_monte_carlo(self):
        rng = SeededRng(12)
        prior = Gaussian1(0.8, 1.5)
        a, b = 1.3, 0.6
        draws = a * (prior.mean + math.sqrt(prior.var) * rng.normal(size=1_000_000))
        draws = draws + b * rng.normal(size=1_000_000)
        got = gaussian_linear_marginal(prior, a, b)
        assert math.isclose(draws.mean(), got.mean, rel_tol=0.01)
        assert math.isclose(draws.var(), got.var, rel_tol=0.01)


class TestKalman:
    def _model(self):
        return KalmanModel([1.0, 0.8, 1.1, 0.95], [0.0, 0.5, 0.4, 0.6],
                           [1.0, 0.7, 1.2, 0.9], [0.8, 0.5, 0.9, 0.4],
                           Gaussian1(0.3, 1.4))

    def test_noiseless_observation_limit(self):
        model = KalmanModel([1.0, 0.9, 0.9], [0.0, 0.3, 0.3], [2.0, 2.0, 2.0],
                            [1e-8] * 3, Gaussian1(0.0, 1.0))
        steps = kalman_filter(model, [1.0, -0.4, 0.8])
        for step, v in zip(steps, [1.0, -0.4, 0.8]):
            assert math.isclose(step.mean, v / 2.0, abs_tol=1e-4)
            assert step.var < 1e-8

    def test_uninformative_observation(self):
        model = KalmanModel([0.9, 0.9], [0.0, 0.0], [1.0, 1.0], [1e6, 1e6],
                            Gaussian1(2.0, 1.0))
        steps = kalman_filter(model, [100.0, -50.0])
        assert math.isclose(steps[0].mean, 0.9 * 2.0, abs_tol=1e-6)
        assert math.isclose(steps[1].mean, 0.9 * steps[0].mean, abs_tol=1e-6)

    def test_matches_dense_gaussian_conditioning(self):
        model = self._model()
        obs = [0.6, -0.2, 1.1, 0.4]
        steps = kalman_filter(model, obs)
        n = model.n_steps
        # express (h_1..h_n, v_1..v_n) as linear maps of (h_0, xi_1..n, eta_1..n)
        dim = 1 + 2 * n
        cov0 = np.zeros((dim, dim))
        cov0[0, 0] = model.prior.var
        for i in range(2 * n):
            cov0[1 + i, 1 + i] = 1.0
        mean0 = np.zeros(dim)
        mean0[0] = model.prior.mean
        rows = np.zeros((2 * n, dim))
        prev = np.zeros(dim)
        prev[0] = 1.0
        for s in range(n):
            h_row = model.A[s] * prev
            h_row[1 + s] += model.B[s]
            rows[s] = h_row
            prev = h_row
            v_row = model.C[s] * h_row
            v_row[1 + n + s] += model.D[s]
            rows[n + s] = v_row
        mean = rows @ mean0
        cov = rows @ cov0 @ rows.T
        for s in range(1, n + 1):
            idx = np.concatenate([[s - 1], n + np.arange(s)]).astype(int)
            mm, cc = mean[idx], cov[np.ix_(idx, idx)]
            gap = np.array(obs[:s]) - mm[1:]
            cond_mean = mm[0] + cc[0, 1:] @ np.linalg.solve(cc[1:, 1:], gap)
            cond_var = cc[0, 0] - cc[0, 1:] @ np.linalg.solve(cc[1:, 1:], cc[1:, 0])
            assert math.isclose(steps[s - 1].mean, cond_mean, abs_tol=1e-8)
            assert math.isclose(steps[s - 1].var, cond_var, abs_tol=1e-8)

    def test_variance_sequence_ignores_observations(self):
        model = self._model()
        a = kalman_filter(model, [0.0, 0.0, 0.0, 0.0])
        b = kalman_filter(model, [3.0, -2.0, 8.0, 0.5])
        assert all(x.var == y.var for x, y in zip(a, b))
        assert all(x.gain == y.gain for x, y in zip(a, b))

    def test_overflowing_state_is_a_numeric_error(self):
        model = KalmanModel([1e200, 1e200], [0.5, 0.5], [1.0, 1.0], [1.0, 1.0], Gaussian1(1e200, 1.0))
        with pytest.raises(NumericError, match="at step 1 "):
            kalman_filter(model, [0.0, 0.0])

    def test_a_step_without_variance_is_a_numeric_error(self):
        # A = B = 0 at step 2 leaves a predicted variance of 0 and so a filtered one of 0.
        model = KalmanModel([1.0, 0.0], [0.5, 0.0], [1.0, 1.0], [1.0, 1.0], Gaussian1(0.0, 1.0))
        with pytest.raises(NumericError, match="at step 2 "):
            kalman_filter(model, [0.3, 0.2])

    def test_a_step_without_any_variance_is_a_numeric_error(self):
        # With D = 0 as well, the gain's denominator C^2 P + D^2 is 0.
        model = KalmanModel([1.0, 0.0], [0.5, 0.0], [1.0, 1.0], [1.0, 0.0], Gaussian1(0.0, 1.0))
        with pytest.raises(NumericError, match="at step 2 "):
            kalman_filter(model, [0.3, 0.2])

    def test_validation(self):
        with pytest.raises(ValidationError):
            KalmanModel([1.0], [0.1], [0.0], [0.0], Gaussian1(0, 1))
        with pytest.raises(ValidationError):
            kalman_filter(self._model(), [1.0])
        with pytest.raises(ValidationError):
            Gaussian1(0.0, 0.0)


# -- the recursions against their per-step forms ---------------------------------
# The step loops as they were before the logs were taken once per matrix and the
# smoothing product became one array operation; the recursions must match them bit
# for bit.

def reference_viterbi(hmm, obs):
    with np.errstate(divide="ignore"):
        scores = np.log(hmm.prior) + np.log(hmm.emissions[0][:, obs[0]])
        back = []
        for t in range(1, len(obs)):
            cand = scores[:, None] + np.log(hmm.transitions[t - 1])
            back.append(cand.argmax(axis=0))
            scores = cand.max(axis=0) + np.log(hmm.emissions[t][:, obs[t]])
    if not np.any(np.isfinite(scores)):
        raise ImpossibleEvidenceError("evidence has probability zero")
    path = [int(scores.argmax())]
    for t in range(len(obs) - 2, -1, -1):
        path.append(int(back[t][path[-1]]))
    return path[::-1], float(scores.max())


def reference_smooth(hmm, obs):
    filtered, _ = alpha_filter(hmm, obs)
    betas = [np.ones(hmm.n_states)]
    for t in range(len(obs) - 1, 0, -1):
        beta = hmm.transitions[t - 1] @ (hmm.emissions[t][:, obs[t]] * betas[-1])
        peak = beta.max()
        if peak <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        betas.append(beta / peak)
    out = []
    for alpha, beta in zip(filtered, betas[::-1]):
        joint = alpha * beta
        total = joint.sum()
        if total <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        out.append(joint / total)
    return out


@st.composite
def sparse_hmms(draw):
    """Up to 40 states and 12 steps, per-step (or shared) matrices with zero entries."""
    k, m, n = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))

    def stochastic(rows, cols):
        w = rng.uniform(0.05, 1.0, (rows, cols)) * (rng.uniform(size=(rows, cols)) >= zeros)
        w[np.arange(rows), rng.integers(0, cols, rows)] += 0.01  # no empty row
        return w / w.sum(axis=1, keepdims=True)

    prior = stochastic(1, k)[0]
    if draw(st.booleans()):
        hmm = DiscreteHmm.homogeneous(prior, stochastic(k, k), stochastic(k, m), n)
    else:
        hmm = DiscreteHmm(prior, [stochastic(k, k) for _ in range(n - 1)], [stochastic(k, m) for _ in range(n)])
    return hmm, [int(v) for v in rng.integers(0, m, n)]


def _outcome(call):
    try:
        return call()
    except ImpossibleEvidenceError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(sparse_hmms())
def test_viterbi_and_smooth_match_the_step_loops(case):
    hmm, obs = case
    assert _outcome(lambda: viterbi(hmm, obs)) == _outcome(lambda: reference_viterbi(hmm, obs))
    result, expected = _outcome(lambda: smooth(hmm, obs)), _outcome(lambda: reference_smooth(hmm, obs))
    if isinstance(expected, str):
        assert result == expected
    else:
        assert len(result) == len(expected)
        for row, want in zip(result, expected):
            assert row.shape == want.shape and np.array_equal(row, want)


# FFBS as it was before the kernels became one array: one kernel per step, from its
# own matrix-vector product, and one call for uniforms per step.

def reference_backward_kernel(hmm, obs, filtered, t):
    prev = filtered[t - 2]
    emis = hmm.emissions[t - 1][:, obs[t - 1]]
    forward_t = emis * (hmm.transitions[t - 2].T @ prev)
    return np.divide(prev * hmm.transitions[t - 2].T * emis[:, None], forward_t[:, None],
                     out=np.zeros((hmm.n_states, hmm.n_states)), where=forward_t[:, None] > 0.0)


def reference_draw(rng, cdf_rows):
    u = rng.uniform(size=cdf_rows.shape[0])
    return np.minimum((u[:, None] > cdf_rows).sum(axis=1), cdf_rows.shape[1] - 1)


def reference_ffbs_paths(hmm, obs, rng, n_paths):
    filtered, _ = alpha_filter(hmm, obs)
    n = len(obs)
    kernels = [reference_backward_kernel(hmm, obs, filtered, t) for t in range(2, n + 1)]
    paths = np.empty((n_paths, n), dtype=int)
    paths[:, n - 1] = reference_draw(rng, np.broadcast_to(np.cumsum(filtered[-1]), (n_paths, hmm.n_states)))
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = reference_draw(rng, kernels[t - 1].cumsum(axis=1)[paths[:, t]])
    return paths


@settings(max_examples=150, deadline=None)
@given(sparse_hmms(), st.integers(1, 8))
def test_ffbs_matches_the_kernel_per_step_loop(case, n_paths):
    hmm, obs = case
    result = _outcome(lambda: ffbs_paths(hmm, obs, SeededRng(11), n_paths))
    expected = _outcome(lambda: reference_ffbs_paths(hmm, obs, SeededRng(11), n_paths))
    if isinstance(expected, str):
        assert result == expected
        return
    assert result.dtype == expected.dtype and np.array_equal(result, expected)
    filtered, _ = alpha_filter(hmm, obs)
    for t in range(2, len(obs) + 1):
        kernel, want = ffbs_backward_kernel(hmm, obs, t), reference_backward_kernel(hmm, obs, filtered, t)
        assert kernel.shape == want.shape and kernel.tobytes() == want.tobytes()


def test_results_keep_no_larger_buffer_alive():
    hmm = random_hmm(np.random.default_rng(5), 3, 6)
    obs = [0, 1, 1, 0, 0, 1]
    filtered, _ = alpha_filter(hmm, obs)
    for result in (filtered, smooth(hmm, obs), hidden_prediction(hmm, obs, 6)[0],
                   ffbs_backward_kernel(hmm, obs, 4)):
        assert result.base is None or result.base.size == result.size


def test_observations_are_checked_once(monkeypatch):
    import pgmlab.sequential as sequential

    hmm = random_hmm(np.random.default_rng(4), 3, 4)
    calls = []
    check = sequential._check_observations
    monkeypatch.setattr(sequential, "_check_observations", lambda *a: calls.append(1) or check(*a))
    for run in (lambda: alpha_filter(hmm, [0, 1, 1, 0]), lambda: smooth(hmm, [0, 1, 1, 0]),
                lambda: smooth_pairwise(hmm, [0, 1, 1, 0], 2), lambda: hidden_prediction(hmm, [0, 1], 3),
                lambda: ffbs_backward_kernel(hmm, [0, 1, 1, 0], 3),
                lambda: ffbs_paths(hmm, [0, 1, 1, 0], SeededRng(1), 2)):
        calls.clear()
        run()
        assert calls == [1]
