"""Every parameter check goes through the checkers in ``numerics``: NaN and
infinities are rejected wherever a positive number, a finite array or a
symmetric matrix is required; a count, a cardinality or a seed must be an
integer, never truncated; and the error names the parameter."""

import math
import re
import warnings

import numpy as np
import pytest

from pgmlab import learning, numerics, samplers, sequential, variational
from pgmlab.errors import NumericError, ValidationError
from pgmlab.factors import DiscreteFactor, product, sum_marginalise
from pgmlab.graphs import Dag
from pgmlab.messages import FactorGraph
from pgmlab.samplers import SeededRng

SPD = [[2.0, 0.5], [0.5, 1.0]]
TARGET = variational.GaussianTarget(SPD, [1.0, 0.0])
MF_INIT = variational.MeanFieldState([0.0, 0.0], [1.0, 1.0])
SPINS = np.array([[1, 1], [1, -1], [-1, -1], [1, 1]])
CPT_DAG = Dag(["a"], {})
CPT_DATA = learning.BinaryDataset(["a"], [[0], [1], [1]])
PRIOR = sequential.Gaussian1(0.0, 1.0)
KALMAN = {"A": [1.0, 0.9], "B": [0.0, 0.3], "C": [2.0, 2.0], "D": [0.5, 0.5]}


def _kalman(name, value):
    coefficients = {**KALMAN, name: [1.0, value]}
    return sequential.KalmanModel(**coefficients, prior=PRIOR)


# name -> a call taking the value under test in place of a positive scalar.
POSITIVE = {
    "gram_schmidt tol": ("tol", lambda x: numerics.gram_schmidt([[1.0, 0.0], [2.0, 0.0]], tol=x)),
    "power_method tol": ("tol", lambda x: numerics.power_method(SPD, [1.0, 0.0], tol=x)),
    "finite_diff_grad h": ("h", lambda x: numerics.finite_diff_grad(lambda w: float(w @ w), [1.0], h=x)),
    "sample_exponential lam": ("lam", lambda x: samplers.sample_exponential(SeededRng(0), x, size=3)),
    "rejection_sample m": ("m", lambda x: samplers.rejection_sample(
        SeededRng(0), samplers.standard_normal_logpdf, lambda r: float(r.normal()),
        samplers.standard_normal_logpdf, x, 1)),
    "laplace_normal_bound b": ("b", samplers.laplace_normal_bound),
    "mh vari": ("vari", lambda x: samplers.mh(SeededRng(0), lambda th: 0.0, [0.0], 5, vari=x)),
    "BetaParams alpha": ("alpha", lambda x: learning.BetaParams(x, 1.0)),
    "BetaParams beta": ("beta", lambda x: learning.BetaParams(1.0, x)),
    "fit_cpt_bayes alpha0": ("alpha0", lambda x: learning.fit_cpt_bayes(CPT_DAG, CPT_DATA, x, 1.0)),
    "fit_cpt_bayes beta0": ("beta0", lambda x: learning.fit_cpt_bayes(CPT_DAG, CPT_DATA, 1.0, x)),
    "gaussian_mean_posterior sigma2": ("sigma2", lambda x: learning.gaussian_mean_posterior([1.0], x, PRIOR)),
    "ising2_mle tol": ("tol", lambda x: learning.ising2_mle(SPINS, tol=x)),
    "mean_field_solve tol": ("tol", lambda x: variational.mean_field_solve(TARGET, MF_INIT, tol=x)),
    "isotropic_kl lam2": ("lam2", lambda x: variational.isotropic_kl([1.0, 2.0], x)),
    "Gaussian1 variance": ("variance", lambda x: sequential.Gaussian1(0.0, x)),
}

# name -> a call taking an array with one non-finite entry.
FINITE = {
    "power_method matrix": ("matrix", lambda v: numerics.power_method([[v, 0.0], [0.0, v]], [1.0, 0.0])),
    "power_method w0": ("w0", lambda v: numerics.power_method(SPD, [1.0, v])),
    "sym_eigendecomposition matrix": ("matrix", lambda v: numerics.sym_eigendecomposition([[v, 0.0], [0.0, 1.0]])),
    "newton_step g": ("g", lambda v: numerics.newton_step([1.0, v], SPD)),
    "newton_step H": ("H", lambda v: numerics.newton_step([1.0, 0.0], [[v, 0.0], [0.0, 1.0]])),
    "mh init": ("init", lambda v: samplers.mh(SeededRng(0), lambda th: 0.0, [0.0, v], 5)),
    "RbmModel W": ("W", lambda v: samplers.RbmModel([[v]], [0.0], [0.0])),
    "RbmModel a": ("a", lambda v: samplers.RbmModel([[0.0]], [v], [0.0])),
    "RbmModel b": ("b", lambda v: samplers.RbmModel([[0.0]], [0.0], [v])),
    "gaussian_tail_weights threshold": ("threshold", lambda v: samplers.gaussian_tail_weights(SeededRng(0), 3, v)),
    "fa_marginal F": ("F", lambda v: learning.fa_marginal([[1.0], [v]], [[1.0]], [0.1, 0.1], [0.0, 0.0])),
    "fa_marginal C": ("C", lambda v: learning.fa_marginal([[1.0]], [[v]], [0.1], [0.0])),
    "fa_marginal psi": ("psi", lambda v: learning.fa_marginal([[1.0]], [[1.0]], [v], [0.0])),
    "fa_marginal c": ("c", lambda v: learning.fa_marginal([[1.0]], [[1.0]], [0.1], [v])),
    "fa_standardise F": ("F", lambda v: learning.fa_standardise([[1.0], [v]], [[1.0]])),
    "fa_standardise C": ("C", lambda v: learning.fa_standardise([[1.0]], [[v]])),
    "GaussianTarget precision": ("precision", lambda v: variational.GaussianTarget([[v, 0.0], [0.0, 1.0]], [0.0, 0.0])),
    "GaussianTarget linear": ("linear", lambda v: variational.GaussianTarget(SPD, [0.0, v])),
    "MeanFieldState means": ("means", lambda v: variational.MeanFieldState([0.0, v], [1.0, 1.0])),
    "MeanFieldState variances": ("variances", lambda v: variational.MeanFieldState([0.0, 0.0], [1.0, v])),
    "isotropic_kl_fit variances": ("variances", lambda v: variational.isotropic_kl_fit([1.0, v])),
    "isotropic_kl variances": ("variances", lambda v: variational.isotropic_kl([1.0, v], 1.0)),
    "DiscreteFactor values": ("factor values", lambda v: DiscreteFactor([("a", 2)], [1.0, v])),
    "Gaussian1 mean": ("mean", lambda v: sequential.Gaussian1(v, 1.0)),
    **{f"KalmanModel {name}": (name, lambda v, name=name: _kalman(name, v)) for name in KALMAN},
    "ising2_mle lo": ("lo", lambda v: learning.ising2_mle(SPINS, lo=v)),
    "ising2_mle hi": ("hi", lambda v: learning.ising2_mle(SPINS, hi=v)),
    "ess samples": ("samples", lambda v: samplers.ess([0.0, v, 1.0])),
    "gaussian_mle data": ("data", lambda v: learning.gaussian_mle([1.0, v])),
    "gaussian_mean_posterior data": ("data", lambda v: learning.gaussian_mean_posterior([1.0, v], 1.0, PRIOR)),
}

# name -> a call taking a matrix that should be symmetric.
SYMMETRIC = {
    "power_method": ("matrix", lambda a: numerics.power_method(a, [1.0, 0.0])),
    "sym_eigendecomposition": ("matrix", numerics.sym_eigendecomposition),
    "GaussianTarget": ("precision", lambda a: variational.GaussianTarget(a, [0.0, 0.0])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("site", sorted(POSITIVE))
def test_positive_scalar_rejects_nan_inf_and_zero(site, value):
    name, call = POSITIVE[site]
    reason = "finite" if value > 0 or math.isnan(value) else "positive"
    with pytest.raises(ValidationError, match=f"^{name} must be {reason}"):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(FINITE))
def test_array_rejects_a_non_finite_entry(site, value):
    name, call = FINITE[site]
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        call(value)


@pytest.mark.parametrize("site", sorted(SYMMETRIC))
def test_symmetric_check_has_no_relative_slack(site):
    # 1e-6 off in an entry of size 1 passed power_method's old check, whose
    # default relative tolerance was 1e-5.
    name, call = SYMMETRIC[site]
    call([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValidationError, match=f"^{name} must be symmetric"):
        call([[1.0, 0.5], [0.5 + 1e-6, 1.0]])


RBM = samplers.RbmModel([[0.0]], [0.0], [0.0])
HMM = sequential.DiscreteHmm.homogeneous([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.1, 0.9]], 2)
NORMAL = samplers.standard_normal_logpdf


def _draw_normal(rng):
    return float(rng.normal())


# name -> (what the error names, a call taking the value under test in place
# of an integer of at least 1).
COUNTS = {
    "rejection_sample n": ("n", lambda n: samplers.rejection_sample(
        SeededRng(0), NORMAL, _draw_normal, NORMAL, 1.0, n)),
    "rejection_normal_via_laplace n": ("n", lambda n: samplers.rejection_normal_via_laplace(SeededRng(0), n)),
    "importance_expectation n": ("n", lambda n: samplers.importance_expectation(
        SeededRng(0), lambda x: x, NORMAL, _draw_normal, NORMAL, n)),
    "gaussian_tail_weights n": ("n", lambda n: samplers.gaussian_tail_weights(SeededRng(0), n)),
    "self_normalised_importance n": ("n", lambda n: samplers.self_normalised_importance(
        SeededRng(0), sum, lambda r: [_draw_normal(r)], [lambda x: 1.0], n)),
    "mh num_samples": ("num_samples", lambda n: samplers.mh(SeededRng(0), lambda th: 0.0, [0.0], n)),
    "gibbs_rbm sweeps": ("sweeps", lambda n: samplers.gibbs_rbm(SeededRng(0), RBM, n)),
    "DiscreteHmm.homogeneous n_steps": ("n_steps", lambda n: sequential.DiscreteHmm.homogeneous(
        HMM.prior, HMM.transitions[0], HMM.emissions[0], n)),
    "ffbs_paths n_paths": ("n_paths", lambda n: sequential.ffbs_paths(HMM, [0, 1], SeededRng(0), n)),
    "mean_field_solve sweeps": ("sweeps", lambda n: variational.mean_field_solve(TARGET, MF_INIT, sweeps=n)),
    "power_method max_iters": ("max_iters", lambda n: numerics.power_method(SPD, [1.0, 0.0], max_iters=n)),
    "DiscreteFactor cardinality": ("variable 'a': cardinality", lambda n: DiscreteFactor.ones([("a", n)])),
    "FactorGraph cardinality": ("variable 'b': cardinality", lambda n: FactorGraph([("a", 2), ("b", n)], {})),
}

# The same for an integer of at least 0.
OFFSETS = {
    "SeededRng seed": ("seed", SeededRng),
    "mh warmup": ("warmup", lambda n: samplers.mh(SeededRng(0), lambda th: 0.0, [0.0], 5, warmup=n)),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, math.nan])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_count_must_be_a_positive_integer(site, value):
    name, call = COUNTS[site]
    with pytest.raises(ValidationError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [-1, 2.5, math.nan])
@pytest.mark.parametrize("site", sorted(OFFSETS))
def test_offset_must_be_a_non_negative_integer(site, value):
    name, call = OFFSETS[site]
    with pytest.raises(ValidationError, match=f"^{name} must be a non-negative integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("site", sorted(COUNTS) + sorted(OFFSETS))
def test_numpy_integer_is_accepted(site):
    _, call = {**COUNTS, **OFFSETS}[site]
    call(np.int64(200))


def test_count_returns_a_python_int():
    value = numerics.count(np.int64(3), "n")
    assert value == 3 and type(value) is int
    assert type(SeededRng(np.uint32(7)).seed) is int


def test_no_integer_cast_truncates():
    # An int() cast before the check used to turn each of these into a valid value.
    with pytest.raises(ValidationError, match=r"^variable 'a': cardinality must be a positive integer, got 2\.7$"):
        DiscreteFactor([("a", 2.7)], [1, 2])
    with pytest.raises(ValidationError, match=r"^variable 'b': cardinality must be a positive integer, got 2\.7$"):
        FactorGraph([("a", 2), ("b", 2.7)], {})
    with pytest.raises(ValidationError, match=r"^seed must be a non-negative integer, got 1\.5$"):
        SeededRng(1.5)


def test_factor_graph_refuses_a_duplicate_variable():
    with pytest.raises(ValidationError, match=r"^duplicate variable 'a'"):
        FactorGraph([("a", 2), ("a", 2)], {})



def _spins_from_csv(entry, tmp_path):
    path = tmp_path / "spins.csv"
    path.write_text(f"x1,x2\n1,{entry}\n")
    return learning.load_spin_csv(path)


# name -> (message, a call taking one entry of 0/1 or -1/+1 data).  The
# entries are checked as given: 1.5 is refused, where an int cast would
# truncate it to the allowed 1.
ENTRIES = {
    "BinaryDataset": ("entries must be 0 or 1", lambda v: learning.BinaryDataset(["a"], [[v], [1]])),
    "bernoulli_mle": ("entries must be 0 or 1", lambda v: learning.bernoulli_mle([v, 1])),
    "ising2_mle": ("entries must be -1 or \\+1", lambda v: learning.ising2_mle([[1, 1], [v, -1]])),
    "gibbs_rbm v0": ("v0 must be a 0/1 vector", lambda v: samplers.gibbs_rbm(SeededRng(0), RBM, 1, [v])),
}


@pytest.mark.parametrize("value", [1.5, math.nan])
@pytest.mark.parametrize("site", sorted(ENTRIES))
def test_entries_are_checked_before_an_integer_cast(site, value):
    message, call = ENTRIES[site]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(value)


def test_spin_csv_entries_must_be_spins(tmp_path):
    # A CSV cell is read as an int first, so 1.5 fails at the reader.
    with pytest.raises(ValidationError, match=r"^spin entries must be -1 or \+1$"):
        _spins_from_csv(0, tmp_path)
    with pytest.raises(ValidationError, match=r"cannot read row '1,1\.5'$"):
        _spins_from_csv(1.5, tmp_path)


def test_positive_passes_the_value_through():
    assert numerics.positive(3, "x") == 3
    v = np.array([1.0, 2.0])
    assert numerics.positive(v, "v") is v
    assert numerics.finite_array([[1, 2]], "v").dtype == float


class TestRejectionBudget:
    def test_small_scale_refused_before_drawing(self):
        rng, ref = SeededRng(1), SeededRng(1)
        with pytest.raises(ValidationError, match=r"^b=0\.1 needs about 4\.14e\+20 proposals for n=1 samples"):
            samplers.rejection_normal_via_laplace(rng, 1, 0.1)
        assert float(rng.uniform()) == float(ref.uniform())

    def test_limit_is_on_expected_proposals(self):
        m = samplers.laplace_normal_bound(0.3)
        n = int(samplers._MAX_PROPOSALS / m) + 1
        with pytest.raises(ValidationError, match=f"for n={n} samples, over the limit of 1e\\+08"):
            samplers.rejection_normal_via_laplace(SeededRng(2), n, 0.3)

    def test_benchmark_and_test_scales_stay_accepted(self):
        # b >= 0.3 with n <= 10,000 needs at most 6.2e5 proposals.
        assert 10_000 * samplers.laplace_normal_bound(0.3) < samplers._MAX_PROPOSALS


LIMIT = numerics.MAX_TABLE_ENTRIES

# Each sampler with a size over the one limit: the call and its message.
OVERSIZED = {
    "gibbs_rbm": (lambda rng: samplers.gibbs_rbm(rng, RBM, LIMIT + 1),
                  f"the chain of sweeps x n_visible = {LIMIT + 1} x 1 would have {LIMIT + 1} entries"),
    "gaussian_tail_weights": (lambda rng: samplers.gaussian_tail_weights(rng, 10**12),
                              "the importance sample would have 1000000000000 entries"),
    "self_normalised_importance": (lambda rng: samplers.self_normalised_importance(
        rng, lambda x: 0.0, lambda r: [0.0], [], LIMIT + 1), f"the importance weights would have {LIMIT + 1} entries"),
    "mh": (lambda rng: samplers.mh(rng, lambda th: 0.0, [0.0, 0.0], LIMIT // 2, warmup=1),
           f"the chain of \\(num_samples \\+ warmup\\) x dim = {LIMIT // 2 + 1} x 2 would have {LIMIT + 2} entries"),
}


@pytest.mark.parametrize("site", sorted(OVERSIZED))
def test_sampler_size_over_the_limit_is_refused_before_drawing(site):
    call, message = OVERSIZED[site]
    rng, ref = SeededRng(1), SeededRng(1)
    with pytest.raises(ValidationError, match=f"^{message}, over the limit of 16777216$"):
        call(rng)
    assert float(rng.uniform()) == float(ref.uniform())


def test_sampler_size_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_TABLE_ENTRIES", 6)
    assert samplers.gibbs_rbm(SeededRng(0), RBM, 6).shape == (6, 1)
    assert samplers.mh(SeededRng(0), lambda th: 0.0, [0.0, 0.0], 2, warmup=1).samples.shape == (2, 2)
    assert samplers.gaussian_tail_weights(SeededRng(0), 6).shape == (6,)
    with pytest.raises(ValidationError, match="over the limit of 6$"):
        samplers.gibbs_rbm(SeededRng(0), RBM, 7)


class TestFactorOverflow:
    def _overflowing(self):
        return (DiscreteFactor([("a", 2)], [1e300, 1e300]),
                DiscreteFactor([("a", 2), ("b", 2)], [1e300] * 4))

    def test_product_raises_numeric_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"factor product over \['a', 'b'\] overflows"):
                product(self._overflowing())

    def test_overflow_times_zero_is_still_an_overflow(self):
        big = DiscreteFactor([("a", 1)], [1e300])
        zero = DiscreteFactor([("b", 1)], [0.0])
        with pytest.raises(NumericError, match=r"factor product over \['a', 'b'\] overflows"):
            product([big, big, zero])

    def test_sum_raises_numeric_error_without_warning(self):
        f = DiscreteFactor([("a", 2)], [1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="summing 'a' out of a factor overflows"):
                sum_marginalise(f, "a")

    def test_underflow_to_zero_is_allowed(self):
        tiny = DiscreteFactor([("a", 1)], [1e-300])
        assert product([tiny, tiny]).values.tolist() == [0.0]


# name -> (what the error names, its range message for an integer out of range, a call
# taking the value under test in place of an HMM step or a mean-field coordinate).
INDICES = {
    "predict_hidden t": ("prediction step t", "prediction step t=3 must lie in [1, 2]",
                         lambda t: sequential.predict_hidden(HMM, [0], t)),
    "predict_visible t": ("prediction step t", "prediction step t=3 must lie in [1, 2]",
                          lambda t: sequential.predict_visible(HMM, [0], t)),
    "smooth_pairwise t": ("pair step t", "pair step t=3 must lie in [2, 2]",
                          lambda t: sequential.smooth_pairwise(HMM, [0, 1], t)),
    "ffbs_backward_kernel t": ("kernel step t", "kernel step t=3 must lie in [2, 2]",
                               lambda t: sequential.ffbs_backward_kernel(HMM, [0, 1], t)),
    "mf_update i": ("coordinate", "coordinate 3 out of range", lambda i: variational.mf_update(TARGET, MF_INIT, i)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, -1])
@pytest.mark.parametrize("site", sorted(INDICES))
def test_step_or_coordinate_must_be_an_integer(site, value):
    # 2.5 and 2.0 used to escape as a TypeError (an IndexError in mf_update).
    name, _, call = INDICES[site]
    with pytest.raises(ValidationError, match=f"^{name} must be a non-negative integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("site", sorted(INDICES))
def test_step_or_coordinate_keeps_its_range_message(site):
    _, message, call = INDICES[site]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(3)
    call(np.int64(1) if site == "mf_update i" else np.int64(2))
