"""Linear-algebra kernels: orthogonalisation, eigensolvers, gradients,
whitening, and the Newton solve."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pgmlab.errors import ConvergenceError, NotPositiveDefiniteError, SingularMatrixError, ValidationError
from pgmlab.numerics import (
    finite_diff_grad,
    grad_linear,
    grad_logabsdet,
    grad_norm,
    grad_quadratic,
    gram_schmidt,
    matrix_sqrt_psd,
    newton_step,
    power_method,
    sym_eigendecomposition,
    whitening_matrix,
)
from pgmlab.samplers import SeededRng, sample_laplace_unit


def random_spd(rng, n, jitter=0.1):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


class TestGramSchmidt:
    def test_two_vectors(self):
        basis, flags = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert_allclose(basis[0], [1, 0])
        assert_allclose(basis[1], [0, 1])
        assert flags == [False, False]

    def test_dependent_vector_flagged(self):
        basis, flags = gram_schmidt([np.array([1.0, 2.0]), np.array([2.0, 4.0])])
        assert flags == [False, True]
        assert np.linalg.norm(basis[1]) < 1e-9

    def test_zero_vector_first(self):
        basis, flags = gram_schmidt([np.zeros(3), np.array([0.0, 2.0, 0.0])])
        assert flags == [True, False]
        assert_allclose(basis[1], [0, 2, 0])

    def test_orthogonal_inputs_unchanged(self):
        inputs = [np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, -3.0])]
        basis, flags = gram_schmidt(inputs)
        for got, want in zip(basis, inputs):
            assert_allclose(got, want)
        assert flags == [False, False]

    def test_pairwise_orthogonality_and_span(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inputs = [rng.normal(size=5) for _ in range(4)]
            basis, flags = gram_schmidt(inputs)
            kept = [u for u, dep in zip(basis, flags) if not dep]
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    bound = 1e-9 * np.linalg.norm(kept[i]) * np.linalg.norm(kept[j])
                    assert abs(kept[i] @ kept[j]) <= max(bound, 1e-12)
            # every input is reconstructible from the kept basis
            for a in inputs:
                residual = a.copy()
                for q in kept:
                    residual -= (q @ a) / (q @ q) * q
                assert np.linalg.norm(residual) < 1e-8


class TestPowerMethod:
    def test_axis_aligned(self):
        w, lam = power_method(np.diag([3.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2))
        assert math.isclose(lam, 3.0, rel_tol=1e-9)
        assert math.isclose(abs(w[0]), 1.0, abs_tol=1e-6)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sigma = random_spd(rng, 4)
            vecs, vals = sym_eigendecomposition(sigma)
            w, lam = power_method(sigma, rng.normal(size=4))
            assert math.isclose(lam, vals[0], rel_tol=1e-6)
            assert min(np.linalg.norm(w - vecs[:, 0]), np.linalg.norm(w + vecs[:, 0])) < 1e-5

    def test_residual_at_convergence(self):
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 5)
        w, lam = power_method(sigma, rng.normal(size=5), tol=1e-12)
        assert np.linalg.norm(sigma @ w - lam * w) < 1e-6

    def test_budget_exhaustion_carries_iterate(self):
        sigma = np.diag([1.0, 1.0 - 1e-12])  # nearly degenerate spectrum
        with pytest.raises(ConvergenceError) as err:
            power_method(sigma, np.array([1.0, 1.0]), max_iters=3, tol=1e-300)
        assert err.value.last is not None

    def test_zero_start_rejected(self):
        with pytest.raises(ValidationError):
            power_method(np.eye(2), np.zeros(2))


class TestEigendecomposition:
    def test_identity(self):
        vecs, vals = sym_eigendecomposition(np.eye(3))
        assert_allclose(vals, np.ones(3))
        assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = random_spd(rng, 5, jitter=0.0)
            vecs, vals = sym_eigendecomposition(c)
            assert_allclose(vecs @ np.diag(vals) @ vecs.T, c, atol=1e-8)
            assert np.all(np.diff(vals) <= 1e-10)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(4)
        c = random_spd(rng, 4)
        _, vals = sym_eigendecomposition(c)
        assert math.isclose(np.trace(c), vals.sum(), rel_tol=1e-10)
        # LU-based determinant as the independent reference
        assert math.isclose(np.linalg.det(c), np.prod(vals), rel_tol=1e-7)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        c = random_spd(rng, 4)
        vecs, _ = sym_eigendecomposition(c)
        for j in range(4):
            lead = np.argmax(np.abs(vecs[:, j]))
            assert vecs[lead, j] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sym_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            sym_eigendecomposition(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestSqrtAndWhitening:
    def test_identity(self):
        assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)
        assert_allclose(whitening_matrix(np.eye(3)), np.eye(3), atol=1e-12)

    def test_sqrt_reconstruction(self):
        rng = np.random.default_rng(6)
        c = random_spd(rng, 4, jitter=0.0)
        m = matrix_sqrt_psd(c)
        assert_allclose(m @ m, c, atol=1e-8)

    def test_whitening_property(self):
        rng = np.random.default_rng(7)
        c = random_spd(rng, 4)
        v = whitening_matrix(c)
        assert_allclose(v @ c @ v.T, np.eye(4), atol=1e-8)

    def test_whitened_mixing_is_orthonormal(self):
        # independent unit-variance sources through an invertible mixing
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        exact_cov = a @ a.T
        v = whitening_matrix(exact_cov)
        mixed = v @ a
        assert_allclose(mixed @ mixed.T, np.eye(3), atol=1e-6)
        # empirical version at one million draws
        draws = sample_laplace_unit(SeededRng(42), size=(1_000_000, 3)) @ a.T
        v_hat = whitening_matrix(np.cov(draws.T, bias=True))
        mixed_hat = v_hat @ a
        assert_allclose(mixed_hat @ mixed_hat.T, np.eye(3), atol=1e-2)

    def test_singular_covariance_rejected_for_whitening(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            whitening_matrix(c)


class TestGradientKernels:
    def test_linear(self):
        a = np.array([1.0, -2.0, 0.5])
        assert_allclose(grad_linear(a), a)
        assert_allclose(finite_diff_grad(lambda w: a @ w, np.zeros(3)), a, atol=1e-8)

    def test_quadratic_symmetric_case(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 3)
        w = rng.normal(size=3)
        assert_allclose(grad_quadratic(a, w), 2 * a @ w, rtol=1e-12)

    def test_kernels_match_finite_differences(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 4))
        w = rng.normal(size=4)
        fd = finite_diff_grad(lambda x: x @ a @ x, w)
        assert_allclose(grad_quadratic(a, w), fd, rtol=1e-5)
        w2 = np.array([3.0, 4.0])
        assert_allclose(grad_norm(w2), [0.6, 0.8], rtol=1e-12)
        fd2 = finite_diff_grad(np.linalg.norm, w2)
        assert_allclose(grad_norm(w2), fd2, rtol=1e-6)
        mat = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        fd3 = finite_diff_grad(lambda m: np.linalg.slogdet(m)[1], mat)
        assert_allclose(grad_logabsdet(mat), fd3, rtol=1e-5)

    def test_logabsdet_identity(self):
        assert_allclose(grad_logabsdet(np.eye(3)), np.eye(3))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            grad_logabsdet(np.zeros((2, 2)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            grad_norm(np.zeros(3))


class TestNewtonStep:
    def test_one_step_exact_on_quadratic(self):
        rng = np.random.default_rng(11)
        h = random_spd(rng, 4)
        target = rng.normal(size=4)
        w0 = rng.normal(size=4)
        gradient = h @ (w0 - target)
        assert_allclose(w0 - newton_step(gradient, h), target, atol=1e-9)

    def test_zero_gradient(self):
        h = np.eye(3) * 2
        assert_allclose(newton_step(np.zeros(3), h), np.zeros(3))

    def test_identity_hessian(self):
        g = np.array([1.0, -2.0, 0.5])
        assert_allclose(newton_step(g, np.eye(3)), g)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            newton_step(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nan_hessian_rejected(self):
        with pytest.raises(ValidationError):
            newton_step(np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))
