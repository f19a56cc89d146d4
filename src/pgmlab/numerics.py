"""Linear-algebra kernels and matrix-calculus utilities.

Everything runs on NumPy alone.  The symmetric eigendecomposition wraps
``numpy.linalg.eigh`` under a deterministic convention: eigenvalues come
out descending and each eigenvector's largest-magnitude component is made
positive.  Newton steps solve through a Cholesky factor.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, SingularMatrixError, ValidationError


def float_array(x, what: str, copy: bool = False) -> np.ndarray:
    """``x`` as a float array, a fresh one if ``copy``; a non-numeric entry or
    a ragged nesting is a validation error naming ``what``, and so is an integer
    too large for a float."""
    try:
        return np.array(x, dtype=float, copy=True if copy else None)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric and rectangular") from None
    except OverflowError:
        raise ValidationError(f"{what} must be finite") from None


def finite_array(x, what: str) -> np.ndarray:
    """:func:`float_array` with every entry finite."""
    arr = float_array(x, what)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    return arr


def entries_in(x, allowed: tuple[int, ...], message: str) -> np.ndarray:
    """``x`` as an int array once every entry is one of ``allowed``.  The
    values are checked as given, before the cast, so 0.5 is refused rather
    than truncated to 0; a refused or non-numeric entry raises ``message``."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(message) from None
    if not np.isin(arr, allowed).all():
        raise ValidationError(message)
    return arr.astype(int)


def positive(x, what: str):
    """``x``, a number or an array, once every entry is checked: 0 and -inf
    are not positive; NaN and +inf, which pass ``x <= 0``, are not finite."""
    array = isinstance(x, np.ndarray)
    if (x <= 0).any() if array else x <= 0:
        raise ValidationError(f"{what} must be positive")
    if not (np.isfinite(x).all() if array else math.isfinite(x)):
        raise ValidationError(f"{what} must be finite" + ("" if array else f", got {x}"))
    return x


def count(n, what: str, least: int = 1) -> int:
    """``n`` as an int once it is an integer of at least ``least``, 1 or 0;
    2.5 and NaN are refused rather than truncated.  Builds no message unless it fails."""
    try:
        value = operator.index(n)
    except TypeError:
        value = None
    if value is None or value < least:
        raise ValidationError(f"{what} must be a {'positive' if least == 1 else 'non-negative'} integer, got {n!r}")
    return value


def check_symmetric(a: np.ndarray, what: str) -> None:
    """Raise unless ``a`` is a square matrix within 1e-9 of its transpose."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-9, rtol=0.0):
        raise ValidationError(f"{what} must be symmetric")


def gram_schmidt(vectors: Sequence[np.ndarray], tol: float = 1e-10) -> tuple[list[np.ndarray], list[bool]]:
    """Orthogonalise vectors in order, flagging dependent ones.

    Each output is the input minus its projections onto the previously kept
    outputs.  A residual with norm at most ``tol * norm(input)`` marks the
    input as linearly dependent; the (numerically zero) residual is still
    returned but never used as a projector afterwards.
    """
    positive(tol, "tol")
    arrays = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if len({a.size for a in arrays}) > 1:
        raise ValidationError("vectors must share a dimension")
    basis: list[np.ndarray] = []
    flags: list[bool] = []
    kept: list[np.ndarray] = []
    for a in arrays:
        u = a.copy()
        for q in kept:
            u -= (q @ a) / (q @ q) * q
        dependent = bool(np.linalg.norm(u) <= tol * np.linalg.norm(a))
        basis.append(u)
        flags.append(dependent)
        if not dependent:
            kept.append(u)
    return basis, flags


def power_method(
    sigma: np.ndarray,
    w0: np.ndarray,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a symmetric PSD matrix by repeated multiplication.

    Iterates v = sigma w, w = v / |v| until successive iterates agree up to
    sign within ``tol``; the eigenvalue is the Rayleigh quotient.  Raises
    :class:`ConvergenceError` (carrying the last iterate) if the budget runs
    out.
    """
    sigma = finite_array(sigma, "matrix")
    check_symmetric(sigma, "matrix")
    max_iters = count(max_iters, "max_iters")
    positive(tol, "tol")
    w = finite_array(w0, "w0").reshape(-1)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValidationError("w0 must be nonzero")
    w = w / norm
    for _ in range(max_iters):
        v = sigma @ w
        vnorm = np.linalg.norm(v)
        if vnorm == 0:
            raise ConvergenceError("iterate collapsed to zero", last=w)
        nxt = v / vnorm
        if min(np.linalg.norm(nxt - w), np.linalg.norm(nxt + w)) < tol:
            w = nxt
            return w, float(w @ sigma @ w)
        w = nxt
    raise ConvergenceError(f"no convergence in {max_iters} iterations", last=w)


def sym_eigendecomposition(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors (columns) and eigenvalues of a symmetric matrix.

    Eigenvalues are returned descending; each eigenvector's
    largest-magnitude component is positive.
    """
    a = finite_array(c, "matrix")
    check_symmetric(a, "matrix")
    eigvals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-eigvals, kind="stable")
    eigvals, vecs = eigvals[order], vecs[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.sign(vecs[lead, np.arange(len(lead))]), eigvals


def psd_eigendecomposition(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eigendecomposition` of a symmetric positive semi-definite
    matrix; an eigenvalue below -1e-9 is a validation error."""
    vecs, vals = sym_eigendecomposition(c)
    if vals.min() < -1e-9:
        raise ValidationError("matrix is not positive semi-definite")
    return vecs, vals


def matrix_sqrt_psd(c: np.ndarray) -> np.ndarray:
    """Symmetric square root M with M M = C for symmetric PSD C."""
    vecs, vals = psd_eigendecomposition(c)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def whitening_matrix(c: np.ndarray) -> np.ndarray:
    """V with V C V^T = I, namely diag(lambda^-1/2) E^T; needs C positive
    definite."""
    vecs, vals = sym_eigendecomposition(c)
    if vals.min() <= 1e-12 * max(vals.max(), 1.0):
        raise NotPositiveDefiniteError("covariance must be positive definite for whitening")
    return np.diag(vals ** -0.5) @ vecs.T


# -- closed-form gradient kernels --------------------------------------------


def grad_linear(a: np.ndarray) -> np.ndarray:
    """Gradient of w -> a.w is a itself."""
    return np.asarray(a, dtype=float).copy()


def grad_quadratic(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of w -> w.A w is (A + A^T) w."""
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float).reshape(-1)
    if a.shape != (w.size, w.size):
        raise ValidationError("A must be square over the dimension of w")
    return (a + a.T) @ w


def grad_norm(w: np.ndarray) -> np.ndarray:
    """Gradient of the Euclidean norm, w / |w|."""
    w = np.asarray(w, dtype=float).reshape(-1)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValidationError("w must be nonzero")
    return w / norm


def grad_logabsdet(w: np.ndarray) -> np.ndarray:
    """Gradient of W -> log |det W|, the transposed inverse."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError("W must be square")
    sign, logdet = np.linalg.slogdet(w)
    if sign == 0 or not np.isfinite(logdet):
        raise SingularMatrixError("W is singular")
    return np.linalg.inv(w).T


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    Works for matrix arguments as well: the perturbation runs over the
    flattened coordinates and the result has the shape of ``x``.
    """
    positive(h, "h")
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        grad[i] = (f((flat + bump).reshape(x.shape)) - f((flat - bump).reshape(x.shape))) / (2.0 * h)
    return grad.reshape(x.shape)


def newton_step(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Search direction p solving H p = g for symmetric positive definite H.

    The caller applies the update as w - p.  Solved through a Cholesky
    factorisation H = L L^T; failure to factor raises
    :class:`NotPositiveDefiniteError`.
    """
    g = finite_array(g, "g").reshape(-1)
    h = finite_array(h, "H")
    if h.shape != (g.size, g.size):
        raise ValidationError("H must be square over the dimension of g")
    try:
        lower = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky factorisation failed: {exc}") from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, g))
