"""Mean-field coordinate ascent for Gaussian targets, plus KL-fit utilities.

The scope is deliberately quadratic log densities, where each coordinate
update is available in closed form: updating dimension i sets its marginal
to a Gaussian with variance 1/Lambda_ii and mean driven by the other
current means.  General targets would need numerical expectations and are
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .numerics import check_symmetric, count, finite_array, float_array, positive


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Quadratic log density log p(y) = -y.Lambda y / 2 + eta.y + const."""

    precision: np.ndarray
    linear: np.ndarray

    def __init__(self, precision, linear):
        lam = finite_array(precision, "precision")
        eta = finite_array(linear, "linear").reshape(-1)
        if lam.ndim != 2 or lam.shape != (eta.size, eta.size):
            raise ValidationError("precision must be square over the dimension of linear")
        check_symmetric(lam, "precision")
        positive(np.diag(lam), "diagonal precision")
        object.__setattr__(self, "precision", lam)
        object.__setattr__(self, "linear", eta)

    @property
    def dim(self) -> int:
        return self.linear.size


@dataclass(frozen=True, eq=False)
class MeanFieldState:
    """Factorised Gaussian: one mean and one positive variance per dimension."""

    means: np.ndarray
    variances: np.ndarray

    def __init__(self, means, variances):
        m = finite_array(means, "means").reshape(-1)
        v = positive(float_array(variances, "variances").reshape(-1), "variances")
        if m.size != v.size:
            raise ValidationError("means and variances must have equal length")
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)


def mf_update(target: GaussianTarget, state: MeanFieldState, i: int) -> MeanFieldState:
    """Exact coordinate update: marginal i becomes the target's conditional
    Gaussian averaged over the other current marginals.

    Only coordinate i changes: variance 1/Lambda_ii, mean
    (eta_i - sum_{j != i} Lambda_ij m_j) / Lambda_ii.
    """
    if count(i, "coordinate", least=0) >= target.dim:
        raise ValidationError(f"coordinate {i} out of range")
    if state.means.size != target.dim:
        raise ValidationError("state dimension does not match the target")
    lam = target.precision
    coupling = lam[i] @ state.means - lam[i, i] * state.means[i]
    mean_i = (target.linear[i] - coupling) / lam[i, i]
    means = state.means.copy()
    variances = state.variances.copy()
    means[i] = mean_i
    variances[i] = 1.0 / lam[i, i]
    return MeanFieldState(means, variances)


def mean_field_solve(
    target: GaussianTarget,
    init: MeanFieldState,
    sweeps: int = 1000,
    tol: float = 1e-12,
) -> MeanFieldState:
    """Cyclic coordinate updates until the largest mean change in a full
    sweep drops below ``tol``.

    Raises :class:`ConvergenceError` carrying the last state if the sweep
    budget runs out.  Variances are fixed at 1/Lambda_ii from the first
    sweep on, so convergence is measured on the means only.
    """
    sweeps = count(sweeps, "sweeps")
    positive(tol, "tol")
    state = init
    for _ in range(sweeps):
        previous = state.means
        for i in range(target.dim):
            state = mf_update(target, state, i)
        if np.max(np.abs(state.means - previous)) < tol:
            return state
    raise ConvergenceError(f"no convergence within {sweeps} sweeps", last=state)


def elbo(target: GaussianTarget, state: MeanFieldState) -> float:
    """Evidence lower bound up to the target's constant offset.

    E_q[log p] for the quadratic log p plus the entropy of the factorised
    Gaussian.  Only differences between states are meaningful because the
    target's normaliser is dropped.
    """
    if state.means.size != target.dim:
        raise ValidationError("state dimension does not match the target")
    m, v = state.means, state.variances
    lam = target.precision
    quad = float(m @ lam @ m + np.diag(lam) @ v)
    expected_log_p = -0.5 * quad + float(target.linear @ m)
    entropy = 0.5 * float(np.sum(np.log(2.0 * math.pi * math.e * v)))
    return expected_log_p + entropy


def isotropic_kl_fit(variances) -> float:
    """Shared variance minimising KL(q || p) from an isotropic Gaussian q to
    a product of zero-mean Gaussians p: the harmonic mean of the target
    variances."""
    v = positive(float_array(variances, "variances").reshape(-1), "variances")
    if v.size == 0:
        raise ValidationError("need at least one variance")
    return float(v.size / np.sum(1.0 / v))


def isotropic_kl(variances, lam2: float) -> float:
    """KL(q(.; lam2) || prod N(0, sigma_i^2)) up to constants:
    -d log(lam) + lam^2 / 2 * sum 1/sigma_i^2."""
    v = positive(float_array(variances, "variances").reshape(-1), "variances")
    positive(lam2, "lam2")
    return float(-0.5 * v.size * math.log(lam2) + 0.5 * lam2 * np.sum(1.0 / v))
