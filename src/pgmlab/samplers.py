"""Random number contract and Monte Carlo machinery: inverse-transform and
rejection sampling, importance sampling, random-walk Metropolis-Hastings,
RBM block Gibbs, and chain diagnostics.

All target densities are consumed in the log domain.  Every sampler takes
a :class:`SeededRng`; identical seeds give bit-identical output on the same
build (the generator is NumPy's PCG64).
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .numerics import count, entries_in, finite_array, positive, within_limit

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class SeededRng(np.random.Generator):
    """NumPy's ``Generator`` on PCG64, with the seed recorded alongside
    results."""

    def __init__(self, seed: int):
        self.seed = count(seed, "seed", least=0)
        super().__init__(np.random.PCG64(self.seed))


# -- inverse transform sampling ------------------------------------------------


def sample_exponential(rng: SeededRng, lam: float, size=None):
    """Exponential(lam) via x = -log(1 - u) / lam."""
    positive(lam, "lam")
    return -np.log1p(-rng.uniform(size=size)) / lam


def sample_laplace_unit(rng: SeededRng, size=None):
    """Zero-mean unit-variance Laplace draw by inverting its cdf."""
    u = rng.uniform(size=size)
    return laplace_unit_ppf(u)


def laplace_unit_ppf(u):
    """Inverse cdf of the unit-variance Laplace:
    -sign(u - 1/2) * log(1 - 2|u - 1/2|) / sqrt(2)."""
    u = np.asarray(u, dtype=float)
    centred = u - 0.5
    out = -np.sign(centred) * np.log1p(-2.0 * np.abs(centred)) / math.sqrt(2.0)
    return out if out.shape else float(out)


def standard_normal_logpdf(x):
    x = np.asarray(x, dtype=float)
    out = -0.5 * x * x - LOG_SQRT_2PI
    return out if out.shape else float(out)


def laplace_logpdf(x, b: float):
    """log density of the zero-mean Laplace with scale b (variance 2 b^2)."""
    x = np.asarray(x, dtype=float)
    out = -np.abs(x) / b - math.log(2.0 * b)
    return out if out.shape else float(out)


# -- rejection sampling ---------------------------------------------------------


#: Proposals ``rejection_normal_via_laplace`` draws in one call; caps the
#: block's memory whatever the number of samples.
_REJECTION_BLOCK = 8192

#: Most proposals (n M expected) a ``rejection_normal_via_laplace`` call may
#: need: 10**8 take 3-6 s on a 2-vCPU Xeon VM, at 30-60 ns a proposal.  Also
#: the most a ``rejection_sample`` call may make.
_MAX_PROPOSALS = 10**8


def _check_log_acceptance(x, log_acc) -> None:
    """Raise unless the acceptance probability exp(log_acc) at proposal x is
    finite and at most one, to within 1e-9 in the log."""
    if math.isnan(log_acc) or log_acc == math.inf:
        raise NumericError(f"non-finite acceptance probability at x={x}")
    if log_acc > 1e-9:
        try:
            acceptance = math.exp(log_acc)
        except OverflowError:
            acceptance = math.inf
        raise NumericError(f"envelope bound violated at x={x}: acceptance {acceptance}")


def rejection_sample(
    rng: SeededRng,
    log_p_star: Callable[[float], float],
    propose: Callable[[SeededRng], float],
    log_q: Callable[[float], float],
    m: float,
    n: int,
) -> tuple[np.ndarray, float]:
    """Draw until ``n`` samples are accepted; accept x with probability
    p*(x) / (m q(x)).

    The caller asserts m >= sup p*/q; a proposal where the acceptance
    probability exceeds one beyond 1e-9 triggers a bound-violation error.
    A call still short of ``n`` after ``_MAX_PROPOSALS`` proposals raises a
    ``NumericError``.  Returns the samples and the empirical acceptance rate.
    """
    n = count(n, "n")
    log_m = math.log(positive(m, "m"))
    accepted: list[float] = []
    proposals = 0
    while len(accepted) < n:
        if proposals == _MAX_PROPOSALS:
            raise NumericError(f"{len(accepted)} of n={n} samples accepted after {proposals} proposals")
        x = propose(rng)
        proposals += 1
        log_acc = log_p_star(x) - log_q(x) - log_m
        _check_log_acceptance(x, log_acc)
        u = float(rng.uniform())
        if u > 0 and math.log(u) < log_acc:
            accepted.append(x)
    return np.asarray(accepted), n / proposals


def laplace_normal_bound(b: float) -> float:
    """sup over x of (standard normal pdf) / (Laplace(b) pdf):
    2b exp(1/(2 b^2)) / sqrt(2 pi)."""
    positive(b, "b")
    try:
        return 2.0 * b / math.sqrt(2.0 * math.pi) * math.exp(1.0 / (2.0 * b * b))
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"b={b} is too small: the envelope bound overflows") from None


def _log_below(u: np.ndarray, log_acc: np.ndarray) -> np.ndarray:
    """Elementwise ``u > 0 and math.log(u) < log_acc``, the accept test of
    ``rejection_sample``.

    ``np.log`` may round differently from ``math.log`` in the last bit, so
    the rare entries whose ``np.log`` lies within 1e-12 (relative) of a tie
    are decided again with ``math.log``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 gives log -inf
        log_u = np.log(u)
        near = np.flatnonzero(np.abs(log_u - log_acc) <= 1e-12 * np.abs(log_u))
    below = (u > 0) & (log_u < log_acc)
    for i in near:
        below[i] = u[i] > 0 and math.log(u[i]) < log_acc[i]
    return below


def rejection_normal_via_laplace(rng: SeededRng, n: int, b: float = 1.0) -> tuple[np.ndarray, float]:
    """Standard-normal sampler with a Laplace(b) proposal; b = 1 maximises
    the acceptance probability at sqrt(pi / (2 e)) ~ 0.76.

    This is ``rejection_sample`` with these two densities, evaluated over
    arrays instead of one draw at a time.  Each proposal takes two uniforms,
    the first for the Laplace draw and the second for the accept test.
    While k samples are still wanted, the k M proposals they are expected to
    need (at least k, at most ``_REJECTION_BLOCK``) are drawn as one block,
    which PCG64 fills in the order of one draw per proposal.  A block that
    holds the n-th acceptance is redrawn up to it, so the samples, the rate
    and the generator's state after the call all equal those of one draw
    per proposal; only a numeric error leaves the generator further on.  A
    call expecting more than ``_MAX_PROPOSALS`` proposals is refused.
    """
    m = laplace_normal_bound(b)
    n = count(n, "n")
    if n * m > _MAX_PROPOSALS:
        raise ValidationError(f"b={b} needs about {n * m:.3g} proposals for n={n} samples, "
                              f"over the limit of {_MAX_PROPOSALS:.0e}")
    log_m = math.log(m)
    scale = math.sqrt(2.0) * b  # unit-variance draw scaled to variance 2 b^2
    blocks = []
    wanted = n
    proposals = 0
    while wanted > 0:
        size = min(max(wanted, math.ceil(wanted * m)), _REJECTION_BLOCK)
        start = rng.bit_generator.state
        u = rng.uniform(size=(size, 2))
        x = laplace_unit_ppf(u[:, 0]) * scale
        log_acc = standard_normal_logpdf(x) - laplace_logpdf(x, b) - log_m
        below = _log_below(u[:, 1], log_acc)
        hits = np.flatnonzero(below)
        used = size if hits.size < wanted else int(hits[wanted - 1]) + 1
        bad = np.flatnonzero(~(log_acc[:used] <= 1e-9))
        if bad.size:
            _check_log_acceptance(float(x[bad[0]]), float(log_acc[bad[0]]))
        if used < size:  # rewind, then redraw only the proposals used
            rng.bit_generator.state = start
            rng.uniform(size=(used, 2))
        blocks.append(x[:used][below[:used]])
        wanted -= blocks[-1].size
        proposals += used
    return np.concatenate(blocks), n / proposals


# -- importance sampling ---------------------------------------------------------


def importance_expectation(
    rng: SeededRng,
    g: Callable[[float], float],
    log_p: Callable[[float], float],
    propose: Callable[[SeededRng], float],
    log_q: Callable[[float], float],
    n: int,
) -> float:
    """Plain importance-sampling estimate of E_p[g]:
    mean of g(x) exp(log p(x) - log q(x)) under x ~ q."""
    n = count(n, "n")
    total = 0.0
    for _ in range(n):
        x = propose(rng)
        log_w = log_p(x) - log_q(x)
        if not (math.isfinite(log_w) or log_w == -math.inf):
            raise NumericError(f"non-finite importance weight at draw x={x}")
        total += g(x) * math.exp(log_w)
    return total / n


@np.errstate(over="ignore")  # far in the tail, x^2 overflows and the weight is 0, as it should be
def gaussian_tail_weights(rng: SeededRng, n: int, threshold: float = 5.0) -> np.ndarray:
    """Weights for Pr(x > threshold) under a standard normal, using the
    exponential proposal shifted to the threshold.

    Evaluated in closed form, w(x) = exp(-x^2/2 + x - threshold) / sqrt(2 pi),
    which avoids cancellation between the two log densities.  More than
    ``MAX_TABLE_ENTRIES`` samples are refused before any is drawn.
    """
    n = count(n, "n")
    within_limit(n, "the importance sample")
    finite_array(threshold, "threshold")
    x = threshold + sample_exponential(rng, 1.0, size=n)
    return np.exp(-0.5 * x * x + x - threshold) / math.sqrt(2.0 * math.pi)


def gaussian_tail_probability(rng: SeededRng, n: int, threshold: float = 5.0) -> float:
    """Importance-sampling estimate of Pr(x > threshold), x ~ N(0,1)."""
    return float(gaussian_tail_weights(rng, n, threshold).mean())


def self_normalised_importance(
    rng: SeededRng,
    h: Callable[[Sequence[float]], float],
    base_sampler: Callable[[SeededRng], Sequence[float]],
    weight_factors: Sequence[Callable[[float], float]],
    n: int,
) -> tuple[float, float]:
    """Self-normalised estimate of E[h] under the reweighted path law.

    Each draw x from the base sampler gets weight w = prod_i g_i(x_i); the
    estimate is sum(W h) with W the normalised weights, and the returned
    z_hat = mean(w) estimates the normalising constant E_base[prod g_i].
    """
    n = count(n, "n")
    within_limit(n, "the importance weights")
    weights = np.empty(n)
    values = np.empty(n)
    for k in range(n):
        x = base_sampler(rng)
        w = 1.0
        for xi, gi in zip(x, weight_factors):
            w *= gi(xi)
        weights[k] = w
        values[k] = h(x)
    total = weights.sum()
    if total <= 0.0:
        raise NumericError("all importance weights are zero")
    return float((weights / total) @ values), float(weights.mean())


# -- Metropolis-Hastings -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trace:
    """Post-warmup MCMC output plus bookkeeping.

    ``samples`` has one row per retained sample; ``accepted`` counts accepted
    proposals over all ``proposals`` iterations (warm-up included).
    """

    samples: np.ndarray
    warmup: int
    accepted: int
    proposals: int
    seed: int

    def __post_init__(self):
        if self.accepted > self.proposals:
            raise ValidationError("accepted cannot exceed proposals")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0

    def coordinate_ess(self) -> list[float | None]:
        """:func:`ess` of each coordinate of ``samples``, or None for one
        with fewer than two samples or a constant series (every move
        rejected, say): a valid chain with nothing to estimate from."""
        out = []
        for column in self.samples.T:
            try:
                out.append(ess(column))
            except _NoSpread:
                out.append(None)
        return out


def mh(
    rng: SeededRng,
    log_p_star: Callable[[np.ndarray], float],
    init: Sequence[float],
    num_samples: int,
    vari: float = 1.0,
    warmup: int = 0,
) -> Trace:
    """Random-walk Metropolis-Hastings with an isotropic Gaussian proposal.

    The proposal adds N(0, vari) noise per dimension; the symmetric kernel
    cancels, so a move is accepted with probability
    exp(log p*(proposal) - log p*(current)).  Rejected steps copy the
    current state into the trace.  The first ``warmup`` states are
    discarded.  A chain of more than ``MAX_TABLE_ENTRIES`` entries,
    (num_samples + warmup) x dim, is refused before the first step.

    All draws are taken before the first call to ``log_p_star``, whatever
    the target says: ``standard_normal((num_samples + warmup, dim))`` for the
    whole chain's proposal noise, then ``random(num_samples + warmup)`` for
    its acceptance uniforms.  The chain is that one array of noise, and each
    proposal is built in the row it will occupy.  ``log_p_star`` receives
    that row of the chain being built: it must not keep or modify it.
    """
    num_samples = count(num_samples, "num_samples")
    positive(vari, "vari")
    warmup = count(warmup, "warmup", least=0)
    current = finite_array(init, "init").reshape(-1)
    if current.size == 0:
        raise ValidationError("init must not be empty")
    total = num_samples + warmup
    within_limit(total * current.size, f"the chain of (num_samples + warmup) x dim = {total} x {current.size}")
    current_log = float(log_p_star(current))
    if not math.isfinite(current_log):
        raise NumericError("log p* is not finite at the initial state")
    chain = rng.standard_normal((total, current.size))
    us = rng.random(total).tolist()  # floats: the loop is slower over np.float64
    chain *= math.sqrt(vari)
    accepted = 0
    for row, u in zip(chain, us):
        np.add(current, row, out=row)  # the proposal, current + step * z
        proposal_log = float(log_p_star(row))
        log_ratio = proposal_log - current_log
        if log_ratio >= 0 or (u > 0 and math.log(u) < log_ratio):
            current = row
            current_log = proposal_log
            accepted += 1
        else:
            row[...] = current
    return Trace(chain[warmup:], warmup, accepted, total, rng.seed)


def poisson_regression_log_pstar(
    data: Sequence[tuple[float, int]] | np.ndarray,
) -> Callable[[np.ndarray], float]:
    """Unnormalised log posterior for Poisson regression with rate
    exp(alpha x + beta) and N(0, 100) priors on both coefficients.  ``data``
    is (x, y) pairs or an (n, 2) array; each count y is a non-negative whole number."""
    table = finite_array(data, "data")
    if table.shape[1:] != (2,) and table.size:  # an empty table is no data
        raise ValidationError("data must be (x, y) pairs")
    xs, ys = table.reshape(-1, 2).T.copy()  # contiguous columns
    if np.any(ys < 0):
        raise ValidationError("counts must be non-negative")
    if np.any(ys != np.floor(ys)):
        raise ValidationError("counts must be whole numbers")
    log_fact = np.array([math.lgamma(y + 1.0) for y in ys])

    def log_pstar(theta: np.ndarray) -> float:
        alpha, beta = float(theta[0]), float(theta[1])
        prior = -0.5 * (alpha**2 + beta**2) / 100.0 - 2.0 * (LOG_SQRT_2PI + 0.5 * math.log(100.0))
        lin = alpha * xs + beta
        loglik = float(np.sum(ys * lin - np.exp(lin) - log_fact))
        return prior + loglik

    return log_pstar


#: The five-point dataset used for the Poisson-regression demonstration.
POISSON_DEMO_DATA = (
    (-0.50519053, 1),
    (-0.17185719, 0),
    (0.16147614, 2),
    (0.49480947, 1),
    (0.81509851, 2),
)


# -- restricted Boltzmann machine ------------------------------------------------


@dataclass(frozen=True, eq=False)
class RbmModel:
    """Binary RBM with weights W (visibles x hiddens) and biases a, b."""

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __init__(self, W, a, b):
        # Read-only copies: a later write to the caller's arrays cannot reach the checked model.
        W = finite_array(W, "W", copy=True)
        a = finite_array(a, "a", copy=True).reshape(-1)
        b = finite_array(b, "b", copy=True).reshape(-1)
        if W.ndim != 2 or W.shape != (a.size, b.size):
            raise ValidationError("W must be (len(a), len(b))")
        for name, x in (("W", W), ("a", a), ("b", b)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def n_visible(self) -> int:
        return self.a.size

    @property
    def n_hidden(self) -> int:
        return self.b.size


#: Sweeps whose uniforms ``gibbs_rbm`` draws in one call; caps the block's
#: memory whatever the number of sweeps.
_GIBBS_BLOCK = 1024


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _hidden_probs(model: RbmModel, v: np.ndarray) -> np.ndarray:
    return _sigmoid(v @ model.W + model.b)


def _visible_probs(model: RbmModel, h: np.ndarray) -> np.ndarray:
    return _sigmoid(model.W @ h + model.a)


def rbm_conditionals(model: RbmModel) -> tuple[Callable, Callable]:
    """The factorised conditionals: p(h_j=1 | v) = sigmoid(v W[:,j] + b_j)
    and p(v_i=1 | h) = sigmoid(W[i,:] h + a_i), each returned as a vector."""

    @np.errstate(over="ignore")  # a saturated sigmoid is 0 or 1, as it should be
    def hidden_given_visible(v) -> np.ndarray:
        return _hidden_probs(model, _check_binary(v, model.n_visible, "v"))

    @np.errstate(over="ignore")
    def visible_given_hidden(h) -> np.ndarray:
        return _visible_probs(model, _check_binary(h, model.n_hidden, "h"))

    return hidden_given_visible, visible_given_hidden


def _check_binary(x, size: int, name: str) -> np.ndarray:
    x = entries_in(x, (0, 1), f"{name} must be a 0/1 vector")
    if x.shape != (size,):
        raise ValidationError(f"{name} must have length {size}")
    return x.astype(float)


@np.errstate(over="ignore")  # a saturated sigmoid is 0 or 1, as it should be
def gibbs_rbm(rng: SeededRng, model: RbmModel, sweeps: int, v0=None) -> np.ndarray:
    """Block Gibbs chain: each sweep resamples all hiddens given the
    visibles, then all visibles given the hiddens.

    Returns the visible configuration after every sweep, an int array of
    shape (sweeps, n_visible); more than ``MAX_TABLE_ENTRIES`` entries are
    refused before anything is drawn.  Each sweep consumes ``n_hidden`` then
    ``n_visible`` uniforms; they are drawn up to ``_GIBBS_BLOCK`` sweeps at
    a time, which PCG64 yields in the same order as one draw per half-sweep.
    A state's conditional row, p(h | v) or p(v | h), is computed once per
    visited state and kept for the first ``_GIBBS_BLOCK`` states of each
    layer, so a small RBM mostly compares uniforms; the chain is
    bit-identical to one that recomputes every row.
    """
    sweeps = count(sweeps, "sweeps")
    within_limit(sweeps * model.n_visible, f"the chain of sweeps x n_visible = {sweeps} x {model.n_visible}")
    v = _check_binary(np.zeros(model.n_visible) if v0 is None else v0, model.n_visible, "v0") == 1
    n_hidden = model.n_hidden
    out = np.empty((sweeps, model.n_visible), dtype=int)
    hidden_rows, visible_rows = {}, {}  # state bytes -> its conditional row
    for start in range(0, sweeps, _GIBBS_BLOCK):
        block = rng.uniform(size=(min(_GIBBS_BLOCK, sweeps - start), n_hidden + model.n_visible))
        for k, (u_hidden, u_visible) in enumerate(zip(block[:, :n_hidden], block[:, n_hidden:]), start):
            p = hidden_rows.get(key := v.tobytes())
            if p is None:
                p = _hidden_probs(model, v.astype(float))
                if len(hidden_rows) < _GIBBS_BLOCK:
                    hidden_rows[key] = p
            h = u_hidden < p
            p = visible_rows.get(key := h.tobytes())
            if p is None:
                p = _visible_probs(model, h.astype(float))
                if len(visible_rows) < _GIBBS_BLOCK:
                    visible_rows[key] = p
            out[k] = v = u_visible < p
    return out


def rbm_visible_unnorm_logpmf(model: RbmModel, v) -> float:
    """log of the unnormalised marginal of the visibles:
    a.v + sum_j softplus(v W[:,j] + b_j), the hiddens summed out in closed
    form."""
    v = _check_binary(v, model.n_visible, "v")
    return float(model.a @ v + np.logaddexp(0.0, v @ model.W + model.b).sum())


# -- diagnostics -----------------------------------------------------------------


class _NoSpread(ValidationError):
    """A series too short or too constant for :func:`ess` to estimate from."""


def ess(samples: Sequence[float]) -> float:
    """Effective sample size S / (1 + 2 sum_k rho(k)).

    Autocorrelations are estimated from the series itself and the sum is
    truncated at the first negative estimate, since the infinite sum is not
    computable from a finite chain.
    """
    x = finite_array(samples, "samples").reshape(-1)
    s = x.size
    if s < 2:
        raise _NoSpread("need at least two samples")
    centred = x - x.mean()
    c0 = float(centred @ centred) / s
    if c0 == 0.0:
        raise _NoSpread("series is constant")
    rho_sum = 0.0
    for k in range(1, s):
        rho = float(centred[:-k] @ centred[k:]) / s / c0
        if rho < 0:
            break
        rho_sum += rho
    return s / (1.0 + 2.0 * rho_sum)


def _open_for_writing(path, **kwargs):
    """``path`` opened to be written from its start, but not truncated yet:
    append mode creates a missing file and leaves an existing one as it was
    until :func:`export_trace` has opened both of its files."""
    try:
        return open(path, "a", **kwargs)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def export_trace(trace: Trace, csv_path, json_path, param_names: Sequence[str]) -> None:
    """Write the trace as a CSV of samples plus a JSON sidecar with the
    seed, warm-up length, acceptance rate, and per-dimension ESS (null for a
    coordinate :meth:`Trace.coordinate_ess` has none for).

    The sidecar is built and both paths are opened before either is written,
    so a refused export creates no file and leaves an existing one as it was.
    Both paths naming one regular file is refused.
    """
    names = [str(n) for n in param_names]
    if len(names) != trace.samples.shape[1]:
        raise ValidationError("param_names must match the sample dimension")
    sidecar = {
        "seed": trace.seed,
        "warmup": trace.warmup,
        "acceptance_rate": trace.acceptance_rate,
        "ess": dict(zip(names, trace.coordinate_ess())),
    }
    csv_created = not os.path.lexists(csv_path)
    csv_fh = _open_for_writing(csv_path, newline="")
    try:
        json_fh = _open_for_writing(json_path)
        stats = [os.fstat(fh.fileno()) for fh in (csv_fh, json_fh)]
        if stat.S_ISREG(stats[0].st_mode) and os.path.samestat(*stats):
            json_fh.close()
            raise ValidationError(f"the trace and its sidecar cannot both be written to {json_path}")
    except ValidationError:
        csv_fh.close()
        if csv_created:
            os.remove(csv_path)
        raise
    with csv_fh, json_fh:
        for fh, st in zip((csv_fh, json_fh), stats):
            if stat.S_ISREG(st.st_mode):  # a device or pipe has nothing to truncate
                fh.truncate(0)
        writer = csv.writer(csv_fh)
        writer.writerow(names)
        writer.writerows(trace.samples.tolist())
        json.dump(sidecar, json_fh, indent=2)
        json_fh.write("\n")
