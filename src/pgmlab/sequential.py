"""Discrete HMM inference, scalar Gaussian algebra, and the 1-D Kalman filter.

HMM steps are 1-based in the docs below; internally everything is 0-based.
Transition and emission matrices are row-stochastic: ``transitions[t][i, j]``
is p(h_{t+2}=j | h_{t+1}=i) and ``emissions[t][i, k]`` is p(v_{t+1}=k |
h_{t+1}=i).  All matrices may vary per step; use :meth:`DiscreteHmm.homogeneous`
for the common time-invariant case.  A matrix object repeated across steps
is validated once and stored once, as the model's own read-only copy, and
Viterbi takes its log once.  The distinct emission matrices sit side by side
in one table, from which each pass gathers the evidence of all its
observations at once.

Filtered quantities are stored normalised with the per-step normalisers
folded into a running log term, so long chains cannot underflow while the
unnormalised values remain recoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, NumericError, ValidationError
from .numerics import count, finite_array, float_array, positive, within_limit

_ROW_TOL = 1e-9


def _check_row_stochastic(m, what: str) -> np.ndarray:
    """A read-only copy of ``m``, once it is a matrix of finite non-negative entries whose
    rows sum to 1; a later write to the caller's array cannot reach the checked model."""
    m = float_array(m, what, copy=True)
    if m.ndim != 2:
        raise ValidationError(f"{what} must be a matrix")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} must have finite non-negative entries")
    if not np.allclose(m.sum(axis=1), 1.0, atol=_ROW_TOL, rtol=0.0):
        raise ValidationError(f"rows of {what} must sum to 1")
    m.setflags(write=False)
    return m


def _once_each(fn, matrices) -> tuple[list[np.ndarray], list[int]]:
    """``fn`` of each distinct matrix object, called once each in order of first use, and
    each step's index into those results; a time-invariant model holds one of each."""
    matrices = list(matrices)  # keeps every input alive while ids key the results
    index: dict[int, int] = {}
    results: list[np.ndarray] = []
    labels = []
    for m in matrices:
        i = index.get(id(m))
        if i is None:
            i = index[id(m)] = len(results)
            results.append(fn(m))
        labels.append(i)
    return results, labels


@dataclass(frozen=True, eq=False)
class DiscreteHmm:
    """Hidden Markov model with per-step transition and emission matrices, each
    array the model's own read-only copy.

    The distinct emission matrices are stored side by side in one table, matrix d in
    columns ``_emission_bounds[d]`` to ``_emission_bounds[d + 1]``, and step t uses
    matrix ``_emission_labels[t]``; ``emissions`` holds views of that table, so a pass
    gathers the evidence of all its steps from the table at once.
    """

    prior: np.ndarray
    transitions: tuple[np.ndarray, ...]
    emissions: tuple[np.ndarray, ...]
    _emission_table: np.ndarray = field(repr=False)
    _emission_bounds: np.ndarray = field(repr=False)
    _emission_labels: np.ndarray = field(repr=False)

    def __init__(self, prior, transitions: Sequence, emissions: Sequence):
        prior = float_array(prior, "prior", copy=True)
        if prior.ndim != 1 or np.any(prior < 0) or not np.all(np.isfinite(prior)):
            raise ValidationError("prior must be a finite non-negative vector")
        if abs(prior.sum() - 1.0) > _ROW_TOL:
            raise ValidationError("prior must sum to 1")
        prior.setflags(write=False)
        k = prior.size
        trans, trans_labels = _once_each(lambda m: _check_row_stochastic(m, "transition matrix"), transitions)
        emis, emis_labels = _once_each(lambda m: _check_row_stochastic(m, "emission matrix"), emissions)
        if len(emis_labels) != len(trans_labels) + 1:
            raise ValidationError("need one emission matrix per step and one transition per gap")
        if any(t.shape != (k, k) for t in trans):
            raise ValidationError("transition matrices must be square over the state count")
        if any(e.shape[0] != k for e in emis):
            raise ValidationError("emission rows must match the state count")
        bounds = np.cumsum([0] + [e.shape[1] for e in emis])
        table = np.concatenate(emis, axis=1)
        table.setflags(write=False)
        views = [table[:, a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "transitions", tuple(map(trans.__getitem__, trans_labels)))
        object.__setattr__(self, "emissions", tuple(map(views.__getitem__, emis_labels)))
        object.__setattr__(self, "_emission_table", table)
        object.__setattr__(self, "_emission_bounds", bounds)
        object.__setattr__(self, "_emission_labels", np.array(emis_labels, dtype=np.intp))

    @classmethod
    def homogeneous(cls, prior, transition, emission, n_steps: int) -> "DiscreteHmm":
        n_steps = count(n_steps, "n_steps")
        # Smoothing or sampling a full observation sequence fills a steps x states table;
        # a model too long for one is refused before any per-step tuple is built.  An
        # empty prior, which the constructor refuses, counts as one state here.
        states = max(float_array(prior, "prior").size, 1)
        within_limit(n_steps * states, f"the table of a full sequence, steps x states = {n_steps} x {states},")
        return cls(prior, [transition] * (n_steps - 1), [emission] * n_steps)

    @property
    def n_steps(self) -> int:
        return len(self.emissions)

    @property
    def n_states(self) -> int:
        return self.prior.size


def _check_observations(hmm: DiscreteHmm, observations: Sequence[int]) -> np.ndarray:
    """Each observation's column in the model's emission table, once each is a symbol of
    its step's emission alphabet."""
    obs = [count(v, "observation", least=0) for v in observations]
    n = len(obs)
    if not 1 <= n <= hmm.n_steps:
        raise ValidationError(f"need between 1 and {hmm.n_steps} observations")
    labels = hmm._emission_labels[:n]
    first = hmm._emission_bounds[labels]
    alphabet = hmm._emission_bounds[labels + 1] - first
    try:
        symbols = np.array(obs, dtype=np.intp)
        outside = np.flatnonzero(symbols >= alphabet)
    except OverflowError:  # a symbol past every index
        outside = [t for t, (v, size) in enumerate(zip(obs, alphabet.tolist())) if v >= size]
    if len(outside):
        t = outside[0]
        raise ValidationError(f"observation {obs[t]} at step {t + 1} outside the emission alphabet")
    return symbols + first


def _evidence(hmm: DiscreteHmm, columns: np.ndarray, fn=None) -> np.ndarray:
    """The (len(columns), K) array whose row t is the :func:`_check_observations` column t
    of the emission table, or of ``fn`` of the table: one gather for all steps."""
    table = hmm._emission_table if fn is None else fn(hmm._emission_table)
    return table.T[columns]


def alpha_filter(hmm: DiscreteHmm, observations: Sequence[int]) -> tuple[np.ndarray, float]:
    """Filtered marginals p(h_s | v_{1:s}) as an (n, K) array whose row t is
    step t + 1, plus the data log-likelihood log p(v_{1:n}).

    Each step extends the previous filtered distribution through the
    transition, multiplies in the evidence, and renormalises; the product of
    the per-step normalisers is the likelihood.
    """
    columns = _check_observations(hmm, observations)
    filtered, _, log_lik = _filter(hmm, _evidence(hmm, columns))
    return filtered, log_lik


def _filter(hmm: DiscreteHmm, evidence: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`alpha_filter` of the :func:`_evidence` rows, with the unnormalised rows: row t
    is step t + 1's evidence times the previous filtered row carried one step on."""
    filtered = np.empty_like(evidence)
    weighted = np.empty_like(evidence)
    log_lik = 0.0
    current = hmm.prior
    for t, (e, row, filtered_row) in enumerate(zip(evidence, weighted, filtered)):
        if t:
            current = current.dot(hmm.transitions[t - 1])
        norm = np.add.reduce(np.multiply(e, current, out=row))
        if norm <= 0.0:
            raise ImpossibleEvidenceError(f"evidence up to step {t + 1} has probability zero")
        current = np.divide(row, norm, out=filtered_row)
        log_lik += math.log(norm)
    return filtered, weighted, log_lik


def hidden_prediction(hmm: DiscreteHmm, observations: Sequence[int], t: int) -> tuple[np.ndarray, float]:
    """p(h_t | v_{1:u}) for t >= u, plus the log of the unnormalised mass.

    The unnormalised forward vector at step t is ``probs * exp(log_norm)``;
    its total mass equals p(v_{1:u}) for any t > u because the transition
    rows sum to one.
    """
    columns = _check_observations(hmm, observations)
    u = len(columns)
    if not u <= count(t, "prediction step t", least=0) <= hmm.n_steps:
        raise ValidationError(f"prediction step t={t} must lie in [{u}, {hmm.n_steps}]")
    filtered, _, log_lik = _filter(hmm, _evidence(hmm, columns))
    current = filtered[-1].copy()  # not a view that keeps every row alive
    for s in range(u + 1, t + 1):
        current = current.dot(hmm.transitions[s - 2])
    return current, log_lik


def predict_hidden(hmm: DiscreteHmm, observations: Sequence[int], t: int) -> np.ndarray:
    """Predictive distribution p(h_t | v_{1:u}) for a future step t > u."""
    probs, _ = hidden_prediction(hmm, observations, t)
    return probs


def predict_visible(hmm: DiscreteHmm, observations: Sequence[int], t: int) -> np.ndarray:
    """Predictive distribution p(v_t | v_{1:u}) = sum_h p(v_t|h_t) p(h_t|v_{1:u})."""
    hidden = predict_hidden(hmm, observations, t)
    return hmm.emissions[t - 1].T @ hidden


def _backward(hmm: DiscreteHmm, evidence: np.ndarray, first: int = 1) -> np.ndarray:
    """Backward vectors from step ``first`` on as an (n - first + 1, K) array whose row r is
    beta_{first+r}: beta_t is proportional to p(v_{t+1:n} | h_t), scaled to a peak of one;
    beta_n is all ones."""
    betas = np.empty((len(evidence) - first + 1, hmm.n_states))
    betas[-1] = 1.0
    for t in range(len(evidence) - 1, first - 1, -1):
        beta = hmm.transitions[t - 1].dot(evidence[t] * betas[t - first + 1])
        peak = np.maximum.reduce(beta)
        if peak <= 0.0:
            raise ImpossibleEvidenceError("evidence has probability zero")
        np.divide(beta, peak, out=betas[t - first])
    return betas


def smooth(hmm: DiscreteHmm, observations: Sequence[int]) -> np.ndarray:
    """Smoothed marginals p(h_t | v_{1:n}) as an (n, K) array whose row t is step
    t + 1, by the forward-backward product; the backward pass starts from all ones."""
    columns = _check_observations(hmm, observations)
    if len(columns) != hmm.n_steps:
        raise ValidationError("smoothing needs the full observation sequence")
    evidence = _evidence(hmm, columns)
    filtered, _, _ = _filter(hmm, evidence)
    joint = filtered * _backward(hmm, evidence)
    totals = np.add.reduce(joint, 1)
    if np.any(totals <= 0.0):
        raise ImpossibleEvidenceError("evidence has probability zero")
    return joint / totals[:, None]


def smooth_pairwise(hmm: DiscreteHmm, observations: Sequence[int], t: int) -> np.ndarray:
    """Joint smoothed matrix p(h_{t-1}, h_t | v_{1:n}), rows indexing h_{t-1}.

    Proportional to the forward vector at t-1, the backward vector at t, and
    the step-t transition and emission terms, so the forward pass runs over
    steps 1..t-1 and the backward pass over n..t.  Evidence of probability zero
    that neither pass meets leaves the joint with no mass.
    """
    columns = _check_observations(hmm, observations)
    n = len(columns)
    if n != hmm.n_steps:
        raise ValidationError("pairwise smoothing needs the full observation sequence")
    if not 2 <= count(t, "pair step t", least=0) <= n:
        raise ValidationError(f"pair step t={t} must lie in [2, {n}]")
    evidence = _evidence(hmm, columns)
    filtered, _, _ = _filter(hmm, evidence[:t - 1])
    beta = _backward(hmm, evidence, t)[0]
    joint = filtered[-1][:, None] * hmm.transitions[t - 2] * (evidence[t - 1] * beta)[None, :]
    total = joint.sum()
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return joint / total


def viterbi(hmm: DiscreteHmm, observations: Sequence[int]) -> tuple[list[int], float]:
    """Most probable hidden path and its log joint score log p(h, v).

    Standard log-domain recursion with backtracking tables; ties break to
    the lowest state index.
    """
    columns = _check_observations(hmm, observations)
    n = len(columns)
    with np.errstate(divide="ignore"):
        # Transposed: row j of a step's candidates holds the scores of every way into state j.
        log_into, labels = _once_each(lambda m: np.log(m.T, order="C"), hmm.transitions[:n - 1])
        log_evidence = _evidence(hmm, columns, np.log)
        scores = np.log(hmm.prior) + log_evidence[0]
    back: list[np.ndarray] = []
    for label, log_e in zip(labels, log_evidence[1:]):
        cand = log_into[label] + scores
        back.append(cand.argmax(1))
        scores = np.maximum.reduce(cand, 1) + log_e
    if not np.any(np.isfinite(scores)):
        raise ImpossibleEvidenceError("evidence has probability zero")
    path = [int(scores.argmax())]
    for t in range(n - 2, -1, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path, float(scores.max())


def ffbs_backward_kernel(hmm: DiscreteHmm, observations: Sequence[int], t: int) -> np.ndarray:
    """The backward sampling kernel p(h_{t-1} | h_t, v_{1:n}).

    Rows index h_t; row h sums to one exactly because the forward recursion
    defines the normaliser.
    """
    columns = _check_observations(hmm, observations)
    if not 2 <= count(t, "kernel step t", least=0) <= len(columns):
        raise ValidationError(f"kernel step t={t} must lie in [2, {len(columns)}]")
    evidence = _evidence(hmm, columns)
    filtered, weighted, _ = _filter(hmm, evidence)
    return _backward_kernels(hmm, evidence, filtered[:t], weighted[:t], first=t)[0]


def _backward_kernels(hmm: DiscreteHmm, evidence, filtered, weighted, first: int = 2) -> np.ndarray:
    """The :func:`ffbs_backward_kernel` of each step t from ``first`` to n = len(filtered) as
    slice t - first of one array.  Entry [h, j] of a slice is prev[j] * transitions[j, h] * emis[h]
    / weighted[h], with prev the filtered row before step t; it is 0 where weighted[h] is 0."""
    n, k = filtered.shape
    kernels = np.array([m.T for m in hmm.transitions[first - 2:n - 1]]).reshape(-1, k, k)
    kernels *= filtered[first - 2:-1, None, :]
    kernels *= evidence[first - 1:n, :, None]
    kernels /= np.where(weighted[first - 1:] > 0.0, weighted[first - 1:], np.inf)[:, :, None]
    return kernels


def ffbs(hmm: DiscreteHmm, observations: Sequence[int], rng) -> list[int]:
    """One hidden trajectory drawn from p(h_{1:n} | v_{1:n})."""
    return [int(s) for s in ffbs_paths(hmm, observations, rng, 1)[0]]


def ffbs_paths(hmm: DiscreteHmm, observations: Sequence[int], rng, n_paths: int) -> np.ndarray:
    """Draw ``n_paths`` posterior trajectories sharing one forward pass.

    Returns an integer array of shape (n_paths, n_steps).
    """
    n_paths = count(n_paths, "n_paths")
    columns = _check_observations(hmm, observations)
    n = len(columns)
    if n != hmm.n_steps:
        raise ValidationError("sampling needs the full observation sequence")
    evidence = _evidence(hmm, columns)
    filtered, weighted, _ = _filter(hmm, evidence)
    kernels = _backward_kernels(hmm, evidence, filtered, weighted)
    cdfs = np.cumsum(kernels, axis=2, out=kernels)
    # Row i of the block is the draw for step n - i, in the order of one call per step.
    uniforms = rng.uniform(size=(n, n_paths))
    paths = np.empty((n_paths, n), dtype=int)
    paths[:, n - 1] = _draw(uniforms[0], np.cumsum(filtered[-1])[None, :])
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = _draw(uniforms[n - t], cdfs[t - 1][paths[:, t]])
    return paths


def _draw(u: np.ndarray, cdf_rows: np.ndarray) -> np.ndarray:
    """One state per uniform by inverse transform: the count of cdf entries
    below it, capped at the last state against rounding."""
    return np.minimum((u[:, None] > cdf_rows).sum(axis=1), cdf_rows.shape[1] - 1)


# -- scalar Gaussian algebra and the Kalman filter ---------------------------


@dataclass(frozen=True)
class Gaussian1:
    """Scalar Gaussian given by mean and (strictly positive) variance."""

    mean: float
    var: float

    def __post_init__(self):
        finite_array(self.mean, "mean")
        positive(self.var, "variance")


def gaussian_product(a: Gaussian1, b: Gaussian1) -> Gaussian1:
    """Renormalised product of two Gaussian densities in the same variable.

    Written in the precision-weighted form, which is exactly symmetric in
    the two arguments.
    """
    total = a.var + b.var
    var = a.var * b.var / total
    mean = (a.mean * b.var + b.mean * a.var) / total
    return Gaussian1(mean, var)


def gaussian_linear_marginal(prior: Gaussian1, a: float, b: float) -> Gaussian1:
    """Distribution of a*x + b*noise for x ~ prior and unit Gaussian noise."""
    if b < 0:
        raise ValidationError("noise scale b must be non-negative")
    return Gaussian1(a * prior.mean, a * a * prior.var + b * b)


def _coefficients(name: str, seq) -> tuple[float, ...]:
    """One per-step coefficient list as floats; a scalar, a string or a
    non-numeric entry is a validation error."""
    if not isinstance(seq, (list, tuple, np.ndarray)) or any(isinstance(x, str) for x in seq):
        raise ValidationError(f"{name} must be a list of numbers")
    try:
        return tuple(finite_array([float(x) for x in seq], name).tolist())
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a list of numbers") from None


@dataclass(frozen=True)
class KalmanModel:
    """Scalar linear-Gaussian state-space model with per-step coefficients.

    Step s applies the transition h_s = A_s h_{s-1} + B_s xi_s to the
    previous state (``prior`` plays the role of h_0) and then conditions on
    the observation v_s = C_s h_s + D_s eta_s.  Setting A_1 = 1, B_1 = 0
    makes the prior the distribution of h_1 itself.
    """

    A: tuple[float, ...]
    B: tuple[float, ...]
    C: tuple[float, ...]
    D: tuple[float, ...]
    prior: Gaussian1

    def __init__(self, A, B, C, D, prior: Gaussian1):
        A, B, C, D = (_coefficients(name, seq) for name, seq in zip("ABCD", (A, B, C, D)))
        n = len(A)
        if not (len(B) == len(C) == len(D) == n) or n == 0:
            raise ValidationError("coefficient lists must be nonempty and of equal length")
        for s, (b, c, d) in enumerate(zip(B, C, D), start=1):
            if b < 0 or d < 0:
                raise ValidationError(f"B and D must be non-negative (step {s})")
            if d == 0 and c == 0:
                raise ValidationError(f"step {s} has both D=0 and C=0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "prior", prior)

    @property
    def n_steps(self) -> int:
        return len(self.A)


@dataclass(frozen=True)
class KalmanStep:
    mean: float
    var: float
    gain: float


def kalman_filter(model: KalmanModel, observations: Sequence[float]) -> list[KalmanStep]:
    """Filtered mean/variance and gain per step.

    Per step: propagate the previous posterior to the predictive
    N(A*mu, P) with P = A^2 sigma^2 + B^2, then correct with gain
    K = P*C / (C^2 P + D^2):  mu' = A*mu + K (v - C*A*mu) and
    sigma'^2 = (1 - K*C) P.  The variance is evaluated through the
    equivalent ratio P*D^2 / (C^2 P + D^2), which stays positive when
    K*C rounds to one in the near-noiseless-observation limit.  A state that
    overflows or has no variance (say A = B = 0) is a :class:`NumericError`, not a 0/0.
    """
    obs = finite_array(observations, "observations").tolist()
    if len(obs) != model.n_steps:
        raise ValidationError(f"expected {model.n_steps} observations, got {len(obs)}")
    mean, var = model.prior.mean, model.prior.var
    steps: list[KalmanStep] = []
    for s, (v, a, b, c, d) in enumerate(zip(obs, model.A, model.B, model.C, model.D), start=1):
        pred, p = a * mean, a * a * var + b * b
        total = c * c * p + d * d
        if not (math.isfinite(pred) and 0.0 < p < math.inf and 0.0 < total < math.inf):
            raise NumericError(f"filtered state at step {s} has predicted mean {pred} and variance {p}")
        gain = p * c / total
        mean, var = pred + gain * (v - c * pred), p * d * d / total
        if not (math.isfinite(mean) and 0.0 < var < math.inf):
            raise NumericError(f"filtered state at step {s} has mean {mean} and variance {var}")
        steps.append(KalmanStep(mean, var, gain))
    return steps
