"""Reference computations written for the benchmark, independent of pgmlab.

The correctness checks compare pgmlab's outputs with these, or with
properties the method must have.  Everything here works in log space on
plain NumPy arrays and shares no code with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _log(x) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(x, dtype=float))


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(out, axis=axis) if axis is not None else float(out.reshape(()))


# -- chains ----------------------------------------------------------------------


def chain_forward_backward(unary: np.ndarray, pair: np.ndarray, evidence: dict[int, int] | None = None):
    """Marginals (V, K) and log Z of a chain; ``evidence`` clamps variables
    by zeroing their other states."""
    lu = _log(unary).copy()
    for i, s in (evidence or {}).items():
        keep = lu[i, s]
        lu[i] = -np.inf
        lu[i, s] = keep
    lp = _log(pair)
    n = len(lu)
    alpha = np.empty_like(lu)
    beta = np.zeros_like(lu)
    alpha[0] = lu[0]
    for i in range(1, n):
        alpha[i] = lu[i] + _logsumexp(alpha[i - 1][:, None] + lp[i - 1], axis=0)
    for i in range(n - 2, -1, -1):
        beta[i] = _logsumexp(lp[i] + (lu[i + 1] + beta[i + 1])[None, :], axis=1)
    log_z = _logsumexp(alpha[-1])
    marg = np.exp(alpha + beta - log_z)
    return marg / marg.sum(axis=1, keepdims=True), log_z


def chain_max_log_score(unary: np.ndarray, pair: np.ndarray) -> float:
    lu, lp = _log(unary), _log(pair)
    score = lu[0]
    for i in range(1, len(lu)):
        score = lu[i] + np.max(score[:, None] + lp[i - 1], axis=0)
    return float(score.max())


def chain_log_score(unary: np.ndarray, pair: np.ndarray, states: list[int]) -> float:
    total = sum(math.log(unary[i, s]) for i, s in enumerate(states))
    return total + sum(math.log(pair[i, states[i], states[i + 1]]) for i in range(len(states) - 1))


# -- enumeration of small discrete models ---------------------------------------------


def loopy_conditional(unary: np.ndarray, edges, pair: np.ndarray, keep: int, evidence: dict[int, int]) -> np.ndarray:
    """p(x_keep | evidence) by enumerating the whole binary joint."""
    n = len(unary)
    log_joint = np.zeros((2,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = 2
        log_joint = log_joint + _log(unary[i]).reshape(shape)
    for (a, b), table in zip(edges, pair):
        shape = [1] * n
        shape[a] = shape[b] = 2
        log_joint = log_joint + _log(table).reshape(shape)
    index = [slice(None)] * n
    for i, s in evidence.items():
        index[i] = s
    reduced = log_joint[tuple(index)]
    free = [i for i in range(n) if i not in evidence]
    axes = tuple(j for j, i in enumerate(free) if i != keep)
    dist = np.exp(_logsumexp(reduced, axis=axes))
    return dist / dist.sum()


def elimination_step_sizes(scopes: list[set[str]], order: list[str], card: int) -> list[int]:
    """Entries of the product table formed at each elimination step."""
    work = [set(s) for s in scopes]
    sizes = []
    for var in order:
        touching = [s for s in work if var in s]
        work = [s for s in work if var not in s]
        union = set().union(*touching)
        sizes.append(card ** len(union))
        work.append(union - {var})
    return sizes


def rbm_visible_marginals(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p(v_i = 1) with the hiddens summed out in closed form."""
    states = np.array(list(itertools.product((0, 1), repeat=len(a))), dtype=float)
    log_p = states @ a + np.logaddexp(0.0, states @ w + b).sum(axis=1)
    p = np.exp(log_p - log_p.max())
    return (p / p.sum()) @ states


def ising2_moment(theta: float) -> float:
    states = [(x1, x2) for x1 in (-1, 1) for x2 in (-1, 1)]
    weights = [math.exp(theta * x1 * x2 + x1 + x2) for x1, x2 in states]
    return sum(w * x1 * x2 for w, (x1, x2) in zip(weights, states)) / sum(weights)


# -- hidden Markov models ------------------------------------------------------------


def hmm_forward(prior, trans, emis, obs):
    """Log forward messages (n, K) and the log-likelihood."""
    lt, le = _log(trans), _log(emis)
    alpha = np.empty((len(obs), len(prior)))
    alpha[0] = _log(prior) + le[:, obs[0]]
    for t in range(1, len(obs)):
        alpha[t] = le[:, obs[t]] + _logsumexp(alpha[t - 1][:, None] + lt, axis=0)
    return alpha, _logsumexp(alpha[-1])


def hmm_filtered(prior, trans, emis, obs):
    alpha, log_lik = hmm_forward(prior, trans, emis, obs)
    filt = np.exp(alpha - _logsumexp(alpha, axis=1)[:, None])
    return filt, log_lik


def hmm_smoothed(prior, trans, emis, obs):
    alpha, log_lik = hmm_forward(prior, trans, emis, obs)
    lt, le = _log(trans), _log(emis)
    beta = np.zeros_like(alpha)
    for t in range(len(obs) - 2, -1, -1):
        beta[t] = _logsumexp(lt + (le[:, obs[t + 1]] + beta[t + 1])[None, :], axis=1)
    return np.exp(alpha + beta - log_lik)


def hmm_max_log_score(prior, trans, emis, obs) -> float:
    lt, le = _log(trans), _log(emis)
    score = _log(prior) + le[:, obs[0]]
    for t in range(1, len(obs)):
        score = le[:, obs[t]] + np.max(score[:, None] + lt, axis=0)
    return float(score.max())


def hmm_path_log_joint(prior, trans, emis, obs, path) -> float:
    """log p(h, v) of one hidden path; -inf when the path is impossible."""
    lt, le = _log(trans), _log(emis)
    total = _log(prior)[path[0]] + le[path[0], obs[0]]
    for t in range(1, len(obs)):
        total += lt[path[t - 1], path[t]] + le[path[t], obs[t]]
    return float(total)


# -- scalar Kalman filter -------------------------------------------------------------


def kalman(A, B, C, D, mean0: float, var0: float, obs) -> list[tuple[float, float, float]]:
    """(mean, var, gain) per step: predict through A, B, then update with
    the gain K = P C / (C^2 P + D^2) and var = (1 - K C) P."""
    m, v = mean0, var0
    out = []
    for a, b, c, d, y in zip(A, B, C, D, obs):
        m_pred, p = a * m, a * a * v + b * b
        gain = p * c / (c * c * p + d * d)
        m = m_pred + gain * (y - c * m_pred)
        v = (1.0 - gain * c) * p
        out.append((m, v, gain))
    return out


# -- graphs -----------------------------------------------------------------------------


def d_separated(parents: dict[str, list[str]], x: set[str], y: set[str], z: set[str]) -> bool:
    """The moralised-ancestral-graph test: keep the ancestors of x, y and z,
    marry co-parents, drop directions, delete z, and ask whether x still
    reaches y."""
    keep = set(x | y | z)
    stack = list(keep)
    while stack:
        for p in parents.get(stack.pop(), []):
            if p not in keep:
                keep.add(p)
                stack.append(p)
    adj: dict[str, set[str]] = {n: set() for n in keep}
    for child in keep:
        ps = parents.get(child, [])
        for p in ps:
            adj[child].add(p)
            adj[p].add(child)
        for p, q in itertools.combinations(ps, 2):
            adj[p].add(q)
            adj[q].add(p)
    seen = set(x)
    stack = list(x)
    while stack:
        for m in adj[stack.pop()]:
            if m in y:
                return False
            if m not in seen and m not in z:
                seen.add(m)
                stack.append(m)
    return True


def minimal_imap_parents(parents: dict[str, list[str]], ordering: list[str]) -> dict[str, list[str]]:
    """For each node, the smallest set S of its predecessors (ties broken by
    the lexicographic order of the sorted names) with
    node _|_ (predecessors - S) | S in the DAG ``parents``."""
    out: dict[str, list[str]] = {}
    for i, node in enumerate(ordering):
        pre = sorted(ordering[:i])
        chosen: tuple[str, ...] = tuple(pre)
        found = False
        for size in range(len(pre) + 1):
            for cand in itertools.combinations(pre, size):
                rest = set(pre) - set(cand)
                if not rest or d_separated(parents, {node}, rest, set(cand)):
                    chosen, found = cand, True
                    break
            if found:
                break
        if chosen:
            out[node] = sorted(chosen)
    return out
