"""Input generation: model documents, data files and seeds, all from one
workload seed.

Every input family draws from its own stream, seeded by
``derived_seed(seed, tag)``, so adding an input never changes another.
Sizes and structures are fixed; a seed changes only values, observations
and query sets, so the cost of an operation does not depend on the seed.  Inputs of
the known-failing probes use the fixed stream ``PROBE_SEED`` and do not
depend on the workload seed at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROBE_SEED = 20220627
CHAIN_CARD = 2
HMM_STATES = 4
HMM_SYMBOLS = 3


def derived_seed(seed: int, tag: str) -> int:
    """31 bits of sha256("<workload seed>:<tag>"): the ``--seed`` of a
    stochastic command, and the seed of the stream an input is drawn from."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def stream(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(derived_seed(seed, tag))


def _flat(table: np.ndarray) -> list[float]:
    # pgmlab tables list the first scope variable fastest.
    return [float(v) for v in table.reshape(-1, order="F")]


def write_json(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_csv(directory: Path, name: str, header: list[str], rows) -> str:
    path = directory / name
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -- factor graphs -------------------------------------------------------------


@dataclass
class Chain:
    """x0 - x1 - ... with a unary factor per variable and a pairwise factor
    per neighbouring pair; ``pair[i]`` is indexed [x_i, x_{i+1}]."""

    unary: np.ndarray  # (V, K)
    pair: np.ndarray  # (V-1, K, K)

    @property
    def names(self) -> list[str]:
        return [f"x{i}" for i in range(len(self.unary))]

    def document(self) -> dict:
        names = self.names
        k = self.unary.shape[1]
        factors = [{"name": f"u{i}", "scope": [n], "values": _flat(self.unary[i])}
                   for i, n in enumerate(names)]
        factors += [{"name": f"p{i}", "scope": [names[i], names[i + 1]], "values": _flat(self.pair[i])}
                    for i in range(len(names) - 1)]
        return {"variables": [{"name": n, "card": k} for n in names], "factors": factors}


def chain(rng: np.random.Generator, n_vars: int, card: int = CHAIN_CARD) -> Chain:
    return Chain(rng.uniform(0.1, 1.0, (n_vars, card)), rng.uniform(0.1, 1.0, (n_vars - 1, card, card)))


@dataclass
class Loopy:
    """Binary pairwise model on a grid (it has cycles), small enough to
    enumerate: ``edges`` index into ``names``."""

    names: list[str]
    unary: np.ndarray  # (n, 2)
    edges: list[tuple[int, int]]
    pair: np.ndarray  # (len(edges), 2, 2)

    def document(self) -> dict:
        factors = [{"name": f"u_{n}", "scope": [n], "values": _flat(self.unary[i])}
                   for i, n in enumerate(self.names)]
        factors += [{"name": f"e_{self.names[a]}_{self.names[b]}", "scope": [self.names[a], self.names[b]],
                     "values": _flat(self.pair[j])} for j, (a, b) in enumerate(self.edges)]
        return {"variables": [{"name": n, "card": 2} for n in self.names], "factors": factors}


def grid(rng: np.random.Generator, rows: int, cols: int) -> Loopy:
    names = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Loopy(names, rng.uniform(0.2, 1.0, (len(names), 2)), edges,
                 rng.uniform(0.2, 1.0, (len(edges), 2, 2)))


# -- graphs --------------------------------------------------------------------


def random_dag(rng: np.random.Generator, n_nodes: int, max_parents: int, prefix: str) -> dict:
    """A ``dag`` section: the parents of node i are drawn among nodes
    i-6..i-1, so the node order is a topological order.  The parent counts are fixed by ``max_parents`` and
    the position, only their identities come from ``rng``."""
    names = [f"{prefix}{i}" for i in range(n_nodes)]
    parents: dict[str, list[str]] = {}
    for i, name in enumerate(names):
        pool = list(range(max(0, i - 6), i))
        k = min(len(pool), max_parents)
        if k:
            parents[name] = [names[j] for j in sorted(rng.choice(pool, size=k, replace=False))]
    return {"nodes": names, "parents": parents}


def dsep_query(rng: np.random.Generator, nodes: list[str], n_given: int) -> tuple[str, str, list[str]]:
    picked = rng.choice(len(nodes), size=2 + n_given, replace=False)
    names = [nodes[i] for i in picked]
    return names[0], names[1], sorted(names[2:])


# -- sequential models -----------------------------------------------------------


@dataclass
class Hmm:
    prior: np.ndarray
    trans: np.ndarray  # rows: current state
    emis: np.ndarray  # rows: hidden state
    obs: list[int]

    def document(self) -> dict:
        return {"hmm": {"prior": self.prior.tolist(), "transitions": self.trans.tolist(),
                        "emissions": self.emis.tolist(), "steps": len(self.obs)}}


def _stochastic_rows(rng, rows: int, cols: int, zero_shift: int) -> np.ndarray:
    """Random row-stochastic matrix with one structural zero per row, so
    that some paths are impossible and path checks have teeth."""
    m = rng.uniform(0.1, 1.0, (rows, cols))
    for i in range(rows):
        m[i, (i + zero_shift) % cols] = 0.0
    return m / m.sum(axis=1, keepdims=True)


def hmm(rng: np.random.Generator, n_steps: int) -> Hmm:
    k, m = HMM_STATES, HMM_SYMBOLS
    prior = rng.uniform(0.1, 1.0, k)
    prior /= prior.sum()
    trans = _stochastic_rows(rng, k, k, 2)
    emis = _stochastic_rows(rng, k, m, 1)
    h = rng.choice(k, p=prior)
    obs = []
    for t in range(n_steps):
        if t:
            h = rng.choice(k, p=trans[h])
        obs.append(int(rng.choice(m, p=emis[h])))
    return Hmm(prior, trans, emis, obs)


@dataclass
class Kalman:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mean0: float
    var0: float
    obs: np.ndarray

    def document(self) -> dict:
        return {"kalman": {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist(),
                           "D": self.D.tolist(), "prior": {"mean": self.mean0, "var": self.var0}}}


def kalman(rng: np.random.Generator, n_steps: int) -> Kalman:
    obs = np.round(rng.normal(0.0, 2.0, n_steps), 6)
    return Kalman(rng.uniform(0.5, 1.1, n_steps), rng.uniform(0.1, 1.0, n_steps),
                  rng.uniform(0.5, 1.5, n_steps), rng.uniform(0.1, 1.0, n_steps),
                  float(rng.normal()), float(rng.uniform(0.5, 2.0)), obs)


# -- learning, sampling and variational inputs -------------------------------------


def binary_data(rng: np.random.Generator, dag: dict, n_rows: int) -> np.ndarray:
    """Ancestral samples of a random binary network over ``dag`` (columns in
    node order)."""
    nodes = dag["nodes"]
    col = {n: i for i, n in enumerate(nodes)}
    data = np.zeros((n_rows, len(nodes)), dtype=int)
    for n in nodes:
        parents = dag["parents"].get(n, [])
        config = np.zeros(n_rows, dtype=int)
        for j, p in enumerate(parents):
            config += (2 ** j) * data[:, col[p]]
        theta = rng.uniform(0.1, 0.9, 2 ** len(parents))
        data[:, col[n]] = (rng.uniform(size=n_rows) < theta[config]).astype(int)
    return data


def spins(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Pairs drawn from p(x1, x2) ~ exp(theta x1 x2 + x1 + x2)."""
    theta = rng.uniform(-0.8, 0.8)
    states = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    logits = theta * states[:, 0] * states[:, 1] + states.sum(axis=1)
    p = np.exp(logits - logits.max())
    return states[rng.choice(4, size=n_rows, p=p / p.sum())]


def rbm(rng: np.random.Generator, n_visible: int, n_hidden: int) -> dict:
    return {"rbm": {"W": rng.uniform(-0.8, 0.8, (n_visible, n_hidden)).tolist(),
                    "a": rng.uniform(-0.5, 0.5, n_visible).tolist(),
                    "b": rng.uniform(-0.5, 0.5, n_hidden).tolist()}}


def meanfield_target(rng: np.random.Generator, dim: int) -> dict:
    """A diagonally dominant precision matrix, so coordinate ascent converges."""
    off = rng.uniform(-0.3, 0.3, (dim, dim))
    lam = (off + off.T) / 2.0
    np.fill_diagonal(lam, rng.uniform(1.0, 2.0, dim) + np.abs(lam).sum(axis=1))
    return {"meanfield": {"precision": lam.tolist(), "linear": rng.normal(0.0, 1.0, dim).tolist()}}


def spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(0.0, 1.0, (n, n))
    return a @ a.T / n + 0.1 * np.eye(n)
