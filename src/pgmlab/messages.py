"""Exact sum-product and max-sum message passing on factor trees and forests.

Both run on one iterative engine parameterised by the semiring, on plain
arrays.  Sum-product messages are rescaled to a max entry of one with the
removed scale kept in a log term, so long chains cannot underflow while
:attr:`Message.linear` recovers the worked numbers.  A product of three or
more messages at a variable whose peak ends below 2**-500 is taken again in
logs, so a variable of high degree cannot underflow either.  Max-sum messages hold
log values plus argmax tables for backtracking.
Each connected component is a tree of its own, and the log partition
function of a forest is the sum over them.  :func:`conditioned_sum_product`,
:func:`marginal` and :func:`max_sum_map` accept forests, such as a tree split
by evidence on an interior variable; :func:`sum_product` and
:func:`factor_joint` need one connected tree.  Loops are always rejected.
Every query walks one rooted order, each component's breadth-first (node,
parent) pairs: :func:`marginal`, :func:`max_sum_map` and :func:`factor_joint`
send only the messages toward their root, and :func:`sum_product` sends those
and then the messages away from it, never one toward a leaf factor node.
Every pass keeps its :class:`Message` pairs in one dict keyed by edge.  A
message's inputs are broadcast along the factor's axes, max-sum moves the
target axis first by a transpose, reductions call the ufuncs directly, and a
max-sum query enters NumPy's divide-by-zero error state once, not once per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .factors import DiscreteFactor, _validate_scope, condition
from .graphs import Dag
from .numerics import count

Edge = tuple[str, str]  # (from node id, to node id)
Messages = Mapping[Edge, "Message"]

# A sum-product product of messages at a variable whose peak ends below this is taken in logs.
_PEAK_FLOOR = 2.0 ** -500


@dataclass(frozen=True)
class FactorGraph:
    """Bipartite graph of named variables and named factors.

    Node ids live in one namespace: a factor may not share a name with a
    variable.  Edges are implied by factor scopes.
    """

    variables: tuple[tuple[str, int], ...]
    factors: Mapping[str, DiscreteFactor]

    def __init__(self, variables: Sequence[tuple[str, int]], factors: Mapping[str, DiscreteFactor]):
        vars_tuple = _validate_scope(variables)
        cards = dict(vars_tuple)
        fdict: dict[str, DiscreteFactor] = {}
        adjacent: dict[str, list[str]] = {n: [] for n in cards}
        for fname, f in factors.items():
            fname = str(fname)
            if fname in cards or fname in fdict:
                raise ValidationError(f"duplicate node id {fname!r}")
            for vname, card in f.scope:
                if vname not in cards:
                    raise ValidationError(f"factor {fname!r} mentions undeclared variable {vname!r}")
                if cards[vname] != card:
                    raise ValidationError(f"cardinality mismatch for {vname!r} in factor {fname!r}")
                adjacent[vname].append(fname)
            fdict[fname] = f
            adjacent[fname] = list(f.var_names)
        object.__setattr__(self, "variables", vars_tuple)
        object.__setattr__(self, "factors", fdict)
        object.__setattr__(self, "_cards", cards)
        # Node id -> neighbouring node ids, in declaration order.
        object.__setattr__(self, "_adjacent", {n: tuple(nbrs) for n, nbrs in adjacent.items()})

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def card(self, var: str) -> int:
        try:
            return self._cards[var]
        except KeyError:
            raise ValidationError(f"unknown variable {var!r}") from None

    def factor_neighbors(self, var: str) -> tuple[str, ...]:
        return self._adjacent[var] if var in self._cards else ()

    def variable_neighbors(self, fname: str) -> tuple[str, ...]:
        if fname not in self.factors:
            raise ValidationError(f"unknown factor {fname!r}")
        return self.factors[fname].var_names


class Message(NamedTuple):
    """One directed message along a factor-graph edge, stored under its (from, to) pair.

    ``payload`` is a vector over the edge variable's states.  A sum-product
    message is ``payload * exp(log_scale)``, its payload rescaled to a max
    entry of one; a max-sum payload holds log values and ``log_scale`` is 0.
    """

    payload: np.ndarray
    log_scale: float

    @property
    def linear(self) -> np.ndarray:
        """Sum-product only: the payload with its scale put back.  Max-sum payloads are logs."""
        try:
            return self.payload * math.exp(self.log_scale)
        except OverflowError:
            raise NumericError(f"message overflows a float: its log scale is {self.log_scale}") from None


@dataclass(frozen=True)
class Schedule:
    """Messages grouped into clock cycles; every message's dependencies sit
    in strictly earlier groups."""

    groups: tuple[tuple[Edge, ...], ...]

    def __len__(self) -> int:
        return len(self.groups)

    def all_edges(self) -> list[Edge]:
        return [e for g in self.groups for e in g]


def _forest(fg: FactorGraph, first: str | None = None) -> list[list[tuple[str, str | None]]]:
    """Each connected component as breadth-first (node, parent) pairs, started at ``first``,
    then at each unreached variable in declaration order, then at each unreached factor."""
    seen: set[str] = set()
    components = []
    for start in ([first] if first is not None else []) + [*fg.var_names, *fg.factors]:
        if start in seen:
            continue
        seen.add(start)
        order: list[tuple[str, str | None]] = [(start, None)]
        for node, _ in order:  # the list grows while it is read
            for nbr in fg._adjacent[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    order.append((nbr, node))
        components.append(order)
    # A forest has exactly one edge fewer than nodes in each component.
    if sum(len(f.scope) for f in fg.factors.values()) != len(seen) - len(components):
        raise ValidationError("factor graph has a loop")
    return components


def validate_tree(fg: FactorGraph) -> bool:
    """True iff the bipartite graph is connected and acyclic."""
    try:
        return len(_forest(fg)) == 1
    except ValidationError:
        return False


def schedule(fg: FactorGraph) -> Schedule:
    """The messages of :func:`sum_product` grouped into the minimal number of clock cycles.

    A message u->v becomes computable once every message w->u with w != v is
    available, so its cycle is one past the latest of those; the pass order
    computes every input first.  The components of a forest share clock cycles.
    """
    depth: dict[Edge, int] = {}
    for u, v in _all_edges(fg, _forest(fg)):
        depth[(u, v)] = 1 + max((depth[(w, u)] for w in fg._adjacent[u] if w != v), default=0)
    groups: list[list[Edge]] = [[] for _ in range(max(depth.values(), default=0))]
    for e, d in depth.items():
        groups[d - 1].append(e)
    return Schedule(tuple(tuple(sorted(g)) for g in groups))


class _SumProduct:
    """Products summed out, messages rescaled to a max of one."""

    combine = np.multiply
    table = staticmethod(DiscreteFactor.ndarray)

    @staticmethod
    def marginalise(edge, nd, axis):
        if nd.ndim == 1:  # a one-variable factor: nothing to sum out
            return nd
        return np.add.reduce(nd, (*range(axis), *range(axis + 1, nd.ndim)))

    @staticmethod
    def message(u, v, payload, scale):
        peak = float(np.maximum.reduce(payload))
        if peak <= 0.0:
            raise NumericError(f"message {u}->{v} is identically zero")
        return Message(payload / peak, scale + math.log(peak))


class _MaxSum:
    """Log values: sums maximised out.  ``argmax[(f, v)]`` gives, per state of v, the
    flat C-order index of the best joint state of f's other variables (ties to the lowest).
    Tables of zeros take logs of zero, so a query enters ``np.errstate(divide="ignore")``."""

    combine = np.add

    def __init__(self):
        self.argmax: dict[Edge, np.ndarray] = {}

    @staticmethod
    def table(fac):
        return np.log(fac.ndarray())

    def marginalise(self, edge, nd, axis):
        # The target axis first, the others in order: np.moveaxis(nd, axis, 0) without its checks.
        rows = nd.transpose((axis, *range(axis), *range(axis + 1, nd.ndim))).reshape(nd.shape[axis], -1)
        self.argmax[edge] = rows.argmax(axis=1)
        return np.maximum.reduce(rows, 1)

    @staticmethod
    def message(u, v, payload, scale):
        return Message(payload, scale)


def _combined(fg: FactorGraph, node: str, skip: str | None, incoming: Messages,
              semiring=_SumProduct) -> tuple[np.ndarray, float]:
    """A node's own table combined with every message into it but the one from ``skip``,
    each along its variable's axis; plus their summed log scales.  A variable has no table:
    it starts from its first message, or from the identity if it has none.  In sum-product,
    a product of three or more messages at a variable whose peak ends below ``_PEAK_FLOOR`` is
    taken again as a sum of logs, scaled to a peak of one; a product of two pays no check."""
    fac = fg.factors.get(node)
    nd = None if fac is None else semiring.table(fac)
    scale = 0.0
    multiplies = 0  # at a variable: messages multiplied into the first one
    for axis, source in enumerate(fg._adjacent[node]):
        if source != skip:
            msg = incoming[(source, node)]
            scale += msg.log_scale
            if nd is None:
                nd = msg.payload
            elif fac is None:
                nd = semiring.combine(nd, msg.payload)
                multiplies += 1
            elif axis == nd.ndim - 1:
                nd = semiring.combine(nd, msg.payload)
            else:  # broadcast along the axis: a length-one axis for each later variable
                nd = semiring.combine(nd, msg.payload.reshape((-1,) + (1,) * (nd.ndim - 1 - axis)))
    if nd is None:
        nd = np.full(fg._cards[node], float(semiring.combine.identity))
    elif fac is None and multiplies > 1 and semiring is _SumProduct and float(np.maximum.reduce(nd)) < _PEAK_FLOOR:
        # Messages peak at one, so the product only falls: an entry that went subnormal on the
        # way can matter only if the peak ended far below the floor, which this catches.
        with np.errstate(divide="ignore"):
            logs = sum(np.log(incoming[(source, node)].payload) for source in fg._adjacent[node] if source != skip)
        top = float(np.maximum.reduce(logs))
        if top > -math.inf:  # else every entry is zero, for the caller to refuse
            nd, scale = np.exp(logs - top), scale + top
    return nd, scale


def _send(fg: FactorGraph, u: str, v: str, incoming: Messages, semiring) -> Message:
    """The message u->v, from the messages into u."""
    nd, scale = _combined(fg, u, v, incoming, semiring)
    if u in fg.factors:
        nd = semiring.marginalise((u, v), nd, fg.factors[u].var_names.index(v))
    return semiring.message(u, v, nd, scale)


def _sweep(fg: FactorGraph, edges: Sequence[Edge], semiring) -> dict[Edge, Message]:
    """Compute each edge's message in turn; its inputs must come earlier."""
    sent: dict[Edge, Message] = {}
    for u, v in edges:
        sent[(u, v)] = _send(fg, u, v, sent, semiring)
    return sent


def _inward(order: Sequence[tuple[str, str | None]]) -> list[Edge]:
    """The edges of breadth-first (node, parent) pairs, each toward its parent, leaves
    first: every message a root needs, and no other."""
    return [(u, p) for u, p in reversed(order) if p is not None]


def _all_edges(fg: FactorGraph, components: list) -> list[Edge]:
    """Every message of a full pass: the inward edges of each component, then the outward
    ones in breadth-first order, less those into degree-one factors, which nothing reads."""
    order = [pair for component in components for pair in component]
    return _inward(order) + [(p, u) for u, p in order
                             if p is not None and not (u in fg.factors and len(fg._adjacent[u]) == 1)]


def _normaliser(payload: np.ndarray, where: str) -> float:
    total = float(payload.sum())
    if total <= 0.0:
        raise NumericError(f"zero normaliser {where}")
    return total


@dataclass(frozen=True, eq=False)
class SumProductResult:
    marginals: dict[str, np.ndarray]
    log_partition: float
    messages: dict[Edge, Message] = field(repr=False)

    def message(self, from_node: str, to_node: str) -> Message:
        return self.messages[(from_node, to_node)]


def sum_product(fg: FactorGraph) -> SumProductResult:
    """All single-variable marginals plus the log partition function.

    The marginal of a variable is the normalised product of its incoming
    factor messages; the normaliser (times the accumulated scales) is the
    partition function and agrees across variables.
    """
    components = _forest(fg)
    if len(components) != 1:
        raise ValidationError("factor graph is not a connected tree")
    return _sum_product(fg, components)


def _sum_product(fg: FactorGraph, components: list) -> SumProductResult:
    messages = _sweep(fg, _all_edges(fg, components), _SumProduct)
    marginals: dict[str, np.ndarray] = {}
    for var in fg.var_names:
        payload, _ = _combined(fg, var, None, messages)
        marginals[var] = payload / _normaliser(payload, f"at variable {var!r}")
    log_partition = 0.0
    for component in components:
        top = component[0][0]
        payload, scale = _combined(fg, top, None, messages)
        log_partition += math.log(_normaliser(payload, f"at {top!r}")) + scale
    return SumProductResult(marginals, log_partition, messages)


def condition_factor_graph(fg: FactorGraph, evidence: Mapping[str, int]) -> tuple[FactorGraph, float]:
    """Reduce every factor on the evidence and drop the observed variables.

    Factors whose scope empties out become constants; they are removed and
    their summed log value is returned alongside, so the conditioned
    partition function can be related back to the original one.
    """
    for var, state in evidence.items():
        card = fg.card(var)
        if count(state, f"evidence state of {var!r}", least=0) >= card:
            raise ValidationError(f"evidence state {state} out of range for {var!r}")
    keep_vars = [(n, c) for n, c in fg.variables if n not in evidence]
    new_factors: dict[str, DiscreteFactor] = {}
    log_offset = 0.0
    for fname, fac in fg.factors.items():
        reduced = condition(fac, evidence)
        if reduced.scope:
            new_factors[fname] = reduced
        else:
            value = float(reduced.values[0])
            if value <= 0.0:
                raise NumericError(f"evidence has zero probability under factor {fname!r}")
            log_offset += math.log(value)
    return FactorGraph(keep_vars, new_factors), log_offset


def conditioned_sum_product(fg: FactorGraph, evidence: Mapping[str, int]) -> dict[str, np.ndarray]:
    """Marginals of the unobserved variables given the evidence.

    Conditioning rebuilds the factor graph with reduced tables and reruns
    sum-product from scratch; reusing messages from the unconditioned run
    would only be an optimisation, never a semantic change.
    """
    reduced, _ = condition_factor_graph(fg, evidence)
    return _sum_product(reduced, _forest(reduced)).marginals


def marginal(fg: FactorGraph, var: str) -> np.ndarray:
    """The normalised marginal of one variable, from one inward pass over each component.

    Each message is the one :func:`sum_product` would send along the same edge, so the
    result is bit-identical to its (and :func:`conditioned_sum_product`'s) marginal, but
    the messages flowing away from ``var`` are never computed.  The other components of a
    forest are only checked for mass: a zero message or a zero normaliser at one of their
    roots means the joint, and so the marginal, has none, and raises :class:`NumericError`.
    A connected graph has no other component.  The whole graph is still checked for loops.
    """
    fg.card(var)  # an unknown variable is refused before the walk
    components = _forest(fg, var)
    sent = _sweep(fg, [e for component in components for e in _inward(component)], _SumProduct)
    for component in components[1:]:
        top = component[0][0]
        _normaliser(_combined(fg, top, None, sent)[0], f"at {top!r}")
    payload, _ = _combined(fg, var, None, sent)
    return payload / _normaliser(payload, f"at variable {var!r}")


def factor_joint(fg: FactorGraph, fname: str) -> DiscreteFactor:
    """Normalised joint over one factor's scope: the factor times all of its
    incoming variable messages, from one inward pass rooted at the factor."""
    if fname not in fg.factors:
        raise ValidationError(f"unknown factor {fname!r}")
    components = _forest(fg, fname)
    if len(components) != 1:
        raise ValidationError("factor graph is not a connected tree")
    nd, _ = _combined(fg, fname, None, _sweep(fg, _inward(components[0]), _SumProduct))
    return DiscreteFactor.from_ndarray(fg.factors[fname].scope, nd / _normaliser(nd, "in factor joint"))


@dataclass(frozen=True)
class MaxSumResult:
    assignment: dict[str, int]
    log_score: float


def max_sum_map(fg: FactorGraph, root: str) -> MaxSumResult:
    """A most probable assignment via max-sum over log values, with backtracking.

    ``log_score`` is the log of the unnormalised joint at the returned
    assignment (the partition function is never involved).  Ties always
    break toward the lowest state index, so the answer is deterministic and
    invariant to the choice of root.  On a forest, every component other
    than ``root``'s is rooted at its first declared variable.
    """
    if root not in dict(fg.variables):
        raise ValidationError(f"root {root!r} is not a variable")
    order = [pair for component in _forest(fg, root) for pair in component]
    semiring = _MaxSum()
    assignment: dict[str, int] = {}
    log_score = 0.0
    with np.errstate(divide="ignore"):
        sent = _sweep(fg, _inward(order), semiring)
        # Backtrack from each root down, in breadth-first order.
        for node, parent in order:
            if parent is None:
                belief, _ = _combined(fg, node, None, sent, semiring)
                if not np.any(np.isfinite(belief)):
                    raise NumericError("all configurations have zero probability")
                best = int(np.argmax(belief))
                log_score += float(belief.flat[best])
                assignment[node] = best  # an empty-scope factor's entry is dropped below
            elif node in fg.factors:
                # The C-order flat index of the other variables' states, last variable fastest.
                flat = int(semiring.argmax[(node, parent)][assignment[parent]])
                fac = fg.factors[node]
                for w, card in zip(reversed(fac.var_names), reversed(fac.cards)):
                    if w != parent:
                        flat, assignment[w] = divmod(flat, card)
    return MaxSumResult({v: assignment[v] for v in fg.var_names}, log_score)


def dag_to_factor_graph(dag: Dag, cpts: Mapping[str, DiscreteFactor]) -> FactorGraph:
    """Turn a DAG plus one CPT per node into a factor graph.

    Each CPT must have scope {node} union parents and sum to one over the
    node for every parent configuration (tolerance 1e-9).  A node's
    cardinality is the one its own CPT gives it; the factor graph refuses a
    CPT that gives a parent another.  Factor node ids are ``"p(<node>)"``
    or ``"p(<node>|<parents>)"``.
    """
    missing = set(dag.nodes) - set(cpts)
    if missing:
        raise ValidationError(f"missing CPTs for {sorted(missing)}")
    for node, f in cpts.items():
        expected = {node, *dag.parents_of(node)}
        if set(f.var_names) != expected:
            raise ValidationError(
                f"CPT for {node!r} has scope {f.var_names}, expected {sorted(expected)}")
    factors: dict[str, DiscreteFactor] = {}
    variables = []
    for node in dag.nodes:
        f = cpts[node]
        axis = f.var_names.index(node)
        sums = f.ndarray().sum(axis=axis)
        if not np.allclose(sums, 1.0, atol=1e-9, rtol=0.0):
            raise ValidationError(f"CPT for {node!r} does not sum to one over the child")
        parents = dag.parents_of(node)
        fname = f"p({node}|{','.join(parents)})" if parents else f"p({node})"
        factors[fname] = f
        variables.append((node, f.cards[axis]))
    return FactorGraph(variables, factors)
