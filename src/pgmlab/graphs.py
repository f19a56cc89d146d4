"""Directed and undirected graphs over named variables, with the structural
and independence queries used throughout the workbench.

Nodes are opaque case-sensitive strings; whenever an order matters for
determinism (tie-breaking, canonical output) the lexicographic order of the
names is used.

Separation is decided in one place: a search for a path that avoids the
conditioning set.  On a UGM it runs on the graph itself.  On a DAG, z
d-separates x from y exactly when z separates them in the moral graph of
the ancestors of x, y and z (Lauritzen, Dawid, Larsen & Leimer 1990), so
``d_separated`` runs the same search on that graph.

``minimal_separator`` is the one exponential search: it tries subsets by
size, so the fixed ``DEFAULT_NODE_CAP`` guards it.  ``minimal_directed_imap``
makes n(n-1)/2 oracle calls and keeps the same cap as part of its contract.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InseparableError, ValidationError

NodeSet = frozenset[str]

#: Cap on the node count for ``minimal_separator`` and ``minimal_directed_imap``.
DEFAULT_NODE_CAP = 16


def _names(names: Iterable[str], what: str) -> tuple[str, ...]:
    """``names`` as a tuple of strings; a bare string is refused rather than
    read as a list of one-letter names."""
    if isinstance(names, str):
        raise ValidationError(f"{what} must be a list of names, not the string {names!r}")
    return tuple(str(n) for n in names)


def _as_nodeset(nodes: Iterable[str]) -> NodeSet:
    return frozenset(_names(nodes, "a node set"))


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph given by parent lists.

    ``parents`` maps each node to the ordered list of its parents; nodes
    without an entry have no parents.  Construction validates that every
    parent is declared, that there are no self-loops, and that the graph is
    acyclic.
    """

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    def __init__(self, nodes: Sequence[str], parents: Mapping[str, Sequence[str]]):
        node_tuple = _names(nodes, "nodes")
        if len(set(node_tuple)) != len(node_tuple):
            raise ValidationError("duplicate node names")
        node_set = set(node_tuple)
        parent_map: dict[str, tuple[str, ...]] = {}
        for child, pars in parents.items():
            if child not in node_set:
                raise ValidationError(f"unknown node {child!r} in parent map")
            pars = _names(pars, f"parents of {child!r}")
            if len(set(pars)) != len(pars):
                raise ValidationError(f"duplicate parents for {child!r}")
            for p in pars:
                if p not in node_set:
                    raise ValidationError(f"unknown parent {p!r} of {child!r}")
                if p == child:
                    raise ValidationError(f"self-loop at {child!r}")
            parent_map[child] = pars
        children: dict[str, set[str]] = {n: set() for n in node_tuple}
        for n in node_tuple:
            for p in parent_map.setdefault(n, ()):
                children[p].add(n)
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "parents", parent_map)
        object.__setattr__(self, "_children", {n: frozenset(cs) for n, cs in children.items()})
        if self.topological_ordering() is None:
            raise ValidationError("graph contains a directed cycle")

    @classmethod
    def from_edges(cls, nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> "Dag":
        """Build from (parent, child) pairs; parents keep insertion order."""
        parents: dict[str, list[str]] = {}
        for edge in edges:
            a, b = _names(edge, "an edge")
            parents.setdefault(b, []).append(a)
        return cls(nodes, parents)

    def parents_of(self, node: str) -> tuple[str, ...]:
        self._check_node(node)
        return self.parents[node]

    def children_of(self, node: str) -> NodeSet:
        self._check_node(node)
        return self._children[node]

    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset((p, c) for c in self.nodes for p in self.parents[c])

    def topological_ordering(self) -> list[str] | None:
        """One topological ordering, or None if the graph has a cycle."""
        indeg = {n: len(self.parents.get(n, ())) for n in self.nodes}
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for c in sorted(self._children[n]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return order if len(order) == len(self.nodes) else None

    def _check_node(self, node: str) -> None:
        if node not in self.parents:
            raise ValidationError(f"unknown node {node!r}")


@dataclass(frozen=True)
class Ugm:
    """Undirected graph as a symmetric neighbour map (no self-loops)."""

    nodes: tuple[str, ...]
    neighbors: Mapping[str, NodeSet]

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple[str, str]] = ()):
        node_tuple = _names(nodes, "nodes")
        if len(set(node_tuple)) != len(node_tuple):
            raise ValidationError("duplicate node names")
        node_set = set(node_tuple)
        nbrs: dict[str, set[str]] = {n: set() for n in node_tuple}
        for edge in edges:
            a, b = _names(edge, "an edge")
            if a not in node_set or b not in node_set:
                raise ValidationError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise ValidationError(f"self-loop at {a!r}")
            nbrs[a].add(b)
            nbrs[b].add(a)
        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "neighbors", {n: frozenset(s) for n, s in nbrs.items()})

    def neighbors_of(self, node: str) -> NodeSet:
        if node not in self.neighbors:
            raise ValidationError(f"unknown node {node!r}")
        return self.neighbors[node]

    def edges(self) -> frozenset[tuple[str, str]]:
        """Edges as canonically ordered pairs (lexicographically sorted)."""
        out = set()
        for a, nbrs in self.neighbors.items():
            for b in nbrs:
                out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.neighbors_of(a)


@dataclass(frozen=True)
class IndependenceStatement:
    """The claim left ⊥ right | given, with left/right nonempty and the three
    sets pairwise disjoint."""

    left: NodeSet
    right: NodeSet
    given: NodeSet = field(default_factory=frozenset)

    def __post_init__(self):
        left = _as_nodeset(self.left)
        right = _as_nodeset(self.right)
        given = _as_nodeset(self.given)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "given", given)
        if not left or not right:
            raise ValidationError("left and right sets must be nonempty")
        if left & right or left & given or right & given:
            raise ValidationError("independence statement sets must be disjoint")

    def __repr__(self):
        fmt = lambda s: "{" + ",".join(sorted(s)) + "}"
        base = f"{fmt(self.left)} _||_ {fmt(self.right)}"
        return base + (f" | {fmt(self.given)}" if self.given else "")


def _check_query_sets(all_nodes: set[str], x: NodeSet, y: NodeSet, z: NodeSet) -> None:
    for s in (x, y, z):
        unknown = s - all_nodes
        if unknown:
            raise ValidationError(f"unknown nodes in query: {sorted(unknown)}")
    if not x or not y:
        raise ValidationError("query sets x and y must be nonempty")
    if x & y or x & z or y & z:
        raise ValidationError("query sets must be pairwise disjoint")


def is_topological(dag: Dag, ordering: Sequence[str]) -> bool:
    """True iff ``ordering`` lists every node after all of its parents."""
    order = _names(ordering, "an ordering")
    for n in order:
        dag._check_node(n)
    if sorted(order) != sorted(dag.nodes):
        raise ValidationError("ordering is not a permutation of the nodes")
    position = {n: i for i, n in enumerate(order)}
    return all(position[p] < position[c] for c in dag.nodes for p in dag.parents[c])


def descendants(dag: Dag, node: str) -> NodeSet:
    """All nodes reachable from ``node`` along directed edges (exclusive)."""
    dag._check_node(node)
    seen: set[str] = set()
    stack = [node]
    while stack:
        for m in dag._children[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return frozenset(seen)


def non_descendants(dag: Dag, node: str) -> NodeSet:
    """Complement of the descendants, excluding the node itself."""
    return frozenset(dag.nodes) - descendants(dag, node) - {node}


def _moral_graph(dag: Dag, nodes: Iterable[str]) -> dict[str, set[str]]:
    """Neighbour sets of the moral graph over ``nodes`` and all their
    ancestors: each node is joined to its parents, and co-parents to each
    other."""
    neighbours: dict[str, set[str]] = {n: set() for n in nodes}
    stack = list(neighbours)
    while stack:
        child = stack.pop()
        family = {child, *dag.parents[child]}
        for m in family:
            if m not in neighbours:
                neighbours[m] = set()
                stack.append(m)
            neighbours[m] |= family
    for m, nbrs in neighbours.items():
        nbrs.discard(m)
    return neighbours


def _separated(neighbours: Mapping[str, Iterable[str]], x: NodeSet, y: NodeSet, z: NodeSet) -> bool:
    """True iff every path from ``x`` to ``y`` in the graph ``neighbours``
    passes through ``z``."""
    seen = set(x | z)
    stack = list(x)
    while stack:
        for m in neighbours[stack.pop()]:
            if m in y:
                return False
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return True


def d_separated(dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()) -> bool:
    """Decide whether every trail from ``x`` to ``y`` is blocked given ``z``.

    Collider nodes on a trail are open when they or one of their descendants
    is in ``z``; non-collider nodes are closed when they are in ``z``.  By the
    moral-ancestral criterion this holds exactly when ``z`` separates ``x``
    from ``y`` in the moral graph of the ancestors of x, y and z, which is
    what is searched: linear in the size of that graph.
    """
    x, y, z = _as_nodeset(x), _as_nodeset(y), _as_nodeset(z)
    _check_query_sets(set(dag.nodes), x, y, z)
    return _separated(_moral_graph(dag, x | y | z), x, y, z)


def u_separated(ugm: Ugm, x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()) -> bool:
    """True iff removing ``z`` disconnects ``x`` from ``y``."""
    x, y, z = _as_nodeset(x), _as_nodeset(y), _as_nodeset(z)
    _check_query_sets(set(ugm.nodes), x, y, z)
    return _separated(ugm.neighbors, x, y, z)


def markov_blanket(model: Dag | Ugm, node: str) -> NodeSet:
    """Neighbours in a UGM; in a DAG, the neighbours in its moral graph, which
    are the parents, children and co-parents."""
    return (model if isinstance(model, Ugm) else moralise(model)).neighbors_of(node)


def ordered_markov_independencies(dag: Dag, ordering: Sequence[str]) -> list[IndependenceStatement]:
    """Statements x_i ⊥ (pre_i \\ pa_i) | pa_i for a topological ordering.

    Statements with an empty right-hand side are dropped.
    """
    if not is_topological(dag, ordering):
        raise ValidationError("ordering is not topological to the graph")
    out = []
    seen: set[str] = set()
    for n in ordering:
        pa = frozenset(dag.parents[n])
        rest = frozenset(seen) - pa
        if rest:
            out.append(IndependenceStatement(frozenset([n]), rest, pa))
        seen.add(n)
    return out


def local_markov_independencies(dag: Dag) -> list[IndependenceStatement]:
    """One statement x ⊥ (nondesc(x) \\ pa) | pa per node, empty ones dropped."""
    out = []
    for n in dag.nodes:
        pa = frozenset(dag.parents[n])
        rest = non_descendants(dag, n) - pa
        if rest:
            out.append(IndependenceStatement(frozenset([n]), rest, pa))
    return out


def skeleton(dag: Dag) -> Ugm:
    """The undirected version of the DAG."""
    return Ugm(dag.nodes, dag.edges())


def moralise(dag: Dag) -> Ugm:
    """Skeleton plus covering edges between every pair of co-parents."""
    moral = _moral_graph(dag, dag.nodes)
    return Ugm(dag.nodes, [(a, b) for a, nbrs in moral.items() for b in nbrs])


def immoralities(dag: Dag) -> frozenset[tuple[str, str, str]]:
    """Colliders whose parents are non-adjacent, as (p1, p2, child) with
    p1 < p2 lexicographically."""
    skel = skeleton(dag)
    out = set()
    for child in dag.nodes:
        for a, b in itertools.combinations(dag.parents[child], 2):
            if not skel.has_edge(a, b):
                out.add((min(a, b), max(a, b), child))
    return frozenset(out)


def i_equivalent(a: Dag, b: Dag) -> bool:
    """True iff the two DAGs share skeleton and immorality set."""
    if set(a.nodes) != set(b.nodes):
        raise ValidationError("node sets differ")
    return skeleton(a).edges() == skeleton(b).edges() and immoralities(a) == immoralities(b)


IndependenceOracle = Callable[[NodeSet, NodeSet, NodeSet], bool]


def oracle_from_dag(dag: Dag) -> IndependenceOracle:
    """Independence tester backed by d-separation on ``dag``."""
    return lambda x, y, z: d_separated(dag, x, y, z)


def oracle_from_ugm(ugm: Ugm) -> IndependenceOracle:
    """Independence tester backed by graph separation on ``ugm``."""
    return lambda x, y, z: u_separated(ugm, x, y, z)


def minimal_directed_imap(
    oracle: IndependenceOracle,
    nodes: Sequence[str],
    ordering: Sequence[str],
) -> Dag:
    """Construct the minimal directed I-map for the given variable ordering.

    Each node starts with all of its predecessors as parents and, in sorted
    order, drops each candidate whose removal keeps node ⊥ (predecessors \\
    kept) | kept according to the oracle: n(n-1)/2 oracle calls in all.
    When the oracle has the intersection property, as d-separation and graph
    separation do, each node's Markov boundary within its predecessors is
    unique and contained in every blanket, so this gives that boundary, the
    smallest predecessor subset S with node ⊥ (predecessors \\ S) | S
    (Pearl 1988, ch. 3; Koller & Friedman 2009, §3.4.1).  With any other
    oracle the result is still an I-map for what the oracle reports, but
    may not be minimal.
    """
    nodes, ordering = _names(nodes, "nodes"), _names(ordering, "an ordering")
    if sorted(ordering) != sorted(nodes):
        raise ValidationError("ordering must be a permutation of nodes")
    if len(nodes) > DEFAULT_NODE_CAP:
        raise ValidationError(f"node count {len(nodes)} exceeds search cap {DEFAULT_NODE_CAP}")
    parents: dict[str, tuple[str, ...]] = {}
    pre: list[str] = []
    for n in ordering:
        kept = sorted(pre)
        for cand in sorted(pre):
            trial = [p for p in kept if p != cand]
            if oracle(frozenset([n]), frozenset(pre) - set(trial), frozenset(trial)):
                kept = trial
        parents[n] = tuple(kept)
        pre.append(n)
    return Dag(nodes, parents)


def ugm_from_blankets(
    blankets: Mapping[str, Iterable[str]],
    nodes: Sequence[str] | None = None,
) -> Ugm:
    """Undirected minimal I-map from per-node Markov blankets.

    There is an edge a–b whenever b lies in the blanket of a or vice versa.
    Nodes listed in ``nodes`` but missing from ``blankets`` are treated as
    unconstrained: they get connected to every other unconstrained node, so
    that no independency beyond the stated blankets is asserted.
    """
    blanket_map = {str(k): _as_nodeset(v) for k, v in blankets.items()}
    all_nodes = _names(nodes, "nodes") if nodes is not None else sorted(blanket_map)
    node_set = set(all_nodes)
    missing = set(blanket_map) - node_set
    if missing:
        raise ValidationError(f"blanket keys not in node list: {sorted(missing)}")
    edges: set[tuple[str, str]] = set()
    for n, blanket in blanket_map.items():
        unknown = blanket - node_set
        if unknown:
            raise ValidationError(f"blanket of {n!r} references unknown nodes {sorted(unknown)}")
        for m in blanket:
            edges.add((min(n, m), max(n, m)))
    unconstrained = sorted(node_set - set(blanket_map))
    for a, b in itertools.combinations(unconstrained, 2):
        edges.add((a, b))
    return Ugm(all_nodes, edges)


def minimal_separator(
    ugm: Ugm,
    x: Iterable[str],
    y: Iterable[str],
) -> NodeSet:
    """A smallest set A with x ⊥ y | A, found by exhaustive subset search.

    Subsets are tried by increasing size with lexicographic tie-breaking.
    Raises :class:`InseparableError` when some x–y pair is adjacent, in which
    case no separator exists.
    """
    x, y = _as_nodeset(x), _as_nodeset(y)
    _check_query_sets(set(ugm.nodes), x, y, frozenset())
    if len(ugm.nodes) > DEFAULT_NODE_CAP:
        raise ValidationError(f"node count {len(ugm.nodes)} exceeds search cap {DEFAULT_NODE_CAP}")
    for a in x:
        for b in y:
            if ugm.has_edge(a, b):
                raise InseparableError(f"{a!r} and {b!r} are adjacent; no separator exists")
    rest = sorted(set(ugm.nodes) - x - y)
    for size in range(len(rest) + 1):
        for cand in itertools.combinations(rest, size):
            if u_separated(ugm, x, y, frozenset(cand)):
                return frozenset(cand)
    raise InseparableError("no separating subset found")  # unreachable on valid graphs
