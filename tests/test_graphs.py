"""Structural and independence queries on directed and undirected graphs."""

import itertools
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmlab.errors import InseparableError, ValidationError
from pgmlab.graphs import (
    Dag,
    IndependenceStatement,
    Ugm,
    d_separated,
    descendants,
    i_equivalent,
    immoralities,
    is_topological,
    local_markov_independencies,
    markov_blanket,
    minimal_directed_imap,
    minimal_separator,
    moralise,
    non_descendants,
    oracle_from_dag,
    oracle_from_ugm,
    ordered_markov_independencies,
    skeleton,
    u_separated,
    ugm_from_blankets,
)

from conftest import random_dag


def stmt(left, right, given=()):
    return IndependenceStatement(frozenset(left), frozenset(right), frozenset(given))


def reference_d_separated(dag, x, y, z):
    """Bayes-ball closure over (node, direction) states, written only from the
    parent map: an independent check of the moral-ancestral search."""
    children = {n: [c for c in dag.nodes if n in dag.parents[c]] for n in dag.nodes}
    # Nodes that are in z or have a descendant in z: these open colliders.
    opens_collider = set(z)
    stack = list(z)
    while stack:
        for p in dag.parents[stack.pop()]:
            if p not in opens_collider:
                opens_collider.add(p)
                stack.append(p)
    # "up" means the trail reached the node against an edge (from one of its
    # children), "down" along an edge.
    UP, DOWN = 0, 1
    frontier = [(n, UP) for n in x]
    visited = set()
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        node, direction = state
        if node in y and node not in z:
            return False
        if direction == UP and node not in z:
            frontier += [(p, UP) for p in dag.parents[node]]
            frontier += [(c, DOWN) for c in children[node]]
        elif direction == DOWN:
            if node not in z:
                frontier += [(c, DOWN) for c in children[node]]
            if node in opens_collider:
                frontier += [(p, UP) for p in dag.parents[node]]
    return True


class TestOrderingsAndReachability:
    def test_topological_orderings(self, five_node_dag):
        assert is_topological(five_node_dag, list("azhqe"))
        assert not is_topological(five_node_dag, list("azehq"))  # q is a parent of e
        assert is_topological(five_node_dag, list("zaqhe"))
        assert not is_topological(five_node_dag, list("zqeah"))  # a is a parent of q

    def test_topological_trivial_on_edgeless_graph(self):
        g = Dag(["u", "v", "w"], {})
        for perm in itertools.permutations(["u", "v", "w"]):
            assert is_topological(g, perm)

    def test_ordering_must_be_permutation(self, five_node_dag):
        with pytest.raises(ValidationError):
            is_topological(five_node_dag, ["a", "z", "q"])

    def test_descendants(self, five_node_dag):
        assert descendants(five_node_dag, "z") == {"q", "e", "h"}
        assert descendants(five_node_dag, "e") == frozenset()
        assert non_descendants(five_node_dag, "q") == {"a", "z", "h"}

    def test_long_chain_builds_and_answers_in_linear_time(self):
        names = [f"n{i}" for i in range(10_000)]

        def timed_out(*_):
            raise TimeoutError("building and querying the chain did not end within 2 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(2)
        try:
            g = Dag.from_edges(names, zip(names, names[1:]))
            below = descendants(g, names[0])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert below == frozenset(names[1:])
        assert g.children_of(names[-2]) == {names[-1]}


class TestDSeparation:
    def test_five_node_answers(self, five_node_dag):
        g = five_node_dag
        assert d_separated(g, {"q"}, {"h"}, {"a", "z"})
        assert not d_separated(g, {"a"}, {"h"}, {"e"})  # collider q opened by e
        assert d_separated(g, {"a"}, {"z", "h"})

    def test_chest_clinic_answers(self, chest_clinic):
        g = chest_clinic
        assert not d_separated(g, {"t"}, {"s"}, {"d"})
        assert d_separated(g, {"l"}, {"b"}, {"s"})
        assert d_separated(g, {"a"}, {"s"}, {"l"})
        assert not d_separated(g, {"a"}, {"s"}, {"l", "d"})
        assert d_separated(g, {"x", "t"}, {"b"}, {"l"})

    def test_empty_query_sets_rejected(self, five_node_dag):
        with pytest.raises(ValidationError):
            d_separated(five_node_dag, set(), {"h"}, set())
        with pytest.raises(ValidationError):
            d_separated(five_node_dag, {"a"}, {"a"}, set())
        with pytest.raises(ValidationError):
            d_separated(five_node_dag, {"nope"}, {"h"}, set())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetry_on_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 6)
        nodes = list(g.nodes)
        for _ in range(8):
            picks = rng.choice(len(nodes), size=4, replace=False)
            x, y = {nodes[picks[0]]}, {nodes[picks[1]]}
            z = {nodes[picks[2]], nodes[picks[3]]}
            assert d_separated(g, x, y, z) == d_separated(g, y, x, z)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_moral_ancestral_separation(self, seed):
        # d-separation == separation in the moralised ancestral closure.
        rng = np.random.default_rng(seed)
        g = random_dag(rng, 6)
        nodes = list(g.nodes)
        for _ in range(6):
            picks = rng.choice(len(nodes), size=4, replace=False)
            x, y = {nodes[picks[0]]}, {nodes[picks[1]]}
            z = set(nodes[k] for k in picks[2 : 2 + rng.integers(0, 3)])
            closure = set(x) | set(y) | z
            for n in list(closure):
                stack = [n]
                while stack:
                    for p in g.parents[stack.pop()]:
                        if p not in closure:
                            closure.add(p)
                            stack.append(p)
            sub = Dag(sorted(closure), {n: [p for p in g.parents[n] if p in closure]
                                        for n in closure})
            assert d_separated(g, x, y, z) == u_separated(moralise(sub), x, y, z)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 9))
    def test_agrees_with_bayes_ball_and_family_blankets(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, n_nodes)
        nodes = list(g.nodes)
        for _ in range(6):
            labels = rng.integers(0, 4, size=n_nodes)  # 0: x, 1: y, 2: z, 3: none
            labels[rng.choice(n_nodes, size=2, replace=False)] = [0, 1]
            x, y, z = ({n for n, k in zip(nodes, labels) if k == s} for s in range(3))
            assert d_separated(g, x, y, z) == reference_d_separated(g, x, y, z)
        for n in nodes:
            children = {c for c in nodes if n in g.parents[c]}
            co_parents = {p for c in children for p in g.parents[c]}
            assert markov_blanket(g, n) == (set(g.parents[n]) | children | co_parents) - {n}

    def test_decomposition(self, chest_clinic):
        g = chest_clinic
        nodes = list(g.nodes)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            picks = rng.choice(len(nodes), size=4, replace=False)
            x, y, w = {nodes[picks[0]]}, {nodes[picks[1]]}, {nodes[picks[2]]}
            z = {nodes[picks[3]]}
            if d_separated(g, x, y | w, z):
                assert d_separated(g, x, y, z)
                assert d_separated(g, x, w, z)
                checked += 1
        assert checked > 0


class TestUSeparation:
    def test_diamond(self, diamond_ugm):
        assert u_separated(diamond_ugm, {"w"}, {"y"}, {"x", "z"})
        assert not u_separated(diamond_ugm, {"w"}, {"y"}, {"x"})

    def test_gibbs_graph(self, gibbs_ugm):
        assert u_separated(gibbs_ugm, {"x1"}, {"x5"}, {"x2", "x4"})

    def test_direct_edge_never_separated(self, diamond_ugm):
        assert not u_separated(diamond_ugm, {"w"}, {"x"}, set())


class TestMarkovBlankets:
    def test_dag_blanket(self, five_node_dag):
        assert markov_blanket(five_node_dag, "z") == {"a", "q", "h"}

    def test_ugm_blanket(self, gibbs_ugm):
        assert markov_blanket(gibbs_ugm, "x4") == {"x1", "x5"}

    def test_isolated_node(self):
        g = Dag(["a", "b"], {})
        assert markov_blanket(g, "a") == frozenset()


class TestMarkovProperties:
    def test_ordered_statements(self, five_node_dag):
        got = ordered_markov_independencies(five_node_dag, list("zhaqe"))
        assert got == [
            stmt({"a"}, {"z", "h"}),
            stmt({"q"}, {"h"}, {"a", "z"}),
            stmt({"e"}, {"z", "h", "a"}, {"q"}),
        ]

    def test_ordered_chain(self):
        g = Dag.from_edges(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")])
        assert ordered_markov_independencies(g, ["x1", "x2", "x3"]) == [
            stmt({"x3"}, {"x1"}, {"x2"})
        ]

    def test_ordered_edgeless_pair(self):
        g = Dag(["x1", "x2"], {})
        assert ordered_markov_independencies(g, ["x1", "x2"]) == [stmt({"x2"}, {"x1"})]

    def test_ordered_requires_topological(self, five_node_dag):
        with pytest.raises(ValidationError):
            ordered_markov_independencies(five_node_dag, list("azehq"))

    def test_local_statements(self, five_node_dag):
        got = local_markov_independencies(five_node_dag)
        assert stmt({"h"}, {"a", "q", "e"}, {"z"}) in got
        assert stmt({"e"}, {"a", "z", "h"}, {"q"}) in got

    def test_local_fully_connected(self):
        g = Dag.from_edges(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        assert local_markov_independencies(g) == []

    def test_every_statement_holds_by_dsep(self, chest_clinic):
        for s in local_markov_independencies(chest_clinic):
            assert d_separated(chest_clinic, s.left, s.right, s.given)


class TestMoralisation:
    def test_star_collider_graph(self):
        g = Dag.from_edges(
            [f"x{i}" for i in range(1, 8)],
            [("x1", "x4"), ("x2", "x4"), ("x3", "x4"),
             ("x4", "x6"), ("x4", "x7"), ("x5", "x7")],
        )
        moral = moralise(g)
        added = moral.edges() - skeleton(g).edges()
        assert added == {("x1", "x2"), ("x2", "x3"), ("x1", "x3"), ("x4", "x5")}

    def test_two_collider_families(self):
        nodes = [f"x{i}" for i in range(1, 7)] + ["z1", "z2", "y"]
        g = Dag.from_edges(nodes, [
            ("z1", "y"), ("z2", "y"),
            ("x1", "z1"), ("x2", "z1"), ("x3", "z1"),
            ("x4", "z2"), ("x5", "z2"), ("x6", "z2"),
        ])
        moral = moralise(g)
        added = moral.edges() - skeleton(g).edges()
        assert added == {
            ("x1", "x2"), ("x1", "x3"), ("x2", "x3"),
            ("x4", "x5"), ("x4", "x6"), ("x5", "x6"),
            ("z1", "z2"),
        }
        assert not moral.has_edge("x1", "x6")

    def test_collider_free_chain_unchanged(self):
        g = Dag.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert moralise(g).edges() == skeleton(g).edges()

    def test_moral_equals_skeleton_iff_no_immoralities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_dag(rng, 5, edge_prob=0.35)
            same = moralise(g).edges() == skeleton(g).edges()
            assert same == (not immoralities(g))


class TestIEquivalence:
    CHAINS = {
        # v-w, w-x, x-y, y-z skeletons with different orientations
        "g1": [("v", "w"), ("w", "x"), ("x", "y"), ("z", "y")],
        "g2": [("w", "v"), ("x", "w"), ("x", "y"), ("z", "y")],
        "g3": [("w", "v"), ("x", "w"), ("y", "x"), ("z", "y")],
    }

    def _dag(self, key):
        return Dag.from_edges(list("vwxyz"), self.CHAINS[key])

    def test_first_exercise(self):
        assert i_equivalent(self._dag("g1"), self._dag("g2"))
        assert not i_equivalent(self._dag("g1"), self._dag("g3"))

    def test_second_exercise(self):
        nodes = list("vxwyz")
        g1 = Dag.from_edges(nodes, [("v", "x"), ("v", "w"), ("x", "w"), ("w", "z"), ("y", "z")])
        g2 = Dag.from_edges(nodes, [("x", "v"), ("w", "v"), ("x", "w"), ("w", "z"), ("y", "z")])
        g3 = Dag.from_edges(nodes, [("v", "w"), ("x", "w"), ("w", "z"), ("y", "z")])
        assert i_equivalent(g1, g2)
        assert not i_equivalent(g1, g3)
        # The covered collider at w is no immorality; only z qualifies.
        assert immoralities(g1) == {("w", "y", "z")}

    def test_reflexive(self, chest_clinic):
        assert i_equivalent(chest_clinic, chest_clinic)

    def test_node_mismatch(self):
        with pytest.raises(ValidationError):
            i_equivalent(Dag(["a"], {}), Dag(["b"], {}))

    def test_equivalence_relation_on_random_pool(self):
        rng = np.random.default_rng(23)
        pool = [random_dag(rng, 4, 0.5) for _ in range(12)]
        for a in pool:
            assert i_equivalent(a, a)
        for a, b in itertools.combinations(pool, 2):
            assert i_equivalent(a, b) == i_equivalent(b, a)
        for a, b, c in itertools.permutations(pool, 3):
            if i_equivalent(a, b) and i_equivalent(b, c):
                assert i_equivalent(a, c)


class TestMinimalImaps:
    def test_reversed_ordering_imap(self, five_node_dag):
        imap = minimal_directed_imap(oracle_from_dag(five_node_dag),
                                     five_node_dag.nodes, list("ehqza"))
        assert set(imap.parents["h"]) == {"e"}
        assert set(imap.parents["q"]) == {"e", "h"}
        assert set(imap.parents["z"]) == {"q", "h"}
        assert set(imap.parents["a"]) == {"q", "z"}
        assert not i_equivalent(imap, five_node_dag)

    def test_triangulation_of_cycle(self):
        ugm = Ugm([f"x{i}" for i in range(1, 6)],
                  [("x1", "x2"), ("x1", "x3"), ("x3", "x5"), ("x2", "x4"), ("x4", "x5")])
        order = [f"x{i}" for i in range(1, 6)]
        imap = minimal_directed_imap(oracle_from_ugm(ugm), ugm.nodes, order)
        assert set(imap.parents["x2"]) == {"x1"}
        assert set(imap.parents["x3"]) == {"x1", "x2"}
        assert set(imap.parents["x4"]) == {"x2", "x3"}
        assert set(imap.parents["x5"]) == {"x3", "x4"}

    def test_recovers_dag_under_own_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_dag(rng, 5, 0.45)
            order = g.topological_ordering()
            imap = minimal_directed_imap(oracle_from_dag(g), g.nodes, order)
            assert {n: set(ps) for n, ps in imap.parents.items()} == {
                n: set(ps) for n, ps in g.parents.items()
            }

    def test_output_statements_confirmed_by_oracle(self, chest_clinic):
        oracle = oracle_from_dag(chest_clinic)
        order = chest_clinic.topological_ordering()
        imap = minimal_directed_imap(oracle, chest_clinic.nodes, order)
        assert imap.topological_ordering() is not None
        for s in ordered_markov_independencies(imap, order):
            assert oracle(s.left, s.right, s.given)

    def test_node_cap(self):
        g = Dag([f"n{i}" for i in range(20)], {})
        with pytest.raises(ValidationError):
            minimal_directed_imap(oracle_from_dag(g), g.nodes, list(g.nodes))

    @staticmethod
    def _subset_search(oracle, ordering):
        # Brute-force reference: the smallest predecessor subset S with n ⊥ (pre \ S) | S,
        # tried by size and lexicographically within a size.
        parents, pre = {}, []
        for n in ordering:
            subsets = (c for size in range(len(pre) + 1) for c in itertools.combinations(sorted(pre), size))
            parents[n] = next(c for c in subsets
                              if not set(pre) - set(c)
                              or oracle(frozenset([n]), frozenset(pre) - set(c), frozenset(c)))
            pre.append(n)
        return parents

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(1, 9), directed=st.booleans())
    def test_equals_subset_search(self, seed, n_nodes, directed):
        rng = np.random.default_rng(seed)
        g = random_dag(rng, n_nodes)
        oracle = oracle_from_dag(g) if directed else oracle_from_ugm(skeleton(g))
        order = [str(n) for n in rng.permutation(g.nodes)]
        imap = minimal_directed_imap(oracle, g.nodes, order)
        assert imap.parents == self._subset_search(oracle, order)

    @staticmethod
    def _counting(oracle):
        calls = []

        def counted(x, y, z):
            calls.append((x, y, z))
            return oracle(x, y, z)

        return counted, calls

    def test_oracle_calls_are_quadratic(self, chest_clinic):
        rng = np.random.default_rng(3)
        for _ in range(5):
            order = [str(n) for n in rng.permutation(chest_clinic.nodes)]
            oracle, calls = self._counting(oracle_from_dag(chest_clinic))
            minimal_directed_imap(oracle, chest_clinic.nodes, order)
            assert len(calls) == 8 * 7 // 2

    def test_dense_reverse_order_is_fast(self):
        names = [f"n{i:02d}" for i in range(16)]
        g = Dag.from_edges(names, itertools.combinations(names, 2))
        oracle, calls = self._counting(oracle_from_dag(g))

        def timed_out(*_):
            raise TimeoutError("the I-map search did not end within 1 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(1)
        try:
            imap = minimal_directed_imap(oracle, names, names[::-1])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(calls) == 16 * 15 // 2
        assert imap.parents == {n: tuple(names[k + 1:]) for k, n in enumerate(names)}


class TestBlanketsToGraph:
    def test_hmm_chain_with_rungs(self):
        blankets = {
            "x1": {"x2", "y1"}, "x2": {"x1", "x3", "y2"},
            "x3": {"x2", "x4", "y3"}, "x4": {"x3", "y4"},
            "y1": {"x1"}, "y2": {"x2"}, "y3": {"x3"}, "y4": {"x4"},
        }
        g = ugm_from_blankets(blankets)
        expected = {("x1", "x2"), ("x2", "x3"), ("x3", "x4"),
                    ("x1", "y1"), ("x2", "y2"), ("x3", "y3"), ("x4", "y4")}
        assert g.edges() == expected

    def test_partial_blankets_connect_the_rest(self):
        blankets = {
            "x1": {"x2", "y1"}, "x2": {"x1", "x3", "y2"},
            "x3": {"x2", "x4", "y3"}, "x4": {"x3", "y4"},
        }
        nodes = [f"x{i}" for i in range(1, 5)] + [f"y{i}" for i in range(1, 5)]
        g = ugm_from_blankets(blankets, nodes)
        for a, b in itertools.combinations(["y1", "y2", "y3", "y4"], 2):
            assert g.has_edge(a, b)
        assert g.has_edge("x1", "y1")
        assert not g.has_edge("x1", "y2")

    def test_all_empty(self):
        g = ugm_from_blankets({"a": set(), "b": set()})
        assert g.edges() == frozenset()

    def test_unknown_reference(self):
        with pytest.raises(ValidationError):
            ugm_from_blankets({"a": {"ghost"}, "ghost2": set()}, ["a", "ghost2"])


class TestMinimalSeparator:
    def test_gibbs_example(self, gibbs_ugm):
        assert minimal_separator(gibbs_ugm, {"x1"}, {"x5"}) == {"x2", "x4"}

    def test_disconnected_inputs(self):
        g = Ugm(["a", "b", "c"], [("a", "b")])
        assert minimal_separator(g, {"a"}, {"c"}) == frozenset()

    def test_four_cycle(self):
        g = Ugm(list("wxyz"), [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
        assert minimal_separator(g, {"w"}, {"y"}) == {"x", "z"}

    def test_adjacent_raises(self, gibbs_ugm):
        with pytest.raises(InseparableError):
            minimal_separator(gibbs_ugm, {"x1"}, {"x2"})

    def test_result_is_minimal(self, gibbs_ugm):
        # brute-force: no strictly smaller separating subset exists
        sep = minimal_separator(gibbs_ugm, {"x1"}, {"x5"})
        rest = set(gibbs_ugm.nodes) - {"x1", "x5"}
        for size in range(len(sep)):
            for cand in itertools.combinations(sorted(rest), size):
                assert not u_separated(gibbs_ugm, {"x1"}, {"x5"}, set(cand))


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            Dag.from_edges(["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Dag.from_edges(["a"], [("a", "a")])
        with pytest.raises(ValidationError):
            Ugm(["a"], [("a", "a")])

    def test_ugm_symmetric_neighbors(self, gibbs_ugm):
        for a in gibbs_ugm.nodes:
            for b in gibbs_ugm.neighbors_of(a):
                assert a in gibbs_ugm.neighbors_of(b)

    @pytest.mark.parametrize("call", [
        lambda: Dag("abc", {}),
        lambda: Dag(["a", "b"], {"b": "a"}),
        lambda: Dag.from_edges(["a", "b"], ["ab"]),
        lambda: Ugm("ab"),
        lambda: Ugm(["a", "b"], ["ab"]),
        lambda: is_topological(Dag(["a", "b"], {}), "ab"),
        lambda: ordered_markov_independencies(Dag(["a", "b"], {}), "ab"),
        lambda: minimal_directed_imap(oracle_from_ugm(Ugm(["a", "b"])), "ab", ["a", "b"]),
        lambda: minimal_directed_imap(oracle_from_ugm(Ugm(["a", "b"])), ["a", "b"], "ab"),
        lambda: ugm_from_blankets({"a": "b"}, ["a", "b"]),
        lambda: ugm_from_blankets({"a": ["b"]}, "ab"),
        lambda: d_separated(Dag(["x1", "x", "y"], {}), "x1", "y"),
        lambda: u_separated(Ugm(["x1", "x", "y"]), ["x1"], ["y"], "x"),
        lambda: IndependenceStatement("ab", frozenset({"c"})),
    ], ids=["dag nodes", "dag parents", "from_edges edge", "ugm nodes", "ugm edge",
            "is_topological", "ordered_markov", "imap nodes", "imap ordering",
            "blanket", "blanket nodes", "dsep query", "usep query", "statement"])
    def test_bare_string_is_not_a_list_of_names(self, call):
        with pytest.raises(ValidationError, match="not the string"):
            call()

    def test_statement_validation(self):
        with pytest.raises(ValidationError):
            IndependenceStatement(frozenset(), frozenset({"a"}))
        with pytest.raises(ValidationError):
            IndependenceStatement(frozenset({"a"}), frozenset({"a"}))
