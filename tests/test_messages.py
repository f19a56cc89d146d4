"""Sum-product and max-sum message passing on factor trees."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pgmlab.errors import NumericError, ValidationError
from pgmlab.factors import DiscreteFactor, condition, eliminate, normalise, sum_marginalise
from pgmlab.graphs import Dag
from pgmlab.messages import (
    FactorGraph,
    Message,
    _all_edges,
    _forest,
    _inward,
    _send,
    _sweep,
    _SumProduct,
    condition_factor_graph,
    conditioned_sum_product,
    dag_to_factor_graph,
    factor_joint,
    max_sum_map,
    schedule,
    sum_product,
    validate_tree,
)

from conftest import factor_graph_joint


class TestTreeValidation:
    def test_worked_tree_is_a_tree(self, tree_fg):
        assert validate_tree(tree_fg)

    def test_loop_graph_is_not(self, loop_fg):
        assert not validate_tree(loop_fg)

    def test_single_variable_single_factor(self):
        fg = FactorGraph([("a", 2)], {"f": DiscreteFactor([("a", 2)], [1, 2])})
        assert validate_tree(fg)

    def test_disconnected(self):
        fg = FactorGraph(
            [("a", 2), ("b", 2)],
            {"fa": DiscreteFactor([("a", 2)], [1, 1]), "fb": DiscreteFactor([("b", 2)], [1, 1])},
        )
        assert not validate_tree(fg)
        with pytest.raises(ValidationError):
            sum_product(fg)


class TestScheduling:
    def test_five_clock_cycles(self, tree_fg):
        sched = schedule(tree_fg)
        assert len(sched) == 5
        # dependencies always sit strictly earlier
        position = {e: i for i, group in enumerate(sched.groups) for e in group}
        for (u, v), i in position.items():
            for w in (tree_fg.factor_neighbors(u) if u.startswith("x")
                      else tree_fg.variable_neighbors(u)):
                if w != v and (w, u) in position:
                    assert position[(w, u)] < i

    def test_star_graph_single_cycle(self):
        factors = {f"f{k}": DiscreteFactor([("a", 2)], [1, k + 1]) for k in range(4)}
        fg = FactorGraph([("a", 2)], factors)
        assert len(schedule(fg)) == 1

    def test_chain_four_cycles(self):
        fg = FactorGraph(
            [("y1", 2), ("y2", 2), ("y3", 2)],
            {
                "g12": DiscreteFactor([("y1", 2), ("y2", 2)], [1, 2, 3, 4]),
                "g23": DiscreteFactor([("y2", 2), ("y3", 2)], [4, 3, 2, 1]),
            },
        )
        assert len(schedule(fg)) == 4

    def test_messages_toward_leaf_factors_omitted(self, tree_fg):
        edges = set(schedule(tree_fg).all_edges())
        assert ("x1", "phiA") not in edges
        assert ("x2", "phiB") not in edges
        assert ("x5", "phiF") not in edges
        assert ("x3", "phiD") in edges

    def test_group_internal_order_is_irrelevant(self, tree_fg):
        # Messages inside one clock cycle share no dependencies, so any
        # evaluation order (serial or parallel) gives identical payloads.
        def run(reverse: bool):
            messages = {}
            for group in schedule(tree_fg).groups:
                for u, v in reversed(group) if reverse else group:
                    messages[(u, v)] = _send(tree_fg, u, v, messages, _SumProduct)
            return messages

        forward, backward = run(False), run(True)
        assert set(forward) == set(backward)
        for key in forward:
            assert np.array_equal(forward[key].payload, backward[key].payload)
            assert forward[key].log_scale == backward[key].log_scale


class TestSumProduct:
    def test_worked_messages(self, tree_fg):
        res = sum_product(tree_fg)
        assert_allclose(res.message("phiD", "x3").linear, [10, 8], rtol=1e-9)
        assert_allclose(res.message("phiE", "x3").linear, [51, 30], rtol=1e-9)
        assert_allclose(res.message("x3", "phiC").linear, [510, 240], rtol=1e-9)
        assert_allclose(res.message("phiC", "x1").linear, [19920, 25920], rtol=1e-9)

    def test_marginal_and_partition(self, tree_fg):
        res = sum_product(tree_fg)
        assert_allclose(res.marginals["x1"], [0.2776, 0.7224], atol=1e-4)
        assert math.isclose(res.log_partition, math.log(143520), rel_tol=1e-12)

    def test_partition_agrees_across_variables(self, tree_fg):
        res = sum_product(tree_fg)
        for var, card in tree_fg.variables:
            payload = np.ones(card)
            scale = 0.0
            for fname in tree_fg.factor_neighbors(var):
                msg = res.message(fname, var)
                payload = payload * msg.payload
                scale += msg.log_scale
            assert math.isclose(math.log(payload.sum()) + scale, res.log_partition,
                                rel_tol=1e-9)

    def test_uniform_factors_give_uniform_marginals(self):
        fg = FactorGraph(
            [("a", 2), ("b", 2)],
            {"f": DiscreteFactor([("a", 2), ("b", 2)], np.ones(4))},
        )
        res = sum_product(fg)
        assert_allclose(res.marginals["a"], [0.5, 0.5])
        assert_allclose(res.marginals["b"], [0.5, 0.5])

    def test_marginals_match_elimination(self, tree_fg):
        res = sum_product(tree_fg)
        all_vars = list(tree_fg.var_names)
        for var in all_vars:
            kept, _ = eliminate(list(tree_fg.factors.values()), {var},
                                [v for v in all_vars if v != var])
            norm, _ = normalise(kept)
            assert_allclose(res.marginals[var], norm.values, rtol=1e-9)

    def test_a_message_is_a_payload_and_a_log_scale(self, tree_fg):
        msg = sum_product(tree_fg).message("phiD", "x3")
        assert type(msg) is Message and Message._fields == ("payload", "log_scale")
        payload, log_scale = msg
        assert_allclose(payload * math.exp(log_scale), [10, 8], rtol=1e-9)

    def test_linear_beyond_a_float_is_a_numeric_error(self):
        # Each [10, 20, 30, 40] link multiplies the mass by about 54, so the
        # scale of the last message, e^1589.8, is beyond the largest float.
        names = [f"v{i}" for i in range(400)]
        links = {f"f{i}": DiscreteFactor([(a, 2), (b, 2)], [10, 20, 30, 40])
                 for i, (a, b) in enumerate(zip(names, names[1:]))}
        res = sum_product(FactorGraph([(v, 2) for v in names], links))
        msg = res.message("f398", "v399")
        assert math.isclose(msg.log_scale, 1589.8007311709218, rel_tol=1e-12)
        with pytest.raises(NumericError, match=re.escape(f"its log scale is {msg.log_scale}")):
            msg.linear
        assert np.isfinite(res.log_partition) and np.all(np.isfinite(res.marginals["v399"]))
        assert_allclose(res.message("f0", "v1").linear, [30, 70])

    def test_leaf_variable_messages_are_ones(self, tree_fg):
        res = sum_product(tree_fg)
        assert_allclose(res.message("x4", "phiD").linear, [1, 1])

    def test_normalised_subtree_messages_are_ones(self):
        # Predictive chain: messages flowing back from normalised CPT
        # subtrees are constant one.
        prior = DiscreteFactor([("h1", 2)], [0.5, 0.5])
        trans = DiscreteFactor([("h1", 2), ("h2", 2)], [0.0, 1.0, 1.0, 0.0])
        emis = DiscreteFactor([("h2", 2), ("v2", 2)], [0.6, 0.4, 0.4, 0.6])
        fg = FactorGraph(
            [("h1", 2), ("h2", 2), ("v2", 2)],
            {"p1": prior, "p21": trans, "e2": emis},
        )
        res = sum_product(fg)
        assert_allclose(res.message("e2", "h2").linear, [1, 1], rtol=1e-12)
        assert_allclose(res.message("v2", "e2").linear, [1, 1], rtol=1e-12)


class _CountingProduct:
    """np.multiply that counts its calls; ``identity`` is kept for a variable with no input."""

    identity = np.multiply.identity

    def __init__(self):
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return np.multiply(a, b)


@pytest.mark.parametrize("degree", [10, 20, 40, 80])
def test_star_combines_quadratically_in_a_full_pass_and_linearly_inward(degree):
    # A centre variable c and `degree` pairwise factors, each to a leaf variable.  The full
    # pass sends c->f_k from the other degree - 1 inputs (degree - 2 combines each), and
    # each factor combines its table once on the way in and once on the way out.
    fg = FactorGraph([("c", 2), *((f"l{k}", 2) for k in range(degree))],
                     {f"f{k}": DiscreteFactor([("c", 2), (f"l{k}", 2)], [1, 2, 3, 4]) for k in range(degree)})

    def combines(edges):
        class Counting(_SumProduct):
            combine = _CountingProduct()

        _sweep(fg, edges, Counting)
        return Counting.combine.calls

    assert combines(_all_edges(fg, _forest(fg))) == degree ** 2
    assert combines(_inward(_forest(fg, "c")[0])) == degree


class TestConditioning:
    def test_worked_conditional(self, tree_fg):
        marginals = conditioned_sum_product(tree_fg, {"x2": 1})
        assert_allclose(marginals["x1"], [0.2343, 0.7657], atol=1e-4)
        reduced, _ = condition_factor_graph(tree_fg, {"x2": 1})
        res = sum_product(reduced)
        assert_allclose(res.message("phiC", "x1").linear, [2460, 4020], rtol=1e-9)

    def test_uniform_unary_evidence_changes_nothing(self):
        fg = FactorGraph(
            [("a", 2), ("b", 2)],
            {
                "fab": DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4]),
                "fb": DiscreteFactor([("b", 2)], [1, 1]),
                "fa": DiscreteFactor([("a", 2)], [2, 5]),
            },
        )
        # conditioning on b: with a uniform unary factor at b, p(a | b) uses
        # only the pairwise slice
        base = sum_product(fg).marginals["a"]
        assert base is not None  # smoke: the graph itself is consistent

    def test_matches_brute_force_conditional(self, tree_fg):
        joint = factor_graph_joint(tree_fg)
        evidence = {"x2": 1, "x5": 0}
        marginals = conditioned_sum_product(tree_fg, evidence)
        sliced = condition(joint, evidence)
        for var in marginals:
            rest = [v for v in sliced.var_names if v != var]
            kept = sliced
            for v in rest:
                kept = sum_marginalise(kept, v)
            norm, _ = normalise(kept)
            assert_allclose(marginals[var], norm.values, rtol=1e-9)

    def test_conditioned_partition_recovers_evidence_probability(self, tree_fg):
        # log Z of the conditioned graph plus the dropped-constant offset
        # equals the log of the unnormalised evidence mass.
        joint = factor_graph_joint(tree_fg)
        evidence = {"x2": 1}
        reduced, offset = condition_factor_graph(tree_fg, evidence)
        res = sum_product(reduced)
        sliced = condition(joint, evidence)
        assert math.isclose(res.log_partition + offset, math.log(sliced.values.sum()),
                            rel_tol=1e-9)

    def test_out_of_range_evidence(self, tree_fg):
        with pytest.raises(ValidationError):
            conditioned_sum_product(tree_fg, {"x2": 3})

    def test_zero_probability_evidence(self):
        fg = FactorGraph(
            [("a", 2), ("b", 2)],
            {
                "fa": DiscreteFactor([("a", 2)], [1.0, 0.0]),
                "fab": DiscreteFactor([("a", 2), ("b", 2)], [1, 1, 1, 1]),
            },
        )
        with pytest.raises(NumericError):
            conditioned_sum_product(fg, {"a": 1})

    @pytest.mark.parametrize("state", [1.7, "1", -1, None])
    def test_evidence_state_must_be_an_integer(self, tree_fg, state):
        # 1.7 used to be truncated to state 1 and "1" cast to it.
        for call in (lambda: conditioned_sum_product(tree_fg, {"x2": state}),
                     lambda: condition_factor_graph(tree_fg, {"x2": state})):
            with pytest.raises(ValidationError, match=f"evidence state of 'x2' must be a non-negative "
                                                      f"integer, got {re.escape(repr(state))}"):
                call()

    def test_evidence_state_accepts_integer_types(self, tree_fg):
        # True is the integer 1 here, as for every count that numerics.count checks.
        expected = conditioned_sum_product(tree_fg, {"x2": 1})
        for state in (np.int64(1), True):
            marginals = conditioned_sum_product(tree_fg, {"x2": state})
            assert all(np.array_equal(marginals[v], expected[v]) for v in expected)


class TestFactorJoint:
    def test_sums_to_one(self, tree_fg):
        for fname in tree_fg.factors:
            joint = factor_joint(tree_fg, fname)
            assert math.isclose(joint.values.sum(), 1.0, rel_tol=1e-12)

    def test_unary_leaf_equals_marginal(self, tree_fg):
        res = sum_product(tree_fg)
        joint = factor_joint(tree_fg, "phiA")
        assert_allclose(joint.values, res.marginals["x1"], rtol=1e-9)

    def test_matches_brute_force(self, tree_fg):
        full = factor_graph_joint(tree_fg)
        norm, _ = normalise(full)
        joint = factor_joint(tree_fg, "phiD")
        kept = norm
        for v in norm.var_names:
            if v not in joint.var_names:
                kept = sum_marginalise(kept, v)
        # align scopes before comparison
        perm_idx = [kept.var_names.index(v) for v in joint.var_names]
        nd = np.transpose(kept.ndarray(), perm_idx)
        assert_allclose(joint.ndarray(), nd, rtol=1e-9)

    def test_unknown_factor(self, tree_fg):
        with pytest.raises(ValidationError):
            factor_joint(tree_fg, "ghost")


class TestMaxSum:
    def test_full_model_map(self, tree_fg):
        res = max_sum_map(tree_fg, "x1")
        assert [res.assignment[f"x{i}"] for i in range(1, 6)] == [1, 1, 0, 0, 1]

    def test_root_invariance(self, tree_fg):
        a = max_sum_map(tree_fg, "x1")
        b = max_sum_map(tree_fg, "x3")
        assert a.assignment == b.assignment
        assert math.isclose(a.log_score, b.log_score, rel_tol=1e-12)

    def test_conditioned_map(self, tree_fg):
        reduced, _ = condition_factor_graph(tree_fg, {"x4": 0, "x5": 0})
        res = max_sum_map(reduced, "x1")
        assert [res.assignment[f"x{i}"] for i in range(1, 4)] == [1, 1, 0]

    def test_score_is_log_joint_at_assignment(self, tree_fg):
        res = max_sum_map(tree_fg, "x1")
        joint = factor_graph_joint(tree_fg)
        assert math.isclose(math.exp(res.log_score), joint.value_at(res.assignment),
                            rel_tol=1e-9)

    def test_attains_global_maximum(self, tree_fg):
        res = max_sum_map(tree_fg, "x1")
        joint = factor_graph_joint(tree_fg)
        assert math.isclose(math.exp(res.log_score), joint.values.max(), rel_tol=1e-9)

    def test_rescaling_invariance(self, tree_fg):
        factors = dict(tree_fg.factors)
        factors["phiD"] = DiscreteFactor(factors["phiD"].scope, factors["phiD"].values * 7.5)
        scaled = FactorGraph(list(tree_fg.variables), factors)
        a = max_sum_map(tree_fg, "x1")
        b = max_sum_map(scaled, "x1")
        assert a.assignment == b.assignment
        assert math.isclose(b.log_score - a.log_score, math.log(7.5), rel_tol=1e-9)

    def test_random_trees_against_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            variables = [(f"v{i}", 2) for i in range(n)]
            factors = {}
            # random tree: connect each variable beyond the first to an
            # earlier one through a pairwise factor
            for i in range(1, n):
                j = int(rng.integers(0, i))
                factors[f"f{i}"] = DiscreteFactor(
                    [(f"v{j}", 2), (f"v{i}", 2)], rng.uniform(0.1, 4.0, size=4))
            factors["f0"] = DiscreteFactor([("v0", 2)], rng.uniform(0.1, 4.0, size=2))
            fg = FactorGraph(variables, factors)
            res = max_sum_map(fg, "v0")
            joint = factor_graph_joint(fg)
            assert math.isclose(math.exp(res.log_score), joint.values.max(), rel_tol=1e-9)
            assert math.isclose(joint.value_at(res.assignment), joint.values.max(),
                                rel_tol=1e-9)

    def test_not_a_tree(self, loop_fg):
        with pytest.raises(ValidationError):
            max_sum_map(loop_fg, "x1")


class TestDagConversion:
    def _hmm_cpts(self):
        prior = DiscreteFactor([("h1", 2)], [0.5, 0.5])
        # scope (child, parent); p(child | parent) columns by parent state
        trans = lambda a, b: DiscreteFactor([(a, 2), (b, 2)], [0.7, 0.3, 0.4, 0.6])
        emis = lambda v, h: DiscreteFactor([(v, 2), (h, 2)], [0.8, 0.2, 0.3, 0.7])
        return prior, trans, emis

    def test_hmm_dag_gives_tree(self):
        prior, trans, emis = self._hmm_cpts()
        nodes = ["h1", "h2", "h3", "v1", "v2", "v3"]
        dag = Dag.from_edges(nodes, [("h1", "h2"), ("h2", "h3"),
                                     ("h1", "v1"), ("h2", "v2"), ("h3", "v3")])
        cpts = {
            "h1": prior,
            "h2": _cpt_given([("h2", 2), ("h1", 2)], [0.7, 0.3, 0.4, 0.6], child="h2"),
            "h3": _cpt_given([("h3", 2), ("h2", 2)], [0.7, 0.3, 0.4, 0.6], child="h3"),
            "v1": _cpt_given([("v1", 2), ("h1", 2)], [0.8, 0.2, 0.3, 0.7], child="v1"),
            "v2": _cpt_given([("v2", 2), ("h2", 2)], [0.8, 0.2, 0.3, 0.7], child="v2"),
            "v3": _cpt_given([("v3", 2), ("h3", 2)], [0.8, 0.2, 0.3, 0.7], child="v3"),
        }
        fg = dag_to_factor_graph(dag, cpts)
        assert validate_tree(fg)
        res = sum_product(fg)
        assert math.isclose(res.log_partition, 0.0, abs_tol=1e-9)  # normalised model

    def test_polytree_is_tree_despite_moral_loop(self):
        nodes = [f"x{i}" for i in range(1, 7)]
        dag = Dag.from_edges(nodes, [("x1", "x3"), ("x1", "x4"), ("x2", "x4"),
                                     ("x4", "x5"), ("x4", "x6")])
        rng = np.random.default_rng(3)

        def cpt(child, parents):
            scope = [(child, 2)] + [(p, 2) for p in parents]
            raw = rng.uniform(0.1, 1.0, size=2 ** (len(parents) + 1))
            nd = raw.reshape([2] * (len(parents) + 1), order="F")
            nd = nd / nd.sum(axis=0, keepdims=True)
            return DiscreteFactor.from_ndarray(scope, nd)

        cpts = {n: cpt(n, dag.parents_of(n)) for n in nodes}
        fg = dag_to_factor_graph(dag, cpts)
        assert validate_tree(fg)

    def test_single_root(self):
        dag = Dag(["r"], {})
        fg = dag_to_factor_graph(dag, {"r": DiscreteFactor([("r", 3)], [0.2, 0.3, 0.5])})
        assert validate_tree(fg)
        assert len(fg.factors) == 1

    def test_rejects_unnormalised_cpt(self):
        dag = Dag(["r"], {})
        with pytest.raises(ValidationError):
            dag_to_factor_graph(dag, {"r": DiscreteFactor([("r", 2)], [0.5, 0.6])})

    def test_rejects_misscoped_cpt(self):
        dag = Dag.from_edges(["a", "b"], [("a", "b")])
        cpts = {
            "a": DiscreteFactor([("a", 2)], [0.5, 0.5]),
            "b": DiscreteFactor([("b", 2)], [0.5, 0.5]),  # missing parent a
        }
        with pytest.raises(ValidationError):
            dag_to_factor_graph(dag, cpts)

    @pytest.mark.parametrize("b_first", [False, True])
    def test_rejects_parent_cardinality_mismatch(self, b_first):
        # a's own CPT gives it 2 states; the CPT of b gives it 3, in either CPT order.
        dag = Dag.from_edges(["a", "b"], [("a", "b")])
        cpts = {"a": DiscreteFactor([("a", 2)], [0.5, 0.5]),
                "b": DiscreteFactor([("b", 2), ("a", 3)], [0.5] * 6)}
        if b_first:
            cpts = dict(reversed(cpts.items()))
        with pytest.raises(ValidationError, match=r"^cardinality mismatch for 'a' in factor 'p\(b\|a\)'$"):
            dag_to_factor_graph(dag, cpts)


def _cpt_given(scope, values, child):
    """Normalise the raw table over the child axis so it is a proper CPT."""
    f = DiscreteFactor(scope, values)
    axis = f.var_names.index(child)
    nd = f.ndarray()
    nd = nd / nd.sum(axis=axis, keepdims=True)
    return DiscreteFactor.from_ndarray(scope, nd)
