"""The message-passing engine on forests, deep chains and loops, checked
against brute-force enumeration and NumPy recursions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pgmlab.errors import NumericError, ValidationError
from pgmlab.factors import DiscreteFactor
from pgmlab.messages import (
    FactorGraph,
    Message,
    Schedule,
    SumProductResult,
    _all_edges,
    _combined,
    _forest,
    _inward,
    _MaxSum,
    _normaliser,
    _send,
    _sum_product,
    _SumProduct,
    _sweep,
    condition_factor_graph,
    conditioned_sum_product,
    factor_joint,
    marginal,
    max_sum_map,
    schedule,
    sum_product,
)
from pgmlab.modelio import parse_model_dict


@st.composite
def forests(draw, zeros=False, cards=(2, 3)):
    """Up to ten variables of cardinality 2-3, or within ``cards``.  Each variable after the first
    starts a new component or joins an earlier one through a pairwise factor
    (or, with the next variable, a three-way factor); about half the
    variables also get a unary factor.  With ``zeros``, table entries may be
    0, so a component's partition function may be too."""
    n = draw(st.integers(1, 10))
    cards = draw(st.lists(st.integers(*cards), min_size=n, max_size=n))
    names = [f"v{i}" for i in range(n)]
    scopes = []
    i = 1
    while i < n:
        kind = draw(st.sampled_from(["root", "pair", "triple"]))
        if kind != "root":
            new = [i, i + 1] if kind == "triple" and i + 1 < n else [i]
            scope = [draw(st.integers(0, i - 1))] + new
            scopes.append(draw(st.permutations(scope)))
            i += len(new) - 1
        i += 1
    scopes += [[k] for k in range(n) if draw(st.booleans())]
    factors = {}
    for k, scope in enumerate(scopes):
        size = math.prod(cards[j] for j in scope)
        entries = st.sampled_from([0.0]) | st.floats(0.05, 4.0) if zeros else st.floats(0.05, 4.0)
        values = draw(st.lists(entries, min_size=size, max_size=size))
        factors[f"f{k}"] = DiscreteFactor([(names[j], cards[j]) for j in scope], values)
    return FactorGraph(list(zip(names, cards)), factors)


@st.composite
def forests_with_evidence(draw):
    fg = draw(forests())
    observed = draw(st.lists(st.sampled_from(fg.var_names), unique=True,
                             max_size=len(fg.variables) - 1))
    return fg, {v: draw(st.integers(0, fg.card(v) - 1)) for v in observed}


def joint_table(fg: FactorGraph) -> np.ndarray:
    """The unnormalised joint, one axis per variable in declaration order."""
    axis = {name: k for k, name in enumerate(fg.var_names)}
    joint = np.ones([card for _, card in fg.variables])
    for fac in fg.factors.values():
        order = np.argsort([axis[v] for v in fac.var_names])
        table = np.transpose(fac.ndarray(), order)
        shape = [1] * joint.ndim
        for v, card in fac.scope:
            shape[axis[v]] = card
        joint = joint * table.reshape(shape)
    return joint


def evidence_slice(fg: FactorGraph, evidence: dict) -> np.ndarray:
    """The joint with every observed axis fixed, over the unobserved variables."""
    index = tuple(evidence.get(v, slice(None)) for v in fg.var_names)
    return joint_table(fg)[index]


def components(fg: FactorGraph) -> list[FactorGraph]:
    """Each connected component as its own factor graph (union-find)."""
    root = {v: v for v in fg.var_names}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for fac in fg.factors.values():
        for v in fac.var_names[1:]:
            root[find(v)] = find(fac.var_names[0])
    groups: dict[str, list] = {}
    for v, card in fg.variables:
        groups.setdefault(find(v), []).append((v, card))
    return [FactorGraph(variables, {name: fac for name, fac in fg.factors.items()
                                    if find(fac.var_names[0]) == find(variables[0][0])})
            for variables in groups.values()]


@settings(max_examples=60, deadline=None)
@given(forests_with_evidence())
def test_marginals_against_enumeration(case):
    fg, evidence = case
    marginals = conditioned_sum_product(fg, evidence)
    table = evidence_slice(fg, evidence)
    free = [v for v in fg.var_names if v not in evidence]
    assert set(marginals) == set(free)
    for k, var in enumerate(free):
        expected = table.sum(axis=tuple(j for j in range(len(free)) if j != k))
        assert_allclose(marginals[var], expected / expected.sum(), rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(forests_with_evidence())
def test_log_partition_sums_over_components(case):
    from pgmlab.messages import _forest, _sum_product

    fg, evidence = case
    reduced, offset = condition_factor_graph(fg, evidence)
    expected = math.log(evidence_slice(fg, evidence).sum())
    log_z = offset + sum(sum_product(part).log_partition for part in components(reduced))
    assert math.isclose(log_z, expected, rel_tol=1e-9, abs_tol=1e-12)
    # The engine's own total over the whole forest at once.
    whole = _sum_product(reduced, _forest(reduced)).log_partition
    assert math.isclose(offset + whole, expected, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(forests_with_evidence(), st.data())
def test_map_against_enumeration(case, data):
    fg, evidence = case
    reduced, offset = condition_factor_graph(fg, evidence)
    root = data.draw(st.sampled_from(reduced.var_names))
    result = max_sum_map(reduced, root)
    table = evidence_slice(fg, evidence)
    assert math.isclose(result.log_score + offset, math.log(table.max()), rel_tol=1e-9,
                        abs_tol=1e-12)
    free = [v for v in fg.var_names if v not in evidence]
    assert sorted(result.assignment) == sorted(free)
    attained = table[tuple(result.assignment[v] for v in free)]
    assert math.isclose(attained, table.max(), rel_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(forests(), st.data())
def test_loops_are_rejected(fg, data):
    first = data.draw(st.sampled_from(fg.var_names))
    others = [v for v in fg.var_names if v != first]
    if not others:
        return
    second = data.draw(st.sampled_from(others))
    factors = dict(fg.factors)
    scope = [(first, fg.card(first)), (second, fg.card(second))]
    # Two parallel factors close a loop whether or not the variables were connected.
    factors["loop1"] = DiscreteFactor.ones(scope)
    factors["loop2"] = DiscreteFactor.ones(scope)
    loopy = FactorGraph(list(fg.variables), factors)
    for call in (lambda: sum_product(loopy), lambda: conditioned_sum_product(loopy, {}),
                 lambda: max_sum_map(loopy, first), lambda: schedule(loopy),
                 lambda: factor_joint(loopy, "loop1")):
        with pytest.raises(ValidationError):
            call()


def test_forest_needs_a_connected_tree_for_sum_product_and_factor_joint():
    fg = FactorGraph(
        [("a", 2), ("b", 2)],
        {"fa": DiscreteFactor([("a", 2)], [1, 3]), "fb": DiscreteFactor([("b", 2)], [2, 2])},
    )
    for call in (lambda: sum_product(fg), lambda: factor_joint(fg, "fa")):
        with pytest.raises(ValidationError):
            call()
    assert_allclose(conditioned_sum_product(fg, {})["a"], [0.25, 0.75])
    assert max_sum_map(fg, "b").assignment == {"a": 1, "b": 0}


@settings(max_examples=80, deadline=None)
@given(forests(zeros=True))
def test_marginal_is_the_full_pass_marginal(fg):
    # One inward pass sends the same messages toward v as the full schedule, so the
    # marginal is bit-identical; a component with Z = 0 fails on both paths.
    try:
        whole = conditioned_sum_product(fg, {})
    except NumericError:
        whole = None  # some component has Z = 0
    for part in components(fg):
        try:
            full = sum_product(part).marginals
        except NumericError:
            full = None
        for v in part.var_names:
            if full is None:
                with pytest.raises(NumericError):
                    conditioned_sum_product(part, {})
                with pytest.raises(NumericError):
                    marginal(fg, v)
                continue
            if whole is None:  # another component has Z = 0, so the joint has none
                with pytest.raises(NumericError):
                    marginal(fg, v)
                continue
            result = marginal(fg, v)
            assert np.array_equal(result, full[v])
            assert np.array_equal(result, conditioned_sum_product(part, {})[v])
            assert np.array_equal(result, whole[v])


def test_marginal_of_a_variable_no_factor_uses_is_uniform():
    fg = FactorGraph([("a", 2), ("b", 2), ("u", 3)],
                     {"f": DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4])})
    assert np.array_equal(marginal(fg, "u"), np.full(3, 1 / 3))
    assert np.array_equal(marginal(fg, "u"), conditioned_sum_product(fg, {})["u"])
    assert_allclose(marginal(fg, "a"), [0.4, 0.6], rtol=1e-15)


def test_marginal_checks_the_whole_graph_and_the_variable():
    pair = [("c", 2), ("d", 2)]
    fg = FactorGraph([("a", 2), *pair], {"fa": DiscreteFactor([("a", 2)], [1, 3]),
                                         "g1": DiscreteFactor.ones(pair),
                                         "g2": DiscreteFactor.ones(pair)})
    # The loop lies in the other component, which the inward pass to a never visits.
    with pytest.raises(ValidationError, match="factor graph has a loop"):
        marginal(fg, "a")
    with pytest.raises(ValidationError, match="unknown variable 'z'"):
        marginal(fg, "z")


def test_map_roots_each_other_component_at_its_first_variable():
    # Split chain a - b - c on b: the tie in c's component breaks to state 0
    # whichever component holds the root.
    fg = FactorGraph(
        [("a", 2), ("b", 2), ("c", 2)],
        {"fab": DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4]),
         "fbc": DiscreteFactor([("b", 2), ("c", 2)], [5, 6, 5, 6])},
    )
    reduced, offset = condition_factor_graph(fg, {"b": 1})
    for root in ("a", "c"):
        result = max_sum_map(reduced, root)
        assert result.assignment == {"a": 1, "c": 0}
        assert math.isclose(result.log_score + offset, math.log(4 * 6), rel_tol=1e-12)


def _chain(n: int, seed: int):
    rng = np.random.default_rng(seed)
    unary = rng.uniform(0.1, 1.0, size=(n, 2))
    pair = rng.uniform(0.1, 1.0, size=(n - 1, 2, 2))
    factors = {f"u{i}": DiscreteFactor([(f"x{i}", 2)], unary[i]) for i in range(n)}
    factors.update({f"p{i}": DiscreteFactor.from_ndarray([(f"x{i}", 2), (f"x{i + 1}", 2)], pair[i])
                    for i in range(n - 1)})
    return FactorGraph([(f"x{i}", 2) for i in range(n)], factors), unary, pair


def test_deep_chain_against_numpy_recursions():
    n = 2000
    fg, unary, pair = _chain(n, 5)
    assert len(schedule(fg)) == 2 * n - 1  # u0 -> x0 -> p0 -> ... -> x{n-1}
    res = sum_product(fg)
    # Scaled forward-backward: alpha[i] and beta[i] exclude nothing but the
    # other side of x_i, so their product is the unnormalised marginal.
    alpha = np.empty((n, 2))
    beta = np.ones((n, 2))
    log_z = 0.0
    for i in range(n):
        alpha[i] = unary[i] * (alpha[i - 1] @ pair[i - 1]) if i else unary[0]
        log_z += math.log(alpha[i].sum())
        alpha[i] /= alpha[i].sum()
    for i in range(n - 2, -1, -1):
        beta[i] = pair[i] @ (unary[i + 1] * beta[i + 1])
        beta[i] /= beta[i].sum()
    expected = alpha * beta
    expected /= expected.sum(axis=1, keepdims=True)
    assert_allclose([res.marginals[f"x{i}"] for i in range(n)], expected, rtol=1e-9)
    assert math.isclose(res.log_partition, log_z, rel_tol=1e-9)

    # Log-domain Viterbi for the MAP score.
    scores = np.log(unary[0])
    for i in range(1, n):
        scores = (scores[:, None] + np.log(pair[i - 1])).max(axis=0) + np.log(unary[i])
    result = max_sum_map(fg, "x0")
    assert math.isclose(result.log_score, scores.max(), rel_tol=1e-12)
    states = [result.assignment[f"x{i}"] for i in range(n)]
    at_states = sum(math.log(unary[i, s]) for i, s in enumerate(states)) + sum(
        math.log(pair[i, states[i], states[i + 1]]) for i in range(n - 1))
    assert math.isclose(at_states, result.log_score, rel_tol=1e-12)


# The three ways the engine used to walk a tree, kept as references: the clock-cycle
# schedule by a two-pass first/second-max recursion, the full pass in its order, and
# factor_joint as that full pass plus the messages toward leaf factors.

def reference_schedule(fg: FactorGraph) -> Schedule:
    order = [pair for component in _forest(fg) for pair in component]
    depth = {}
    for node, parent in reversed(order):
        if parent is not None:
            depth[(node, parent)] = 1 + max(
                (depth[(w, node)] for w in fg._adjacent[node] if w != parent), default=0)
    for node, parent in order:
        inbound = sorted((depth[(w, node)] for w in fg._adjacent[node]), reverse=True)
        first, second = (inbound + [0, 0])[:2]
        for c in fg._adjacent[node]:
            if c != parent:
                depth[(node, c)] = 1 + (second if depth[(c, node)] == first else first)
    edges = [e for e in depth if not (e[1] in fg.factors and len(fg.factors[e[1]].scope) == 1)]
    groups = [[] for _ in range(max((depth[e] for e in edges), default=0))]
    for e in edges:
        groups[depth[e] - 1].append(e)
    return Schedule(tuple(tuple(sorted(g)) for g in groups))


def reference_sum_product(fg: FactorGraph) -> SumProductResult:
    components = _forest(fg)
    messages = _sweep(fg, reference_schedule(fg).all_edges(), _SumProduct)
    marginals = {}
    for var in fg.var_names:
        payload, _ = _combined(fg, var, None, messages)
        marginals[var] = payload / _normaliser(payload, f"at variable {var!r}")
    log_partition = 0.0
    for component in components:
        top = component[0][0]
        payload, scale = _combined(fg, top, None, messages)
        log_partition += math.log(_normaliser(payload, f"at {top!r}")) + scale
    return SumProductResult(marginals, log_partition, messages)


def reference_factor_joint(fg: FactorGraph, fname: str) -> DiscreteFactor:
    if len(_forest(fg)) != 1:
        raise ValidationError("factor graph is not a connected tree")
    messages = dict(reference_sum_product(fg).messages)
    fac = fg.factors[fname]
    for var in fac.var_names:
        if (var, fname) not in messages:
            messages[(var, fname)] = _send(fg, var, fname, messages, _SumProduct)
    nd, _ = _combined(fg, fname, None, messages)
    return DiscreteFactor.from_ndarray(fac.scope, nd / _normaliser(nd, "in factor joint"))


def outcome(call):
    """The call's result, or its error as (type, text)."""
    try:
        return call()
    except (NumericError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same_result(result, expected):
    if isinstance(expected, tuple):  # an error: a zero message or normaliser
        assert isinstance(result, tuple) and result[0] is expected[0]
        # Which zero message is met first depends on the pass order; a zero normaliser
        # (every message nonzero) is met at the same variable on both paths.
        if "identically zero" not in expected[1]:
            assert result == expected
        else:
            assert "identically zero" in result[1]
        return
    assert set(result.messages) == set(expected.messages)
    for edge, msg in expected.messages.items():
        got = result.messages[edge]
        assert np.array_equal(got.payload, msg.payload) and got.log_scale == msg.log_scale
    assert result.marginals.keys() == expected.marginals.keys()
    for var, probs in expected.marginals.items():
        assert np.array_equal(result.marginals[var], probs)
    assert result.log_partition == expected.log_partition


@st.composite
def any_graphs(draw):
    """A forest, or one with a loop closed by two parallel factors, with or without
    an empty-scope factor."""
    fg = draw(forests(zeros=draw(st.booleans())))
    factors = dict(fg.factors)
    if draw(st.booleans()):
        factors["const"] = DiscreteFactor([], [draw(st.floats(0.05, 4.0))])
    if len(fg.variables) > 1 and draw(st.booleans()):
        scope = list(draw(st.permutations(fg.variables)))[:2]
        factors["loop1"] = DiscreteFactor.ones(scope)
        factors["loop2"] = DiscreteFactor.ones(scope)
    return FactorGraph(list(fg.variables), factors)


@settings(max_examples=150, deadline=None)
@given(any_graphs())
def test_schedule_matches_the_two_pass_recursion(fg):
    assert outcome(lambda: schedule(fg).groups) == outcome(lambda: reference_schedule(fg).groups)


@settings(max_examples=80, deadline=None)
@given(st.one_of(forests(), forests(zeros=True)))
def test_full_pass_matches_the_clock_cycle_order(fg):
    forest = _forest(fg)
    result = outcome(lambda: _sum_product(fg, forest))
    assert_same_result(result, outcome(lambda: reference_sum_product(fg)))
    if not isinstance(result, tuple):
        # The keys follow the pass; the edges are the clock-cycle schedule's.
        assert list(result.messages) == _all_edges(fg, forest)
        assert sorted(result.messages) == sorted(schedule(fg).all_edges())
        assert all(np.array_equal(conditioned_sum_product(fg, {})[v], result.marginals[v])
                   for v in fg.var_names)
    for part in components(fg):
        assert_same_result(outcome(lambda: sum_product(part)), outcome(lambda: reference_sum_product(part)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(forests(), forests(zeros=True)))
def test_factor_joint_matches_the_full_pass_plus_patch(fg):
    for part in components(fg):
        for fname in part.factors:
            joint = outcome(lambda: factor_joint(part, fname))
            expected = outcome(lambda: reference_factor_joint(part, fname))
            if isinstance(expected, tuple):
                # Both paths fail only when the component's partition function is 0.
                assert isinstance(joint, tuple) and joint[0] is expected[0] is NumericError
            else:
                assert joint.scope == expected.scope
                assert np.array_equal(joint.values, expected.values)
    if len(components(fg)) > 1:
        for fname in fg.factors:
            assert outcome(lambda: factor_joint(fg, fname)) == outcome(
                lambda: reference_factor_joint(fg, fname)) == (
                ValidationError, "factor graph is not a connected tree")


@settings(max_examples=40, deadline=None)
@given(any_graphs())
def test_loops_and_forests_raise_as_before(fg):
    try:
        connected = len(_forest(fg)) == 1
    except ValidationError:
        connected = None
    for fname in fg.factors:
        if connected is None or not connected:
            assert outcome(lambda: factor_joint(fg, fname)) == outcome(
                lambda: reference_factor_joint(fg, fname))
    if connected is None:
        expected = (ValidationError, "factor graph has a loop")
        assert outcome(lambda: sum_product(fg)) == expected
        assert outcome(lambda: conditioned_sum_product(fg, {})) == expected
        assert outcome(lambda: schedule(fg)) == outcome(lambda: reference_schedule(fg)) == expected
    elif not connected:
        assert outcome(lambda: sum_product(fg)) == (ValidationError, "factor graph is not a connected tree")


def test_factor_joint_refuses_an_unknown_factor_first():
    fg = FactorGraph([("a", 2), ("b", 2)], {"fa": DiscreteFactor([("a", 2)], [1, 3])})
    assert outcome(lambda: factor_joint(fg, "zz")) == (ValidationError, "unknown factor 'zz'")


def test_zero_normaliser_names_the_same_variable():
    # Every message is nonzero, yet the product at a vanishes: both paths fail there.
    fg = FactorGraph([("a", 2), ("b", 2)], {
        "f": DiscreteFactor([("a", 2), ("b", 2)], [1, 0, 0, 1]),
        "ua": DiscreteFactor([("a", 2)], [1, 0]),
        "ub": DiscreteFactor([("b", 2)], [0, 1]),
    })
    expected = (NumericError, "zero normaliser at variable 'a'")
    assert outcome(lambda: sum_product(fg)) == outcome(lambda: reference_sum_product(fg)) == expected
    assert outcome(lambda: factor_joint(fg, "f")) == (NumericError, "zero normaliser in factor joint")


# -- the engine against its pre-plan form --------------------------------------
# The parent engine: each node's table (a variable's identity) times its messages
# reshaped to the table's full rank, reductions through the ndarray methods,
# max-sum's target axis moved by np.moveaxis, and np.unravel_index to backtrack.
# The engine must match it bit for bit.

class ReferenceSumProduct:
    combine = np.multiply
    table = staticmethod(DiscreteFactor.ndarray)

    @staticmethod
    def marginalise(edge, nd, axis):
        return nd.sum(axis=tuple(k for k in range(nd.ndim) if k != axis))

    @staticmethod
    def message(u, v, payload, scale):
        peak = float(payload.max())
        if peak <= 0.0:
            raise NumericError(f"message {u}->{v} is identically zero")
        return Message(payload / peak, scale + math.log(peak))


class ReferenceMaxSum:
    combine = np.add

    def __init__(self):
        self.argmax = {}

    @staticmethod
    def table(fac):
        with np.errstate(divide="ignore"):
            return np.log(fac.ndarray())

    def marginalise(self, edge, nd, axis):
        moved = np.moveaxis(nd, axis, 0).reshape(nd.shape[axis], -1)
        self.argmax[edge] = moved.argmax(axis=1)
        return moved.max(axis=1)

    @staticmethod
    def message(u, v, payload, scale):
        return Message(payload, scale)


def reference_combined(fg, node, skip, incoming, semiring):
    sources = fg._adjacent[node]
    if node in fg.factors:
        nd, axes = semiring.table(fg.factors[node]), range(len(sources))
    else:
        nd, axes = np.full(fg.card(node), float(semiring.combine.identity)), [0] * len(sources)
    scale = 0.0
    for axis, source in zip(axes, sources):
        if source != skip:
            msg = incoming[(source, node)]
            shape = [1] * nd.ndim
            shape[axis] = -1
            nd = semiring.combine(nd, msg.payload.reshape(shape))
            scale += msg.log_scale
    return nd, scale


def reference_pass(fg, edges, semiring):
    messages = {}
    for u, v in edges:
        nd, scale = reference_combined(fg, u, v, messages, semiring)
        if u in fg.factors:
            nd = semiring.marginalise((u, v), nd, fg.factors[u].var_names.index(v))
        messages[(u, v)] = semiring.message(u, v, nd, scale)
    return messages


def reference_max_sum_map(fg, root):
    order = [pair for component in _forest(fg, root) for pair in component]
    semiring = ReferenceMaxSum()
    messages = reference_pass(fg, _inward(order), semiring)
    assignment, log_score = {}, 0.0
    for node, parent in order:
        if parent is None:
            belief, _ = reference_combined(fg, node, None, messages, semiring)
            if not np.any(np.isfinite(belief)):
                raise NumericError("all configurations have zero probability")
            best = int(np.argmax(belief))
            log_score += float(belief.flat[best])
            assignment[node] = best
        elif node in fg.factors:
            others = [w for w in fg.factors[node].var_names if w != parent]
            flat = semiring.argmax[(node, parent)][assignment[parent]]
            states = np.unravel_index(flat, [fg.card(w) for w in others])
            assignment.update((w, int(s)) for w, s in zip(others, states))
    return {v: assignment[v] for v in fg.var_names}, log_score


def assert_same_messages(result, expected):
    if isinstance(expected, tuple):  # the same first zero message
        assert result == expected
        return
    assert list(result) == list(expected)
    for edge, msg in expected.items():
        assert np.array_equal(result[edge].payload, msg.payload)
        assert result[edge].log_scale == msg.log_scale


@settings(max_examples=150, deadline=None)
@given(forests(zeros=True, cards=(1, 4)))
def test_every_message_matches_the_reference_engine(fg):
    edges = _all_edges(fg, _forest(fg))
    expected = outcome(lambda: reference_pass(fg, edges, ReferenceSumProduct))
    result = outcome(lambda: _sweep(fg, edges, _SumProduct))
    assert_same_messages(result, expected)
    if not isinstance(expected, tuple):
        for var in fg.var_names:
            nd, scale = _combined(fg, var, None, result)
            want, want_scale = reference_combined(fg, var, None, expected, ReferenceSumProduct)
            assert np.array_equal(nd, want) and scale == want_scale
    reference, semiring = ReferenceMaxSum(), _MaxSum()
    expected = reference_pass(fg, edges, reference)
    with np.errstate(divide="ignore"):
        result = _sweep(fg, edges, semiring)
    assert_same_messages(result, expected)
    assert list(semiring.argmax) == list(reference.argmax)
    for edge, best in reference.argmax.items():
        assert semiring.argmax[edge].dtype == best.dtype
        assert np.array_equal(semiring.argmax[edge], best)


@settings(max_examples=150, deadline=None)
@given(forests(zeros=True, cards=(1, 4)), st.data())
def test_map_matches_the_reference_backtrack(fg, data):
    root = data.draw(st.sampled_from(fg.var_names))
    expected = outcome(lambda: reference_max_sum_map(fg, root))
    result = outcome(lambda: max_sum_map(fg, root))
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert result == expected
    else:
        assert (result.assignment, result.log_score) == expected


# -- a component with no mass -------------------------------------------------

ZERO_MASS = {"variables": [{"name": "a", "card": 2}, {"name": "b", "card": 2}, {"name": "c", "card": 2}],
             "factors": [{"name": "fab", "scope": ["a", "b"], "values": [1, 2, 3, 4]},
                         {"name": "fbc", "scope": ["b", "c"], "values": [0, 1, 0, 1]}]}


def test_marginal_refuses_evidence_of_zero_mass_in_another_component():
    fg = parse_model_dict(ZERO_MASS).factor_graph()
    reduced, _ = condition_factor_graph(fg, {"b": 0})  # fbc(b=0, c) is all zeros
    assert len(_forest(reduced)) == 2
    with pytest.raises(NumericError):
        conditioned_sum_product(fg, {"b": 0})
    with pytest.raises(NumericError, match="identically zero"):
        marginal(reduced, "a")
    with pytest.raises(NumericError):
        marginal(reduced, "c")


def test_marginal_refuses_a_separate_component_of_zero_mass():
    for zero in (DiscreteFactor([("c", 2)], [0, 0]), DiscreteFactor([], [0])):
        factors = {"fab": DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4]), "z": zero}
        fg = FactorGraph([("a", 2), ("b", 2), ("c", 2)], factors)
        with pytest.raises(NumericError):
            marginal(fg, "a")
        with pytest.raises(NumericError):
            conditioned_sum_product(fg, {})


@settings(max_examples=30, deadline=None)
@given(st.integers(100, 500), st.integers(0, 2**32 - 1), st.floats(2.0, 12.0))
def test_star_marginals_match_a_log_space_reference(d, seed, decades):
    # A hub c with d binary leaves; leaf i's table holds 10**x at [c, l_i], x uniform in ±decades.
    log_tables = np.random.default_rng(seed).uniform(-decades, decades, (d, 2, 2)) * math.log(10)
    factors = {f"f{i}": DiscreteFactor.from_ndarray([("c", 2), (f"l{i}", 2)], np.exp(t)) for i, t in enumerate(log_tables)}
    fg = FactorGraph([("c", 2), *((f"l{i}", 2) for i in range(d))], factors)
    into_c = np.logaddexp.reduce(log_tables, axis=2)  # each leaf's message into c, in logs
    log_c = into_c.sum(axis=0)
    log_l0 = np.logaddexp.reduce(log_tables[0] + (log_c - into_c[0])[:, None], axis=0)
    for var, logs in (("c", log_c), ("l0", log_l0)):
        assert_allclose(marginal(fg, var), np.exp(logs - np.logaddexp.reduce(logs)), rtol=1e-9, atol=1e-12)
