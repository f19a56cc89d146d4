"""Dense factor algebra and variable elimination."""

import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pgmlab import factors as factors_module
from pgmlab.errors import NumericError, ValidationError
from pgmlab.factors import (
    DiscreteFactor,
    condition,
    eliminate,
    max_marginalise,
    normalise,
    product,
    sum_marginalise,
)

from pgmlab.messages import FactorGraph

from conftest import factor_graph_joint, loop_factors


def random_factor(rng, scope):
    size = int(np.prod([c for _, c in scope]))
    return DiscreteFactor(scope, rng.uniform(0.1, 5.0, size=size))


def reference_eliminate(factors, order):
    """The work-list loop ``eliminate`` ran before its scope walk: each step scans
    the whole list for the factors that hold its variable.  Returns the result, the
    size of each step's product and the reduced tables, for valid input only."""
    work = list(factors)
    sizes, intermediates = [], []
    for var in order:
        touching = [f for f in work if var in f.var_names]
        work = [f for f in work if var not in f.var_names]
        joined = product(touching)
        sizes.append(joined.values.size)
        intermediates.append(sum_marginalise(joined, var))
        work.append(intermediates[-1])
    result = product(work) if work else DiscreteFactor((), [1.0])
    return result, tuple(sizes), intermediates


def same_bits(f, g):
    return f.scope == g.scope and f.values.tobytes() == g.values.tobytes()


class TestLayout:
    def test_first_variable_fastest(self):
        f = DiscreteFactor([("a", 2), ("b", 3)], range(6))
        # index = a + 2*b
        for a, b in itertools.product(range(2), range(3)):
            assert f.value_at({"a": a, "b": b}) == a + 2 * b

    @pytest.mark.parametrize("state", [-1, 2.9, 3, "1", None])
    def test_value_at_refuses_a_bad_state(self, state):
        # Once cast with int() and unchecked: -1 and 2.9 both read entry 2.
        f = DiscreteFactor([("a", 3)], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="'a'"):
            f.value_at({"a": state})

    def test_value_at_accepts_numpy_integers(self):
        f = DiscreteFactor([("a", 3)], [1.0, 2.0, 3.0])
        assert f.value_at({"a": np.int64(2)}) == 3.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteFactor([("a", 2)], [1.0])  # wrong length
        with pytest.raises(ValidationError):
            DiscreteFactor([("a", 2)], [1.0, -2.0])  # negative
        with pytest.raises(ValidationError):
            DiscreteFactor([("a", 2), ("a", 2)], [1, 2, 3, 4])  # duplicate name
        with pytest.raises(ValidationError):
            DiscreteFactor([("a", 2)], [1.0, np.inf])

    def test_values_are_frozen(self):
        f = DiscreteFactor([("a", 2)], [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.nan], "factor values must be finite"),
        ([np.inf, 1.0], "factor values must be finite"),
        ([-np.inf, 1.0], "factor values must be finite"),
        ([np.nan], "factor values must be finite"),  # the wrong size too
        ([1.0, 2.0, np.inf], "factor values must be finite"),
        ([-1.0, np.nan], "factor values must be finite"),
        ([1.0, -1.0], "factor values must be non-negative"),
        ([1.0, 2.0, 3.0], r"expected 2 values for scope \(\('a', 2\),\), got 3"),
        ([-1.0], "expected 2 values"),  # the wrong size before the sign
        ([], "expected 2 values"),
        ([[1.0, 2.0], [3.0]], "factor values must be numeric and rectangular"),
        (["x", 1.0], "factor values must be numeric and rectangular"),
    ])
    def test_value_check_precedence(self, values, message):
        with pytest.raises(ValidationError, match=message):
            DiscreteFactor([("a", 2)], values)

    def test_values_do_not_alias_the_input(self):
        given = np.array([1.0, 2.0, 3.0, 4.0])
        f = DiscreteFactor([("a", 2), ("b", 2)], given)
        given[0] = 9.0
        assert list(f.values) == [1.0, 2.0, 3.0, 4.0]
        assert not np.shares_memory(f.values, given)
        assert not f.values.flags.writeable

    def test_values_of_other_than_one_axis_are_refused(self):
        f = DiscreteFactor([("a", 2), ("b", 3)], range(6))  # an array view would come back transposed
        for values in (f.ndarray(), f.ndarray().T, f.ndarray().tolist(), 5.0):
            with pytest.raises(ValidationError, match="factor values must be one flat list, got an array of shape"):
                DiscreteFactor(f.scope, values)
        assert DiscreteFactor.from_ndarray(f.scope, f.ndarray()) == f

    def test_wide_scope(self):
        # 80 cardinality-1 variables around b and c: more axes than NumPy allows.
        ones = lambda tag: [(f"{tag}{i}", 1) for i in range(40)]
        f = DiscreteFactor(ones("u") + [("b", 2)] + ones("w") + [("c", 3)], [1, 2, 3, 4, 5, 6])
        assert list(sum_marginalise(f, "b").values) == [3, 7, 11]
        reduced, argmax = max_marginalise(f, "c")
        assert list(reduced.values) == [5, 6] and list(argmax) == [2, 2]
        sliced = condition(f, {"c": 1, "u3": 0})
        assert list(sliced.values) == [3, 4] and len(sliced.scope) == 80
        with pytest.raises(ValidationError, match="a factor over 82 variables has no array view"):
            f.ndarray()


class TestProduct:
    def test_paper_triple_product_entry(self):
        phi_b = DiscreteFactor([("x2", 2), ("x3", 2), ("x4", 2)], [2, 2, 4, 2, 6, 8, 4, 2])
        phi_c = DiscreteFactor([("x4", 2), ("x5", 2)], [8, 2, 2, 6])
        phi_d = DiscreteFactor([("x4", 2)], [6, 3])
        prod = product([phi_b, phi_c, phi_d])
        assert prod.var_names == ("x2", "x3", "x4", "x5")
        assert prod.value_at({"x2": 0, "x3": 0, "x4": 0, "x5": 0}) == 2 * 8 * 6
        assert prod.value_at({"x2": 1, "x3": 0, "x4": 1, "x5": 1}) == 8 * 6 * 3

    def test_identity_element(self):
        rng = np.random.default_rng(1)
        f = random_factor(rng, [("a", 2), ("b", 3)])
        ones = DiscreteFactor.ones([("a", 2), ("b", 3)])
        assert_allclose(product([f, ones]).values, f.values)

    def test_self_product_squares(self):
        f = DiscreteFactor([("x1", 2)], [2, 4])
        assert list(product([f, f]).values) == [4, 16]

    def test_cardinality_conflict(self):
        with pytest.raises(ValidationError):
            product([DiscreteFactor([("a", 2)], [1, 1]), DiscreteFactor([("a", 3)], [1, 1, 1])])

    def test_condition_product_commute(self):
        rng = np.random.default_rng(2)
        f = random_factor(rng, [("a", 2), ("b", 2), ("c", 3)])
        g = random_factor(rng, [("b", 2), ("d", 2)])
        assignment = {"b": 1, "c": 2}
        first = condition(product([f, g]), assignment)
        second = product([condition(f, assignment), condition(g, assignment)])
        assert first.scope == second.scope
        assert_allclose(first.values, second.values, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cards=st.lists(st.integers(1, 9), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_every_entry_is_the_product_of_factor_entries(self, data, cards, seed):
        # conftest's brute-force joint is built with product itself; this
        # reference is not.  The multiplications run in the same order, so
        # the entries are equal exactly.
        rng = np.random.default_rng(seed)
        card = {f"v{k}": c for k, c in enumerate(cards)}
        factors = []
        for _ in range(data.draw(st.integers(1, 5))):
            names = data.draw(st.permutations(list(card)))[:data.draw(st.integers(0, len(card)))]
            factors.append(random_factor(rng, [(name, card[name]) for name in names]))
        result = product(factors)
        union = list(dict.fromkeys(name for f in factors for name in f.var_names))
        assert result.scope == tuple((name, card[name]) for name in union)
        for states in itertools.product(*(range(card[name]) for name in union)):
            assignment = dict(zip(union, states))
            expected = 1.0
            for f in factors:
                expected *= f.value_at(assignment)
            assert result.value_at(assignment) == expected

    def test_more_variables_than_einsum_labels(self):
        # einsum has 52 axis labels; cardinality-1 variables take none.
        factors = [DiscreteFactor([(f"x{i}", 1), ("y", 2)], [1.0, 2.0]) for i in range(60)]
        result = product(factors)
        assert result.var_names == ("x0", "y", *(f"x{i}" for i in range(1, 60)))
        assert result.values.tolist() == [1.0, 2.0**60]

    def test_table_over_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 26)
        f = DiscreteFactor([("a", 3), ("b", 3)], range(9))
        g = DiscreteFactor([("c", 3), ("b", 3)], range(9))
        scope = [("a", 3), ("b", 3), ("c", 3)]
        message = r"^a table over \['a', 'b', 'c'\] would have 27 entries, over the limit of 26$"
        with pytest.raises(ValidationError, match=message):
            product([f, g])
        with pytest.raises(ValidationError, match=message):
            DiscreteFactor.ones(scope)
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 27)  # the cap is inclusive
        assert product([f, g]).scope == DiscreteFactor.ones(scope).scope == tuple(scope)


class TestMarginalise:
    def test_sum_over_pair(self):
        phi_c = DiscreteFactor([("x4", 2), ("x5", 2)], [8, 2, 2, 6])
        out = sum_marginalise(phi_c, "x5")
        assert list(out.values) == [10, 8]

    def test_final_elimination_table(self):
        phi_a0 = DiscreteFactor([("x2", 2), ("x3", 2)], [4, 2, 2, 6])
        phi_45 = DiscreteFactor([("x2", 2), ("x3", 2)], [264, 312, 336, 168])
        out = sum_marginalise(product([phi_a0, phi_45]), "x3")
        assert list(out.values) == [1728, 1632]

    def test_cardinality_one_variable(self):
        f = DiscreteFactor([("a", 1), ("b", 2)], [3, 5])
        out = sum_marginalise(f, "a")
        assert out.scope == (("b", 2),)
        assert list(out.values) == [3, 5]

    def test_unknown_variable(self):
        with pytest.raises(ValidationError):
            sum_marginalise(DiscreteFactor([("a", 2)], [1, 2]), "zz")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), n_vars=st.integers(2, 6))
    def test_order_invariance(self, seed, n_vars):
        rng = np.random.default_rng(seed)
        scope = [(f"v{i}", 2) for i in range(n_vars)]
        f = random_factor(rng, scope)
        names = [n for n, _ in scope[1:]]
        a = f
        for v in names:
            a = sum_marginalise(a, v)
        b = f
        for v in reversed(names):
            b = sum_marginalise(b, v)
        assert_allclose(a.values, b.values, rtol=1e-9)


class TestMaxMarginalise:
    def test_rescaled_pair_with_message(self):
        # linear equivalent of a log-domain max with an incoming message
        phi_e = DiscreteFactor([("x3", 2), ("x5", 2)], [1, 2, 2, 1])
        weighted = product([phi_e, DiscreteFactor([("x5", 2)], [1, 8])])
        out, argmax = max_marginalise(weighted, "x5")
        assert_allclose(np.log(out.values), [math.log(16), math.log(8)])
        assert list(argmax) == [1, 1]

    def test_backtracking_states(self):
        phi_d = DiscreteFactor([("x3", 2), ("x4", 2)], [4, 1, 1, 3])
        out, argmax = max_marginalise(phi_d, "x4")
        assert_allclose(out.values, [4, 3])
        assert list(argmax) == [0, 1]

    def test_single_entry(self):
        f = DiscreteFactor([("a", 1)], [3.5])
        out, argmax = max_marginalise(f, "a")
        assert out.scope == ()
        assert out.values[0] == 3.5
        assert list(argmax) == [0]

    def test_ties_break_low(self):
        f = DiscreteFactor([("a", 3)], [7, 7, 7])
        _, argmax = max_marginalise(f, "a")
        assert list(argmax) == [0]

    def test_recovers_global_max(self):
        rng = np.random.default_rng(9)
        scope = [(f"v{i}", 2) for i in range(5)]
        f = random_factor(rng, scope)
        best = {}
        current = f
        order = [n for n, _ in scope]
        argmaxes = {}
        for v in order[:-1]:
            current, table = max_marginalise(current, v)
            argmaxes[v] = (table, current.var_names)
        # last variable: direct argmax
        best[order[-1]] = int(np.argmax(current.values))
        for v in reversed(order[:-1]):
            table, rest = argmaxes[v]
            nd = table.reshape([2] * len(rest), order="F") if rest else table
            idx = tuple(best[r] for r in rest)
            best[v] = int(nd[idx]) if rest else int(table[0])
        attained = f.value_at(best)
        assert attained == f.values.max()


class TestConditionAndNormalise:
    def test_condition_rows(self):
        phi_c = DiscreteFactor([("x1", 2), ("x2", 2), ("x3", 2)], [4, 2, 2, 6, 2, 6, 6, 4])
        assert list(condition(phi_c, {"x2": 1}).values) == [2, 6, 6, 4]
        assert list(condition(phi_c, {"x1": 0}).values) == [4, 2, 2, 6]
        phi_d = DiscreteFactor([("x4", 2), ("x6", 2)], [3, 6, 6, 3])
        assert list(condition(phi_d, {"x6": 1}).values) == [6, 3]

    def test_out_of_range_state(self):
        f = DiscreteFactor([("a", 2)], [1, 2])
        with pytest.raises(ValidationError):
            condition(f, {"a": 2})

    @pytest.mark.parametrize("state", [1.7, "1", -1])
    def test_state_must_be_an_integer(self, state):
        f = DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4])
        with pytest.raises(ValidationError, match="state of 'a' must be a non-negative integer"):
            condition(f, {"a": state})

    def test_integer_types_are_states(self):
        # True is the integer 1 here, as for every count that numerics.count checks.
        f = DiscreteFactor([("a", 2), ("b", 2)], [1, 2, 3, 4])
        for state in (1, np.int64(1), True):
            assert list(condition(f, {"a": state}).values) == [2, 4]

    def test_normalise_paper_values(self):
        norm, log_z = normalise(DiscreteFactor([("x1", 2)], [39840, 103680]))
        assert_allclose(norm.values, [0.2776, 0.7224], atol=1e-4)
        assert math.isclose(log_z, math.log(143520))
        norm2, _ = normalise(DiscreteFactor([("x1", 2)], [4920, 16080]))
        assert_allclose(norm2.values, [0.2343, 0.7657], atol=1e-4)

    def test_normalise_idempotent(self):
        norm, _ = normalise(DiscreteFactor([("a", 2)], [0.25, 0.75]))
        again, log_z = normalise(norm)
        assert_allclose(again.values, norm.values)
        assert abs(log_z) < 1e-12

    def test_all_zero_factor(self):
        with pytest.raises(NumericError):
            normalise(DiscreteFactor([("a", 2)], [0.0, 0.0]))


class TestEliminate:
    @pytest.fixture
    def conditioned(self):
        return [condition(f, {"x1": 0, "x6": 1}) for f in loop_factors()]

    def test_expensive_order(self, conditioned):
        result, report = eliminate(conditioned, {"x2"}, ["x4", "x5", "x3"])
        assert list(report.intermediates[0].values) == [132, 144, 216, 108, 132, 168, 120, 60]
        assert list(report.intermediates[1].values) == [264, 312, 336, 168]
        assert list(report.intermediates[2].values) == [1728, 1632]
        assert report.peak_table_entries == 2**4
        norm, _ = normalise(result)
        assert_allclose(norm.values, [0.514, 0.486], atol=1e-3)

    def test_cheap_order(self, conditioned):
        result, report = eliminate(conditioned, {"x2"}, ["x5", "x4", "x3"])
        assert list(report.intermediates[0].values) == [10, 8]
        assert list(report.intermediates[1].values) == [264, 312, 336, 168]
        assert list(result.values) == [1728, 1632]
        assert report.peak_table_entries == 2**3

    def test_eliminate_nothing(self):
        fs = loop_factors()
        result, report = eliminate(fs, {f"x{i}" for i in range(1, 7)}, [])
        assert_allclose(result.values, product(fs).values)
        assert report.step_sizes == ()
        assert report.peak_table_entries == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            names = [f"v{i}" for i in range(n)]
            factors = []
            for _ in range(n):
                k = int(rng.integers(1, 3))
                chosen = rng.choice(n, size=k, replace=False)
                factors.append(random_factor(rng, [(names[j], 2) for j in sorted(chosen)]))
            mentioned = sorted({v for f in factors for v in f.var_names})
            keep = {mentioned[0]}
            order = [v for v in mentioned[1:]]
            result, report = eliminate(factors, keep, order)
            full = product(factors)
            expected = full
            for v in order:
                expected = sum_marginalise(expected, v)
            assert_allclose(result.values, expected.values, rtol=1e-9)
            assert report.peak_table_entries == max(report.step_sizes)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), cards=st.lists(st.integers(1, 3), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
    def test_random_orders_match_brute_force(self, data, cards, seed):
        names = [f"v{i}" for i in range(len(cards))]
        variables = list(zip(names, cards))
        scopes = data.draw(st.lists(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True),
                                    min_size=1, max_size=4))
        mentioned = {v for scope in scopes for v in scope}
        scopes += [[v] for v in variables if v not in mentioned]  # every variable in some factor
        rng = np.random.default_rng(seed)
        fg = FactorGraph(variables, {f"f{k}": random_factor(rng, scope) for k, scope in enumerate(scopes)})
        keep = data.draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
        order = data.draw(st.permutations([v for v in names if v not in keep]))

        result, report = eliminate(list(fg.factors.values()), keep, order)

        joint = factor_graph_joint(fg)
        summed = joint.ndarray().sum(axis=tuple(joint.var_names.index(v) for v in order))
        kept = [v for v in joint.var_names if v not in order]
        assert set(result.var_names) == set(kept)
        for states in itertools.product(*(range(fg.card(v)) for v in kept)):
            assignment = dict(zip(kept, states))
            assert math.isclose(result.value_at(assignment), float(summed[states]), rel_tol=1e-9)
        # The pre-computed step sizes are those of the tables actually built.
        assert report.step_sizes == tuple(f.values.size * fg.card(v) for f, v in zip(report.intermediates, order))

    def test_step_over_the_cap_rejected_before_any_table(self, monkeypatch):
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 2**6)
        leaves = [f"l{i}" for i in range(8)]
        star = [DiscreteFactor([("h", 2), (leaf, 2)], [1, 2, 3, 4]) for leaf in leaves]
        with pytest.raises(ValidationError, match=r"^elimination step 1 \(variable 'h'\) would build a table "
                                                  r"of 512 entries, over the limit of 64$"):
            eliminate(star, {"l0"}, ["h", *leaves[1:]])
        # Leaves first keeps every table at 4 entries, and the cap is inclusive.
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 4)
        _, report = eliminate(star, {"l0"}, [*leaves[1:], "h"])
        assert report.step_sizes == (4,) * 8

    def test_result_over_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 2**6)
        chain = [DiscreteFactor([(f"x{i}", 2), (f"x{i + 1}", 2)], [1, 2, 3, 4]) for i in range(7)]
        with pytest.raises(ValidationError, match="the result over .* would have 256 entries"):
            eliminate(chain, {f"x{i}" for i in range(8)}, [])

    def test_validation(self, conditioned):
        with pytest.raises(ValidationError):
            eliminate(conditioned, {"x2"}, ["x4", "x5"])  # x3 unaccounted
        with pytest.raises(ValidationError):
            eliminate(conditioned, {"x2", "x3"}, ["x4", "x5", "x3"])  # overlap
        with pytest.raises(ValidationError):
            eliminate(conditioned, {"ghost", "x2"}, ["x4", "x5", "x3"])

    @pytest.mark.parametrize("keep, order, message", [
        ({"x2"}, ["x4", "x5", "x3", "x4"], "order must be a permutation of the eliminated variables"),
        ({"x2"}, ["x4", "ghost", "x5", "x3"], "order must be a permutation of the eliminated variables"),
        ({"x2"}, ["x4", "x5"], r"variables \['x3'\] appear in neither keep nor order"),
        ({"x2", "ghost"}, ["x4", "x5", "x3"], r"keep variables \['ghost'\] appear in no factor"),
        ({"x2", "x3"}, ["x4", "x5", "x3"], "keep and order must be disjoint"),
    ])
    def test_invalid_keep_and_order(self, conditioned, keep, order, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            eliminate(conditioned, keep, order)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cards=st.lists(st.integers(1, 3), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_work_list_loop_bit_for_bit(self, data, cards, seed):
        # Empty scopes and cardinality 1 included: the walk must take every product in the
        # loop's order, so each table, scope and size is the loop's to the last bit.
        variables = list(zip([f"v{i}" for i in range(len(cards))], cards))
        scopes = data.draw(st.lists(st.lists(st.sampled_from(variables), max_size=3, unique=True), max_size=6))
        rng = np.random.default_rng(seed)
        factors = [random_factor(rng, scope) for scope in scopes]
        mentioned = sorted({name for scope in scopes for name, _ in scope})
        keep = data.draw(st.lists(st.sampled_from(mentioned), unique=True)) if mentioned else []
        order = data.draw(st.permutations([v for v in mentioned if v not in keep]))

        result, report = eliminate(factors, keep, order)

        expected, sizes, intermediates = reference_eliminate(factors, order)
        assert same_bits(result, expected)
        assert report.step_sizes == sizes
        assert len(report.intermediates) == len(intermediates)
        assert all(same_bits(f, g) for f, g in zip(report.intermediates, intermediates))

    def test_long_chain_is_linear(self):
        # Row-stochastic links keep every reduced table a distribution, so nothing underflows.
        # Rescanning every factor at each step takes about 10 s on this chain, twice the
        # alarm; the one scope walk takes about 0.5 s.
        rng = np.random.default_rng(3)
        names = [f"v{i:05d}" for i in range(10_000)]
        prior = np.array([0.3, 0.7])
        links = rng.uniform(0.1, 1.0, size=(len(names) - 1, 2, 2))
        links /= links.sum(axis=2, keepdims=True)

        def timed_out(*_):
            raise TimeoutError("eliminating the chain did not end within 5 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            chain = [DiscreteFactor([(names[0], 2)], prior)]
            chain += [DiscreteFactor.from_ndarray([(a, 2), (b, 2)], t) for a, b, t in zip(names, names[1:], links)]
            result, report = eliminate(chain, {names[-1]}, names[:-1])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        expected = prior
        for t in links:
            expected = expected @ t
        assert result.var_names == (names[-1],)
        assert_allclose(result.values, expected, rtol=1e-12)
        assert report.step_sizes == (4,) * (len(names) - 1)
