"""Factor tables are checked once, where a model document enters: the one-array
parse of a ``factors`` section, the broadcast ``product`` and the unchecked
results of factor operations."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmlab import cli
from pgmlab import factors as factors_module
from pgmlab.errors import NumericError, ValidationError
from pgmlab.factors import DiscreteFactor, normalise, product, sum_marginalise
from pgmlab.modelio import parse_model_dict, serialise_model


def einsum_product(factors):
    """``product`` as one ``np.einsum`` per factor, over the axes longer than one (einsum
    has 52 labels), in a Fortran-order table: the scope and the flat values."""
    union = {}
    for f in factors:
        for name, card in f.scope:
            union.setdefault(name, card)
    scope = tuple(union.items())
    axis = {name: k for k, name in enumerate(name for name, card in scope if card > 1)}
    all_axes = list(axis.values())
    result = np.ones([card for _, card in scope if card > 1])
    for f in factors:
        nd = f.values.reshape([card for card in f.cards if card > 1], order="F")
        result = np.einsum(result, all_axes, nd, [axis[name] for name in f.var_names if name in axis], all_axes)
    return scope, result.reshape(-1, order="F")


class TestProductMatchesEinsum:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cards=st.lists(st.integers(1, 3), min_size=1, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_shuffled_and_shared_scopes(self, data, cards, seed):
        rng = np.random.default_rng(seed)
        card = {f"v{k}": c for k, c in enumerate(cards)}
        factors = []
        for _ in range(data.draw(st.integers(1, 5))):
            names = data.draw(st.permutations(list(card)))[:data.draw(st.integers(0, len(card)))]
            scope = [(name, card[name]) for name in names]
            values = rng.uniform(0.0, 3.0, math.prod(card[name] for name in names))
            values[rng.random(values.size) < 0.1] = 0.0
            factors.append(DiscreteFactor(scope, values))
        scope, values = einsum_product(factors)
        result = product(factors)
        assert result.scope == scope
        assert np.array_equal(result.values, values)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_more_cardinality_one_variables_than_einsum_labels(self, data, seed):
        rng = np.random.default_rng(seed)
        ones = [(f"u{i}", 1) for i in range(60)]
        wide = [("a", 2), ("b", 3), ("c", 2)]
        factors = []
        for chunk in range(4):
            scope = data.draw(st.permutations(ones[15 * chunk:15 * (chunk + 1)] + wide[:chunk]))
            factors.append(DiscreteFactor(scope, rng.uniform(0.1, 2.0, math.prod(c for _, c in scope))))
        scope, values = einsum_product(factors)
        result = product(factors)
        assert result.scope == scope and len(scope) == 63
        assert np.array_equal(result.values, values)


def test_normalise_refuses_a_total_that_overflows(tmp_path, capsys):
    # The total was inf, and the table came back as zeros with log Z = inf.
    with pytest.raises(NumericError, match="overflows"):
        normalise(DiscreteFactor([("a", 2)], [1e308, 1e308]))
    path = tmp_path / "big.model"
    path.write_text(json.dumps({"variables": [{"name": "a", "card": 2}],
                                "factors": [{"name": "f", "scope": ["a"], "values": [1e308, 1e308]}]}))
    assert cli.main(["fg", "eliminate", "--model", str(path), "--keep", "a"]) == 3
    assert "Traceback" not in capsys.readouterr().err


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestNoSecondCopy:
    """A result holds its one table: the peak is that table plus a small slack."""

    SLACK = 2**18  # bytes; a second copy of a result here is at least 4 MiB

    def test_sum_marginalise(self):
        f = DiscreteFactor([(f"v{i}", 2) for i in range(20)], np.ones(2**20))
        peak, result = _peak_bytes(lambda: sum_marginalise(f, "v7"))
        assert result.values.nbytes == 2**22
        assert peak < result.values.nbytes + self.SLACK

    def test_product(self):
        f = DiscreteFactor([(f"v{i}", 2) for i in range(12)], np.full(2**12, 0.5))
        g = DiscreteFactor([(f"v{i}", 2) for i in range(10, 20)], np.full(2**10, 2.0))
        peak, result = _peak_bytes(lambda: product([f, g]))
        assert result.values.nbytes == 2**23 and (result.values == 1.0).all()
        assert peak < result.values.nbytes + self.SLACK


N_FACTORS = 50


def chain_document():
    """A valid document: ``N_FACTORS`` pairwise factors on a chain of binary variables,
    and a variable ``z`` of cardinality 0 that no factor uses."""
    rng = np.random.default_rng(5)
    return {
        "variables": [{"name": f"v{i}", "card": 2} for i in range(N_FACTORS + 1)] + [{"name": "z", "card": 0}],
        "factors": [{"name": f"f{i}", "scope": [f"v{i}", f"v{i + 1}"], "values": rng.uniform(0, 1, 4).tolist()}
                    for i in range(N_FACTORS)],
    }


# fault -> a change to factor k of the chain document.
FAULTS = {
    "undeclared variable": lambda e, k: e.update(scope=[f"v{k}", "ghost"]),
    "variable twice": lambda e, k: e.update(scope=[f"v{k}", f"v{k}"]),
    "wrong size": lambda e, k: e.update(values=[0.5, 0.5, 0.5]),
    "nan": lambda e, k: e.update(values=[0.5, math.nan, 0.5, 0.5]),
    "inf": lambda e, k: e.update(values=[0.5, 0.5, math.inf, 0.5]),
    "negative": lambda e, k: e.update(values=[0.5, 0.5, 0.5, -0.5]),
    "non-numeric": lambda e, k: e.update(values=[0.5, "0.5", 0.5, 0.5]),
    "bool": lambda e, k: e.update(values=[0.5, True, 0.5, 0.5]),
    "ragged": lambda e, k: e.update(values=[[0.5, 0.5], [0.5]]),
    "duplicate factor name": lambda e, k: e.update(name="f0"),
    "card 0": lambda e, k: e.update(scope=[f"v{k}", "z"], values=[]),
    "string scope": lambda e, k: e.update(scope=f"v{k}v{k + 1}"),
    "missing values": lambda e, k: e.pop("values"),
    "scalar values": lambda e, k: e.update(scope=[], values=0.5),
}


def fault_message(doc) -> str:
    with pytest.raises(ValidationError) as info:
        parse_model_dict(doc)
    return str(info.value)


def with_faults(*placed):
    doc = chain_document()
    for fault, k in placed:
        FAULTS[fault](doc["factors"][k], k)
    return doc


def alone(fault, k):
    """The message of ``fault`` in a document of factor k alone (with f0 before it
    for a duplicate name)."""
    doc = with_faults((fault, k))
    doc["factors"] = doc["factors"][:1] * (fault == "duplicate factor name") + [doc["factors"][k]]
    return fault_message(doc)


class TestOneArrayParse:
    @pytest.mark.parametrize("k", [1, 24, N_FACTORS - 1])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_at_k_reads_as_in_a_one_factor_document(self, fault, k):
        message = fault_message(with_faults((fault, k)))
        assert message == alone(fault, k)
        assert message.startswith("duplicate factor name 'f0'" if fault == "duplicate factor name" else f"factor 'f{k}': ")

    @pytest.mark.parametrize("fault", FAULTS)
    def test_first_fault_in_document_order_wins(self, fault):
        names = list(FAULTS)
        later = names[(names.index(fault) + 1) % len(names)]
        assert fault_message(with_faults((fault, 10), (later, 30))) == alone(fault, 10)
        assert fault_message(with_faults((later, 10), (fault, 30))) == alone(later, 10)

    def test_valid_document_round_trips(self):
        doc = chain_document()
        parsed = parse_model_dict(copy.deepcopy(doc))
        assert serialise_model(parsed) == doc
        tables = [f.values for f in parsed.factors.values()]
        assert all(not t.flags.writeable for t in tables)
        # The one-array path: every table is a slice of one buffer.
        assert all(t.base is tables[0].base for t in tables)

    def test_nested_rectangular_values_still_parse(self):
        doc = chain_document()
        doc["factors"][7]["values"] = [[1.0, 2.0], [3.0, 4.0]]
        parsed = parse_model_dict(doc)
        assert parsed.factors["f7"].values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert all(not f.values.flags.writeable for f in parsed.factors.values())

    def test_an_integer_too_large_for_a_float_is_refused(self):
        doc = chain_document()
        doc["factors"][3]["values"] = [1, 10**400, 1, 1]
        assert fault_message(doc) == "factor 'f3': factor values must be finite"


AB = [{"name": "a", "card": 2}, {"name": "b", "card": 2}]
HMM = {"prior": [0.5, 0.5], "transitions": [[0.9, 0.1], [0.2, 0.8]], "emissions": [[0.7, 0.3], [0.1, 0.9]]}


@pytest.mark.parametrize("doc, argv, field", [
    # A string scope was once read one character at a time, as ["a", "b"].
    ({"variables": AB, "factors": [{"name": "f", "scope": "ab", "values": [0.1, 0.2, 0.3, 0.4]}]},
     ["fg", "marginal", "--var", "b"], "factor 'f': 'scope' must be a list of names"),
    ({"variables": AB, "factors": [{"name": "f", "scope": ["a", 1], "values": [1, 1, 1, 1]}]},
     ["fg", "marginal", "--var", "a"], "factor 'f': 'scope' must be a list of names"),
    ({"variables": [{"name": "a", "card": "2"}], "factors": [{"name": "f", "scope": ["a"], "values": [1, 2]}]},
     ["fg", "marginal", "--var", "a"], "field 'card' must be an integer, got '2'"),
    ({"variables": [{"name": "a", "card": True}], "factors": [{"name": "f", "scope": ["a"], "values": [1]}]},
     ["fg", "marginal", "--var", "a"], "field 'card' must be an integer, got True"),
    ({"hmm": {**HMM, "steps": "3"}}, ["hmm", "filter", "--obs", "0,1,1"], "field 'steps' must be an integer, got '3'"),
    ({"kalman": {"A": [1.0], "B": [0.5], "C": [1.0], "D": [0.2], "prior": {"mean": "0", "var": 1.0}}},
     ["kalman", "filter", "--obs=1"], "field 'mean' must be a number, got '0'"),
    ({"variables": AB[:1], "factors": [{"name": "f", "scope": ["a"], "values": ["0.1", "0.2"]}]},
     ["fg", "marginal", "--var", "a"], "factor 'f': field 'values' must hold numbers, got '0.1'"),
    ({"variables": AB[:1], "factors": [{"name": "f", "scope": ["a"], "values": [True, 0.5]}]},
     ["fg", "marginal", "--var", "a"], "factor 'f': field 'values' must hold numbers, got True"),
])
def test_a_field_that_is_not_of_its_json_type_exits_2(tmp_path, capsys, doc, argv, field):
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    assert cli.main(argv[:2] + ["--model", str(path)] + argv[2:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and field in err
    assert "Traceback" not in err


# The exact text of each fault at k = 1.
FAULT_TEXTS = {
    "undeclared variable": "factor 'f1': scope references undeclared variable 'ghost'",
    "variable twice": "factor 'f1': duplicate variable 'v1' in scope",
    "wrong size": "factor 'f1': expected 4 values for scope (('v1', 2), ('v2', 2)), got 3",
    "nan": "factor 'f1': factor values must be finite",
    "inf": "factor 'f1': factor values must be finite",
    "negative": "factor 'f1': factor values must be non-negative",
    "non-numeric": "factor 'f1': field 'values' must hold numbers, got '0.5'",
    "bool": "factor 'f1': field 'values' must hold numbers, got True",
    "ragged": "factor 'f1': factor values must be numeric and rectangular",
    "duplicate factor name": "duplicate factor name 'f0'",
    "card 0": "factor 'f1': variable 'z': cardinality must be a positive integer, got 0",
    "string scope": "factor 'f1': 'scope' must be a list of names",
    "missing values": "factor 'f1': missing field 'values'",
    "scalar values": "factor 'f1': factor values must be one flat list, got an array of shape ()",
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_reads_its_exact_text(fault):
    assert fault_message(with_faults((fault, 1))) == FAULT_TEXTS[fault]


def test_nested_and_flat_tables_share_one_buffer_and_round_trip():
    doc = chain_document()
    for k in range(0, N_FACTORS, 3):  # every third table nested, row by row
        values = doc["factors"][k]["values"]
        doc["factors"][k]["values"] = [values[:2], values[2:]]
    doc["factors"][4]["values"] = [[[x] for x in doc["factors"][4]["values"][:2]],
                                   [[x] for x in doc["factors"][4]["values"][2:]]]
    parsed = parse_model_dict(copy.deepcopy(doc))
    tables = [f.values for f in parsed.factors.values()]
    assert all(not t.flags.writeable for t in tables)
    assert all(t.base is tables[0].base for t in tables)
    assert serialise_model(parsed) == chain_document()  # written flat
    assert parse_model_dict(serialise_model(parsed)).factors == parsed.factors


# A value for a field of one factor entry: some valid, most not.
FIELD_VALUES = st.sampled_from([
    "f3", "v0", "ghost", None, True, 2, 2.5, ["f3"], [], [[]], ["v0"], ["v0", "v1"], ["v1", "v0"], ["v0", "v0"],
    ["v0", "ghost"], ["v0", "z"], "v0v1", [1.0, 2.0], [1, 2, 3, 4], [[1, 2], [3, 4]], [[1, 2], [3]],
    [[1], [2, 3, 4]], [[1, 2], 3], [1, [2, 3], 4], [[[1], [2]], [[3], [4]]], [0.5, True], [0.5, None], [0.5, "1"],
    [1, 10**400], [1, -1], [1, math.nan], [1, math.inf], (1.0, 2.0), {"a": 1},
])


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["name", "scope", "values"]),
                                st.one_of(FIELD_VALUES, st.just("drop"))), max_size=3))
def test_a_section_parses_to_one_buffer_or_raises_a_validation_error(edits):
    doc = chain_document()
    doc["factors"] = doc["factors"][:4]
    for k, key, value in edits:
        if value == "drop":
            doc["factors"][k].pop(key, None)
        else:
            doc["factors"][k][key] = copy.deepcopy(value)
    try:
        parsed = parse_model_dict(copy.deepcopy(doc))
    except ValidationError:
        return
    declared = {v["name"]: v["card"] for v in doc["variables"]}
    tables = [f.values for f in parsed.factors.values()]
    assert all(t.base is tables[0].base and not t.flags.writeable for t in tables)
    assert all(isinstance(name, str) for name in parsed.factors)
    for entry in doc["factors"]:
        public = DiscreteFactor([(v, declared[v]) for v in entry["scope"]], np.ravel(entry["values"]))
        assert parsed.factors[entry["name"]] == public


class TestNamesAreStrings:
    def test_a_variable_name_must_be_a_string(self):
        doc = chain_document()
        doc["variables"].append({"name": None, "card": 2})
        assert fault_message(doc) == "variables: field 'name' must be a string, got None"

    @pytest.mark.parametrize("name", [["x"], None, 7])
    def test_a_factor_name_must_be_a_string(self, name):
        doc = chain_document()
        doc["factors"][24]["name"] = name
        assert fault_message(doc) == f"factors: field 'name' must be a string, got {name!r}"

    def test_a_factor_name_fault_keeps_its_place_in_document_order(self):
        doc = with_faults(("undeclared variable", 10))
        doc["factors"][30]["name"] = 7
        assert fault_message(doc) == alone("undeclared variable", 10)
        doc = with_faults(("undeclared variable", 30))
        doc["factors"][10]["name"] = 7
        assert fault_message(doc) == "factors: field 'name' must be a string, got 7"

    @pytest.mark.parametrize("argv", [["fg", "marginal", "--var", "None"], ["fg", "map"]])
    def test_a_null_variable_name_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "null.model"
        path.write_text(json.dumps({"variables": [*AB, {"name": None, "card": 2}],
                                    "factors": [{"name": "f", "scope": ["a", "b"], "values": [1, 2, 3, 4]}]}))
        assert cli.main(argv[:2] + ["--model", str(path)] + argv[2:]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: variables: field 'name' must be a string, got None\n"


class TestCardinalityLimit:
    def test_a_scope_refuses_a_cardinality_over_the_table_cap(self):
        with pytest.raises(ValidationError) as info:
            DiscreteFactor([("a", 2), ("b", 2**24 + 1)], [1.0])
        assert str(info.value) == "variable 'b': cardinality 16777217 is over the limit of 16777216"

    def test_a_document_refuses_a_cardinality_over_the_table_cap(self, monkeypatch):
        monkeypatch.setattr(factors_module, "MAX_TABLE_ENTRIES", 3)
        doc = {"variables": [{"name": "a", "card": 4}], "factors": [{"name": "f", "scope": ["a"], "values": [1, 2, 3, 4]}]}
        assert fault_message(doc) == "factor 'f': variable 'a': cardinality 4 is over the limit of 3"

    @pytest.mark.parametrize("argv", [["fg", "marginal", "--var", "a"], ["fg", "map"]])
    def test_a_huge_unused_cardinality_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.model"
        path.write_text(json.dumps({"variables": [{"name": "a", "card": 10**12}, *AB[1:]],
                                    "factors": [{"name": "f", "scope": ["b"], "values": [1, 2]}]}))
        assert cli.main(argv[:2] + ["--model", str(path)] + argv[2:]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: variable 'a': cardinality 1000000000000 is over the limit of 16777216\n"
