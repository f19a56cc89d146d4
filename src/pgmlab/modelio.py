"""Model documents: the JSON file format shared by the CLI.

A document is a JSON object with optional sections.  ``variables`` +
``factors`` describe a factor graph: every ``name`` is a JSON string, a
variable's ``card`` is at most 2**24, a factor's ``scope`` is a list of
variable names, and its ``values`` are JSON numbers with the first scope
variable varying fastest, flat or as nested rectangular lists read row by
row.  ``dag``, ``ugm``, ``hmm``, ``kalman``, ``rbm``, and ``meanfield``
describe the other model kinds.  Each CLI command requires exactly the
section(s) it operates on.

Parsing validates every section present; a field that must be a number
refuses a string and a bool.  The ``dag`` and ``ugm``
constructors come from the pure-Python ``graphs`` module; every other
constructor, and with it NumPy, is imported only when the document has its
section, so a graph-only document is parsed without NumPy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ValidationError
from .graphs import Dag, Ugm

if TYPE_CHECKING:
    from .factors import DiscreteFactor
    from .messages import FactorGraph
    from .samplers import RbmModel
    from .sequential import DiscreteHmm, KalmanModel
    from .variational import GaussianTarget


@dataclass
class ModelDocument:
    variables: list[tuple[str, int]] = field(default_factory=list)
    factors: dict[str, DiscreteFactor] = field(default_factory=dict)
    dag: Dag | None = None
    ugm: Ugm | None = None
    hmm: DiscreteHmm | None = None
    kalman: KalmanModel | None = None
    rbm: RbmModel | None = None
    meanfield: GaussianTarget | None = None

    def factor_graph(self) -> FactorGraph:
        from .messages import FactorGraph

        if not self.variables:
            raise ValidationError("document has no 'variables' section")
        if not self.factors:
            raise ValidationError("document has an empty or missing 'factors' section")
        return FactorGraph(self.variables, self.factors)

    def require(self, section: str):
        value = getattr(self, section)
        if value is None:
            raise ValidationError(f"document has no {section!r} section")
        return value


def _expect(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    if key not in mapping:
        raise ValidationError(f"{where}: missing field {key!r}")
    return mapping[key]


def _number(mapping: dict, key: str, where: str, kind=float):
    """A required scalar field converted with ``kind``, ``int`` (which refuses 2.7) or ``float``."""
    value = _expect(mapping, key, where)
    try:
        if isinstance(value, (str, bool)):  # int("2") and int(True) would pass
            raise TypeError
        number = kind(value)
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where}: field {key!r} must be {noun}, got {value!r}") from None


def _is_name(value) -> bool:
    return isinstance(value, str)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(map(_is_name, value))


def _name(entry: dict, where: str) -> str:
    """The ``name`` field of a ``variables`` or ``factors`` entry, a JSON string."""
    name = _expect(entry, "name", where)
    if not _is_name(name):
        raise ValidationError(f"{where}: field 'name' must be a string, got {name!r}")
    return name


def _names(value, where: str) -> list[str]:
    if not _is_names(value):
        raise ValidationError(f"{where} must be a list of names")
    return value


def _entries(doc: dict, key: str) -> list:
    section = doc.get(key, [])
    if not isinstance(section, list):
        raise ValidationError(f"{key!r} must be a list")
    return section


def parse_model_dict(doc: dict) -> ModelDocument:
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    out = ModelDocument()

    for entry in _entries(doc, "variables"):
        name = _name(entry, "variables")
        card = _number(entry, "card", f"variable {name!r}", int)
        out.variables.append((name, card))
    declared = dict(out.variables)
    if len(declared) != len(out.variables):
        raise ValidationError("duplicate variable names")

    factors = _entries(doc, "factors")
    if factors:
        out.factors = _factors(factors, declared)
    elif "factors" in doc:
        raise ValidationError("'factors' section is empty")

    if "dag" in doc:
        section = doc["dag"]
        nodes = _names(_expect(section, "nodes", "dag"), "dag: 'nodes'")
        parents = section.get("parents", {})
        if not isinstance(parents, dict):
            raise ValidationError("dag: 'parents' must map each node to a list of names")
        out.dag = Dag(nodes, {c: _names(ps, f"dag: parents of {c!r}") for c, ps in parents.items()})
    if "ugm" in doc:
        section = doc["ugm"]
        nodes = _names(_expect(section, "nodes", "ugm"), "ugm: 'nodes'")
        edges = section.get("edges", [])
        if not isinstance(edges, list) or not all(_is_names(e) and len(e) == 2 for e in edges):
            raise ValidationError("ugm: 'edges' must be a list of [a, b] name pairs")
        out.ugm = Ugm(nodes, [tuple(e) for e in edges])
    if "hmm" in doc:
        out.hmm = _parse_hmm(doc["hmm"])
    if "kalman" in doc:
        from .sequential import Gaussian1, KalmanModel

        section = doc["kalman"]
        prior = _expect(section, "prior", "kalman")
        out.kalman = KalmanModel(
            _expect(section, "A", "kalman"),
            _expect(section, "B", "kalman"),
            _expect(section, "C", "kalman"),
            _expect(section, "D", "kalman"),
            Gaussian1(_number(prior, "mean", "kalman.prior"), _number(prior, "var", "kalman.prior")),
        )
    if "rbm" in doc:
        from .samplers import RbmModel

        section = doc["rbm"]
        out.rbm = RbmModel(
            _expect(section, "W", "rbm"),
            _expect(section, "a", "rbm"),
            _expect(section, "b", "rbm"),
        )
    if "meanfield" in doc:
        from .variational import GaussianTarget

        section = doc["meanfield"]
        out.meanfield = GaussianTarget(
            _expect(section, "precision", "meanfield"),
            _expect(section, "linear", "meanfield"),
        )
    return out


def _factors(entries: list, declared: dict[str, int]) -> dict[str, DiscreteFactor]:
    """The ``factors`` section over the ``declared`` variables, each table a read-only slice of
    one array checked once.  A fault ends the pass, and :func:`_first_fault` reports it."""
    import numpy as np

    from .factors import MAX_TABLE_ENTRIES, DiscreteFactor, _in_range

    cards = {name: card for name, card in declared.items() if 1 <= card <= MAX_TABLE_ENTRIES}
    found, flat = {}, []
    try:
        for entry in entries:
            # KeyError and TypeError: a missing field, an undeclared variable, or a field or an
            # entry of another JSON type.
            name, scope_names, table = entry["name"], entry["scope"], entry["values"]
            scope = tuple((v, cards[v]) for v in scope_names)
            if table and isinstance(table[0], list):
                table = _flat_rows(table)
            if (not (isinstance(name, str) and isinstance(scope_names, list) and isinstance(table, list))
                    or name in found or len(set(scope_names)) != len(scope_names)
                    or len(table) != math.prod(card for _, card in scope)):
                raise ValueError
            found[name] = scope, slice(len(flat), len(flat) + len(table))
            flat += table
        # The rule of _check_numbers, once per type: bool, str, null and lists are no numbers.
        if (any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, flat)))
                or not _in_range(arr := np.array(flat, dtype=float))):
            raise ValueError
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: an integer too large for a float
        _first_fault(entries, declared)
        raise AssertionError("the one-array pass refused a 'factors' section with no fault") from None
    arr.setflags(write=False)
    return {name: DiscreteFactor._trusted(scope, arr[span]) for name, (scope, span) in found.items()}


def _flat_rows(table):
    """``table`` with nested rows of equal length joined, read row by row; ragged rows stay
    lists, which are no numbers, and a value that is not a list is returned as it is."""
    while isinstance(table, list) and table and isinstance(table[0], list) and all(
            isinstance(row, list) and len(row) == len(table[0]) for row in table):
        table = [x for row in table for x in row]
    return table


def _first_fault(entries: list, declared: dict[str, int]) -> None:
    """Raise the first fault of the ``factors`` section in document order, naming its
    factor; the public ``DiscreteFactor`` judges each table, which is then dropped."""
    from .factors import DiscreteFactor

    seen = set()
    for entry in entries:
        name = _name(entry, "factors")
        where = f"factor {name!r}"
        scope_names = _names(_expect(entry, "scope", where), f"{where}: 'scope'")
        for v in scope_names:
            if v not in declared:
                raise ValidationError(f"{where}: scope references undeclared variable {v!r}")
        values = _expect(entry, "values", where)
        _check_numbers(values, where)
        try:
            DiscreteFactor([(v, declared[v]) for v in scope_names], _flat_rows(values))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        if name in seen:
            raise ValidationError(f"duplicate factor name {name!r}")
        seen.add(name)


def _check_numbers(values, where: str) -> None:
    """Raise unless every leaf of the nested lists ``values`` is a JSON number: NumPy
    would read ``true`` and ``"0.5"`` as numbers."""
    stack = [values]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(reversed(value))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}: field 'values' must hold numbers, got {value!r}")


def parse_model(path) -> ModelDocument:
    """Load and validate a model document from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_model_dict(doc)


def _nesting(x) -> int:
    depth = 0
    while isinstance(x, (list, tuple)) and len(x) > 0:
        depth += 1
        x = x[0]
    return depth


def _parse_hmm(section: dict) -> DiscreteHmm:
    """Accepts shared (2-D) or per-step (3-D) transition/emission matrices;
    the fully shared form additionally needs a 'steps' count."""
    from .sequential import DiscreteHmm

    prior = _expect(section, "prior", "hmm")
    transitions = _expect(section, "transitions", "hmm")
    emissions = _expect(section, "emissions", "hmm")
    t_depth, e_depth = _nesting(transitions), _nesting(emissions)
    if t_depth not in (2, 3) or e_depth not in (2, 3):
        raise ValidationError("hmm: transitions and emissions must be matrices or lists of matrices")
    if t_depth == 2 and e_depth == 2:
        steps = _number(section, "steps", "hmm (homogeneous form)", int)
        return DiscreteHmm.homogeneous(prior, transitions, emissions, steps)
    emis_list = list(emissions) if e_depth == 3 else []
    trans_list = list(transitions) if t_depth == 3 else [transitions] * (len(emis_list) - 1)
    if e_depth == 2:
        emis_list = [emissions] * (len(trans_list) + 1)
    return DiscreteHmm(prior, trans_list, emis_list)


def serialise_model(doc: ModelDocument) -> dict:
    """Canonical JSON-ready dict; parse(serialise(d)) reproduces d."""
    out: dict = {}
    if doc.variables:
        out["variables"] = [{"name": n, "card": c} for n, c in doc.variables]
    if doc.factors:
        out["factors"] = [
            {"name": name, "scope": list(f.var_names), "values": f.values.tolist()}
            for name, f in doc.factors.items()
        ]
    if doc.dag is not None:
        out["dag"] = {
            "nodes": list(doc.dag.nodes),
            "parents": {n: list(ps) for n, ps in doc.dag.parents.items() if ps},
        }
    if doc.ugm is not None:
        out["ugm"] = {
            "nodes": list(doc.ugm.nodes),
            "edges": [list(e) for e in sorted(doc.ugm.edges())],
        }
    if doc.hmm is not None:
        out["hmm"] = {
            "prior": doc.hmm.prior.tolist(),
            "transitions": [t.tolist() for t in doc.hmm.transitions],
            "emissions": [e.tolist() for e in doc.hmm.emissions],
        }
    if doc.kalman is not None:
        out["kalman"] = {
            "A": list(doc.kalman.A),
            "B": list(doc.kalman.B),
            "C": list(doc.kalman.C),
            "D": list(doc.kalman.D),
            "prior": {"mean": doc.kalman.prior.mean, "var": doc.kalman.prior.var},
        }
    if doc.rbm is not None:
        out["rbm"] = {
            "W": doc.rbm.W.tolist(),
            "a": doc.rbm.a.tolist(),
            "b": doc.rbm.b.tolist(),
        }
    if doc.meanfield is not None:
        out["meanfield"] = {
            "precision": doc.meanfield.precision.tolist(),
            "linear": doc.meanfield.linear.tolist(),
        }
    return out
