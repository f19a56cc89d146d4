"""Dense discrete factors and variable elimination.

A factor stores its table as a flat array in which the *first* scope
variable varies fastest, i.e. the entry for assignment (i1, i2, ..., ik)
over scope ((v1, c1), ..., (vk, ck)) sits at index
i1 + c1*i2 + c1*c2*i3 + ...  This matches the row order of printed factor
tables, so worked numbers paste directly into tests.

Values live in the linear domain here; log-domain handling belongs to the
message-passing layer.  Factors never rescale implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .numerics import MAX_TABLE_ENTRIES, count, float_array

Scope = tuple[tuple[str, int], ...]

# ``MAX_TABLE_ENTRIES`` is the largest table ``ones``, ``product`` and
# ``eliminate`` may build, and so also the largest cardinality.

# Most axes ``DiscreteFactor.ndarray`` gives: NumPy 1.x's limit (NumPy 2 allows 64).
MAX_NDARRAY_AXES = 32


def _validate_scope(scope: Iterable[tuple[str, int]]) -> Scope:
    out = []
    names = set()
    for name, card in scope:
        name = str(name)
        try:
            card = count(card, "cardinality")
            if card > MAX_TABLE_ENTRIES:  # no table over this variable fits
                raise ValidationError(f"cardinality {card} is over the limit of {MAX_TABLE_ENTRIES}")
        except ValidationError as exc:
            raise ValidationError(f"variable {name!r}: {exc}") from None
        if name in names:
            raise ValidationError(f"duplicate variable {name!r} in scope")
        names.add(name)
        out.append((name, card))
    return tuple(out)


@dataclass(frozen=True)
class DiscreteFactor:
    """Non-negative table over an ordered scope: names in ``var_names``, cardinalities in ``cards``.

    ``values`` is one flat list, first variable fastest; :meth:`from_ndarray` takes an
    array with one axis per scope variable."""

    scope: Scope
    values: np.ndarray

    def __init__(self, scope: Iterable[tuple[str, int]], values):
        scope = _validate_scope(scope)
        arr = float_array(values, "factor values", copy=True)  # the caller keeps theirs
        # A table of more axes would be read in C order, not first variable fastest.
        if arr.ndim != 1:
            raise ValidationError(f"factor values must be one flat list, got an array of shape {arr.shape}")
        size = math.prod(c for _, c in scope)
        # Only a refused table works out which rule it breaks.
        if not (arr.size == size and _in_range(arr)):
            if not np.isfinite(arr).all():
                raise ValidationError("factor values must be finite")
            if arr.size != size:
                raise ValidationError(f"expected {size} values for scope {scope}, got {arr.size}")
            raise ValidationError("factor values must be non-negative")
        self._set(scope, arr)

    @classmethod
    def _trusted(cls, scope: Scope, values: np.ndarray) -> "DiscreteFactor":
        """The factor over ``scope``, already checked, with the flat table ``values``, which
        no one else writes to: the result of a factor operation, taken without a check or a copy."""
        f = object.__new__(cls)
        f._set(scope, values)
        return f

    def _set(self, scope: Scope, values: np.ndarray) -> None:
        values.setflags(write=False)
        var_names, cards = zip(*scope) if scope else ((), ())
        # One update past the frozen dataclass's __setattr__.
        vars(self).update(scope=scope, values=values, var_names=var_names, cards=cards)

    def ndarray(self) -> np.ndarray:
        """Multi-dimensional view; axis k indexes the k-th scope variable.  A scope of more
        than ``MAX_NDARRAY_AXES`` variables is refused: NumPy 1.x allows no more axes."""
        if len(self.cards) > MAX_NDARRAY_AXES:
            raise ValidationError(f"a factor over {len(self.cards)} variables has no array view "
                                  f"(at most {MAX_NDARRAY_AXES} axes)")
        return self.values.reshape(self.cards, order="F")

    def value_at(self, assignment: Mapping[str, int]) -> float:
        idx = tuple(_state(assignment, name, card) for name, card in self.scope)
        return float(self.ndarray()[idx])

    def __eq__(self, other):
        if not isinstance(other, DiscreteFactor):
            return NotImplemented
        return self.scope == other.scope and np.array_equal(self.values, other.values)

    @classmethod
    def from_ndarray(cls, scope: Iterable[tuple[str, int]], nd: np.ndarray) -> "DiscreteFactor":
        return cls(scope, np.asarray(nd).reshape(-1, order="F"))

    @classmethod
    def ones(cls, scope: Iterable[tuple[str, int]]) -> "DiscreteFactor":
        scope = _validate_scope(scope)
        return cls._trusted(scope, np.ones(_table_size(scope)))


def _in_range(arr: np.ndarray) -> bool:
    """Whether every entry is finite and non-negative; NaN fails ``min() >= 0``."""
    return bool(arr.min() >= 0.0 and arr.max() < math.inf)


def _table_size(scope: Scope) -> int:
    """The entry count of a table over ``scope``, once it is at most ``MAX_TABLE_ENTRIES``."""
    size = math.prod(card for _, card in scope)
    if size > MAX_TABLE_ENTRIES:
        raise ValidationError(f"a table over {[name for name, _ in scope]} would have {size} entries, "
                              f"over the limit of {MAX_TABLE_ENTRIES}")
    return size


def product(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Multiply factors; the result scope is the union in first-appearance
    order and shared variables must agree on cardinality."""
    union: dict[str, int] = {}
    for f in factors:
        for name, card in f.scope:
            if union.setdefault(name, card) != card:
                raise ValidationError(f"cardinality conflict for {name!r}")
    scope = tuple(union.items())
    # The result's axes run in reverse scope order, so its C-order buffer is the flat
    # first-variable-fastest table.  Length-1 axes are dropped: at most 24 axes remain
    # under the table cap.
    axes = [name for name, card in reversed(scope) if card > 1]
    position = {name: k for k, name in enumerate(axes)}
    _table_size(scope)
    result = np.ones([union[name] for name in axes])
    with np.errstate(over="ignore", invalid="ignore"):
        for f in factors:
            # f's table with its axes in reverse scope order, put in the result's order, and
            # of length 1 along the result's other axes: a view, broadcast by the multiply.
            own = [name for name in reversed(f.var_names) if name in position]
            table = f.values.reshape([union[name] for name in own])
            table = table.transpose(sorted(range(len(own)), key=lambda k: position[own[k]]))  # argsort
            # Each entry is the one product a*b, taken factor by factor from the left.
            result *= table.reshape([union[name] if name in f.var_names else 1 for name in axes])
    # From finite inputs, inf or inf*0 = nan mark an overflow; both fail ``max() < inf``
    # in a table with no negative entry, without the bool table of ``isfinite``.
    if not result.max() < math.inf:
        raise NumericError(f"factor product over {list(union)} overflows")
    return DiscreteFactor._trusted(scope, result.reshape(-1))


def _around(f: DiscreteFactor, var: str) -> tuple[np.ndarray, Scope]:
    """The table as a (before, card, after) array whose middle axis is ``var``, three
    axes whatever the width of the scope; and the scope without ``var``."""
    if var not in f.var_names:
        raise ValidationError(f"{var!r} not in scope")
    axis = f.var_names.index(var)
    table = f.values.reshape((math.prod(f.cards[:axis]), f.cards[axis], -1), order="F")
    return table, f.scope[:axis] + f.scope[axis + 1:]


def sum_marginalise(f: DiscreteFactor, var: str) -> DiscreteFactor:
    """Sum the table over the states of ``var`` and drop it from the scope."""
    table, rest = _around(f, var)
    try:
        with np.errstate(over="raise"):
            summed = table.sum(axis=1)
    except FloatingPointError:
        raise NumericError(f"summing {var!r} out of a factor overflows") from None
    return DiscreteFactor._trusted(rest, summed.reshape(-1, order="F"))


def max_marginalise(f: DiscreteFactor, var: str) -> tuple[DiscreteFactor, np.ndarray]:
    """Maximise the table over ``var``.

    Returns the reduced factor and the argmax table: a flat int array over
    the remaining scope (same layout convention) holding the maximising
    state of ``var``, ties broken to the lowest state index.
    """
    table, rest = _around(f, var)
    argmax = table.argmax(axis=1)  # first occurrence = lowest state
    return (
        DiscreteFactor._trusted(rest, table.max(axis=1).reshape(-1, order="F")),
        argmax.reshape(-1, order="F"),
    )


def _state(assignment: Mapping[str, int], name: str, card: int) -> int:
    """The state ``assignment`` gives ``name``, once it is an integer in [0, card)."""
    state = count(assignment[name], f"state of {name!r}", least=0)
    if state >= card:
        raise ValidationError(f"state {state} out of range for {name!r} (card {card})")
    return state


def condition(f: DiscreteFactor, assignment: Mapping[str, int]) -> DiscreteFactor:
    """Slice the table at the given states; assigned variables leave the
    scope.  Variables in ``assignment`` that are not in the scope are
    ignored so one assignment can be applied across a factor collection."""
    out = f
    for name, card in f.scope:
        if name in assignment:
            table, rest = _around(out, name)
            out = DiscreteFactor._trusted(rest, table[:, _state(assignment, name, card), :].flatten(order="F"))
    return out


def normalise(f: DiscreteFactor) -> tuple[DiscreteFactor, float]:
    """Scale the table to sum to one; also return log of the original sum."""
    try:
        with np.errstate(over="raise"):
            total = float(f.values.sum())
    except FloatingPointError:
        raise NumericError("the sum of a factor's table overflows") from None
    if total <= 0.0:
        raise NumericError("cannot normalise an all-zero factor")
    return DiscreteFactor._trusted(f.scope, f.values / total), math.log(total)


@dataclass(frozen=True)
class EliminationReport:
    """Size accounting for one run of variable elimination.

    ``step_sizes`` holds the entry count of the product table formed at each
    elimination step; ``peak_table_entries`` is their maximum (0 when nothing
    was eliminated).  ``intermediates`` keeps the factor produced by each
    step, after summing, for inspection.
    """

    order: tuple[str, ...]
    step_sizes: tuple[int, ...]
    intermediates: tuple[DiscreteFactor, ...]

    @property
    def peak_table_entries(self) -> int:
        return max(self.step_sizes, default=0)


def eliminate(
    factors: Sequence[DiscreteFactor],
    keep: Iterable[str],
    order: Sequence[str],
) -> tuple[DiscreteFactor, EliminationReport]:
    """Sum out ``order`` one variable at a time and return the unnormalised
    factor over ``keep``.

    At each step every factor mentioning the next variable is multiplied
    into one table which is then sum-marginalised; the report records the
    size of each such table.  :func:`_plan` works out from the scopes which
    factors join at each step and those sizes, so a run that would build a
    table of more than ``MAX_TABLE_ENTRIES`` entries raises ``ValidationError``
    naming the step and its variable before any table is built.
    """
    keep = {str(v) for v in keep}
    order = [str(v) for v in order]
    if keep & set(order):
        raise ValidationError("keep and order must be disjoint")
    work = list(factors)
    steps, sizes, rest = _plan([f.scope for f in work], keep, order)
    for var, slots in zip(order, steps):
        work.append(sum_marginalise(product([work[s] for s in slots]), var))
    report = EliminationReport(tuple(order), tuple(sizes), tuple(work[len(factors):]))
    return product([work[s] for s in rest]), report


def _plan(scopes: list[Scope], keep: set[str], order: list[str]) -> tuple[list[list[int]], list[int], list[int]]:
    """The slots each step of ``eliminate`` multiplies, in slot order, and the entry count of
    their product; then the slots left for the result.  Slot k is input factor k, then the
    table reduced at step k - len(scopes).  Each variable maps to the live slots that hold it,
    so the walk is linear in the total scope size.  Raises if ``order`` and ``keep`` do not
    split the variables, or if a step or the result would exceed ``MAX_TABLE_ENTRIES``."""
    tables: list[dict[str, int] | None] = [dict(scope) for scope in scopes]  # None once multiplied
    holders: dict[str, dict[int, None]] = {}  # dicts as sets, in slot order
    for slot, table in enumerate(tables):
        for name in table:
            holders.setdefault(name, {})[slot] = None
    steps, sizes = [], []
    for step, var in enumerate(order, 1):
        slots = list(holders.pop(var, ()))
        if not slots:  # repeated, or in no factor
            raise ValidationError("order must be a permutation of the eliminated variables")
        union: dict[str, int] = {}
        for s in slots:
            union.update(tables[s])
            for name in tables[s]:
                if name != var:
                    del holders[name][s]
            tables[s] = None
        size = math.prod(union.values())
        if size > MAX_TABLE_ENTRIES:
            raise ValidationError(f"elimination step {step} (variable {var!r}) would build a table of {size} "
                                  f"entries, over the limit of {MAX_TABLE_ENTRIES}")
        del union[var]
        for name in union:
            holders[name][len(tables)] = None
        tables.append(union)
        steps.append(slots)
        sizes.append(size)
    if holders.keys() - keep:
        raise ValidationError(f"variables {sorted(holders.keys() - keep)} appear in neither keep nor order")
    if keep - holders.keys():
        raise ValidationError(f"keep variables {sorted(keep - holders.keys())} appear in no factor")
    rest = [s for s, table in enumerate(tables) if table is not None]
    result = {name: card for s in rest for name, card in tables[s].items()}
    size = math.prod(result.values())
    if size > MAX_TABLE_ENTRIES:
        raise ValidationError(f"the result over {sorted(result)} would have {size} entries, "
                              f"over the limit of {MAX_TABLE_ENTRIES}")
    return steps, sizes, rest
