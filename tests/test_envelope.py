"""The envelope writer: ``cli._encode`` and its 12-digit float text.

The reference is the two-pass writer it replaced: round every float of the
tree with ``float(f"{x:.12g}")``, then ``json.dumps(tree, indent=2)``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pgmlab import cli


def _reference(value):
    """The tree ``json.dumps(indent=2)`` was given before ``_encode``."""
    if isinstance(value, float):
        x = float(value)
        return x if x == 0 or not math.isfinite(x) else float(f"{x:.12g}")
    if isinstance(value, dict):
        return {str(k): _reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    tolist = getattr(value, "tolist", None)
    return value if tolist is None else _reference(tolist())


def _expected_float(x: float) -> str:
    return json.dumps(float(f"{x:.12g}"))


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
def test_float_text_matches_json_of_the_rounded_float(x):
    assert cli._float_text(x) == _expected_float(x)


def _decade_sweep():
    mantissas = (1.0, 1.5, 2.5, 3.0000000000005, 9.999999999995, 9.9999999999949, 1.23456789012345,
                 7.000000000001, 5.0)
    for exponent in range(-330, 309):
        for m in mantissas:
            x = float(f"{m}e{exponent}")
            if math.isfinite(x):
                yield x
                yield -x
                yield math.nextafter(x, math.inf)
                yield math.nextafter(x, -math.inf)


# Around 1e12 to 1e16 repr switches from positional to exponent notation.
_BOUNDARY = [999999999999.0, 999999999999.5, 1e12, 1.5e12, 123456789012345.6, 999999999999999.9,
             1e15, 2.0 ** 53, 9999999999999998.0, 1e16, 1.0000000000001e16, 1e17, 1e-4, 9.99999999999e-5,
             1e-5, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 1e-310]


def test_float_text_over_every_decade():
    mismatches = [x for x in [*_decade_sweep(), *_BOUNDARY] if cli._float_text(x) != _expected_float(x)]
    assert mismatches == []


def test_float_text_of_a_numpy_float():
    assert cli._float_text(np.float64(1) / 3) == "0.333333333333"
    assert cli._float_text(np.float64(2.0)) == "2.0"


_TREES = [
    [2.5, 1],
    [True, 1.5],
    [1, True],
    [1.0, math.nan],
    [math.inf, -math.inf, -0.0, 0.0],
    [1, 2, 3],
    [1.0, 2.0, 1e16, 1e-320],
    np.float64(0.1) * 3,
    np.int64(7),
    np.bool_(True),
    [np.float64(2.0), np.int64(3), np.bool_(False), 0.5],
    np.arange(6.0).reshape(2, 3) / 7,
    np.arange(4).reshape(2, 2),
    np.array([]),
    np.zeros((2, 0)),
    (1.5, (2, 3), ()),
    {1: "a", 2.5: [0.1], None: {}},
    {},
    [],
    [[], {}, [[]], {"a": []}],
    {"outer": {"inner": {"leaf": [1 / 3, 2 / 3]}}},
    "naïve ☃   \"quoted\" \\ \n",
    {"ключ": ["значение", "ü"]},
    None,
    True,
    0,
    -12345678901234567890,
    1 / 3,
    {"command": "hmm smooth", "inputs": {"obs": [0, 1, 1]},
     "outputs": {"smoothed": [np.array([0.25, 0.75]), np.array([1 / 3, 2 / 3])]},
     "seed": None, "elapsed_seconds": 0.001234567890123456},
    {"zeros": np.array([[0.0, 1.0, -0.0], [0.5, 0.0, 0.25]]), "whole": np.array([1.0, 0.0, 2.0])},
]


@pytest.mark.parametrize("tree", _TREES, ids=range(len(_TREES)))
def test_encode_writes_the_two_pass_text(tree):
    assert cli._encode(tree) == json.dumps(_reference(tree), indent=2)


_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
           | st.floats().map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_trees = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.lists(st.floats(), max_size=5).map(np.array)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_encode_matches_the_two_pass_text_on_any_tree(tree):
    assert cli._encode(tree) == json.dumps(_reference(tree), indent=2)


# Cells the array writer must write as _float_text does: zeros of both signs, whole
# numbers, the positional range of repr (1e12 to 1e16), subnormals, infinities and NaN.
_cells = (st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e12, 123456789012345.6, 1e16, 5e-324, 1e-310,
                           math.inf, -math.inf, math.nan, 1e-5, 1.5e-7, 0.1])
          | st.integers(-10 ** 6, 10 ** 6).map(float) | st.floats(1e12, 1e16) | st.floats(allow_subnormal=True))
_arrays = (hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=_cells)
           | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
           | hnp.arrays(np.uint8, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)))
_array_trees = st.recursive(_arrays, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_array_trees)
def test_encode_writes_arrays_as_the_two_pass_text(tree):
    assert cli._encode(tree) == json.dumps(_reference(tree), indent=2)


@pytest.mark.parametrize("value", [1.5, 1.0, -0.0, 1e300, 2.0**-1074])
def test_a_longdouble_scalar_is_written_as_its_float64(value):
    # Its tolist() gives a longdouble again, so writing through it never ends.
    assert cli._encode(np.longdouble(value)) == cli._encode(np.float64(value))


@pytest.mark.parametrize("values", [[0.5, 0.25], [1.0], [0.5, 1.0], [[0.25, np.inf], [1e-30, 2.0]]])
def test_a_longdouble_array_is_written_as_its_float64(values):
    # The template path refuses all but the first: 1.0 and inf have no point in .12g text.
    array = np.array(values, dtype=np.longdouble)
    assert cli._encode(array) == cli._encode(array.astype(float)) == json.dumps(_reference(array.astype(float)), indent=2)


def test_zeros_keep_an_array_on_the_one_template_path():
    # HMM outputs hold structural zeros; they must not send the array cell by cell.
    array = np.array([[0.0, 0.5, -0.0], [-0.0, 0.25, 0.0]])
    assert cli._array_text(array, "\n") == json.dumps(_reference(array), indent=2)
