"""jsondoc, the writer of every CLI JSON document: byte for byte the text of
json.dumps(obj, indent=2), with an ndarray written as its tolist()."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jetbm.harness import jsondoc


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, default=lambda o: o.tolist())


SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0, -2.5e300]

# float64 arrays that share values (-0.0 and 0.0 in different ones, 1.5 in
# three, a NaN in one only), with arrays of other dtypes, an empty and a 0-d
# one between them, and a str holding the NUL that marks an entry's place
# in the writer's text
MIXED_ARRAYS = {
    "nul\x00": "\x00",
    "a": np.array([[1.5, -0.0], [2.0, 1.5]]),
    "ints": np.array([1, 2, 3]),
    "b": np.array([0.0, np.nan, 1.5]),
    "flags": np.array([True, False]),
    "empty": np.zeros((0, 3)),
    "point": np.array(-0.0),
    "rest": [np.array([2.0, 0.0]), 3, 1.5, np.array(1.5)],
}


@pytest.mark.parametrize(
    "obj",
    [
        *SPECIAL_FLOATS,
        [],
        {},
        np.zeros((0,)),
        np.zeros((4, 0)),
        [[1.5, [2.0, []]], [], [[-0.0]]],
        {"flag": True, "off": False, "none": None, "n": 3, "big": -(2**70), "text": "plain"},
        {"été": "naïve ∂/∂y", "quote\"back\\slash\n": ["κ", 1]},
        np.float64(1.5),
        [np.float64("nan"), np.float64(-np.inf)],
        np.array(SPECIAL_FLOATS),
        np.array(2.0),
        np.array([1, 2, 3]),
        np.array([True, False]),
        MIXED_ARRAYS,
    ],
    ids=repr,
)
def test_leaves_and_containers_match_json(obj):
    assert jsondoc.dumps(obj) == _reference(obj)


@pytest.mark.parametrize("shape", [(4,), (4, 4), (4, 4, 4), (4, 4, 4, 4), (1, 3, 2)])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_arrays_match_json_at_any_depth(shape, depth):
    """An array's separators depend on its shape and on how deep it sits."""
    rng = np.random.default_rng(len(shape))
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    arr.flat[::5] = -0.0
    obj = arr
    for k in range(depth):
        obj = {f"level{k}": [obj, 1.0]} if k % 2 else {f"level{k}": obj}
    assert jsondoc.dumps(obj) == _reference(obj)


def test_non_finite_entries_of_an_array_are_json_names():
    arr = np.array([[1.0, np.nan], [np.inf, -np.inf]])
    assert jsondoc.float_reprs(arr) == ["1.0", "NaN", "Infinity", "-Infinity"]
    assert jsondoc.dumps({"a": arr}) == _reference({"a": arr})


def test_a_key_that_is_not_a_str_is_refused():
    with pytest.raises(TypeError, match="keys must be str"):
        jsondoc.dumps({1: 2.0})


def test_records_match_json_of_the_rows():
    cols = {
        "t": np.array([0.5, -0.0, np.nan, 0.0, 0.5, -0.0]),
        "y{1}": np.array([1e16, 5e-324, np.inf, -np.inf, np.inf, 1e16]),
        "Sc": np.array([-1.0, 2.0, 3.0, -1.0, np.nan, -1.0]),
    }
    rows = [dict(zip(cols, row)) for row in zip(*(col.tolist() for col in cols.values()))]
    assert jsondoc.dumps_records(cols) == json.dumps(rows, indent=2)


def test_a_column_is_formatted_once_per_distinct_bit_pattern():
    """column_reprs hands its formatter each distinct bit pattern once: -0.0
    and 0.0 are two, the repeats of 1.5 and of one NaN are one each."""
    col = np.array([1.5, -0.0, 0.0, 1.5, np.nan, 1.5, np.nan, -np.inf, 0.0])
    seen = []

    def reprs(values):
        seen.extend(values.tolist())
        return jsondoc.float_reprs(values)

    assert jsondoc.column_reprs(col, reprs) == jsondoc.float_reprs(col)
    assert len(seen) == 5 and sorted(map(repr, seen)) == ["-0.0", "-inf", "0.0", "1.5", "nan"]


def test_a_document_is_formatted_once_per_distinct_bit_pattern(monkeypatch):
    """dumps hands float_reprs the entries of all its float64 arrays in one
    call, each distinct bit pattern once: -0.0 and 0.0 are two, 1.5 in three
    arrays is one; a float outside any array is no entry."""
    calls = []
    float_reprs = jsondoc.float_reprs

    def reprs(values):
        calls.append(values.tolist())
        return float_reprs(values)

    monkeypatch.setattr(jsondoc, "float_reprs", reprs)
    assert jsondoc.dumps(MIXED_ARRAYS) == _reference(MIXED_ARRAYS)
    assert len(calls) == 1 and sorted(map(repr, calls[0])) == ["-0.0", "0.0", "1.5", "2.0", "nan"]


floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    arrays(np.float64, st.sampled_from([(0,), (4,), (2, 3), (4, 4), (2, 2, 2)]), elements=floats),
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_any_document_matches_json(doc):
    assert jsondoc.dumps(doc) == _reference(doc)
