"""The report writer against ``json.dumps(x, indent=2, sort_keys=True)``.

Both must give the same text for every value ``json`` can encode, and the
same exception type and message for every value it cannot.
"""

import enum
import json
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from driftloc.report import report_json


def outcome(encode, x):
    try:
        return encode(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same(x):
    got = outcome(report_json, x)
    assert got == outcome(lambda v: json.dumps(v, indent=2, sort_keys=True), x)
    return got


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


# Any code point, lone surrogates and control characters included.
text = st.text(st.characters(min_codepoint=0, max_codepoint=sys.maxunicode,
                             blacklist_categories=()), max_size=8)
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
ints = st.one_of(st.integers(), st.integers(-2**200, 2**200))
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, floats.map(np.float64), text,
    st.sampled_from(Level), text.map(Label),
)
# Keys of one type per dict, so that sort_keys can order them.
key_sets = st.one_of(st.just(text), st.just(ints), st.just(floats),
                     st.just(st.booleans()), st.just(st.none()))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),  # bools among ints
        key_sets.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
        st.dictionaries(text, children, max_size=5).map(OrderedDict),
    )


values = st.recursive(scalars, containers, max_leaves=40)


class TestSameTextAsJson:
    @settings(max_examples=400, deadline=None, database=None)
    @given(x=values)
    def test_nested_values(self, x):
        assert isinstance(assert_same(x), str)

    @pytest.mark.parametrize("x", [
        {}, [], (), [[]], {"a": {}}, [{}, []], "", "\x00\x1f\x7fé \U0001f30a\ud800",
        [1, True, 2, False, None], [10**40, -(10**40)], -0.0, 5e-324, 2.2250738585072014e-308,
        [float("nan"), float("inf"), float("-inf")], np.float64(0.1), np.float64("nan"),
        {1.5: "a", -0.0: "b", float("inf"): "c"}, {True: 1, False: 0}, {None: 1},
        {2: "b", 10: "a", -1: "c"}, Level.HIGH, [Level.LOW, Level.HIGH], {Level.LOW: 1},
        {"b": [1, 2], "a": (3.0, "x")}, [np.float64(-0.0), np.float64(1e308)],
    ])
    def test_edge_values(self, x):
        assert isinstance(assert_same(x), str)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.json")))
    def test_golden_reports(self, name):
        text = (GOLDEN_DIR / name).read_text()
        assert report_json(json.loads(text)) + "\n" == text


class TestSameErrorsAsJson:
    @pytest.mark.parametrize("x", [
        np.int64(3), [1, np.int64(2)], {"a": {1, 2}}, object(), b"bytes", 1j,
        {(1, 2): 0}, {"a": 1, 2: "b"}, {b"k": 1}, [1, [2, {"a": np.array([1])}]],
        {"a": [np.int32(1)], "b": np.float32(1.0)},
    ])
    def test_unsupported_values(self, x):
        got = assert_same(x)
        assert got[0] is TypeError

    def test_integer_beyond_the_digit_limit(self):
        assert_same([1, 10**5000])  # ValueError wherever str(int) is limited
