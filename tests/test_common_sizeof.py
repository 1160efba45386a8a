"""Unit and property tests for logical size estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.sizeof import _UNIFORM_MIN_ITEMS, logical_sizeof, pair_size


class TestScalars:
    def test_string_is_length(self):
        assert logical_sizeof("hello") == 5
        assert logical_sizeof("") == 0

    def test_bytes_is_length(self):
        assert logical_sizeof(b"abc") == 3

    def test_numbers_fixed_width(self):
        assert logical_sizeof(7) == 8
        assert logical_sizeof(3.14) == 8

    def test_bool_and_none_small(self):
        assert logical_sizeof(True) == 1
        assert logical_sizeof(None) == 1

    def test_numpy_array_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert logical_sizeof(arr) == 800

    def test_numpy_scalar(self):
        assert logical_sizeof(np.float64(1.0)) == 8

    def test_numpy_scalar_widths(self):
        assert logical_sizeof(np.int32(7)) == 4
        assert logical_sizeof(np.int64(7)) == 8
        assert logical_sizeof(np.float32(1.5)) == 4
        assert logical_sizeof(np.uint8(3)) == 1

    def test_unicode_counts_code_points(self):
        # Size is code points, not encoded bytes — multi-byte characters
        # and astral-plane symbols each count once.
        assert logical_sizeof("héllo") == 5
        assert logical_sizeof("日本語") == 3
        assert logical_sizeof("🎉🎉") == 2

    def test_surrogate_keys_sized_not_encoded(self):
        # Lone surrogates can't be UTF-8 encoded; sizing must not try.
        lone = "\ud800" + "x"
        assert logical_sizeof(lone) == 2
        assert pair_size(lone, 1) == 4 + 2 + 8

    def test_bool_not_sized_as_int(self):
        # bool is an int subclass; the bool rule must win the dispatch.
        assert logical_sizeof(False) == 1
        assert logical_sizeof((True, 0)) == 4 + 1 + 8


class TestContainers:
    def test_tuple_sums_with_overhead(self):
        assert logical_sizeof(("word", 1)) == 4 + 8 + 4

    def test_dict(self):
        assert logical_sizeof({"a": 1}) == 4 + 1 + 8

    def test_nested(self):
        nested = [("a", 1), ("bb", 2)]
        assert logical_sizeof(nested) == 4 + (4 + 1 + 8) + (4 + 2 + 8)

    def test_deeply_nested_tuples(self):
        inner = ("k", (1, (2.0, None)))
        # innermost: 4 + 8 + 1; middle: 4 + 8 + innermost; outer: 4 + 1 + middle
        assert logical_sizeof(inner) == 4 + 1 + (4 + 8 + (4 + 8 + 1))
        assert pair_size("k", (1, (2.0, None))) == logical_sizeof(inner)

    def test_empty_containers_cost_overhead_only(self):
        assert logical_sizeof(()) == 4
        assert logical_sizeof([]) == 4
        assert logical_sizeof({}) == 4
        assert logical_sizeof(set()) == 4
        assert logical_sizeof(frozenset()) == 4

    def test_sets_sum_members(self):
        assert logical_sizeof({1, 2}) == 4 + 8 + 8
        assert logical_sizeof(frozenset({"ab"})) == 4 + 2

    def test_unsupported_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            logical_sizeof(Opaque())

    def test_logical_size_protocol(self):
        class LocationRef:
            logical_size = 24

        assert logical_sizeof(LocationRef()) == 24

        class Dynamic:
            def logical_size(self):
                return 12

        assert logical_sizeof(Dynamic()) == 12


json_like = st.recursive(
    st.one_of(
        st.text(max_size=20),
        st.integers(),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children),
    max_leaves=10,
)


class TestProperties:
    @given(json_like)
    def test_non_negative_and_deterministic(self, obj):
        size = logical_sizeof(obj)
        assert size >= 0
        assert logical_sizeof(obj) == size

    @given(st.lists(st.integers(), max_size=8))
    def test_monotone_in_elements(self, items):
        assert logical_sizeof(items + [0]) > logical_sizeof(items)

    @given(st.text(max_size=30), st.integers())
    def test_pair_size_exceeds_parts(self, key, value):
        assert pair_size(key, value) >= logical_sizeof(key) + logical_sizeof(value)

    @given(json_like, json_like)
    def test_pair_size_is_tuple_size(self, key, value):
        # The structural identity the dataplane builds on: one batch type
        # covers record streams and key-value streams alike.
        assert pair_size(key, value) == logical_sizeof((key, value))


# -- oracle: the fast paths must agree with a plain recursive sizer --------------


def reference_size(obj):
    """The documented rules, applied recursively one item at a time."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if obj is None:
        return 1
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 4 + sum(reference_size(item) for item in obj)
    if isinstance(obj, dict):
        return 4 + sum(reference_size(k) + reference_size(v) for k, v in obj.items())
    raise TypeError(type(obj).__name__)


class Word(str):
    pass


class Count(int):
    pass


# Lengths straddle the uniform fast path's threshold on both sides.
MAX_ITEMS = 3 * _UNIFORM_MIN_ITEMS

numpy_scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)
hashable_scalars = st.one_of(
    st.text(max_size=12),
    st.binary(max_size=12),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=12).map(Word),
    st.integers().map(Count),
    numpy_scalars,
)
# One strategy per exact item type: a list drawn from one is uniform.
UNIFORM_ITEMS = {
    "str": st.text(max_size=12),
    "bytes": st.binary(max_size=12),
    "bytearray": st.binary(max_size=12).map(bytearray),
    "int": st.integers(),
    "float": st.floats(),
    "bool": st.booleans(),
    "none": st.none(),
    "str-subclass": st.text(max_size=12).map(Word),
    "int-subclass": st.integers().map(Count),
    "np.float64": st.floats().map(np.float64),
    "np.uint8": st.integers(0, 255).map(np.uint8),
    "tuple": st.tuples(st.text(max_size=4), st.integers()),
}


def containers_of(items):
    lists = st.lists(items, max_size=MAX_ITEMS)
    return st.one_of(
        lists,
        lists.map(tuple),
        st.sets(items, max_size=MAX_ITEMS),
        st.frozensets(items, max_size=MAX_ITEMS),
    )


dicts = st.dictionaries(
    st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.text(max_size=8).map(Word)),
    st.one_of(
        st.integers(), st.text(max_size=8), st.floats(), st.none(),
        st.lists(st.integers(), max_size=3),
    ),
    max_size=MAX_ITEMS,
)
uniform_dicts = st.one_of(
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=MAX_ITEMS),
    st.dictionaries(st.integers(), st.floats(), max_size=MAX_ITEMS),
    st.dictionaries(st.binary(max_size=8), st.text(max_size=8), max_size=MAX_ITEMS),
)
sized = st.one_of(
    containers_of(hashable_scalars),
    st.lists(
        st.one_of(st.integers(), st.booleans()), min_size=_UNIFORM_MIN_ITEMS, max_size=MAX_ITEMS
    ),
    st.lists(numpy_scalars, max_size=MAX_ITEMS),
    dicts,
    uniform_dicts,
    st.lists(uniform_dicts, max_size=3),
    st.sampled_from([(), [], set(), frozenset(), {}]),
)


class TestReferenceOracle:
    @pytest.mark.parametrize("kind", list(UNIFORM_ITEMS))
    @given(data=st.data())
    def test_uniform_containers_match_reference(self, kind, data):
        items = data.draw(st.lists(UNIFORM_ITEMS[kind], max_size=MAX_ITEMS))
        containers = [items, tuple(items)]
        if kind != "bytearray":  # unhashable
            containers += [set(items), frozenset(items), dict.fromkeys(items, kind)]
        for obj in containers:
            assert logical_sizeof(obj) == reference_size(obj)
            assert pair_size(obj, obj) == reference_size((obj, obj))

    @given(sized)
    def test_logical_sizeof_matches_reference(self, obj):
        assert logical_sizeof(obj) == reference_size(obj)

    @given(st.one_of(hashable_scalars, sized), sized)
    def test_pair_size_matches_reference(self, key, value):
        assert pair_size(key, value) == reference_size((key, value))

    def test_bool_among_ints_sized_per_item(self):
        items = [True] + [1] * (2 * _UNIFORM_MIN_ITEMS)
        assert logical_sizeof(items) == 4 + 1 + 8 * (2 * _UNIFORM_MIN_ITEMS)
        assert logical_sizeof([True] * (2 * _UNIFORM_MIN_ITEMS)) == 4 + 2 * _UNIFORM_MIN_ITEMS

    def test_numpy_scalars_keep_their_width(self):
        items = [np.float32(1.0)] * (2 * _UNIFORM_MIN_ITEMS)
        assert logical_sizeof(items) == 4 + 4 * len(items)

    def test_large_uniform_dict(self):
        acc = {f"w{i}": i for i in range(5000)}
        assert logical_sizeof(acc) == reference_size(acc)
        assert pair_size("label", acc) == reference_size(("label", acc))
