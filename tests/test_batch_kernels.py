"""Oracle tests for the batch kernels and the staged emission path.

Each batch form is checked against the per-item form it replaces:
``pair_sizes`` against ``pair_size``, ``partition_many`` against
``partition`` (and ``stable_hashes`` against ``stable_hash``), and the
staged ``TaskContext`` — which partitions, sizes and packs once per drain
— against a plain pair-at-a-time packer fed at emit time.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import partitioner
from repro.common.errors import GraphError
from repro.common.partitioner import (
    HashPartitioner,
    ModPartitioner,
    Partitioner,
    RangePartitioner,
    stable_hash,
    stable_hashes,
)
from repro.common.sizeof import _UNIFORM_MIN_ITEMS, pair_size, pair_sizes
from repro.core.bins import BinPacker
from repro.core.context import BROADCAST_PARTITION, TaskContext
from repro.core.flowlet import Map
from repro.core.graph import Edge, EdgeMode


class Word(str):
    pass


class Count(int):
    pass


# -- pair_sizes ------------------------------------------------------------------

#: one strategy per exact type; a list drawn from one is uniform
SIDES = {
    "str": st.text(max_size=10),
    "bytes": st.binary(max_size=10),
    "bytearray": st.binary(max_size=10).map(bytearray),
    "int": st.integers(),
    "float": st.floats(),
    "bool": st.booleans(),
    "none": st.none(),
    "str-subclass": st.text(max_size=10).map(Word),
    "int-subclass": st.integers().map(Count),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "tuple": st.tuples(st.text(max_size=4), st.integers()),
    "dict": st.dictionaries(st.text(max_size=4), st.integers(), max_size=12),
    "list": st.lists(st.floats(), max_size=12),
}
mixed_side = st.one_of(*SIDES.values())
lengths = st.integers(0, 3 * _UNIFORM_MIN_ITEMS)


def per_pair(keys, values):
    return [pair_size(k, v) for k, v in zip(keys, values)]


class TestPairSizes:
    @pytest.mark.parametrize("key_kind", list(SIDES))
    @pytest.mark.parametrize("value_kind", ["str", "int", "float", "none", "bytes", "dict"])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_uniform_batches_match_per_pair(self, key_kind, value_kind, data):
        n = data.draw(lengths)
        keys = data.draw(st.lists(SIDES[key_kind], min_size=n, max_size=n))
        values = data.draw(st.lists(SIDES[value_kind], min_size=n, max_size=n))
        assert pair_sizes(keys, values) == per_pair(keys, values)

    @given(data=st.data())
    def test_mixed_batches_match_per_pair(self, data):
        n = data.draw(lengths)
        keys = data.draw(st.lists(mixed_side, min_size=n, max_size=n))
        values = data.draw(st.lists(mixed_side, min_size=n, max_size=n))
        assert pair_sizes(keys, values) == per_pair(keys, values)

    @pytest.mark.parametrize("n", [_UNIFORM_MIN_ITEMS - 1, _UNIFORM_MIN_ITEMS, 40])
    def test_one_odd_item_falls_back(self, n):
        keys = ["w"] * n
        for odd in (True, Word("w"), np.int64(1), (1,), b"x"):
            values = [1] * (n - 1) + [odd]
            assert pair_sizes(keys, values) == per_pair(keys, values)
            assert pair_sizes(values, keys) == per_pair(values, keys)

    def test_bool_inside_ints_keeps_its_width(self):
        values = [1] * 20 + [True]
        assert pair_sizes(["k"] * 21, values)[-1] == 1 + 1 + 4

    def test_nested_values(self):
        keys = [f"w{i}" for i in range(20)]
        values = [{"a": [1, 2.0], "b": (None, "x")}] * 20
        assert pair_sizes(keys, values) == per_pair(keys, values)

    def test_empty(self):
        assert pair_sizes([], []) == []


# -- partition_many / stable_hashes ------------------------------------------------


class SkewPartitioner(HashPartitioner):
    """A user subclass that re-routes keys: its batch form must follow."""

    def partition(self, key):
        return (stable_hash(key) // 7) % self.num_partitions


class LengthPartitioner(Partitioner):
    def partition(self, key):
        return len(str(key)) % self.num_partitions


@contextlib.contextmanager
def memo_cap(cap):
    """Run with every memo cleared and capped at ``cap`` entries."""
    saved = partitioner._MEMO_CAP
    partitioner._MEMO_CAP = cap
    for memo in partitioner._MEMOS.values():
        memo.clear()
    try:
        yield
    finally:
        partitioner._MEMO_CAP = saved
        for memo in partitioner._MEMOS.values():
            memo.clear()


hash_keys = st.one_of(
    st.text(max_size=6),
    st.binary(max_size=6),
    st.integers(-(2**127), 2**127 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=6).map(Word),
    st.integers(-100, 100).map(Count),
    st.tuples(st.text(max_size=3), st.integers(-9, 9)),
)
key_batches = st.one_of(
    st.lists(st.text(max_size=6), max_size=60),
    st.lists(st.integers(-50, 50), max_size=60),
    st.lists(st.binary(max_size=4), max_size=60),
    st.lists(hash_keys, max_size=60),
)


class TestPartitionMany:
    @pytest.mark.parametrize("cap", [4, 1 << 16])
    @given(batches=st.lists(key_batches, min_size=1, max_size=4), n=st.integers(1, 9))
    @settings(max_examples=60)
    def test_hash_partitioners_match_per_key_cold_warm_and_over_cap(self, cap, batches, n):
        with memo_cap(cap):
            for cls in (HashPartitioner, SkewPartitioner, LengthPartitioner):
                part = cls(n)
                for keys in batches + batches:  # the repeat runs warm
                    expected = [part.partition(k) for k in keys]
                    assert part.partition_many(keys) == expected
                    assert stable_hashes(keys) == [stable_hash(k) for k in keys]
                    for memo in partitioner._MEMOS.values():
                        assert len(memo) <= partitioner._MEMO_CAP

    @given(st.lists(st.one_of(st.integers(-1000, 1000), st.booleans()), max_size=40), st.integers(1, 9))
    def test_mod_partitioner(self, keys, n):
        part = ModPartitioner(n)
        assert part.partition_many(keys) == [part.partition(k) for k in keys]

    @given(
        st.lists(st.integers(-100, 100), max_size=6).map(sorted),
        st.lists(st.integers(-200, 200), max_size=40),
    )
    def test_range_partitioner(self, boundaries, keys):
        part = RangePartitioner(boundaries)
        assert part.partition_many(keys) == [part.partition(k) for k in keys]

    def test_memo_hits_and_misses_in_one_batch(self):
        with memo_cap(1 << 16):
            stable_hashes(["a", "b"])
            keys = ["a", "c", "b", "c", "d"]
            assert stable_hashes(keys) == [stable_hash(k) for k in keys]
            assert set(partitioner._MEMOS[str]) == {"a", "b", "c", "d"}

    def test_subclass_keys_bypass_the_memo(self):
        with memo_cap(1 << 16):
            keys = [Word("the")] * 10
            assert stable_hashes(keys) == [12616109885787641377] * 10
            assert not partitioner._MEMOS[str]

    def test_out_of_range_int_still_raises(self):
        with pytest.raises(TypeError, match="range"):
            stable_hashes([1, 2**127])


# -- staged emission against a pair-at-a-time packer -------------------------------


def reference_pack(open_bins, bin_size, edge_id, partition, key, value):
    """The per-pair packing rule: append, seal once the bin reaches size."""
    records, nbytes = open_bins.setdefault((edge_id, partition), ([], [0]))
    records.append((key, value))
    nbytes[0] += pair_size(key, value)
    if nbytes[0] >= bin_size:
        del open_bins[(edge_id, partition)]
        return (edge_id, partition, records, nbytes[0])
    return None


def reference_drain(open_bins):
    drained = [(s[0], s[1], r, n[0]) for s, (r, n) in sorted(open_bins.items())]
    open_bins.clear()
    return drained


class ReferenceContext:
    """HAMR's emit rules, packing each pair at emit time."""

    def __init__(self, out_edges, worker_index, bin_size):
        self.out_edges = out_edges
        self.by_name = {e.dst.name: e for e in out_edges}
        self.worker_index = worker_index
        self.bin_size = bin_size
        self.open_bins = {}
        self.sealed = []

    def _add(self, edge, partition, key, value):
        bin_ = reference_pack(self.open_bins, self.bin_size, edge.edge_id, partition, key, value)
        if bin_ is not None:
            self.sealed.append(bin_)

    def emit(self, key, value, to=None):
        for edge in [self.by_name[to]] if to is not None else self.out_edges:
            if edge.mode is EdgeMode.SHUFFLE:
                partition = edge.partitioner.partition(key)
            elif edge.mode is EdgeMode.LOCAL:
                partition = self.worker_index
            else:
                partition = BROADCAST_PARTITION
            self._add(edge, partition, key, value)

    def broadcast(self, key, value, to=None):
        for edge in [self.by_name[to]] if to is not None else self.out_edges:
            self._add(edge, BROADCAST_PARTITION, key, value)

    def take_sealed(self):
        sealed, self.sealed = self.sealed, []
        return sealed


def as_tuples(bins):
    return [(b.edge_id, b.partition, b.records, b.nbytes) for b in bins]


EDGE_SPECS = st.lists(
    st.sampled_from(["hash", "skew", "local", "broadcast"]), min_size=1, max_size=3
)
emit_keys = st.one_of(st.text(max_size=5), st.integers(-20, 20), st.tuples(st.text(max_size=2)))
emit_values = st.one_of(st.integers(), st.text(max_size=8), st.none(), st.lists(st.integers(), max_size=3))


@st.composite
def emit_programs(draw):
    """Edges plus a sequence of emits/broadcasts with drain points; the
    emits before the first drain play the part of ``setup()`` emits."""
    specs = draw(EDGE_SPECS)
    names = [f"d{i}" for i in range(len(specs))]
    op = st.one_of(
        st.tuples(st.just("emit"), emit_keys, emit_values, st.sampled_from([None, *names])),
        st.tuples(st.just("broadcast"), emit_keys, emit_values, st.sampled_from([None, *names])),
        st.just(("drain",)),
    )
    ops = draw(st.lists(op, max_size=120))
    bin_size = draw(st.integers(1, 200))
    return specs, names, ops, bin_size


def build_edges(specs, names, n):
    src = Map("src", fn=lambda ctx, k, v: None)
    edges = []
    for i, (spec, name) in enumerate(zip(specs, names)):
        mode = {"local": EdgeMode.LOCAL, "broadcast": EdgeMode.BROADCAST}.get(spec, EdgeMode.SHUFFLE)
        part = SkewPartitioner(n) if spec == "skew" else HashPartitioner(n)
        edges.append(Edge(10 + i, src, Map(name, fn=lambda ctx, k, v: None), mode, part))
    return edges


def staged_context(edges, worker_index, bin_size):
    instance = SimpleNamespace(flowlet=SimpleNamespace(name="src"))
    return TaskContext(instance, None, worker_index, 3, BinPacker(bin_size), edges, None, None)


class TestStagedEmission:
    @given(emit_programs())
    @settings(max_examples=150)
    def test_same_bins_sealed_in_the_same_order(self, program):
        specs, names, ops, bin_size = program
        edges = build_edges(specs, names, 3)
        ctx = staged_context(edges, 1, bin_size)
        ref = ReferenceContext(edges, 1, bin_size)
        for op in ops:
            if op[0] == "drain":
                assert as_tuples(ctx.take_sealed()) == ref.take_sealed()
            else:
                getattr(ctx, op[0])(*op[1:])
                getattr(ref, op[0])(*op[1:])
        # the instance's final flush: pack what is staged, then drain
        ctx.pack_staged()
        assert as_tuples(ctx._packer.drain()) == reference_drain(ref.open_bins)
        assert as_tuples(ctx.take_sealed()) == ref.take_sealed()

    @given(st.lists(st.tuples(emit_keys, emit_values), max_size=80), st.integers(1, 120))
    def test_add_is_the_one_pair_form_of_pack(self, pairs, bin_size):
        by_add, by_pack = BinPacker(bin_size), BinPacker(bin_size)
        sealed_add = [b for b in (by_add.add(0, 1, k, v) for k, v in pairs) if b is not None]
        sealed_pack = by_pack.pack(
            [0] * len(pairs), [1] * len(pairs), [k for k, _ in pairs], [v for _, v in pairs]
        )
        assert as_tuples(sealed_add) == as_tuples(sealed_pack)
        assert as_tuples(by_add.drain()) == as_tuples(by_pack.drain())
        assert by_add.bins_sealed == by_pack.bins_sealed
        assert by_add.pairs_packed == by_pack.pairs_packed == len(pairs)

    def test_unknown_target_raises_at_emit_time(self):
        edges = build_edges(["hash"], ["d0"], 3)
        ctx = staged_context(edges, 0, 64)
        with pytest.raises(GraphError, match="no edge to 'nowhere'"):
            ctx.emit("k", 1, to="nowhere")
        with pytest.raises(GraphError, match="no edge to 'nowhere'"):
            ctx.broadcast("k", 1, to="nowhere")

    def test_sink_emits_become_output(self):
        ctx = staged_context([], 0, 64)
        ctx.emit("k", 1)
        ctx.broadcast("k", 2)  # no edges: nothing to replicate to
        assert ctx.output_pairs == [("k", 1)]
        assert ctx.take_sealed() == []
