"""Unit and property tests for repro.common.partitioner."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import partitioner
from repro.common.partitioner import (
    HashPartitioner,
    ModPartitioner,
    RangePartitioner,
    partition_counts,
    stable_hash,
)

keys = st.one_of(
    st.text(max_size=40),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.text(max_size=10), st.integers(min_value=0, max_value=1000)),
)


class TestStableHash:
    @given(keys)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    def test_64_bit_range(self, key):
        assert 0 <= stable_hash(key) < 2**64

    def test_type_tagged(self):
        # the same bit pattern through different types must not collide trivially
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(b"x") != stable_hash("x")
        assert stable_hash(True) != stable_hash(1)

    def test_known_distinct_words(self):
        words = ["the", "quick", "brown", "fox", "jumps"]
        assert len({stable_hash(w) for w in words}) == len(words)

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash(["list"])


def clear_memos():
    for memo in partitioner._MEMOS.values():
        memo.clear()


#: stable_hash values from before the memo existed; they must never move
GOLDEN_HASHES = [
    ("", 12638206991764949794),
    ("the", 12616109885787641377),
    ("naïve 日本", 11435907978525210608),
    ("\ud800x", 460040725944499463),
    (b"x", 623269194427660935),
    (0, 5820242641327481636),
    (-1, 869225371789770004),
    (2**100, 5796247472460508212),
    (-(2**127), 5820383378815892644),
    (2**127 - 1, 869084634301358996),
    (True, 653869702546346076),
    (None, 12638194897137039473),
    (1.5, 3289171655170387708),
    (("w", (1, 2.0)), 17573544713554895071),
    ((1,), 17173289961460954304),
    ((True,), 12526243450596374171),
    ((1.0,), 2407854609498206419),
]


class TestStableHashMemo:
    @pytest.mark.parametrize("key,expected", GOLDEN_HASHES)
    def test_golden_values_cold_and_warm(self, key, expected):
        clear_memos()
        assert stable_hash(key) == expected
        assert stable_hash(key) == expected

    def test_equal_keys_of_other_types_stay_apart(self):
        clear_memos()
        for key in (1, True, 1.0, (1,), (True,), (1.0,)):
            stable_hash(key)
        assert len({stable_hash(1), stable_hash(True), stable_hash(1.0)}) == 3
        assert len({stable_hash((1,)), stable_hash((True,)), stable_hash((1.0,))}) == 3

    def test_subclass_keys_hash_like_their_base(self):
        class Word(str):
            pass

        clear_memos()
        assert stable_hash(Word("the")) == 12616109885787641377
        assert not partitioner._MEMOS[str]  # subclasses bypass the memo
        assert stable_hash("the") == stable_hash(Word("the"))

    def test_memo_never_grows_past_its_cap(self):
        clear_memos()
        cap = partitioner._MEMO_CAP
        memo = partitioner._MEMOS[str]
        for i in range(cap + 100):
            stable_hash(f"k{i}")
            assert len(memo) <= cap
        assert stable_hash("the") == 12616109885787641377

    @pytest.mark.parametrize("key", [2**127, -(2**127) - 1, 10**60])
    def test_ints_outside_128_bits_raise_type_error(self, key):
        with pytest.raises(TypeError, match="range"):
            stable_hash(key)
        with pytest.raises(TypeError, match="range"):
            stable_hash(("w", key))


class TestMemoIsolation:
    """The memo is process-global; a warm one must not change any run."""

    @pytest.mark.parametrize("name", ["wordcount", "histogram_ratings"])
    def test_cold_and_warm_runs_agree(self, name):
        from repro.evaluation.runner import run_workload
        from repro.evaluation.workloads import workload_by_name

        workload = workload_by_name(name, "tiny")

        def run():
            out = {}
            for engine in ("hamr", "hadoop"):
                row = run_workload(workload, engines=engine)
                result = row.hamr_result if engine == "hamr" else row.hadoop_result
                out[engine] = (result.output, result.makespan)
            return out

        clear_memos()
        cold = run()
        assert any(partitioner._MEMOS.values())
        assert run() == cold


class TestHashPartitioner:
    @given(keys, st.integers(min_value=1, max_value=64))
    def test_in_range(self, key, n):
        p = HashPartitioner(n)
        assert 0 <= p.partition(key) < n

    @given(keys)
    def test_single_partition_collapses(self, key):
        assert HashPartitioner(1).partition(key) == 0

    def test_spread_over_many_words(self):
        p = HashPartitioner(16)
        counts = partition_counts(p, (f"word{i}" for i in range(4000)))
        # Even key space → roughly balanced partitions (each within 2x of fair share)
        assert min(counts) > 4000 / 16 / 2
        assert max(counts) < 4000 / 16 * 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestModPartitioner:
    def test_direct_placement(self):
        p = ModPartitioner(5)
        assert [p.partition(i) for i in range(7)] == [0, 1, 2, 3, 4, 0, 1]


class TestPartitionOwnership:
    """Partitioner x cluster ownership: the shuffle's delivery invariant."""

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=8),
    )
    def test_every_partition_owned_exactly_once(self, num_partitions, num_workers):
        from repro.cluster import Cluster, small_cluster_spec

        cluster = Cluster(small_cluster_spec(num_workers=num_workers))
        owners = [
            cluster.owner_of_partition(p, num_partitions).node_id
            for p in range(num_partitions)
        ]
        # Each partition resolves to exactly one worker, so across workers
        # the partition space is covered exactly once — nothing dropped,
        # nothing double-delivered.
        assert len(owners) == num_partitions
        assert set(owners) <= {w.node_id for w in cluster.workers}
        per_worker = {w.node_id: 0 for w in cluster.workers}
        for owner in owners:
            per_worker[owner] += 1
        assert sum(per_worker.values()) == num_partitions
        # Round-robin layout: worker loads differ by at most one.
        assert max(per_worker.values()) - min(per_worker.values()) <= 1

    @given(keys, st.integers(min_value=1, max_value=6))
    def test_keys_route_to_their_partitions_owner(self, key, num_workers):
        from repro.cluster import Cluster, small_cluster_spec

        cluster = Cluster(small_cluster_spec(num_workers=num_workers))
        partitioner = cluster.default_partitioner()
        p = partitioner.partition(key)
        owner = cluster.owner_of_partition(p, partitioner.num_partitions)
        assert owner.node_id == cluster.owner_of_partition(
            p, partitioner.num_partitions
        ).node_id  # deterministic


class TestRangePartitioner:
    def test_boundaries(self):
        p = RangePartitioner([10, 20, 30])
        assert p.num_partitions == 4
        assert p.partition(5) == 0
        assert p.partition(10) == 0
        assert p.partition(11) == 1
        assert p.partition(25) == 2
        assert p.partition(99) == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RangePartitioner([3, 1, 2])

    @given(st.lists(st.integers(), min_size=1, max_size=20).map(sorted), st.integers())
    def test_partition_respects_boundaries(self, boundaries, key):
        p = RangePartitioner(boundaries)
        idx = p.partition(key)
        assert 0 <= idx <= len(boundaries)
        if idx > 0:
            assert boundaries[idx - 1] < key
        if idx < len(boundaries):
            assert key <= boundaries[idx]
