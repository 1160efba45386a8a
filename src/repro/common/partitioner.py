"""Deterministic key partitioning.

Both engines shuffle key-value pairs by mapping keys onto a fixed number of
partitions; each node of the cluster owns a contiguous slice of the
partition space. Python's built-in ``hash`` is randomized per process for
strings, so all partitioners here are built on a stable FNV-1a hash to keep
runs reproducible across processes and sessions.

The FNV-1a loop runs once per byte in Python, so ``stable_hash`` memoizes
the keys that repeat most: one dict per exact key class (``str``, ``int``,
``bytes``), found by ``key.__class__``. Exact classes keep the memo sound:
``1``, ``True`` and ``1.0`` compare and hash equal in Python but are
encoded differently here, and only ``int`` itself reaches the ``int`` memo.
A hit returns the value a miss would compute, so outputs never depend on
what an earlier run hashed. Each memo is cleared when it reaches
``_MEMO_CAP`` entries, which bounds the memory it holds (and the keys it
keeps alive). Tuples, floats, bools, ``None`` and subclasses are hashed
uncached, but a tuple's items go back through ``stable_hash`` and so hit
the memo.

``stable_hashes`` hashes a batch of keys. When every key has one memoised
exact class, one C-level ``map(memo.get, keys)`` finds the hits and only
the misses go through ``stable_hash`` (which applies the cap); any other
batch is hashed key by key. ``Partitioner.partition_many`` is the batch
form of ``partition``; ``HashPartitioner`` routes it through
``stable_hashes``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Sequence

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# ints are encoded as 16 signed little-endian bytes
_INT_MIN, _INT_MAX = -(1 << 127), 1 << 127

# Memo entries per exact key class before that class's memo is cleared.
_MEMO_CAP = 1 << 16
_MEMOS: dict[type, dict[Any, int]] = {str: {}, int: {}, bytes: {}}


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def stable_hash(key: Any) -> int:
    """A process-stable 64-bit hash of a key.

    Supports the key types the benchmarks produce: ``str``, ``bytes``,
    ``int`` in the signed 128-bit range ``[-2**127, 2**127)``, ``float``,
    ``bool``, ``None`` and (nested) tuples thereof. Any other key, an
    ``int`` outside that range included, raises ``TypeError``.
    """
    memo = _MEMOS.get(key.__class__)
    if memo is None:
        return _hash_uncached(key)
    h = memo.get(key)
    if h is None:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        h = memo[key] = _hash_uncached(key)
    return h


def stable_hashes(keys: Sequence[Any]) -> list[int]:
    """``[stable_hash(k) for k in keys]``, with memo hits found in C."""
    classes = set(map(type, keys))
    memo = _MEMOS.get(classes.pop()) if len(classes) == 1 else None
    if memo is None:
        return list(map(stable_hash, keys))
    hashes = list(map(memo.get, keys))
    miss = -1
    try:
        while True:
            miss = hashes.index(None, miss + 1)
            hashes[miss] = stable_hash(keys[miss])
    except ValueError:  # no miss left
        pass
    return hashes


def _hash_uncached(key: Any) -> int:
    if isinstance(key, bytes):
        return _fnv1a(b"b" + key)
    if isinstance(key, str):
        return _fnv1a(b"s" + key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bool):
        return _fnv1a(b"B1" if key else b"B0")
    if isinstance(key, int):
        if not _INT_MIN <= key < _INT_MAX:
            raise TypeError(
                f"stable_hash: int key {key} is outside the supported range "
                f"[-2**127, 2**127)"
            )
        return _fnv1a(b"i" + key.to_bytes(16, "little", signed=True))
    if isinstance(key, float):
        return _fnv1a(b"f" + struct.pack("<d", key))
    if key is None:
        return _fnv1a(b"n")
    if isinstance(key, tuple):
        h = _FNV_OFFSET
        for item in key:
            h ^= stable_hash(item)
            h = (h * _FNV_PRIME) & _MASK64
        return h
    raise TypeError(f"unhashable key type for stable_hash: {type(key).__name__}")


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_many(self, keys: Sequence[Any]) -> list[int]:
        """``[self.partition(k) for k in keys]``; subclasses may batch it."""
        return list(map(self.partition, keys))

    def __call__(self, key: Any) -> int:
        return self.partition(key)


class HashPartitioner(Partitioner):
    """The default partitioner: stable hash modulo partition count.

    This matches Hadoop's ``HashPartitioner`` and the paper's statement that
    "each node works on a portion of the whole key space"; an evenly
    distributed key space balances the workload, a skewed one does not —
    which is exactly the HistogramRatings pathology of §5.2.
    """

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_many(self, keys: Sequence[Any]) -> list[int]:
        if type(self).partition is not HashPartitioner.partition:
            return super().partition_many(keys)  # a subclass re-routes keys
        return list(map(self.num_partitions.__rmod__, stable_hashes(keys)))


class ModPartitioner(Partitioner):
    """Partition integer keys by value modulo the partition count.

    Used where the paper's benchmarks rely on direct key→node placement
    (e.g. routing a line-offset back to the node that stores the file).
    """

    def partition(self, key: Any) -> int:
        return int(key) % self.num_partitions


class RangePartitioner(Partitioner):
    """Partition orderable keys by split points (Hadoop TotalOrderPartitioner).

    ``boundaries`` must be sorted; keys <= ``boundaries[i]`` land in
    partition ``i``, keys above every boundary land in the last partition.
    """

    def __init__(self, boundaries: Sequence[Any]):
        super().__init__(len(boundaries) + 1)
        self.boundaries = list(boundaries)
        if any(self.boundaries[i] > self.boundaries[i + 1] for i in range(len(self.boundaries) - 1)):
            raise ValueError("range boundaries must be sorted")

    def partition(self, key: Any) -> int:
        import bisect

        return bisect.bisect_left(self.boundaries, key)


def partition_counts(partitioner: Partitioner, keys: Iterable[Any]) -> list[int]:
    """Histogram of how many of ``keys`` land in each partition (skew probe)."""
    counts = [0] * partitioner.num_partitions
    for key in keys:
        counts[partitioner.partition(key)] += 1
    return counts
