"""The task context — what user flowlet code sees.

One context exists per (flowlet, node) instance; every fine-grain task of
that instance on that node shares it. User functions are plain callables
(not simulation processes), so the context *buffers* effects: emitted
pairs are staged with their route, disk traffic accumulates as deferred
charges — and the surrounding engine task process pays the accumulated
costs and ships sealed bins at its next yield point. Determinism is
preserved because processes only interleave at yields.

Staged pairs are partitioned, sized and packed once per drain
(``take_sealed``/``pack_staged``), in emit order, with the batch kernels
``Partitioner.partition_many`` and ``pair_sizes``. Packing is a pure
function of the pair sequence, so this seals the same bins in the same
order as packing each pair at emit time.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, Optional, TYPE_CHECKING

from repro.common.errors import GraphError
from repro.core.bins import Bin, BinPacker
from repro.core.graph import Edge, EdgeMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.core.runtime import FlowletInstance
    from repro.storage.kvstore import KVStore
    from repro.storage.localfs import LocalFS, LocationRef


#: partition id used for bins on BROADCAST edges (expanded to all nodes at ship time)
BROADCAST_PARTITION = -1


class TaskContext:
    """API surface for user code inside flowlet tasks."""

    def __init__(
        self,
        instance: "FlowletInstance",
        node: "Node",
        worker_index: int,
        num_workers: int,
        packer: BinPacker,
        out_edges: list[Edge],
        localfs: Optional["LocalFS"],
        kvstore: Optional["KVStore"],
    ):
        self._instance = instance
        self.node = node
        self.worker_index = worker_index
        self.num_workers = num_workers
        self._packer = packer
        self._out_edges = out_edges
        # Routes: one per out-edge in its own mode, then one broadcast
        # route per out-edge. Emits stage a route index with the pair.
        self._routes: list[tuple[Edge, Optional[int]]] = [
            (e, self._fixed_partition(e.mode)) for e in out_edges
        ] + [(e, BROADCAST_PARTITION) for e in out_edges]
        self._route_of = {e.dst.name: i for i, e in enumerate(out_edges)}
        self._all_routes = tuple(range(len(out_edges)))
        self._localfs = localfs
        self._kvstore = kvstore
        # Emitted pairs not yet packed: parallel key, value and route lists.
        self._keys: list[Any] = []
        self._values: list[Any] = []
        self._staged_routes: list[int] = []
        # Buffers drained by the engine task process.
        self.sealed_bins: list[Bin] = []
        self.output_pairs: list[tuple[Any, Any]] = []  # sink output (no out-edges)
        self.deferred_disk_bytes: int = 0
        self.deferred_updates: int = 0  # accumulator updates for contention modeling
        self.counters: dict[str, float] = {}

    def _fixed_partition(self, mode: EdgeMode) -> Optional[int]:
        """The partition every pair on an edge of ``mode`` takes (None:
        the edge's partitioner decides per key)."""
        if mode is EdgeMode.SHUFFLE:
            return None
        if mode is EdgeMode.LOCAL:
            return self.worker_index
        return BROADCAST_PARTITION

    def _routes_to(self, to: Optional[str]) -> tuple[int, ...]:
        if to is None:
            return self._all_routes
        try:
            return (self._route_of[to],)
        except KeyError:
            raise GraphError(
                f"{self._instance.flowlet.name!r} has no edge to {to!r}"
            ) from None

    # -- emission ---------------------------------------------------------------

    def emit(self, key: Any, value: Any, to: Optional[str] = None) -> None:
        """Send a pair downstream.

        With ``to=None`` the pair goes to *every* outbound edge; name a
        downstream flowlet to target one edge. A flowlet with no outbound
        edges is a sink: its pairs become job output (and are charged as a
        local disk write, "finally to disk as output", §3.1).
        """
        if to is None:
            routes = self._all_routes
            if not routes:
                self.output_pairs.append((key, value))
                return
        else:
            routes = self._routes_to(to)
        for route in routes:
            self._keys.append(key)
            self._values.append(value)
            self._staged_routes.append(route)

    def broadcast(self, key: Any, value: Any, to: Optional[str] = None) -> None:
        """Explicitly replicate one pair to all workers of the target edge(s).

        Equivalent to emitting on a BROADCAST edge; usable on SHUFFLE edges
        for control data (e.g. K-Means centroid updates, Alg. 1 step 5).
        """
        offset = len(self._out_edges)
        for route in self._routes_to(to):
            self._keys.append(key)
            self._values.append(value)
            self._staged_routes.append(offset + route)

    def pack_staged(self) -> None:
        """Partition, size and pack every staged pair, in emit order."""
        keys, values, routes = self._keys, self._values, self._staged_routes
        if not keys:
            return
        self._keys, self._values, self._staged_routes = [], [], []
        distinct = set(routes)
        if len(distinct) == 1:
            route = distinct.pop()
            edge_ids: Any = repeat(self._routes[route][0].edge_id)
            partitions: Any = self._partitions(route, keys)
        else:
            edge_ids = [self._routes[r][0].edge_id for r in routes]
            partitions = [0] * len(keys)
            for route in distinct:
                at = [i for i, r in enumerate(routes) if r == route]
                for i, p in zip(at, self._partitions(route, [keys[i] for i in at])):
                    partitions[i] = p
        self.sealed_bins.extend(self._packer.pack(edge_ids, partitions, keys, values))

    def _partitions(self, route: int, keys: list[Any]) -> Iterable[int]:
        edge, partition = self._routes[route]
        if partition is None:
            return edge.partitioner.partition_many(keys)
        return repeat(partition)

    # -- locality-aware local disk I/O (§3.3) --------------------------------------

    def write_local(self, file_name: str, records: Iterable[Any]) -> "LocationRef":
        """Write records to this node's local disk; returns a small
        :class:`LocationRef` to pass downstream instead of the bulk data."""
        if self._localfs is None:
            raise GraphError("engine was built without a LocalFS")
        ref, nbytes = self._localfs.place(self.node, file_name, records)
        self.deferred_disk_bytes += nbytes
        return ref

    def read_local(self, ref: "LocationRef") -> list[Any]:
        """Resolve a :class:`LocationRef` on its owning node (charged read)."""
        if self._localfs is None:
            raise GraphError("engine was built without a LocalFS")
        records, nbytes = self._localfs.resolve(self.node, ref)
        self.deferred_disk_bytes += nbytes
        return records

    # -- key-value store (§5.2 / §7) --------------------------------------------------

    @property
    def kv(self) -> "KVStore":
        if self._kvstore is None:
            raise GraphError("engine was built without a KVStore")
        return self._kvstore

    def kv_put(self, key: Any, value: Any) -> None:
        """Store in *this node's* shard (shared by all tasks on the node).

        Entries written by an ``aggregated_output`` flowlet are key-space
        bounded and charged unscaled (DESIGN.md §7.1).
        """
        divisor = (
            self.node.cost.scale
            if self._instance.flowlet.aggregated_output
            else 1.0
        )
        self.kv.put(self.node, key, value, size_divisor=divisor)

    def kv_get(self, key: Any, default: Any = None) -> Any:
        return self.kv.get(self.node, key, default)

    # -- misc ------------------------------------------------------------------------------

    def counter(self, name: str, delta: float = 1.0) -> None:
        """Accumulate an application counter (aggregated into JobResult)."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def note_update(self, n: int = 1) -> None:
        """Record ``n`` shared-accumulator updates (engine charges contention)."""
        self.deferred_updates += n

    # -- engine-side draining ---------------------------------------------------------------

    def take_sealed(self) -> list[Bin]:
        self.pack_staged()
        sealed, self.sealed_bins = self.sealed_bins, []
        return sealed

    def take_deferred_disk(self) -> int:
        nbytes, self.deferred_disk_bytes = self.deferred_disk_bytes, 0
        return nbytes

    def take_deferred_updates(self) -> int:
        n, self.deferred_updates = self.deferred_updates, 0
        return n
