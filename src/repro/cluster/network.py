"""The cluster interconnect.

A full-bisection network (InfiniBand fat-tree assumption): a transfer from
node A to node B serializes through A's egress NIC, crosses the fabric with
a fixed latency, then serializes through B's ingress NIC. Same-node
"transfers" cost only a small memcpy charge. Serialization CPU cost is
charged separately by the engines (they know the record counts).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.node import Node
from repro.cluster.spec import CostModel
from repro.sim import Simulator
from repro.sim.core import SimEvent

# Intra-node hand-off: effectively a queue push between threads.
_LOCAL_MEMCPY_BANDWIDTH = 8e9  # bytes/s


class Network:
    """Routes byte transfers between nodes, charging NIC and latency costs."""

    def __init__(
        self,
        sim: Simulator,
        nodes: list[Node],
        cost: CostModel,
        latency: float,
        racks: Dict[int, int] | None = None,
    ):
        self.sim = sim
        self.nodes = nodes
        self.cost = cost
        self.latency = latency
        #: optional node-id → rack map (rack-aware fabric experiments);
        #: None means no rack structure and the rack counters stay 0
        self.racks = racks
        # Metrics
        self.total_bytes = 0
        self.total_messages = 0
        self.pair_bytes: Dict[Tuple[int, int], int] = {}
        self.inter_rack_bytes = 0
        self.intra_rack_bytes = 0

    def send(self, src: Node, dst: Node, nbytes: float) -> SimEvent:
        """Deliver ``nbytes`` logical bytes from ``src`` to ``dst``.

        The returned event fires when the last byte lands at ``dst``.
        """
        scaled = self.cost.scaled_bytes(nbytes)
        self.total_messages += 1
        self.total_bytes += int(scaled)
        key = (src.node_id, dst.node_id)
        self.pair_bytes[key] = self.pair_bytes.get(key, 0) + int(scaled)
        if self.racks is not None and src.node_id != dst.node_id:
            if self.racks.get(src.node_id) == self.racks.get(dst.node_id):
                self.intra_rack_bytes += int(scaled)
            else:
                self.inter_rack_bytes += int(scaled)

        done = SimEvent(self.sim, name="send")
        if src.node_id == dst.node_id:
            delay = scaled / _LOCAL_MEMCPY_BANDWIDTH
            return done.trigger(value=int(scaled), delay=delay)

        egress_done = src.nic_out.transfer(scaled)

        def after_egress(_evt: SimEvent) -> None:
            # Fabric latency, then the receive side serializes on dst's NIC.
            ingress_done = dst.nic_in.transfer(scaled)

            def after_ingress(evt2: SimEvent) -> None:
                if evt2.exception is not None:  # pragma: no cover - defensive
                    done.fail(evt2.exception)
                else:
                    done.trigger(int(scaled), delay=self.latency)

            ingress_done.add_callback(after_ingress)

        egress_done.add_callback(after_egress)
        return done

    def cross_traffic_fraction(self) -> float:
        """Fraction of bytes that crossed node boundaries (locality probe)."""
        if self.total_bytes == 0:
            return 0.0
        remote = sum(
            b for (s, d), b in self.pair_bytes.items() if s != d
        )
        return remote / self.total_bytes
