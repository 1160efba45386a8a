"""Bounded simulated queues — the substrate of HAMR's flow control.

A :class:`SimQueue` carries items between producer and consumer processes.
Capacity is measured in *weight units* (we use logical bytes for bin
buffers, item counts elsewhere). When the queue is full:

* ``put`` blocks the producer until space frees — used where a producer may
  simply wait;
* ``try_put`` fails fast and the caller can suspend itself and retry via
  ``when_space()`` — this is exactly the paper's flow-control rule: "when
  the output bin buffer of a flowlet is full ... the flowlet stops the
  current execution immediately and will be scheduled in a later time".

``close()`` marks the end of the stream: remaining items drain normally and
then pending/future ``get`` calls fail with :class:`QueueClosed`, which is
how completion propagates through pipelines.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.core import SimEvent, Simulator


class QueueClosed(Exception):
    """Raised into getters when a queue is closed and fully drained."""


class SimQueue:
    """A FIFO queue with weighted capacity, blocking put/get, and close().

    ``capacity=None`` means unbounded. Weights default to 1 per item.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[float] = None,
        name: str = "queue",
    ):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Tuple[Any, float]] = deque()
        self._weight = 0.0
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[Tuple[SimEvent, Any, float]] = deque()
        self._space_waiters: list[SimEvent] = []
        self._closed = False
        # Metrics
        self.total_put = 0
        self.total_got = 0
        self.put_blocked = 0
        self.max_weight = 0.0
        #: optional observability hook, called as ``observer(now, delta)``
        #: when queued weight actually changes — items handed straight to a
        #: waiting getter never reside in the queue and are not reported
        self.observer = None

    # -- producer side -------------------------------------------------------

    def put(self, item: Any, weight: float = 1.0) -> SimEvent:
        """Enqueue; the returned event fires once the item is accepted."""
        self._check_weight(weight)
        if self._closed:
            raise SimulationError(f"{self.name}: put on closed queue")
        event = SimEvent(self.sim, name="put")
        if self._fits(weight) and not self._putters:
            self._accept(item, weight)
            event.trigger()
        else:
            self.put_blocked += 1
            self._putters.append((event, item, weight))
        return event

    def try_put(self, item: Any, weight: float = 1.0) -> bool:
        """Enqueue if it fits *and* no blocked producers are ahead; else False."""
        self._check_weight(weight)
        if self._closed:
            raise SimulationError(f"{self.name}: put on closed queue")
        if self._putters or not self._fits(weight):
            return False
        self._accept(item, weight)
        return True

    def when_space(self) -> SimEvent:
        """An event firing when space might be available (no reservation).

        The waiter must re-check with ``try_put``; multiple waiters may race
        for the same slot, which mirrors rescheduled flowlet tasks racing
        for buffer space.
        """
        event = SimEvent(self.sim, name="space")
        if self.capacity is None or self._weight < self.capacity:
            event.trigger()
        else:
            self._space_waiters.append(event)
        return event

    def close(self) -> None:
        """No more puts; getters drain remaining items then see QueueClosed."""
        if self._closed:
            return
        if self._putters:
            raise SimulationError(f"{self.name}: close with blocked producers")
        self._closed = True
        self._fail_surplus_getters()

    # -- consumer side -------------------------------------------------------

    def get(self) -> SimEvent:
        """Dequeue; the event fires with the item, or fails with QueueClosed."""
        event = SimEvent(self.sim, name="get")
        if self._items:
            item = self._pop_item()
            event.trigger(item)
            self._admit_blocked_putters()
        elif self._closed:
            event.fail(QueueClosed(self.name))
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._pop_item()
            self._admit_blocked_putters()
            return True, item
        return False, None

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def weight(self) -> float:
        return self._weight

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def full(self) -> bool:
        return self.capacity is not None and self._weight >= self.capacity

    # -- internals -------------------------------------------------------------

    def _check_weight(self, weight: float) -> None:
        if weight < 0:
            raise SimulationError(f"{self.name}: negative weight")
        if self.capacity is not None and weight > self.capacity:
            raise SimulationError(
                f"{self.name}: item weight {weight} exceeds capacity {self.capacity}"
            )

    def _fits(self, weight: float) -> bool:
        return self.capacity is None or self._weight + weight <= self.capacity

    def _accept(self, item: Any, weight: float) -> None:
        self.total_put += 1
        if self._getters:
            # Hand straight to the oldest waiting consumer.
            getter = self._getters.popleft()
            self.total_got += 1
            getter.trigger(item)
            return
        self._items.append((item, weight))
        self._weight += weight
        if self._weight > self.max_weight:
            self.max_weight = self._weight
        if self.observer is not None:
            self.observer(self.sim.now, weight)

    def _pop_item(self) -> Any:
        item, weight = self._items.popleft()
        self._weight -= weight
        self.total_got += 1
        if not self._items:
            self._weight = 0.0  # guard against float drift
        if self.observer is not None:
            self.observer(self.sim.now, -weight)
        return item

    def _admit_blocked_putters(self) -> None:
        while self._putters:
            event, item, weight = self._putters[0]
            if not self._fits(weight):
                break
            self._putters.popleft()
            self._accept(item, weight)
            event.trigger()
        self._wake_space_waiters()
        if self._closed:
            self._fail_surplus_getters()

    def _wake_space_waiters(self) -> None:
        if self.capacity is not None and self._weight >= self.capacity:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for event in waiters:
            event.trigger()

    def _fail_surplus_getters(self) -> None:
        if self._items:
            return
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(QueueClosed(self.name))
