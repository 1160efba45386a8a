"""The discrete-event kernel: virtual clock, events, processes.

Design notes
------------
* The event queue is a binary heap of ``(time, sequence, event)``; the
  sequence number makes ordering total and the whole simulation
  deterministic — two runs of the same program produce identical schedules.
* ``SimEvent`` is the single synchronization primitive. Everything else
  (timeouts, resource grants, queue slots, process completion) is expressed
  as an event that triggers with a value or an exception.
* Processes are generators resumed by the kernel. A process that raises
  propagates the exception to joiners; a failure nobody observes aborts the
  simulation rather than passing silently.
* Dispatch does no work that models nothing. Event names are static
  strings (``"timeout"``, ``"put"``, ``"completion"``, ...), never
  formatted per event; errors name the owning queue, resource or process.
  A new process is its own start entry on the heap: firing it resumes the
  generator directly, with no start event or callback. The kernel keeps
  the set of *alive* processes (added at spawn, removed at exit); a process
  that is alive when the heap drains can never be resumed again, so that
  set is exactly the deadlocked one :class:`DeadlockError` names.
* Dual-clock hook: when a host-time profiler is attached
  (``Simulator.hostprof``, set externally — the kernel never imports
  ``repro.obs``), every event dispatch and every process resume is
  wrapped in a host-ns frame. The profiler only reads ``perf_counter``;
  the virtual schedule is byte-identical with profiling on or off.
"""

from __future__ import annotations

import heapq
import re
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import DeadlockError, SimulationError

ProcessGen = Generator[Any, Any, Any]

#: hostprof bucket names (mirrors repro.obs.hostprof, which we must not import)
_HOSTPROF_KERNEL_BUCKET = "sim-kernel"
_HOSTPROF_ENGINE_BUCKET = "engine"

_DIGIT_RUN = re.compile(r"\d+")


class SimEvent:
    """A one-shot event that may carry a value or an exception.

    Callbacks attached via :meth:`add_callback` run when the event fires.
    Processes that ``yield`` an event are resumed with its value (or the
    exception is thrown into them).
    """

    __slots__ = ("sim", "triggered", "fired", "value", "exception", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.triggered = False  # trigger()/fail() called: fire time is scheduled
        self.fired = False  # callbacks have run
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["SimEvent"], None]] = []
        self.name = name

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        if self.fired:
            # Fire immediately but still via the scheduler to preserve
            # deterministic ordering relative to other pending events.
            self.sim._schedule(0.0, _CallbackEvent(self.sim, callback, self))
        else:
            self._callbacks.append(callback)

    def trigger(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Arrange for this event to fire ``delay`` seconds from now."""
        if self.triggered:
            raise SimulationError(f"event {self.name or id(self)} triggered twice")
        self.triggered = True
        self.value = value
        self.sim._schedule(delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "SimEvent":
        """Arrange for this event to fire with an exception."""
        if self.triggered:
            raise SimulationError(f"event {self.name or id(self)} triggered twice")
        self.triggered = True
        self.exception = exception
        self.sim._schedule(delay, self)
        return self

    # -- kernel internals ---------------------------------------------------

    def _fire(self) -> None:
        self.fired = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class _CallbackEvent(SimEvent):
    """Internal: delivers a late-registered callback on an already-fired event."""

    __slots__ = ("_late_callback", "_source")

    def __init__(self, sim: "Simulator", callback: Callable[[SimEvent], None], source: SimEvent):
        super().__init__(sim, name="late-callback")
        self.triggered = True
        self._late_callback = callback
        self._source = source

    def _fire(self) -> None:
        self._late_callback(self._source)


class AllOf(SimEvent):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this fails with the first failure (by fire order).
    """

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.trigger([])
            return
        for event in self._events:
            event.add_callback(self._child_fired)

    def _child_fired(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([e.value for e in self._events])


class AnyOf(SimEvent):
    """Fires when the first child event fires; value is ``(index, value)``."""

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self._events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[SimEvent], None]:
        def on_fire(event: SimEvent) -> None:
            if self.triggered:
                return
            if event.exception is not None:
                self.fail(event.exception)
            else:
                self.trigger((index, event.value))

        return on_fire


class Process:
    """A running generator-coroutine.

    ``completion`` is a :class:`SimEvent` that fires with the generator's
    return value, or fails with its exception. Yielding a ``Process`` from
    another process joins it.
    """

    __slots__ = ("sim", "name", "generator", "completion", "_waited_on", "_prof_label")

    def __init__(self, sim: "Simulator", generator: ProcessGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._prof_label: Optional[str] = None  # cached hostprof label
        self.generator = generator
        self.completion = SimEvent(sim, name="completion")
        self._waited_on = False
        sim._alive.add(self)
        # Kick off at the current time, after already-queued events: the
        # process is its own start entry (see ``_fire``).
        sim._schedule(0.0, self)

    @property
    def alive(self) -> bool:
        return not self.completion.triggered

    # -- kernel internals ---------------------------------------------------

    def _fire(self) -> None:
        """Start: the kernel dispatches a new process like an event."""
        self._resume(None)

    def _resume(self, event: Optional[SimEvent]) -> None:
        """Run to the next yield; ``event`` is the one waited on (None at start)."""
        sim = self.sim
        prof = sim.hostprof
        if prof is not None:
            label = self._prof_label
            if label is None:
                # collapse digit runs so wc.map12 / wc.map3 share one row
                label = self._prof_label = "process:" + _DIGIT_RUN.sub("*", self.name)
            prof.push(_HOSTPROF_ENGINE_BUCKET, label)
        try:
            try:
                if event is None:
                    yielded = self.generator.send(None)
                elif event.exception is not None:
                    yielded = self.generator.throw(event.exception)
                else:
                    yielded = self.generator.send(event.value)
            except StopIteration as stop:
                sim._alive.discard(self)
                self.completion.trigger(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - must forward user errors
                sim._alive.discard(self)
                self.completion.fail(exc)
                sim._note_failure(self, exc)
                return
            if isinstance(yielded, SimEvent):
                event = yielded
            else:
                try:
                    event = self._as_event(yielded)
                except BaseException:
                    # never resumable, and never blocked on an event either
                    sim._alive.discard(self)
                    raise
            event.add_callback(self._resume)
        finally:
            if prof is not None:
                prof.pop()

    def _as_event(self, yielded: Any) -> SimEvent:
        if isinstance(yielded, Process):
            yielded._waited_on = True
            return yielded.completion
        if isinstance(yielded, (int, float)):
            return self.sim.timeout(float(yielded))
        as_event = getattr(yielded, "as_event", None)
        if as_event is not None:
            return as_event(self.sim)
        raise SimulationError(
            f"process {self.name!r} yielded unsupported object {yielded!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The event loop and virtual clock.

    ``run()`` executes events until the queue drains, a deadline passes, or
    an unobserved process failure aborts the run. Time never goes backwards;
    ties are broken by scheduling order, making runs fully deterministic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, SimEvent | Process]] = []
        self._sequence = 0
        self._alive: set[Process] = set()
        self._failures: list[tuple[Process, BaseException]] = []
        self._processes_started = 0
        #: optional host-time profiler (duck-typed repro.obs.hostprof
        #: HostProfiler); attached externally, never imported here
        self.hostprof = None
        #: optional progress observer (duck-typed repro.obs.live
        #: LiveMonitor); ``tick(now)`` is called after each dispatched
        #: event — read-only, it must never schedule events of its own
        self.progress = None

    # -- public API ----------------------------------------------------------

    def spawn(self, generator: ProcessGen, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        self._processes_started += 1
        return Process(self, generator, name=name or f"p{self._processes_started}")

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that fires ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        event = SimEvent(self, name="timeout")
        event.triggered = True
        event.value = value
        self._schedule(delay, event)
        return event

    def event(self, name: str = "") -> SimEvent:
        """A fresh untriggered event for manual coordination."""
        return SimEvent(self, name=name)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or ``until`` is reached).

        Returns the final virtual time. Raises :class:`DeadlockError` if
        processes remain blocked with no pending events, and re-raises the
        first unobserved process failure. An ``until`` before ``now`` is a
        :class:`SimulationError`: the clock never moves backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is before now={self.now}")
        heap, heappop = self._heap, heapq.heappop
        while heap:
            time, _seq, event = heappop(heap)
            if until is not None and time > until:
                # Put it back; the caller may resume later.
                heapq.heappush(heap, (time, _seq, event))
                self.now = until
                return self.now
            if time < self.now:
                raise SimulationError(f"time went backwards: {time} < {self.now}")
            self.now = time
            prof = self.hostprof
            if prof is None:
                event._fire()
            else:
                prof.push(_HOSTPROF_KERNEL_BUCKET, "dispatch")
                try:
                    event._fire()
                finally:
                    prof.pop()
                prof.tick(self.now)
            progress = self.progress
            if progress is not None:
                progress.tick(self.now)
            if self._failures:
                self._raise_unobserved_failure()
        if self._alive:
            blocked = ", ".join(sorted(p.name for p in self._alive))
            raise DeadlockError(
                f"simulation deadlocked at t={self.now:g}: blocked processes: {blocked}"
            )
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    # -- kernel internals ----------------------------------------------------

    def _schedule(self, delay: float, event: SimEvent | Process) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _note_failure(self, process: Process, exc: BaseException) -> None:
        if not process._waited_on and not process.completion._callbacks:
            self._failures.append((process, exc))

    def _raise_unobserved_failure(self) -> None:
        process, exc = self._failures[0]
        raise SimulationError(
            f"process {process.name!r} failed with unobserved exception"
        ) from exc
