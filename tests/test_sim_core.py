"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import DeadlockError, SimulationError
from repro.sim import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_empty_run(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc(sim):
            yield 2.5
            yield 1.5

        sim.spawn(proc(sim))
        assert sim.run() == 4.0

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_clock_is_max_of_parallel_sleeps(self, delays):
        sim = Simulator()

        def sleeper(sim, d):
            yield d

        for d in delays:
            sim.spawn(sleeper(sim, d))
        assert sim.run() == pytest.approx(max(delays))


class TestProcesses:
    def test_join_returns_value(self):
        sim = Simulator()
        results = []

        def child(sim):
            yield 1.0
            return 42

        def parent(sim):
            value = yield sim.spawn(child(sim))
            results.append(value)

        sim.spawn(parent(sim))
        sim.run()
        assert results == [42]

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()
        caught = []

        def child(sim):
            yield 1.0
            raise ValueError("boom")

        def parent(sim):
            try:
                yield sim.spawn(child(sim))
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(parent(sim))
        sim.run()
        assert caught == ["boom"]

    def test_unobserved_failure_aborts(self):
        sim = Simulator()

        def bad(sim):
            yield 1.0
            raise RuntimeError("silent")

        sim.spawn(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_yield_bad_object_raises(self):
        sim = Simulator()

        def bad(sim):
            yield object()

        def parent(sim):
            yield sim.spawn(bad(sim))

        sim.spawn(parent(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_sequential_spawns_are_fifo_at_same_time(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            order.append(tag)
            yield 0.0
            order.append(tag + "!")

        for tag in "abc":
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c", "a!", "b!", "c!"]

    def test_determinism(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(sim, i):
                yield (i * 7) % 3 + 0.5
                log.append((sim.now, i))
                yield 0.25
                log.append((sim.now, -i))

            for i in range(10):
                sim.spawn(worker(sim, i))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestEvents:
    def test_manual_event_value(self):
        sim = Simulator()
        got = []

        def waiter(sim, evt):
            got.append((yield evt))

        evt = sim.event("signal")
        sim.spawn(waiter(sim, evt))

        def firer(sim):
            yield 3.0
            evt.trigger("payload")

        sim.spawn(firer(sim))
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.trigger(1)
        with pytest.raises(SimulationError):
            evt.trigger(2)

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        evt = sim.event()
        evt.trigger("v")
        sim.run()
        fired = []
        evt.add_callback(lambda e: fired.append(e.value))
        sim.run()
        assert fired == ["v"]

    def test_all_of(self):
        sim = Simulator()
        got = []

        def proc(sim):
            values = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            got.append((sim.now, values))

        sim.spawn(proc(sim))
        sim.run()
        assert got == [(3.0, ["a", "b"])]

    def test_all_of_empty(self):
        sim = Simulator()
        done = []

        def proc(sim):
            yield sim.all_of([])
            done.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert done == [0.0]

    def test_any_of_first_wins(self):
        sim = Simulator()
        got = []

        def proc(sim):
            index, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, index, value))

        sim.spawn(proc(sim))
        sim.run()
        assert got == [(1.0, 1, "fast")]


class TestDeadlock:
    def test_detects_deadlock(self):
        sim = Simulator()

        def stuck(sim):
            yield sim.event("never")

        sim.spawn(stuck(sim))
        with pytest.raises(DeadlockError):
            sim.run()

    def test_run_until_pauses(self):
        sim = Simulator()

        def proc(sim):
            yield 10.0

        sim.spawn(proc(sim))
        assert sim.run(until=4.0) == 4.0
        assert sim.pending_events == 1
        assert sim.run() == 10.0


class TestKernelGuards:
    def test_deadlock_names_exactly_the_blocked_processes_sorted(self):
        sim = Simulator()
        never = sim.event("never")

        def stuck(sim):
            yield never

        def done(sim):
            yield 1.0

        def failing(sim):
            yield 0.5
            raise RuntimeError("observed")

        def joiner(sim, child):
            try:
                yield child
            except RuntimeError:
                pass

        for name in ("zeta", "alpha", "mid"):
            sim.spawn(stuck(sim), name=name)
        sim.spawn(done(sim), name="finished")
        sim.spawn(joiner(sim, sim.spawn(failing(sim), name="failed")), name="joiner")
        with pytest.raises(DeadlockError) as info:
            sim.run()
        assert str(info.value).endswith("blocked processes: alpha, mid, zeta")

    def test_same_time_spawns_start_in_spawn_order(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            order.append(tag)
            yield 0.0

        for tag in range(6):
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == list(range(6))

    def test_spawn_from_a_callback_starts_after_queued_events(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            order.append(tag)
            yield 0.0

        def spawn_late(_event):
            order.append("callback")
            sim.spawn(proc(sim, "late"))

        trigger = sim.event("go")
        trigger.add_callback(spawn_late)
        trigger.trigger()
        sim.spawn(proc(sim, "early"))
        queued = sim.timeout(0.0)
        queued.add_callback(lambda _e: order.append("queued"))
        sim.run()
        assert order == ["callback", "early", "queued", "late"]
