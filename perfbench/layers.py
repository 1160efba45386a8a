"""Per-layer call tracing for the traced benchmark run.

Wraps the public entry points of each layer of ``repro`` from outside the
program: a wrapper counts calls and, where timed, records its duration and
its *self time* (duration minus the time of wrapped calls made inside it).
Generator functions (the sim processes of ``storage``) are timed per
resume, so the virtual-clock waits between resumes are not host time.

Module-level functions such as ``logical_sizeof`` are imported by name in
many modules and captured as default arguments, so patching the defining
module alone would undercount silently. :meth:`LayerTrace.wrap_function`
rebinds every ``repro`` module attribute and every function default that
holds the original, and :meth:`LayerTrace.stale_references` asserts that
nothing outside the tracer still does.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Optional

perf_counter = time.perf_counter


class LayerTrace:
    """Call counts, sums and host times per key, plus the patches that feed them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: time of wrapped children, one slot per open wrapper (bottom: root)
        self._stack: list[float] = [0.0]
        #: (owner, attribute, original) in patch order, undone in reverse
        self._undo: list[tuple[Any, str, Any]] = []
        #: original -> wrapper, for every wrapped module-level function
        self._wrapped: dict[Callable, Callable] = {}

    # -- accounting ----------------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.sums[key] += amount

    def clear(self, keep: str = "") -> None:
        """Forget every count, sum and time except those of keys starting with ``keep``."""
        for table in (self.calls, self.sums, self.total_s, self.self_s):
            for key in [k for k in table if not (keep and k.startswith(keep))]:
                del table[key]

    def counts(self) -> dict[str, float]:
        """Every call count and sum (the parts that must repeat exactly)."""
        out = {f"{k}#calls": v for k, v in self.calls.items() if v}
        out.update({f"{k}#sum": v for k, v in self.sums.items() if v})
        return out

    def _close(self, key: str, t0: float) -> None:
        dt = perf_counter() - t0
        stack = self._stack
        child = stack.pop()
        self.total_s[key] += dt
        self.self_s[key] += dt - child
        stack[-1] += dt

    # -- wrappers ------------------------------------------------------------------

    def timed(
        self,
        key: str,
        fn: Callable,
        after: Optional[Callable] = None,
        when: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn``: count calls and time them under ``key``.

        ``after(args, kwargs, result)`` runs after each counted call;
        ``when(args)`` false passes the call through uncounted.
        """
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(key, fn, after)
        calls, stack, close = self.calls, self._stack, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            calls[key] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(key, t0)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``: count calls only (its time stays with the caller)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _timed_generator(self, key: str, fn: Callable, after: Optional[Callable]) -> Callable:
        calls, stack, close = self.calls, self._stack, self._close

        def resumes(gen, args, kwargs):
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    close(key, t0)
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into the wrapped process
                    error = exc
            if after is not None:
                after(args, kwargs, result)
            return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            gen = resumes(fn(*args, **kwargs), args, kwargs)
            gen.__name__, gen.__qualname__ = fn.__name__, fn.__qualname__
            return gen

        return wrapper

    # -- patching ------------------------------------------------------------------

    def patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def wrap_method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``make(original)``."""
        self.patch(cls, name, make(cls.__dict__[name]))

    def wrap_overrides(self, base: type, names: tuple, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``names`` on ``base`` and on every subclass that defines its own."""
        for cls in dict.fromkeys([base, *all_subclasses(base)]):
            for name in names:
                if isinstance(cls.__dict__.get(name), types.FunctionType):
                    self.wrap_method(cls, name, make)

    def wrap_function(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere ``repro`` holds it."""
        if fn in self._wrapped:
            return
        new = self._wrapped[fn] = make(fn)
        for module in repro_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, name, new)
        for func in repro_functions():
            for attr in ("__defaults__", "__kwdefaults__"):
                defaults = getattr(func, attr)
                if defaults is None:
                    continue
                if attr == "__defaults__" and any(d is fn for d in defaults):
                    self._undo.append((func, attr, defaults))
                    func.__defaults__ = tuple(new if d is fn else d for d in defaults)
                elif attr == "__kwdefaults__" and any(d is fn for d in defaults.values()):
                    self._undo.append((func, attr, defaults))
                    func.__kwdefaults__ = {k: new if d is fn else d for k, d in defaults.items()}

    def stale_references(self) -> list[str]:
        """Places other than this tracer that still hold a wrapped original.

        Collects garbage first: environments of earlier runs sit in
        reference cycles and would otherwise be reported. Frames and
        closure cells are not inspected.
        """
        gc.collect()
        own = {id(self._undo), id(self._wrapped), *(id(entry) for entry in self._undo)}
        own.update(id(entry[2]) for entry in self._undo)
        own.update(id(getattr(new, "__dict__", None)) for new in self._wrapped.values())
        stale = []
        for fn in self._wrapped:
            for ref in gc.get_referrers(fn):
                if id(ref) in own or isinstance(ref, (types.FrameType, types.CellType)):
                    continue
                stale.append(f"{fn.__module__}.{fn.__qualname__} held by {type(ref).__name__}")
        return stale

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._wrapped.clear()


def all_subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(all_subclasses(sub))
    return out


def repro_modules() -> list[types.ModuleType]:
    return [
        m for name, m in list(sys.modules.items())
        if isinstance(m, types.ModuleType) and (name == "repro" or name.startswith("repro."))
    ]


def repro_functions() -> list[types.FunctionType]:
    """Module-level functions and class methods defined in ``repro``."""
    out = []
    for module in repro_modules():
        for value in vars(module).values():
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                out.append(value)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr in vars(value).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    if isinstance(attr, types.FunctionType):
                        out.append(attr)
    return out


def _arg(name: str, pos: int) -> Callable:
    """Read argument ``name`` (at positional index ``pos``, self included)."""

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs[name]

    return get


def install(trace: LayerTrace) -> None:
    """Wrap the entry points of every measured layer of ``repro``."""
    import repro.apps as apps_pkg
    import repro.evaluation.workloads  # noqa: F401 - imports every app and layer
    from repro.cluster.memory import MemoryAccount
    from repro.cluster.network import Network
    from repro.cluster.node import Node
    from repro.common.partitioner import stable_hash
    from repro.common.sizeof import logical_sizeof, pair_size
    from repro.core.bins import BinPacker
    from repro.core.context import TaskContext
    from repro.core.engine import HamrEngine
    from repro.core.flowlet import Loader, Map, PartialReduce, Reduce
    from repro.dataplane.batch import RecordBatch, batch_nbytes
    from repro.dataplane.exchange import partition_batch, spill_batch
    from repro.dataplane.fabrics import ExchangeFabric
    from repro.mapreduce.api import Mapper, MRContext, Reducer
    from repro.mapreduce.engine import HadoopEngine
    from repro.obs.journal import JournalWriter
    from repro.obs.spans import Span, Tracer
    from repro.obs.telemetry import TimelineSampler, TrafficMatrix
    from repro.sim.core import Simulator
    from repro.sim.queues import SimQueue
    from repro.sim.resources import Resource
    from repro.storage.dfs import DFS
    from repro.storage.kvstore import KVStore
    from repro.storage.localfs import LocalFS
    from repro.storage.spill import SpillManager

    t = trace

    def timed(key, after=None, when=None):
        return lambda fn: t.timed(key, fn, after=after, when=when)

    def counted(key, after=None):
        return lambda fn: t.counted(key, fn, after=after)

    # sim: the kernel's event loop; events are the scheduler's sequence delta
    def with_events(run):
        @functools.wraps(run)
        def events_run(sim, *args, **kwargs):
            seq = sim._sequence
            try:
                return run(sim, *args, **kwargs)
            finally:
                t.add("sim.events", sim._sequence - seq)

        return t.timed("sim.run", events_run)

    t.wrap_method(Simulator, "run", with_events)
    t.wrap_method(Simulator, "spawn", counted("sim.spawns"))
    t.wrap_method(Resource, "acquire", counted("sim.resource_acquires"))
    t.wrap_method(SimQueue, "put", counted(
        "sim.queue_puts", after=lambda a, k, event: t.add("sim.queue_put_blocked", not event.triggered)
    ))
    t.wrap_method(SimQueue, "try_put", counted(
        "sim.queue_puts", after=lambda a, k, ok: t.add("sim.queue_put_blocked", not ok)
    ))

    # cluster: modeled network, disk and memory traffic (pre-scale logical bytes)
    nbytes3, nbytes1 = _arg("nbytes", 3), _arg("nbytes", 1)
    t.wrap_method(Network, "send", counted(
        "cluster.net_sends", after=lambda a, k, r: t.add("cluster.net_bytes", nbytes3(a, k))
    ))
    t.wrap_method(Node, "disk_read", counted(
        "cluster.disk_reads", after=lambda a, k, r: t.add("cluster.disk_read_bytes", nbytes1(a, k))
    ))
    t.wrap_method(Node, "disk_write", counted(
        "cluster.disk_writes", after=lambda a, k, r: t.add("cluster.disk_write_bytes", nbytes1(a, k))
    ))
    t.wrap_method(MemoryAccount, "allocate", counted(
        "cluster.mem_allocs", after=lambda a, k, ok: t.add("cluster.mem_alloc_fail", not ok)
    ))

    # common: size accounting and partition hashing, rebound at every import site
    t.wrap_function(logical_sizeof, timed("sizeof"))
    t.wrap_function(pair_size, timed("sizeof"))
    t.wrap_function(stable_hash, timed("hash"))

    # core: HAMR's engine, emit path, bin packing and user flowlet code
    t.wrap_method(HamrEngine, "run", timed("core.run"))
    t.wrap_method(TaskContext, "emit", timed("core.emit"))
    t.wrap_method(TaskContext, "kv_put", counted("core.kv_put"))
    t.wrap_method(BinPacker, "add", timed(
        "core.bins.add", after=lambda a, k, sealed: t.add("core.bins.sealed", sealed is not None)
    ))
    t.wrap_overrides(Loader, ("load",), timed("core.udf"))
    t.wrap_overrides(Map, ("map",), timed("core.udf"))
    t.wrap_overrides(Reduce, ("reduce",), timed("core.udf"))
    t.wrap_overrides(PartialReduce, ("combine", "finalize"), timed("core.udf"))

    # mapreduce: the Hadoop baseline's job driver, emit path and user code
    t.wrap_method(HadoopEngine, "run", timed("mapreduce.run"))
    t.wrap_method(MRContext, "emit", counted("mapreduce.emit"))
    t.wrap_overrides(Mapper, ("map",), timed("mapreduce.udf"))
    t.wrap_overrides(Reducer, ("reduce",), timed("mapreduce.udf"))

    # dataplane: partitioning, spill staging, sorting, batch sizing, routing
    t.wrap_function(partition_batch, timed("dataplane.partition_batch"))
    t.wrap_function(spill_batch, counted("dataplane.spill_batch"))
    t.wrap_function(batch_nbytes, timed("dataplane.batch_nbytes"))
    t.wrap_method(RecordBatch, "sort", timed("dataplane.sort"))
    t.wrap_overrides(ExchangeFabric, ("plan",), counted("dataplane.fabric_plan"))

    # storage: DFS blocks, node-local files, spill runs, the key-value store
    t.wrap_method(DFS, "read_block", timed("storage.dfs_read_block"))
    t.wrap_method(DFS, "write", timed("storage.dfs_write"))
    for name in ("ingest", "place", "resolve", "write", "read", "read_ref"):
        t.wrap_method(LocalFS, name, timed("storage.localfs"))
    t.wrap_method(SpillManager, "spill", timed(
        "storage.spill", after=lambda a, k, run: t.add("storage.spill_bytes", run.nbytes)
    ))
    t.wrap_method(SpillManager, "read_back", timed(
        "storage.read_back", after=lambda a, k, r: t.add("storage.readback_bytes", a[1].nbytes)
    ))
    t.wrap_method(KVStore, "put", timed("storage.kv_put"))

    # data: the apps' input generators
    for module in vars(apps_pkg).values():
        gen = getattr(module, "generate_input", None)
        if isinstance(module, types.ModuleType) and gen is not None:
            t.wrap_function(gen, timed(
                "data.gen", after=lambda a, k, records: t.add("data.records", len(records))
            ))

    # obs: only calls that record something (a disabled tracer is a no-op)
    def enabled(args):
        return args[0].enabled

    t.wrap_method(Tracer, "span", timed("obs.span", when=enabled))
    t.wrap_method(Tracer, "charge", timed("obs.charge", when=enabled))
    for name in ("edge", "count", "gauge_set", "observe", "sample", "progress_total", "progress_done"):
        t.wrap_method(Tracer, name, timed("obs.tracer", when=enabled))
    t.wrap_method(Span, "finish", timed("obs.span_finish"))
    t.wrap_method(TrafficMatrix, "charge", timed("obs.traffic"))
    for name in ("record_step", "record_interval"):
        t.wrap_method(TimelineSampler, name, timed("obs.timeline", when=enabled))
    t.wrap_method(JournalWriter, "emit", timed("obs.journal"))


def _ok_ratio(failed: float, attempts: float) -> float:
    """Share of attempts that succeeded; 1.0 when nothing was attempted."""
    return (attempts - failed) / attempts if attempts else 1.0


def layer_metrics(trace: LayerTrace, input_bytes: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) of one traced pass.

    ``input_bytes`` is the logical size of the generated inputs, measured
    outside the traced pass.
    """
    c, s, tot, sf = trace.calls, trace.sums, trace.total_s, trace.self_s

    def self_of(prefix: str) -> float:
        return sum(v for k, v in sf.items() if k.startswith(prefix))

    return {
        "sim.run.self_s": (sf["sim.run"], "s"),
        "sim.events": (s["sim.events"], "count"),
        "sim.spawns": (c["sim.spawns"], "count"),
        "sim.resource_acquires": (c["sim.resource_acquires"], "count"),
        "sim.queue_puts": (c["sim.queue_puts"], "count"),
        "sim.queue_put_blocked": (s["sim.queue_put_blocked"], "count"),
        "sim.queue_put_ok_ratio": (_ok_ratio(s["sim.queue_put_blocked"], c["sim.queue_puts"]), "ratio"),
        "cluster.net_sends": (c["cluster.net_sends"], "count"),
        "cluster.net_bytes": (s["cluster.net_bytes"], "bytes"),
        "cluster.disk_read_bytes": (s["cluster.disk_read_bytes"], "bytes"),
        "cluster.disk_write_bytes": (s["cluster.disk_write_bytes"], "bytes"),
        "cluster.mem_alloc_fail": (s["cluster.mem_alloc_fail"], "count"),
        "cluster.mem_alloc_ok_ratio": (_ok_ratio(s["cluster.mem_alloc_fail"], c["cluster.mem_allocs"]), "ratio"),
        "sizeof.calls": (c["sizeof"], "count"),
        "sizeof.self_s": (sf["sizeof"], "s"),
        "hash.calls": (c["hash"], "count"),
        "hash.self_s": (sf["hash"], "s"),
        "core.run.s": (tot["core.run"], "s"),
        "core.emit.calls": (c["core.emit"], "count"),
        "core.emit.self_s": (sf["core.emit"], "s"),
        "core.bins.add.calls": (c["core.bins.add"], "count"),
        "core.bins.sealed": (s["core.bins.sealed"], "count"),
        "core.bins.add.self_s": (sf["core.bins.add"], "s"),
        "core.kv_put.calls": (c["core.kv_put"], "count"),
        "core.udf.self_s": (sf["core.udf"], "s"),
        "mapreduce.run.s": (tot["mapreduce.run"], "s"),
        "mapreduce.jobs": (c["mapreduce.run"], "count"),
        "mapreduce.emit.calls": (c["mapreduce.emit"], "count"),
        "mapreduce.udf.self_s": (sf["mapreduce.udf"], "s"),
        "dataplane.partition_batch.calls": (c["dataplane.partition_batch"], "count"),
        "dataplane.partition_batch.self_s": (sf["dataplane.partition_batch"], "s"),
        "dataplane.spill_batch.calls": (c["dataplane.spill_batch"], "count"),
        "dataplane.sort.self_s": (sf["dataplane.sort"], "s"),
        "dataplane.batch_nbytes.self_s": (sf["dataplane.batch_nbytes"], "s"),
        "dataplane.fabric_plan.calls": (c["dataplane.fabric_plan"], "count"),
        "storage.dfs_read_blocks": (c["storage.dfs_read_block"], "count"),
        "storage.dfs_write.calls": (c["storage.dfs_write"], "count"),
        "storage.localfs.self_s": (sf["storage.localfs"], "s"),
        "storage.spill_runs": (c["storage.spill"], "count"),
        "storage.spill_bytes": (s["storage.spill_bytes"], "bytes"),
        "storage.readback_bytes": (s["storage.readback_bytes"], "bytes"),
        "storage.kv_puts": (c["storage.kv_put"], "count"),
        "storage.self_s": (self_of("storage."), "s"),
        "data.gen_s": (tot["data.gen"], "s"),
        "data.records": (s["data.records"], "count"),
        "data.input_bytes": (input_bytes, "bytes"),
        "obs.spans": (c["obs.span"], "count"),
        "obs.charges": (c["obs.charge"], "count"),
        "obs.journal_records": (c["obs.journal"], "count"),
        "obs.journal.self_s": (sf["obs.journal"], "s"),
        "obs.self_s": (self_of("obs."), "s"),
    }
