"""Workloads, timed passes and output checks of the host-time benchmark.

A *pass* runs every (input, engine) pair of one workload once, each on a
fresh environment, through the public ``repro.evaluation`` API. Every
run's output is compared with the app's pure-Python ``reference``; at the
default seed and the reference fidelity its virtual makespan must also
equal the pinned value below. A run that raises, disagrees, or moves the
makespan counts as failed.

Times are reported at a reference host speed. On a shared machine the
host's speed drifts by up to 2x within minutes (another tenant on the same
core), and no run length this benchmark can afford averages that away. So
a fixed pure-Python loop that shares no code with the program runs before,
during and after every timed interval (see HostClock), and the interval's
seconds are scaled by ``REFERENCE_LOOP_S`` over the loop's mean time.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Raises ImportError when the checkout holds no ``src/repro`` or when the
    import resolves to a copy outside this checkout.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    import repro.evaluation.runner  # noqa: F401 - imported here, outside every timed region
    import repro.evaluation.workloads  # noqa: F401

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    return repro


ENGINES = ("hamr", "hadoop")
REFERENCE_FIDELITY = "small"
DEFAULT_SEED = 0

#: workload -> (apps, journal on). Why each was chosen is in
#: BENCHMARK.json and README.md: ``text`` stresses size accounting, hashing
#: and the data plane; ``numeric`` the sim kernel and bypasses ``common``;
#: ``journaled`` is the only one that drives ``obs``. It runs one graph: a
#: journaled KCliques pass over both engines takes ~12 s, so two passes
#: fit the run length and a traced run stays well inside its time limit.
WORKLOADS: dict[str, tuple[tuple[str, ...], bool]] = {
    "text": (("wordcount", "histogram_ratings", "naive_bayes"), False),
    "numeric": (("kmeans", "classification", "histogram_movies"), False),
    "journaled": (("kcliques",), True),
}

#: Virtual makespans (seconds, 6 decimals) at seed 0, ``small`` fidelity:
#: the ``virtual_seconds`` of the committed BENCH_obs.json.
PINNED_MAKESPANS: dict[tuple[str, str], float] = {
    ("wordcount", "hamr"): 41.223654,
    ("wordcount", "hadoop"): 51.570534,
    ("histogram_ratings", "hamr"): 254.628148,
    ("histogram_ratings", "hadoop"): 86.767924,
    ("naive_bayes", "hamr"): 45.198996,
    ("naive_bayes", "hadoop"): 181.495312,
    ("kmeans", "hamr"): 113.095808,
    ("kmeans", "hadoop"): 1653.844783,
    ("classification", "hamr"): 109.480978,
    ("classification", "hadoop"): 1406.228995,
    ("histogram_movies", "hamr"): 30.400158,
    ("histogram_movies", "hadoop"): 49.048034,
    ("kcliques", "hamr"): 55.480167,
    ("kcliques", "hadoop"): 1000.616038,
}


def reference_output(name: str, workload):
    """The pure-Python answer of app ``name`` for its generated input."""
    from repro.apps import classification, histograms, kcliques, kmeans, naive_bayes, wordcount

    records, params = workload.records, workload.params
    references: dict[str, Callable[[], object]] = {
        "wordcount": lambda: wordcount.reference(records),
        "histogram_ratings": lambda: histograms.reference_ratings(records),
        "naive_bayes": lambda: naive_bayes.reference(records),
        "kmeans": lambda: kmeans.reference(records, params.k),
        "classification": lambda: classification.reference(records, params.k),
        "histogram_movies": lambda: histograms.reference_movies(records),
        "kcliques": lambda: kcliques.reference(records, params.k),
    }
    return references[name]()


@dataclass
class Plan:
    """What one benchmark invocation runs and checks against."""

    workload: str
    seed: int = DEFAULT_SEED
    fidelity: str = REFERENCE_FIDELITY
    #: (input, engine) -> expected makespan; None skips the pin check
    pinned: Optional[dict] = None

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; pick from {sorted(WORKLOADS)}")
        if self.pinned is None and self.seed == DEFAULT_SEED and self.fidelity == REFERENCE_FIDELITY:
            self.pinned = PINNED_MAKESPANS

    @property
    def inputs(self) -> tuple[str, ...]:
        return WORKLOADS[self.workload][0]

    @property
    def journal(self) -> bool:
        return WORKLOADS[self.workload][1]


#: The reference loop's median time on the 2-vCPU Intel Xeon VM this
#: benchmark was written on; scaled seconds are host seconds at that speed.
REFERENCE_LOOP_S = 0.0055
#: loops before and after an interval (their median is one sample)
LOOP_REPEATS = 5
#: host seconds between loop samples during an interval
SAMPLE_EVERY_S = 0.25
#: a working set of a few thousand string keys, like the apps' accumulators,
#: so the loop slows under cache contention as the program does
_LOOP_KEYS = [f"w{i * 2654435761 % 1000003}" for i in range(8192)]


class _Counter:
    __slots__ = ("key", "n")

    def __init__(self, key: str) -> None:
        self.key, self.n = key, 0


def reference_loop(n: int = 3000) -> float:
    """Host seconds of one fixed loop of dict, heap, object and sort work.

    The garbage collector is paused meanwhile: the loop's allocations
    would otherwise start collections over the program's objects, whose
    cost depends on the program, not on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        table: dict[str, _Counter] = {}
        for i in range(n):
            key = _LOOP_KEYS[i * 7919 % len(_LOOP_KEYS)]
            counter = table.get(key)
            if counter is None:
                counter = table[key] = _Counter(key)
            counter.n += len(key)
            heapq.heappush(heap, (i * 31 % 97, i, counter))
            if len(heap) > 256:
                heapq.heappop(heap)
        sorted(table, key=lambda k: table[k].n)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def loop_time() -> float:
    """The reference loop's median time now."""
    return median([reference_loop() for _ in range(LOOP_REPEATS)])


class HostClock:
    """Host and reference-speed seconds of a ``with`` block.

    The reference loop is sampled before and after the block and, on
    SIGALRM, every ``SAMPLE_EVERY_S`` during it: the host's speed moves
    within seconds, so samples at the ends alone do not track a run of
    several seconds. ``wall`` and ``cpu`` exclude the samples taken inside
    the block; ``scale`` turns host seconds into reference-speed seconds.
    """

    def __enter__(self) -> "HostClock":
        self.samples = [loop_time()]
        self._paused_wall = self._paused_cpu = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._c0, self._t0 = time.process_time(), time.perf_counter()
        return self

    def _sample(self, _signum, _frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples.append(reference_loop())
        self._paused_cpu += time.process_time() - c0
        self._paused_wall += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._t0 - self._paused_wall
        self.cpu = time.process_time() - self._c0 - self._paused_cpu
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(loop_time())
        self.scale = REFERENCE_LOOP_S / statistics.fmean(self.samples)


def build_workloads(plan: Plan) -> dict:
    """Generate inputs and size the scale factor (``workload_by_name``)."""
    from repro.evaluation.workloads import workload_by_name

    return {name: workload_by_name(name, plan.fidelity, seed=plan.seed) for name in plan.inputs}


def timed_setup(plan: Plan) -> tuple[float, float, dict]:
    """One set-up: input generation plus scale sizing plus env construction.

    Returns (host seconds, reference-speed seconds, workloads).
    """
    with HostClock() as clock:
        workloads = build_workloads(plan)
        for w in workloads.values():
            for _engine in ENGINES:
                w.fresh_env(obs=plan.journal)
    return clock.wall, clock.wall * clock.scale, workloads


@dataclass
class PassResult:
    """Host times, makespans and failures of one pass over a workload."""

    #: (input, engine) -> host seconds, and process CPU seconds, of that run
    wall: dict = field(default_factory=dict)
    cpu: dict = field(default_factory=dict)
    #: (input, engine) -> HostClock.scale of that run
    scale: dict = field(default_factory=dict)
    makespans: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Host seconds of the pass."""
        return sum(self.wall.values())

    @property
    def scaled_wall_s(self) -> float:
        """Reference-speed seconds of the pass."""
        return sum(t * self.scale[key] for key, t in self.wall.items())


def run_pass(plan: Plan, workloads: dict, expected: dict, on_run=None) -> PassResult:
    """Run every (input, engine) pair once and check each output.

    ``on_run(input, engine)``, when given, is a context-manager factory
    entered around each run (the traced pass uses it to attribute counts
    to an engine).
    """
    from repro.evaluation.runner import run_workload

    out = PassResult()
    for name in plan.inputs:
        for engine in ENGINES:
            out.attempted += 1
            # the previous run's environment sits in reference cycles; free
            # it here so no run pays for collecting another run's garbage
            gc.collect()
            error = None
            hook = on_run(name, engine) if on_run else contextlib.nullcontext()
            with HostClock() as clock, hook:
                try:
                    row = run_workload(workloads[name], engines=engine, journal=plan.journal or None)
                except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
                    error = exc
            key = (name, engine)
            out.wall[key], out.cpu[key], out.scale[key] = clock.wall, clock.cpu, clock.scale
            if error is not None:
                out.failures.append(f"{name}/{engine}: raised {type(error).__name__}: {error}")
                continue
            result = row.hamr_result if engine == "hamr" else row.hadoop_result
            problem = check_run(plan, name, engine, result, expected[name])
            if problem:
                out.failures.append(f"{name}/{engine}: {problem}")
            else:
                out.makespans[(name, engine)] = result.makespan
    return out


def check_run(plan: Plan, name: str, engine: str, result, expected) -> Optional[str]:
    """Why a run's result is wrong, or None when it is right."""
    if result is None or result.output is None:
        return "missing output"
    if result.output != expected:
        return "output differs from the reference"
    if plan.pinned is not None:
        pin = plan.pinned.get((name, engine))
        if pin is None:
            return "no pinned makespan"
        if round(result.makespan, 6) != pin:
            return f"makespan {result.makespan:.6f} != pinned {pin:.6f}"
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def high_percentile(values: list[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(values: list[float]) -> float:
    return statistics.median(values)


def median_total(
    passes: list[PassResult], field_name: str, engine: Optional[str] = None, scaled: bool = True
) -> float:
    """Sum over the (input, engine) runs of each run's median over passes,
    in reference-speed seconds (host seconds when not ``scaled``).

    Taking the median per run before summing filters a slow stretch of
    the shared host that hits different runs in different passes.
    """
    runs = getattr(passes[0], field_name)
    return sum(
        median([getattr(p, field_name)[key] * (p.scale[key] if scaled else 1.0) for p in passes])
        for key in runs
        if engine is None or key[1] == engine
    )
