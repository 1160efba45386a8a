"""Host-time benchmark of the HAMR/Hadoop simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload text --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up is repeated (at least three times) and its median reported, then
whole passes over the workload's (input, engine) runs repeat: at least two,
and more while the next should end within ``--seconds``. Each time is the
sum over the runs of that run's median over passes, in seconds at the
reference host speed (see harness.py); the host seconds are printed beside
them. ``--trace 1`` makes one
untraced pass and two traced ones, whatever ``--seconds`` says, and reports
the per-layer metrics (see README.md). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import harness
import layers

#: set-up repeats: at least MIN, then more until SETUP_BUDGET_S is spent
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 1.0
MIN_PASSES = 2
#: a traced run makes one untraced pass (the base of trace_overhead), then two traced
BASE_PASSES, TRACED_PASSES = 1, 2


def measure_untraced(plan: harness.Plan, seconds: float, min_passes: int = MIN_PASSES) -> dict:
    """Set-up and untraced passes; returns the end-to-end measurements."""
    setups: list[float] = []
    scaled_setups: list[float] = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        elapsed, scaled, workloads = harness.timed_setup(plan)
        setups.append(elapsed)
        scaled_setups.append(scaled)
    expected = {name: harness.reference_output(name, w) for name, w in workloads.items()}
    passes = []
    start = time.perf_counter()
    # at least min_passes; another only while it should end within `seconds`
    while len(passes) < min_passes or (
        time.perf_counter() - start + harness.median([p.wall_s for p in passes]) <= seconds
    ):
        passes.append(harness.run_pass(plan, workloads, expected))
    return {
        "setups": setups,
        "scaled_setups": scaled_setups,
        "workloads": workloads,
        "expected": expected,
        "passes": passes,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def end_to_end_metrics(m: dict, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, in reference-speed seconds (host seconds when not ``scaled``)."""
    passes = m["passes"]

    def total(*args):
        return harness.median_total(passes, *args, scaled=scaled)

    return {
        "wall_s": (total("wall"), "s"),
        "cpu_s": (total("cpu"), "s"),
        "hamr_wall_s": (total("wall", "hamr"), "s"),
        "hadoop_wall_s": (total("wall", "hadoop"), "s"),
        "setup_s": (harness.median(m["scaled_setups" if scaled else "setups"]), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def traced_passes(plan: harness.Plan, m: dict) -> tuple[dict, list[str], list]:
    """Two traced passes; returns (per-layer metrics, problems, pass results)."""
    problems: list[str] = []
    traces, results = [], []
    untraced_makespans = m["passes"][0].makespans
    for _ in range(TRACED_PASSES):
        trace = layers.LayerTrace()
        layers.install(trace)
        try:
            stale = trace.stale_references()
            if stale:
                problems.append("wrapped functions still held unwrapped: " + "; ".join(stale))
            workloads = harness.build_workloads(plan)
            # set-up sizes every generated record; keep that out of the engine layers
            trace.clear(keep="data.")
            per_engine: dict[tuple, dict] = {}
            result = harness.run_pass(
                plan, workloads, m["expected"],
                on_run=functools.partial(engine_delta, trace, per_engine),
            )
        finally:
            trace.restore()
        traces.append(trace)
        results.append(result)
        if result.makespans != untraced_makespans:
            problems.append("traced virtual makespans differ from the untraced ones")
        for (name, engine), delta in per_engine.items():
            storage = sum(v for k, v in delta.items() if k.startswith("storage."))
            if engine == "hadoop" and storage <= 0:
                problems.append(f"{name}/hadoop: no storage calls")
    first, second = (t.counts() for t in traces)
    diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    if diff:
        problems.append("counts differ between traced passes: " + ", ".join(diff))
    input_bytes = float(sum(w.real_bytes for w in m["workloads"].values()))
    per_pass = [layers.layer_metrics(t, input_bytes) for t in traces]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = harness.median([p[name][0] for p in per_pass])
        metrics[name] = (value, unit)
    if not plan.journal:
        busy = {k: v for k, v in metrics.items() if k.startswith("obs.") and v[0]}
        if busy:
            problems.append(f"obs recorded work on an unjournaled workload: {sorted(busy)}")
    untraced_wall = harness.median_total(m["passes"], "wall")
    traced_wall = harness.median_total(results, "wall")
    metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    return metrics, problems, results


@contextlib.contextmanager
def engine_delta(trace: layers.LayerTrace, per_engine: dict, name: str, engine: str):
    """Record in ``per_engine`` the call counts one (input, engine) run adds."""
    before = dict(trace.calls)
    yield
    per_engine[(name, engine)] = {
        k: n - before.get(k, 0) for k, n in trace.calls.items() if n != before.get(k, 0)
    }


def describe(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<34} {value:>16.6f} {unit:<6} {note}".rstrip()


def run(plan: harness.Plan, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints a report and returns the result object."""
    # journal headers name the commit; fix it so no git subprocess runs
    os.environ.setdefault("REPRO_GIT_COMMIT", "perfbench")
    m = measure_untraced(plan, 0, BASE_PASSES) if trace else measure_untraced(plan, seconds)
    passes = m["passes"]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    walls = [p.scaled_wall_s for p in passes]
    e2e = end_to_end_metrics(m)
    host = end_to_end_metrics(m, scaled=False)
    print(f"workload {plan.workload}  seed {plan.seed}  fidelity {plan.fidelity}  "
          f"inputs {','.join(plan.inputs)}  passes {len(passes)}  "
          f"pinned makespans {'checked' if plan.pinned else 'skipped'}")
    for name, (value, unit) in e2e.items():
        note = f"host {host[name][0]:.6f} {unit}; " if unit == "s" else ""
        if name == "wall_s":
            hi = harness.high_percentile(walls)
            note += (f"sum of per-run medians over n={len(walls)} passes; "
                    + (f"p{hi[0]:.0f} {hi[1]:.6f} s" if hi else "no percentile has 10 passes above it"))
        elif name == "setup_s":
            note += f"median of {len(m['setups'])} set-ups"
        print(describe(name, value, unit, note))
    problems: list[str] = []
    metrics = e2e
    if trace:
        metrics, problems, results = traced_passes(plan, m)
        attempted += sum(r.attempted for r in results)
        failures += [f for r in results for f in r.failures]
        for name, (value, unit) in metrics.items():
            print(describe(name, value, unit))
    failed = len(failures)
    print(describe("failed_runs", failed / attempted, "share", f"{failed}/{attempted} runs"))
    for line in failures + problems:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {harness.SRC}: {exc}", file=sys.stderr)
        return 2
    plan = harness.Plan(args.workload, seed=args.seed)
    result = run(plan, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
