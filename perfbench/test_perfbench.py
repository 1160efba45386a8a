"""Tests of the host-time benchmark itself, at the ``tiny`` fidelity.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import re
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

import harness
import layers
import run

harness.import_program()

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def traced(request):
    plan = harness.Plan(request.param, fidelity="tiny")
    return plan, run.run(plan, seconds=0, trace=True)


def test_smoke_run_is_correct(traced):
    plan, result = traced
    assert result["correct"], result
    assert result["failed"] == 0
    passes = run.BASE_PASSES + run.TRACED_PASSES
    assert result["attempted"] == passes * len(harness.ENGINES) * len(plan.inputs)


def test_traced_run_reports_every_per_layer_metric(traced):
    _plan, result = traced
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_obs_reads_zero_only_without_journal(traced):
    plan, result = traced
    obs = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("obs.")}
    if plan.journal:
        assert obs["obs.journal_records"] > 0 and obs["obs.spans"] > 0
    else:
        assert not any(obs.values()), obs


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run(harness.Plan("journaled", fidelity="tiny"), seconds=0, trace=False)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, bad
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(harness.WORKLOADS)


def test_wrong_pinned_makespan_counts_one_failed_run():
    plan = harness.Plan("journaled", fidelity="tiny")
    workloads = harness.build_workloads(plan)
    expected = {name: harness.reference_output(name, w) for name, w in workloads.items()}
    first = harness.run_pass(plan, workloads, expected)
    assert not first.failures
    pinned = {key: round(makespan, 6) for key, makespan in first.makespans.items()}
    pinned[("kcliques", "hadoop")] += 1.0
    wrong = harness.Plan("journaled", fidelity="tiny", pinned=pinned)
    result = harness.run_pass(wrong, workloads, expected)
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "kcliques/hadoop: makespan" in result.failures[0]


def test_wrong_reference_counts_a_failed_run():
    plan = harness.Plan("journaled", fidelity="tiny")
    workloads = harness.build_workloads(plan)
    expected = {name: harness.reference_output(name, w) for name, w in workloads.items()}
    expected["kcliques"] = []
    result = harness.run_pass(plan, workloads, expected)
    assert [f.split(":")[0] for f in result.failures] == ["kcliques/hamr", "kcliques/hadoop"]


def test_install_rebinds_every_import_site_and_restores():
    from repro.common import sizeof
    from repro.dataplane import batch
    from repro.storage.dfs import DFS

    original = sizeof.logical_sizeof
    trace = layers.LayerTrace()
    layers.install(trace)
    try:
        assert trace.stale_references() == []
        assert batch.logical_sizeof is not original
        assert batch.pair_nbytes is sizeof.pair_size
        assert DFS.__init__.__defaults__[0] is sizeof.logical_sizeof
        sizeof.logical_sizeof("abc")
        assert trace.calls["sizeof"] >= 1
    finally:
        trace.restore()
    assert sizeof.logical_sizeof is original
    assert batch.logical_sizeof is original
    assert DFS.__init__.__defaults__[0] is original


def test_clear_keeps_only_keys_with_the_prefix():
    trace = layers.LayerTrace()
    trace.calls.update({"sizeof": 3, "data.gen": 1})
    trace.sums["data.records"] = 5.0
    trace.self_s.update({"sizeof": 0.1, "data.gen": 0.2})
    trace.clear(keep="data.")
    assert dict(trace.calls) == {"data.gen": 1}
    assert dict(trace.sums) == {"data.records": 5.0}
    assert dict(trace.self_s) == {"data.gen": 0.2}


def test_generator_wrapper_forwards_send_throw_and_return():
    trace = layers.LayerTrace()

    def process():
        got = yield 1
        try:
            yield got
        except KeyError:
            return "caught"

    gen = trace.timed("g", process)()
    assert gen.__name__ == "process"
    assert next(gen) == 1
    assert gen.send(5) == 5
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError())
    assert stop.value.value == "caught"
    assert trace.calls["g"] == 1 and trace.self_s["g"] >= 0.0


def test_median_total_sums_each_runs_median_pass():
    walls = [(1.0, 5.0), (2.0, 4.0), (9.0, 3.0)]
    passes = [
        harness.PassResult(
            wall={("x", "hamr"): a, ("x", "hadoop"): b}, scale={("x", "hamr"): 2.0, ("x", "hadoop"): 0.5}
        )
        for a, b in walls
    ]
    assert harness.median_total(passes, "wall", scaled=False) == 6.0
    assert harness.median_total(passes, "wall", "hadoop", scaled=False) == 4.0
    assert harness.median_total(passes, "wall") == 6.0
    assert harness.median_total(passes, "wall", "hadoop") == 2.0


def test_host_clock_samples_during_the_block_and_excludes_the_samples():
    with harness.HostClock() as clock:
        end = time.perf_counter() + 3 * harness.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    # one sample at each end, and at least one while the block ran
    assert len(clock.samples) >= 3
    assert 0 < clock.wall < 3 * harness.SAMPLE_EVERY_S
    assert 0 < clock.cpu <= clock.wall + 0.01
    assert clock.scale == pytest.approx(harness.REFERENCE_LOOP_S / statistics.fmean(clock.samples))
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_high_percentile_needs_ten_samples_above():
    assert harness.high_percentile([1.0] * 10) is None
    pct, value = harness.high_percentile([float(i) for i in range(20)])
    assert pct == pytest.approx(50.0) and value == 9.0


def test_runs_without_the_program_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SRC", Path(tmp_path) / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(ImportError):
        harness.import_program()
