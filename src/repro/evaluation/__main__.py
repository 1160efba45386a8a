"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    python -m repro.evaluation table1
    python -m repro.evaluation table2 [--fidelity small]
    python -m repro.evaluation table3 [--fidelity small]
    python -m repro.evaluation fig3a  [--fidelity small]
    python -m repro.evaluation fig3b  [--fidelity small]
    python -m repro.evaluation all    [--fidelity small]
    python -m repro.evaluation bench NAME [--fidelity small]   # one Table 2 row
    python -m repro.evaluation report [--workload wordcount] [--engine both]
                                      [--json out.json] [--chrome trace.json]
    python -m repro.evaluation timeline [--workload wordcount|all] [--engine both]
                                      [--bins 60] [--json out.json]
                                      [--chrome trace.json]
    python -m repro.evaluation diff A.json B.json [--tolerance 0.01]
                                      [--host-tolerance 0.15]
                                      [--fail-on-drift] [--json delta.json]
    python -m repro.evaluation profile [--workload wordcount|all] [--engine both]
                                      [--json prof.json] [--chrome trace.json]
    python -m repro.evaluation calibrate [--workload wordcount|all] [--engine both]
                                      [--json cal.json]
    python -m repro.evaluation journal [--workload wordcount|all] [--engine both]
                                      [--out run]        # run.<wl>.<engine>.journal.jsonl
    python -m repro.evaluation replay run.wordcount.hamr.journal.jsonl
                                      [--view report|timeline|critpath]
                                      [--bins 60] [--json out.json] [--chrome t.json]
    python -m repro.evaluation explain A B   # journal files or workload:engine specs
                                      [--fidelity small] [--json delta.json]
    python -m repro.evaluation watch [WORKLOAD] [ENGINE]
                                      [--interval 25] [--stall-window 300]
                                      [--slo-spec spec.json] [--out run]
                                      [--json watch.json]
    python -m repro.evaluation slo [BENCH.json | WORKLOAD ENGINE]
                                      [--slo-spec spec.json] [--json slo.json]
    python -m repro.evaluation trend [BENCH_history.jsonl]
                                      [--metric virtual_seconds]
                                      [--window N]
                                      [--fail-on-shift] [--json trend.json]
    python -m repro.evaluation whatif <journal | workload:engine>
                                      [--scenario net=2.0,disk=0.5,nodes=16]
                                      [--sweep nodes=4..32]
                                      [--execute | --validate] [--max-error F]
                                      [--emit-journal PATH] [--allow-partial]
                                      [--json whatif.json]
    python -m repro.evaluation corpus ingest <dir-or-journal>
                                      [--index corpus.jsonl] [--allow-partial]
    python -m repro.evaluation corpus ls [--index corpus.jsonl]
                                      [--where workload=wordcount,engine=hamr]
                                      [--json rows.json]
    python -m repro.evaluation corpus show <fingerprint-prefix>
                                      [--index corpus.jsonl] [--json row.json]
    python -m repro.evaluation doctor <specA> <specB>
                                      [--index corpus.jsonl] [--allow-partial]
                                      [--json doctor.json]
    python -m repro.evaluation doctor --shift workload:engine[@fabric][+part]
                                      [--history BENCH_history.jsonl]
                                      [--metric virtual_seconds]
                                      [--index corpus.jsonl] [--json doctor.json]
    python -m repro.evaluation analytics [--index corpus.jsonl]
                                      [--where engine=hamr] [--workers 3]
                                      [--json analytics.json]

Every ``--json PATH`` accepts ``-`` to write the JSON document to stdout
(the human-readable report then goes nowhere — stdout carries only JSON).

Every live-run subcommand (bench/report/timeline/profile/calibrate/
journal/watch/slo and explain's workload:engine specs) accepts
``--fabric {direct,tree,twolevel,rdma}``, ``--partitioner {hash,shard}``
and ``--racks N`` to swap the exchange fabric, partition-ownership
strategy and rack topology (DESIGN.md "Exchange fabrics"). The defaults
reproduce the legacy direct path byte-identically; off-direct runs label
engine columns ``engine@fabric`` and stamp the fabric into journals and
JSON payloads so ``diff``/``explain`` never silently compare across
fabrics.

``journal`` writes one durable JSONL run journal per workload × engine;
``replay`` reconstructs the live run's report/timeline/critical-path
output **byte-identically** from a journal alone (no re-execution), and
``explain`` aligns two runs and attributes their makespan delta to blame
buckets, operators and nodes along the differential critical path. With
``REPRO_OBS_SLOWDOWN=<bucket>=<factor>`` set, ``journal`` additionally
dilates the written journals into a seeded synthetic regression (the
``explain`` self-test in CI).

Journal paths ending in ``.gz`` are transparently gzip-compressed (same
canonical encoding; ``replay`` output stays byte-identical either way),
and a journal whose run died before the footer was written is rejected
with exit code 2 unless ``--allow-partial`` reconstructs a best-effort
footer up to the last complete event.

``corpus`` is the deterministic journal warehouse (:mod:`repro.obs.
corpus`): ``ingest`` scans for ``*.jsonl[.gz]`` journals, replays each
one once, and merges compact summary rows (identity, makespan, blame,
critical path, traffic, straggler stats) into a canonical JSONL index
deduplicated by run fingerprint — re-ingesting is idempotent and the
index is byte-identical across reruns. ``doctor`` resolves two run
specs (journal paths, fingerprint prefixes, or unique
``workload:engine[@fabric][+partitioner]`` selectors) against the index
and chains explain + integrity audit + skew + traffic drift into one
ranked root-cause report with confidence tiers and a ready-to-run
``whatif`` counter-scenario; ``doctor --shift`` consumes a ``trend``
SHIFT verdict and auto-picks the baseline/regressed pair by producing
commit. ``analytics`` exports the index as SQL tables and runs the
canned fleet queries on **both** engines (flowlet compiler and
MapReduce executor), exiting 1 if any query's results diverge.

``whatif`` is the counterfactual capacity-planning engine
(:mod:`repro.obs.whatif`): it loads a run journal (or runs
``workload:engine`` live first), applies a declarative scenario — bucket
speed multipliers (``disk=0.5`` = disk at half speed; aliases
``net``/``cpu``/``io``), ``serde=S``, ``nodes=N`` cluster rescaling,
``fabric=NAME``/``racks=N`` swaps — and reports the predicted makespan
with optimistic/pessimistic bounds. ``--sweep nodes=4..32`` predicts a
capacity curve; ``--execute`` re-runs the one requested scenario for
real and reports the prediction error; ``--validate`` runs the whole
executable validation matrix (identity + bucket dilations + node
rescales + fabric swaps) and ``--max-error F`` turns the worst absolute
error into an exit-1 gate. Bucket-only scenarios are **exact**:
``--emit-journal`` writes the dilated journal, byte-identical to a
``REPRO_OBS_SLOWDOWN``-seeded re-run.

``watch`` runs workloads with the live progress engine on: periodic
virtual-time dashboard frames (per-stage completion, ETA, flow-control
gauges, watchdog verdict), journaled as ``fr`` records so ``replay
--view watch`` re-renders them byte-identically. ``slo`` checks a
committed BENCH artifact — or a live run — against the declarative
per-workload SLO specs and exits 1 on any breach. ``trend`` runs
median+MAD change-point detection over ``BENCH_history.jsonl`` (see
``benchmarks/bench_obs.py --append-history``) and exits 1 with
``--fail-on-shift`` when a sustained shift is detected.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.evaluation.figures import figure3a, figure3b
from repro.evaluation.runner import run_workload
from repro.evaluation.tables import table1, table2, table3
from repro.evaluation.workloads import TABLE2_ORDER, workload_by_name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the HAMR paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=[
            "table1", "table2", "table3", "fig3a", "fig3b", "all", "bench",
            "report", "timeline", "diff", "profile", "calibrate",
            "journal", "replay", "explain", "watch", "slo", "trend",
            "whatif", "corpus", "doctor", "analytics",
        ],
    )
    parser.add_argument(
        "name", nargs="?",
        help="benchmark name for `bench`; baseline artifact A for `diff`; "
        "journal path for `replay`; run A (journal path or workload:engine) "
        "for `explain`; workload (or BENCH artifact for `slo`) for "
        "`watch`/`slo`; history path for `trend`; journal path or "
        "workload:engine for `whatif`; subcommand (ingest/ls/show) for "
        "`corpus`; run A spec (or shifted series with --shift) for `doctor`",
    )
    parser.add_argument(
        "name2", nargs="?",
        help="candidate artifact B for `diff`; run B for `explain`; "
        "engine for `watch`/`slo`; ingest target or show fingerprint for "
        "`corpus`; run B spec for `doctor`",
    )
    parser.add_argument(
        "--fidelity",
        default="small",
        choices=["tiny", "small", "medium"],
        help="real-data budget (small = reference; see DESIGN.md §7)",
    )
    parser.add_argument(
        "--workload",
        default="wordcount",
        help="workload for `report`/`timeline`/`profile`/`calibrate` "
        "(`all` = every Table 2 workload)",
    )
    parser.add_argument(
        "--engine",
        default="both",
        help="engine(s) to trace: both, hamr, or hadoop",
    )
    parser.add_argument(
        "--bins",
        type=int,
        default=60,
        help="time bins per telemetry heatmap row for `timeline` (default 60)",
    )
    parser.add_argument(
        "--fabric",
        default="direct",
        choices=["direct", "tree", "twolevel", "rdma"],
        help="exchange fabric for live runs (bench/report/timeline/profile/"
        "calibrate/journal/watch/slo); direct is the legacy byte-identical "
        "path (see DESIGN.md)",
    )
    parser.add_argument(
        "--partitioner",
        default="hash",
        choices=["hash", "shard"],
        help="partition-ownership strategy: hash (owner = partition %% "
        "workers) or shard (locality-first — owners are the nodes holding "
        "input shards)",
    )
    parser.add_argument(
        "--racks",
        type=int,
        default=None,
        metavar="N",
        help="split the cluster's workers into N racks of contiguous "
        "workers (twolevel defaults to 4 racks when unset; rack traffic "
        "is then split into inter/intra-rack bytes)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the report/diff as JSON (`-` = JSON to stdout, no ASCII report)",
    )
    parser.add_argument(
        "--chrome", metavar="PATH", help="write a Chrome/Perfetto trace-event file"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative virtual-seconds drift tolerance for `diff` (default 1%%)",
    )
    parser.add_argument(
        "--host-tolerance",
        type=float,
        default=0.15,
        help="`diff`: absolute hostprof bucket-share drift band (default 0.15)",
    )
    parser.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="`diff`: exit non-zero when any workload drifts beyond tolerance",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PREFIX",
        help="`journal`/`watch`: output prefix — writes PREFIX.<workload>"
        ".<engine>.journal.jsonl (a PREFIX ending in .jsonl or .jsonl.gz "
        "with a single workload and engine is used as the exact path — "
        ".gz writes a gzip journal; `journal` defaults to `run`, `watch` "
        "writes no journal files unless given)",
    )
    parser.add_argument(
        "--view",
        default="report",
        choices=["report", "timeline", "critpath", "watch"],
        help="`replay`: which derived view to reconstruct (default report)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=25.0,
        metavar="SECONDS",
        help="`watch`: virtual seconds between dashboard frames (default 25)",
    )
    parser.add_argument(
        "--stall-window",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="`watch`: flag STALLED when no tracked counter advances for "
        "this many virtual seconds (default 300)",
    )
    parser.add_argument(
        "--slo-spec", metavar="PATH",
        help="`watch`/`slo`: JSON SLO overrides "
        '({"workload:engine": {"makespan_budget": ...}, "*": {...}})',
    )
    parser.add_argument(
        "--metric",
        default="virtual_seconds",
        choices=["virtual_seconds", "stall_share", "traffic_bytes", "wall_seconds"],
        help="`trend`: which history metric to scan (default virtual_seconds)",
    )
    parser.add_argument(
        "--fail-on-shift",
        action="store_true",
        help="`trend`: exit non-zero when a sustained shift is detected",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=4,
        metavar="N",
        help="`trend`: reference rows required before verdicts (default 4)",
    )
    parser.add_argument(
        "--sustain",
        type=int,
        default=2,
        metavar="N",
        help="`trend`: consecutive out-of-band rows that confirm a shift "
        "(default 2)",
    )
    parser.add_argument(
        "--mad-threshold",
        type=float,
        default=4.0,
        metavar="K",
        help="`trend`: band half-width in robust sigmas (default 4.0)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="`trend`: only scan the last N history rows (default: all)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help="`whatif`: comma-separated counterfactual, e.g. "
        "net=2.0,disk=0.5,nodes=16,fabric=rdma — bucket values are SPEED "
        "multipliers (2.0 = twice as fast); empty/`identity` predicts the "
        "journal's own makespan exactly",
    )
    parser.add_argument(
        "--sweep",
        default=None,
        metavar="KEY=RANGE",
        help="`whatif`: capacity curve over one knob — `nodes=4..32` "
        "(doubling), `nodes=4..16:4` (linear step), `disk=0.25,0.5,2` "
        "(explicit list)",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help="`whatif`: actually run the requested scenario (simulation "
        "re-run) and report the prediction error",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="`whatif`: run the full executable validation matrix "
        "(dilations, node rescales, fabric swaps) and report per-scenario "
        "prediction error",
    )
    parser.add_argument(
        "--max-error",
        type=float,
        default=None,
        metavar="F",
        help="`whatif`: exit 1 when any executed scenario's |prediction "
        "error| exceeds F (e.g. 0.35 = 35%%)",
    )
    parser.add_argument(
        "--emit-journal",
        default=None,
        metavar="PATH",
        help="`whatif`: write the scenario-transformed journal (bucket-only "
        "scenarios; byte-identical to a REPRO_OBS_SLOWDOWN-seeded re-run; "
        "`.gz` compresses)",
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="`replay`/`explain`/`whatif`/`corpus`/`doctor`: accept a "
        "truncated (footer-less) journal and reconstruct a best-effort "
        "footer up to the last complete event (`corpus ingest` additionally "
        "skips undecodable files instead of aborting)",
    )
    parser.add_argument(
        "--index",
        default=None,
        metavar="PATH",
        help="`corpus`/`doctor`/`analytics`: the corpus index file "
        "(default corpus.jsonl)",
    )
    parser.add_argument(
        "--where",
        default=None,
        metavar="COL=VAL,...",
        help="`corpus ls`/`analytics`: keep only index rows matching every "
        "column=value constraint (values parsed as JSON, else strings)",
    )
    parser.add_argument(
        "--shift",
        action="store_true",
        help="`doctor`: treat the run spec as a shifted trend series "
        "(workload:engine[@fabric][+partitioner]), re-run the detector over "
        "--history and auto-pick the baseline/regressed journal pair",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="`doctor --shift`: the BENCH history file "
        "(default BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=3,
        metavar="N",
        help="`analytics`: simulated workers per engine cluster (default 3)",
    )
    args = parser.parse_args(argv)

    if args.racks is not None and args.racks <= 0:
        print(
            f"error: --racks must be positive (got {args.racks})",
            file=sys.stderr,
        )
        return 2
    if args.artifact == "report":
        if args.workload == "all":
            parser.error("report supports a single --workload (not `all`)")
        return _report(args)
    if args.artifact == "timeline":
        return _timeline(args)
    if args.artifact == "profile":
        return _profile(args)
    if args.artifact == "calibrate":
        return _calibrate(args)
    if args.artifact == "watch":
        return _watch(args)
    if args.artifact == "slo":
        return _slo(args)
    if args.artifact == "trend":
        return _trend(args)
    if args.artifact == "diff":
        if not args.name or not args.name2:
            parser.error("diff requires two artifact paths: A.json B.json")
        return _diff(args)
    if args.artifact == "journal":
        return _journal(args)
    if args.artifact == "replay":
        if not args.name:
            parser.error("replay requires a journal path")
        return _replay(args)
    if args.artifact == "explain":
        if not args.name or not args.name2:
            parser.error(
                "explain requires two runs: journal paths or workload:engine specs"
            )
        return _explain(args)
    if args.artifact == "whatif":
        if not args.name:
            parser.error(
                "whatif requires a run: a journal path or workload:engine spec"
            )
        return _whatif(args)
    if args.artifact == "corpus":
        if args.name not in ("ingest", "ls", "show"):
            parser.error("corpus requires a subcommand: ingest, ls or show")
        return _corpus(args)
    if args.artifact == "doctor":
        if args.shift:
            if not args.name or args.name2:
                parser.error(
                    "doctor --shift takes exactly one shifted series spec "
                    "(workload:engine[@fabric][+partitioner])"
                )
        elif not args.name or not args.name2:
            parser.error(
                "doctor requires two run specs (journal paths, corpus "
                "fingerprints or workload:engine selectors), or --shift "
                "with one series spec"
            )
        return _doctor(args)
    if args.artifact == "analytics":
        return _analytics(args)

    if args.artifact == "table1":
        print(table1())
        return 0
    if args.artifact == "bench":
        if not args.name:
            parser.error("bench requires a benchmark name " f"(one of {TABLE2_ORDER})")
        workload = workload_by_name(args.name, args.fidelity)
        row = run_workload(workload, **_fabric_opts(args, workload))
        suffix = "" if args.fabric == "direct" else f" [{args.fabric} fabric]"
        print(
            f"{row.label} ({row.data_size}): IDH {row.idh_seconds:.3f}s, "
            f"HAMR {row.hamr_seconds:.3f}s, speedup {row.speedup:.2f}x "
            f"(paper {row.paper.speedup:.2f}x){suffix}"
        )
        return 0

    def progress(name: str) -> None:
        print(f"  running {name} ...", file=sys.stderr, flush=True)

    if args.artifact in ("table2", "all"):
        result = table2(args.fidelity, progress=progress)
        print(result.rendered)
        print()
        if args.artifact == "table2":
            return 0
    else:
        result = None

    if args.artifact in ("table3", "all"):
        rows = result.rows if result is not None else None
        print(table3(args.fidelity, baseline_rows=rows).rendered)
        print()
        if args.artifact == "table3":
            return 0

    if args.artifact in ("fig3a", "all"):
        rows = result.rows if result is not None else None
        print(figure3a(args.fidelity, rows=rows).rendered)
        print()
        if args.artifact == "fig3a":
            return 0

    if args.artifact in ("fig3b", "all"):
        rows = result.rows if result is not None else None
        print(figure3b(args.fidelity, rows=rows).rendered)
    return 0


def _expand_filters(args):
    """Validate ``--workload``/``--engine`` and expand them to lists.

    The one place the per-run subcommands (report/timeline/profile/
    calibrate/journal/watch/slo/trend) share their filter wiring: returns
    ``(workloads, engines)``, or the exit code 2 after printing the error
    (callers ``return`` it unchanged).
    """
    if args.workload not in list(TABLE2_ORDER) + ["all"]:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from: {', '.join(TABLE2_ORDER)}, all)",
            file=sys.stderr,
        )
        return 2
    if args.engine not in ("both", "hamr", "hadoop"):
        print(
            f"error: unknown engine {args.engine!r} "
            "(choose from: both, hamr, hadoop)",
            file=sys.stderr,
        )
        return 2
    workloads = list(TABLE2_ORDER) if args.workload == "all" else [args.workload]
    engines = ["hamr", "hadoop"] if args.engine == "both" else [args.engine]
    return workloads, engines


def _fabric_opts(args, workload) -> dict:
    """run_workload kwargs for the ``--fabric``/``--partitioner``/``--racks``
    flags.

    ``--racks N`` counts *racks*; it is converted to workers-per-rack
    against the workload's cluster spec (contiguous worker groups, the
    paper's 16-node testbed split N ways). The defaults map to ``None``
    so the flagless path stays byte-identical to the legacy wiring.
    """
    rack_size = None
    if args.racks is not None:
        rack_size = max(1, workload.spec().num_workers // args.racks)
    return {
        "fabric": None if args.fabric == "direct" else args.fabric,
        "partitioner": None if args.partitioner == "hash" else args.partitioner,
        "rack_size": rack_size,
    }


def _engine_label(engine: str, fabric: str) -> str:
    """Display label for an engine column: ``engine@fabric`` off-direct,
    matching :meth:`repro.obs.replay.ReplayedRun.title`."""
    return engine if fabric == "direct" else f"{engine}@{fabric}"


def _engine_column(row, engine: str, attr: str):
    """The per-engine field of a BenchmarkRow (``hamr_obs``/``hadoop_obs``,
    journals, monitors, makespans...)."""
    if attr == "seconds":
        return row.hamr_seconds if engine == "hamr" else row.idh_seconds
    return getattr(row, f"{engine}_{attr}")


def _emit_json(path: str, payload: dict, note: str = "") -> None:
    """Write a JSON document to ``path``, or to stdout when path is ``-``."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}" + (f" ({note})" if note else ""), file=sys.stderr)


def _diff(args) -> int:
    """Compare two observability artifacts; optionally gate on drift."""
    from repro.obs.diff import diff_artifacts, load_artifact, render_diff

    a = load_artifact(args.name)
    b = load_artifact(args.name2)
    result = diff_artifacts(
        a, b, tolerance=args.tolerance, host_tolerance=args.host_tolerance
    )
    if not any(result.rows.values()):
        print(
            "error: the two artifacts share no workload × engine rows — "
            "nothing to compare",
            file=sys.stderr,
        )
        return 2
    if args.json != "-":
        print(render_diff(result, label_a=args.name, label_b=args.name2))
    if args.json:
        _emit_json(args.json, result.to_dict())
    if args.fail_on_drift and not result.ok:
        return 1
    return 0


def _journal_path(out: str, workloads: list[str], engines: list[str],
                  workload: str, engine: str) -> str:
    """Output path for one run's journal under the --out prefix.

    A prefix ending in ``.jsonl`` / ``.jsonl.gz`` with a single workload
    and engine is used verbatim (``.gz`` writes gzip; see
    :func:`repro.obs.journal.journal_open`).
    """
    if out.endswith((".jsonl", ".jsonl.gz")) and len(workloads) == 1 and len(engines) == 1:
        return out
    stem = out
    if stem.endswith(".gz"):
        stem = stem[: -len(".gz")]
    if stem.endswith(".jsonl"):
        stem = stem[: -len(".jsonl")]
    if stem.endswith(".journal"):
        stem = stem[: -len(".journal")]
    return f"{stem}.{workload}.{engine}.journal.jsonl"


def _journal(args) -> int:
    """Run workload(s) with journaling on; write one JSONL file per run."""
    from repro.obs.journal import (
        JournalWriter,
        bucket_slowdown_from_env,
        encode_record,
        journal_open,
        seed_bucket_slowdown,
    )

    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workloads, engines = filters
    out = args.out or "run"
    seeded = bucket_slowdown_from_env()
    for name in workloads:
        if len(workloads) > 1:
            print(f"  running {name} ...", file=sys.stderr, flush=True)
        workload = workload_by_name(name, args.fidelity)
        row = run_workload(
            workload,
            engines=args.engine,
            journal=lambda engine: JournalWriter(meta={"fidelity": args.fidelity}),
            **_fabric_opts(args, workload),
        )
        for engine in engines:
            writer = _engine_column(row, engine, "journal")
            path = _journal_path(out, workloads, engines, name, engine)
            if seeded is not None:
                bucket, factor = seeded
                records = seed_bucket_slowdown(writer.records, bucket, factor)
                with journal_open(path, "w") as fh:
                    for record in records:
                        fh.write(encode_record(record) + "\n")
                print(
                    f"wrote {path} ({len(records) - 2} events, seeded "
                    f"{bucket}x{factor:g} slowdown)",
                    file=sys.stderr,
                )
            else:
                writer.save(path)
                print(f"wrote {path} ({writer.events} events)", file=sys.stderr)
    return 0


def _watch(args) -> int:
    """Run workload(s) with the live progress engine; print the dashboard.

    Frames are journaled (``wcfg``/``fr`` records), so with ``--out`` the
    saved journal replays the dashboard byte-identically via ``replay
    --view watch``. With ``REPRO_OBS_SLOWDOWN=<bucket>=<factor>`` the
    journal is dilated first and the dashboard renders the slowed
    timeline (ETAs and watchdog verdicts recomputed).
    """
    from repro.obs.journal import (
        JournalWriter,
        bucket_slowdown_from_env,
        encode_record,
        journal_open,
        seed_bucket_slowdown,
    )
    from repro.obs.live import (
        LIVE_SCHEMA,
        STATUS_RUNNING,
        STATUS_STALLED,
        LiveMonitor,
        WatchConfig,
        render_watch,
    )
    from repro.obs.slo import load_slo_file, spec_for

    if args.name:
        args.workload = args.name
    if args.name2:
        args.engine = args.name2
    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workloads, engines = filters
    if args.interval <= 0:
        print(
            f"error: --interval must be positive (got {args.interval:g})",
            file=sys.stderr,
        )
        return 2
    overrides = None
    if args.slo_spec:
        try:
            overrides = load_slo_file(args.slo_spec)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    config = WatchConfig(interval=args.interval, window=args.stall_window)
    seeded = bucket_slowdown_from_env()
    exported: dict[str, dict] = {}
    for name in workloads:
        if len(workloads) > 1:
            print(f"  running {name} ...", file=sys.stderr, flush=True)

        def _monitor(engine, tracer, workload=name):
            return LiveMonitor(
                tracer, config=config, slo=spec_for(workload, engine, overrides)
            )

        workload = workload_by_name(name, args.fidelity)
        row = run_workload(
            workload,
            engines=args.engine,
            journal=lambda engine: JournalWriter(meta={"fidelity": args.fidelity}),
            watch=_monitor,
            **_fabric_opts(args, workload),
        )
        for engine in engines:
            monitor = _engine_column(row, engine, "watch")
            writer = _engine_column(row, engine, "journal")
            records = writer.records
            makespan = _engine_column(row, engine, "seconds")
            frames = monitor.frames
            if seeded is not None:
                bucket, factor = seeded
                records = seed_bucket_slowdown(records, bucket, factor)
                frames = [
                    {k: v for k, v in rec.items() if k != "t"}
                    for rec in records
                    if rec.get("t") == "fr"
                ]
                makespan = records[-1].get("makespan", makespan)
            if args.json != "-":
                label = _engine_label(engine, args.fabric)
                title = f"{row.label} ({row.data_size}) on {label}"
                print(render_watch(title, (config.interval, config.window), frames))
                print()
            exported.setdefault(name, {})[engine] = {
                "interval": config.interval,
                "window": config.window,
                "frames": frames,
                "status": frames[-1]["status"] if frames else STATUS_RUNNING,
                "stalled_frames": sum(
                    1 for f in frames if f["status"] == STATUS_STALLED
                ),
                "makespan": makespan,
            }
            if args.out:
                path = _journal_path(args.out, workloads, engines, name, engine)
                with journal_open(path, "w") as fh:
                    for record in records:
                        fh.write(encode_record(record) + "\n")
                print(f"wrote {path}", file=sys.stderr)
    if args.json:
        payload = {
            "schema": LIVE_SCHEMA,
            "fidelity": args.fidelity,
            "workloads": exported,
        }
        if args.fabric != "direct":
            payload["fabric"] = args.fabric
        _emit_json(args.json, payload)
    return 0


def _slo(args) -> int:
    """Check a BENCH artifact — or live run(s) — against the SLO specs.

    ``slo BENCH.json`` evaluates every workload × engine row the artifact
    holds (straggler CV reports n/a — artifacts carry no per-node
    timelines); ``slo [WORKLOAD] [ENGINE]`` runs the workload traced and
    evaluates the live tracer (CV measurable). Exits 1 on any FAIL.
    """
    import os

    from repro.obs.slo import (
        evaluate_entry,
        evaluate_tracer,
        load_slo_file,
        render_slo,
        slo_dict,
    )

    overrides = None
    if args.slo_spec:
        try:
            overrides = load_slo_file(args.slo_spec)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    results: list[dict] = []
    if args.name and (os.path.exists(args.name) or args.name.endswith(".json")):
        try:
            with open(args.name) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: {args.name}: {exc}", file=sys.stderr)
            return 2
        schema = payload.get("schema", "") if isinstance(payload, dict) else ""
        if not schema.startswith("repro.obs.bench/"):
            print(
                f"error: {args.name} is not a BENCH artifact "
                f"(schema {schema!r})",
                file=sys.stderr,
            )
            return 2
        for workload in sorted(payload.get("rows", {})):
            per_engine = payload["rows"][workload]
            for engine in ("hamr", "hadoop"):
                entry = per_engine.get(engine)
                if isinstance(entry, dict):
                    results.append(
                        evaluate_entry(workload, engine, entry, overrides)
                    )
        if not results:
            print(
                f"error: {args.name} holds no workload × engine rows",
                file=sys.stderr,
            )
            return 2
        source = args.name
    else:
        if args.name:
            args.workload = args.name
        if args.name2:
            args.engine = args.name2
        filters = _expand_filters(args)
        if isinstance(filters, int):
            return filters
        workloads, engines = filters
        for name in workloads:
            if len(workloads) > 1:
                print(f"  running {name} ...", file=sys.stderr, flush=True)
            workload = workload_by_name(name, args.fidelity)
            row = run_workload(
                workload,
                engines=args.engine,
                obs=True,
                **_fabric_opts(args, workload),
            )
            for engine in engines:
                results.append(
                    evaluate_tracer(
                        name,
                        engine,
                        _engine_column(row, engine, "obs"),
                        _engine_column(row, engine, "seconds"),
                        overrides,
                    )
                )
        source = f"live:{args.fidelity}"
    if args.json != "-":
        print(render_slo(results))
    if args.json:
        _emit_json(args.json, slo_dict(results, source))
    return 0 if all(r["ok"] for r in results) else 1


def _trend(args) -> int:
    """Change-point detection over the perf history; optional CI gate."""
    from repro.obs.history import (
        DEFAULT_HISTORY_PATH,
        load_history,
        render_trend,
        trend_report,
    )

    if args.window is not None and args.window <= 0:
        print(
            f"error: --window must be positive (got {args.window})",
            file=sys.stderr,
        )
        return 2
    path = args.name or DEFAULT_HISTORY_PATH
    try:
        history = load_history(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not history:
        print(f"error: {path} holds no history rows", file=sys.stderr)
        return 2
    if args.window is not None:
        history = history[-args.window:]
    report = trend_report(
        history,
        metric=args.metric,
        min_history=args.min_history,
        threshold=args.mad_threshold,
        sustain=args.sustain,
    )
    if args.json != "-":
        print(render_trend(report, history_path=path))
    if args.json:
        _emit_json(args.json, report)
    if args.fail_on_shift and report["shifts"]:
        return 1
    return 0


def _replay(args) -> int:
    """Reconstruct report/timeline/critpath output from a journal alone."""
    from repro.obs.journal import JournalError
    from repro.obs.replay import replay_file

    try:
        run = replay_file(args.name, allow_partial=args.allow_partial)
    except (OSError, JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if run.partial:
        print(
            "WARNING: journal is partial (reconstructed footer) — views "
            "cover the recorded prefix only",
            file=sys.stderr,
        )
    tracer = run.tracer
    if args.view == "report":
        from repro.evaluation.obsreport import (
            REPORT_SCHEMA,
            render_report,
            report_dict,
        )

        if args.json != "-":
            print(render_report(tracer, title=run.title()))
            print()
        if args.json:
            payload = {
                "schema": REPORT_SCHEMA,
                "workload": run.workload,
                "engines": {
                    run.engine: report_dict(
                        tracer,
                        run.workload,
                        run.engine,
                    )
                },
            }
            if run.fabric != "direct":
                payload["fabric"] = run.fabric
            _emit_json(args.json, payload)
    elif args.view == "timeline":
        from repro.evaluation.telemetryreport import (
            TIMELINE_SCHEMA,
            render_telemetry,
            telemetry_dict,
        )

        if args.json != "-":
            print(render_telemetry(tracer, title=run.title(), bins=args.bins))
            print()
        if args.json:
            payload = {
                "schema": TIMELINE_SCHEMA,
                "fidelity": run.fidelity,
                "workloads": {
                    run.workload: {
                        run.engine: telemetry_dict(
                            tracer, run.workload, run.engine, bins=args.bins
                        )
                    }
                },
            }
            if run.fabric != "direct":
                payload["fabric"] = run.fabric
            _emit_json(args.json, payload)
    elif args.view == "watch":
        from repro.obs.live import (
            LIVE_SCHEMA,
            STATUS_RUNNING,
            STATUS_STALLED,
            render_watch,
        )

        if run.watch_config is None and not run.frames:
            print(
                f"error: {args.name} was not recorded with live monitoring "
                "(no wcfg/fr records) — re-record with `watch --out`",
                file=sys.stderr,
            )
            return 2
        config = run.watch_config or {}
        interval = config.get("interval", 0.0)
        window = config.get("window", 0.0)
        label = _engine_label(run.engine, run.fabric)
        title = f"{run.label} ({run.data_size}) on {label}"
        if args.json != "-":
            print(render_watch(title, (interval, window), run.frames))
            print()
        if args.json:
            frames = run.frames
            payload = {
                "schema": LIVE_SCHEMA,
                "fidelity": run.fidelity,
                "workloads": {
                    run.workload: {
                        run.engine: {
                            "interval": interval,
                            "window": window,
                            "frames": frames,
                            "status": (
                                frames[-1]["status"] if frames else STATUS_RUNNING
                            ),
                            "stalled_frames": sum(
                                1 for f in frames if f["status"] == STATUS_STALLED
                            ),
                            "makespan": run.makespan,
                        }
                    }
                },
            }
            if run.fabric != "direct":
                payload["fabric"] = run.fabric
            _emit_json(args.json, payload)
    else:  # critpath
        from repro.obs.critpath import from_tracer, render_critpath

        cp = from_tracer(tracer)
        if args.json != "-":
            print(
                render_critpath(
                    cp,
                    title=f"Critical path — {run.label} "
                    f"({run.data_size}) on {run.engine}",
                )
            )
        if args.json:
            _emit_json(args.json, cp.to_dict())
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(tracer.to_chrome_trace(), fh, sort_keys=True)
        print(
            f"wrote {args.chrome} ({run.workload} on {run.engine}, replayed)",
            file=sys.stderr,
        )
    return 0


def _explain_side(ref: str, args):
    """Build one explain side from a journal path or a workload:engine spec.

    Returns an :class:`~repro.obs.explain.ExplainSide`, or an int exit
    code on a bad reference.
    """
    import os

    from repro.obs.explain import side_from_tracer
    from repro.obs.journal import JournalError

    if os.path.exists(ref) or ref.endswith((".jsonl", ".jsonl.gz")):
        from repro.obs.replay import replay_file

        try:
            run = replay_file(ref, allow_partial=args.allow_partial)
        except (OSError, JournalError) as exc:
            print(f"error: {ref}: {exc}", file=sys.stderr)
            return 2
        if run.partial:
            print(
                f"WARNING: {ref} is partial (reconstructed footer)",
                file=sys.stderr,
            )
        meta = {
            k: v
            for k, v in (
                ("workload", run.workload),
                ("engine", run.engine),
                ("fidelity", run.fidelity),
                ("fabric", run.fabric if run.fabric != "direct" else None),
                ("seeded_slowdown", run.footer.get("seeded_slowdown")),
            )
            if v is not None
        }
        return side_from_tracer(run.tracer, ref, meta=meta)
    workload, sep, engine = ref.partition(":")
    if not sep or workload not in TABLE2_ORDER or engine not in ("hamr", "hadoop"):
        print(
            f"error: {ref!r} is neither a journal file nor a "
            "<workload>:<engine> spec "
            f"(workloads: {', '.join(TABLE2_ORDER)}; engines: hamr, hadoop)",
            file=sys.stderr,
        )
        return 2
    wl = workload_by_name(workload, args.fidelity)
    row = run_workload(
        wl,
        engines=engine,
        obs=True,
        **_fabric_opts(args, workload=wl),
    )
    tracer = row.hamr_obs if engine == "hamr" else row.hadoop_obs
    meta = {"workload": workload, "engine": engine, "fidelity": args.fidelity}
    if args.fabric != "direct":
        meta["fabric"] = args.fabric
    return side_from_tracer(tracer, ref, meta=meta)


def _explain(args) -> int:
    """Differential root-cause attribution between two runs."""
    from repro.obs.explain import explain, render_explain

    side_a = _explain_side(args.name, args)
    if isinstance(side_a, int):
        return side_a
    side_b = _explain_side(args.name2, args)
    if isinstance(side_b, int):
        return side_b
    result = explain(side_a, side_b)
    if args.json != "-":
        print(render_explain(result))
    if args.json:
        _emit_json(args.json, result.to_dict())
    return 0


def _whatif(args) -> int:
    """Counterfactual capacity planning from a run journal.

    Loads the journal (or runs ``workload:engine`` live to record one),
    predicts the scenario's makespan with bounds, optionally sweeps a
    knob into a capacity curve, and — the self-auditing half — executes
    scenarios for real to report the prediction error (``--execute`` for
    the requested one, ``--validate`` for the whole matrix), gated by
    ``--max-error``.
    """
    import os

    from repro.obs.journal import (
        JournalError,
        JournalWriter,
        dilate_bucket_charges,
        encode_record,
        journal_open,
        load_journal,
    )
    from repro.obs.whatif import (
        ScenarioError,
        WhatIfModel,
        parse_scenario,
        parse_sweep,
        render_sweep,
        render_validation,
        render_whatif,
        validate,
        whatif_dict,
    )

    try:
        scenario = parse_scenario(args.scenario)
        sweep_spec = parse_sweep(args.sweep) if args.sweep else None
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ref = args.name
    if os.path.exists(ref) or ref.endswith((".jsonl", ".jsonl.gz")):
        try:
            records = load_journal(ref, allow_partial=args.allow_partial)
        except (OSError, JournalError) as exc:
            print(f"error: {ref}: {exc}", file=sys.stderr)
            return 2
    else:
        workload, sep, engine = ref.partition(":")
        if not sep or workload not in TABLE2_ORDER or engine not in ("hamr", "hadoop"):
            print(
                f"error: {ref!r} is neither a journal file nor a "
                "<workload>:<engine> spec "
                f"(workloads: {', '.join(TABLE2_ORDER)}; engines: hamr, hadoop)",
                file=sys.stderr,
            )
            return 2
        print(f"  running {ref} ...", file=sys.stderr, flush=True)
        wl = workload_by_name(workload, args.fidelity)
        row = run_workload(
            wl,
            engines=engine,
            journal=lambda e: JournalWriter(meta={"fidelity": args.fidelity}),
            **_fabric_opts(args, workload=wl),
        )
        records = _engine_column(row, engine, "journal").records

    try:
        model = WhatIfModel(records)
    except JournalError as exc:
        print(f"error: {ref}: {exc}", file=sys.stderr)
        return 2
    if model.run.partial:
        print(
            "WARNING: journal is partial (reconstructed footer) — "
            "predictions cover the recorded prefix only",
            file=sys.stderr,
        )

    def executor(sc):
        """Run one scenario for real; None when it cannot be executed."""
        run = model.run
        if run.workload not in TABLE2_ORDER or run.engine not in ("hamr", "hadoop"):
            return None
        fidelity = run.fidelity or args.fidelity
        engine = run.engine
        base_fabric = run.fabric if run.fabric != "direct" else None
        base_partitioner = run.partitioner if run.partitioner != "hash" else None
        print(
            f"  executing {sc.describe()} on {run.workload}:{engine} ...",
            file=sys.stderr,
            flush=True,
        )
        wl = workload_by_name(run.workload, fidelity)
        if sc.bucket_only:
            # Independent end-to-end check: a fresh run, dilated by the
            # same transform the REPRO_OBS_SLOWDOWN seeding applies.
            fresh = run_workload(
                wl, engines=engine, journal=True,
                fabric=base_fabric, partitioner=base_partitioner,
                rack_size=model.rack_size or None,
            )
            writer = _engine_column(fresh, engine, "journal")
            dilated = dilate_bucket_charges(writer.records, sc.time_factors)
            return dilated[-1].get("makespan")
        if sc.serde_speed is not None:
            return None  # no executable serde knob
        if sc.nodes is not None:
            wl.num_workers = sc.nodes - 1
        fabric = sc.fabric if sc.fabric is not None else base_fabric
        rack_size = model.rack_size or None
        if sc.racks is not None:
            rack_size = max(1, wl.spec().num_workers // sc.racks)
        if sc.bucket_speeds:
            return None  # mixed structural + bucket scenarios: not executable
        fresh = run_workload(
            wl, engines=engine, partitioner=base_partitioner,
            fabric=fabric, rack_size=rack_size,
        )
        return _engine_column(fresh, engine, "seconds")

    predictions = [model.predict(scenario)]
    sweep_out = None
    if sweep_spec is not None:
        key, values = sweep_spec
        sweep_out = (key, model.sweep(key, values, scenario))
    rows = None
    if args.validate:
        rows = validate(model, executor)
    elif args.execute:
        rows = validate(model, executor, scenarios=[scenario])

    if args.emit_journal:
        if not (scenario.bucket_only or scenario.is_identity):
            print(
                "error: --emit-journal needs a bucket-only (or identity) "
                f"scenario — {scenario.describe()!r} changes cluster "
                "structure, which has no journal transform",
                file=sys.stderr,
            )
            return 2
        out_records = (
            records if scenario.is_identity else model.scenario_journal(scenario)
        )
        with journal_open(args.emit_journal, "w") as fh:
            for record in out_records:
                fh.write(encode_record(record) + "\n")
        print(
            f"wrote {args.emit_journal} ({scenario.describe()})", file=sys.stderr
        )

    if args.json != "-":
        print(render_whatif(model, predictions))
        if sweep_out is not None:
            print()
            print(render_sweep(model, sweep_out[0], sweep_out[1]))
        if rows is not None:
            print()
            print(render_validation(rows))
    if args.json:
        _emit_json(
            args.json,
            whatif_dict(model, predictions, sweep=sweep_out, validation=rows),
        )
    if args.max_error is not None and rows is not None:
        worst = max(
            (abs(row.error) for row in rows if row.error is not None), default=0.0
        )
        if worst > args.max_error:
            print(
                f"FAIL: worst prediction error {worst:.1%} exceeds "
                f"--max-error {args.max_error:.1%}",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: worst prediction error {worst:.1%} within "
            f"--max-error {args.max_error:.1%}",
            file=sys.stdout if args.json != "-" else sys.stderr,
        )
    return 0


def _corpus_index(args) -> str:
    from repro.obs.corpus import DEFAULT_INDEX_PATH

    return args.index or DEFAULT_INDEX_PATH


def _corpus_rows(args) -> "list[dict] | int":
    """Load the corpus index, or the exit code 2 after printing the error."""
    from repro.obs.corpus import load_corpus
    from repro.obs.journal import JournalError

    path = _corpus_index(args)
    try:
        return load_corpus(path)
    except OSError as exc:
        print(
            f"error: {exc} (build the index with `corpus ingest <dir>`)",
            file=sys.stderr,
        )
        return 2
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_where(args) -> "dict | int":
    from repro.obs.corpus import parse_where

    if not args.where:
        return {}
    try:
        return parse_where(args.where)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _corpus(args) -> int:
    """The journal warehouse: ingest/ls/show over the canonical index."""
    import os

    from repro.obs.corpus import (
        CORPUS_SCHEMA,
        filter_rows,
        find_by_fingerprint,
        ingest,
        load_corpus,
        render_corpus,
        render_row,
        save_corpus,
    )
    from repro.obs.journal import JournalError

    index = _corpus_index(args)
    if args.name == "ingest":
        if not args.name2:
            print(
                "error: corpus ingest requires a directory or journal path",
                file=sys.stderr,
            )
            return 2
        if not os.path.exists(args.name2):
            print(f"error: no such path: {args.name2}", file=sys.stderr)
            return 2
        existing = load_corpus(index) if os.path.exists(index) else []
        try:
            rows, stats = ingest(
                [args.name2],
                existing,
                allow_partial=args.allow_partial,
                exclude=[index],
            )
        except (OSError, JournalError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        save_corpus(rows, index)
        print(
            f"{index}: {stats['scanned']} journal(s) scanned, "
            f"{stats['added']} added, {stats['duplicates']} duplicate(s), "
            f"{stats['skipped']} skipped — {len(rows)} run(s) indexed",
            file=sys.stderr,
        )
        return 0
    rows = _corpus_rows(args)
    if isinstance(rows, int):
        return rows
    if args.name == "show":
        if not args.name2:
            print(
                "error: corpus show requires a fingerprint prefix",
                file=sys.stderr,
            )
            return 2
        matched = find_by_fingerprint(rows, args.name2)
        if not matched:
            print(
                f"error: no corpus row matches fingerprint {args.name2!r}",
                file=sys.stderr,
            )
            return 2
        if len(matched) > 1:
            listing = ", ".join(row["fingerprint"][:12] for row in matched)
            print(
                f"error: fingerprint prefix {args.name2!r} is ambiguous "
                f"({listing})",
                file=sys.stderr,
            )
            return 2
        if args.json != "-":
            print(render_row(matched[0]))
        if args.json:
            _emit_json(args.json, matched[0])
        return 0
    # ls
    where = _parse_where(args)
    if isinstance(where, int):
        return where
    rows = filter_rows(rows, where)
    if args.json != "-":
        print(render_corpus(rows))
    if args.json:
        _emit_json(args.json, {"schema": CORPUS_SCHEMA, "rows": rows})
    return 0


def _doctor(args) -> int:
    """Automated regression diagnosis over two corpus-resolved journals."""
    import os

    from repro.obs.doctor import (
        DoctorError,
        diagnose,
        render_doctor,
        resolve_shift,
        resolve_spec,
    )
    from repro.obs.journal import JournalError
    from repro.obs.replay import replay_file

    index = _corpus_index(args)
    rows = load_rows = None
    if os.path.exists(index):
        load_rows = _corpus_rows(args)
        if isinstance(load_rows, int):
            return load_rows
    rows = load_rows or []
    shift = None
    try:
        if args.shift:
            from repro.obs.history import DEFAULT_HISTORY_PATH, load_history

            history_path = args.history or DEFAULT_HISTORY_PATH
            try:
                history = load_history(history_path)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            path_a, path_b, shift = resolve_shift(
                history,
                rows,
                args.name,
                metric=args.metric,
                index_path=index,
                min_history=args.min_history,
                threshold=args.mad_threshold,
                sustain=args.sustain,
            )
        else:
            path_a = resolve_spec(rows, args.name, index)
            path_b = resolve_spec(rows, args.name2, index)
    except DoctorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = []
    for path in (path_a, path_b):
        try:
            run = replay_file(path, allow_partial=args.allow_partial)
        except (OSError, JournalError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        if run.partial:
            print(
                f"WARNING: {path} is partial (reconstructed footer)",
                file=sys.stderr,
            )
        runs.append(run)
    report = diagnose(runs[0], runs[1], path_a, path_b, shift=shift)
    if args.json != "-":
        print(render_doctor(report))
    if args.json:
        _emit_json(args.json, report.to_dict())
    return 0


def _analytics(args) -> int:
    """Fleet SQL over the corpus, reference-checked across both engines."""
    from repro.obs.analytics import render_analytics, run_analytics

    if args.workers <= 0:
        print(
            f"error: --workers must be positive (got {args.workers})",
            file=sys.stderr,
        )
        return 2
    rows = _corpus_rows(args)
    if isinstance(rows, int):
        return rows
    where = _parse_where(args)
    if isinstance(where, int):
        return where
    if where:
        from repro.obs.corpus import filter_rows

        rows = filter_rows(rows, where)
    if not rows:
        print(
            "error: the corpus index holds no matching runs — ingest "
            "journals first (`corpus ingest <dir>`)",
            file=sys.stderr,
        )
        return 2
    report = run_analytics(rows, num_workers=args.workers)
    if args.json != "-":
        print(render_analytics(report))
    if args.json:
        _emit_json(args.json, report)
    if not report["all_match"]:
        print(
            "FAIL: engine results diverged on at least one canned query",
            file=sys.stderr,
        )
        return 1
    return 0


def _timeline(args) -> int:
    """Run traced workload(s) and print/export the telemetry report."""
    from repro.evaluation.telemetryreport import (
        TIMELINE_SCHEMA,
        render_telemetry,
        telemetry_dict,
    )

    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workloads, _engines = filters
    exported: dict[str, dict] = {}
    chrome_pick = None
    for name in workloads:
        if len(workloads) > 1:
            print(f"  running {name} ...", file=sys.stderr, flush=True)
        workload = workload_by_name(name, args.fidelity)
        row = run_workload(
            workload, engines=args.engine, obs=True,
            **_fabric_opts(args, workload),
        )
        traced = [
            (engine, tracer)
            for engine, tracer in (("hamr", row.hamr_obs), ("hadoop", row.hadoop_obs))
            if tracer is not None
        ]
        if not traced:
            print(
                f"error: no traced engine runs for {name!r} "
                f"(--engine {args.engine})",
                file=sys.stderr,
            )
            return 2
        for engine, tracer in traced:
            makespan = row.hamr_seconds if engine == "hamr" else row.idh_seconds
            if args.json != "-":
                label = _engine_label(engine, args.fabric)
                print(
                    render_telemetry(
                        tracer,
                        title=f"== {row.label} ({row.data_size}) on {label} — "
                        f"makespan {makespan:.3f}s ==",
                        bins=args.bins,
                    )
                )
                print()
            exported.setdefault(name, {})[engine] = telemetry_dict(
                tracer, name, engine, bins=args.bins
            )
        if chrome_pick is None and traced:
            chrome_pick = (workloads[0], *traced[0])
    if args.json:
        payload = {
            "schema": TIMELINE_SCHEMA,
            "fidelity": args.fidelity,
            "workloads": exported,
        }
        if args.fabric != "direct":
            payload["fabric"] = args.fabric
        _emit_json(args.json, payload)
    if args.chrome and chrome_pick is not None:
        workload, engine, tracer = chrome_pick
        with open(args.chrome, "w") as fh:
            json.dump(tracer.to_chrome_trace(), fh, sort_keys=True)
        print(f"wrote {args.chrome} ({workload} on {engine})", file=sys.stderr)
    return 0


def _report(args) -> int:
    """Run one traced workload and print/export the observability report."""
    from repro.evaluation.obsreport import REPORT_SCHEMA, render_report, report_dict

    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workload = workload_by_name(args.workload, args.fidelity)
    row = run_workload(
        workload, engines=args.engine, obs=True, **_fabric_opts(args, workload)
    )
    traced = [
        (engine, tracer)
        for engine, tracer in (("hamr", row.hamr_obs), ("hadoop", row.hadoop_obs))
        if tracer is not None
    ]
    if not traced:
        print(
            f"error: no traced engine runs for {args.workload!r} "
            f"(--engine {args.engine})",
            file=sys.stderr,
        )
        return 2
    for engine, tracer in traced:
        makespan = row.hamr_seconds if engine == "hamr" else row.idh_seconds
        if args.json != "-":
            label = _engine_label(engine, args.fabric)
            print(
                render_report(
                    tracer,
                    title=f"== {row.label} ({row.data_size}) on {label} — "
                    f"makespan {makespan:.3f}s ==",
                )
            )
            print()
    if args.json:
        payload = {
            "schema": REPORT_SCHEMA,
            "workload": args.workload,
            "engines": {
                engine: report_dict(
                    tracer,
                    args.workload,
                    engine,
                )
                for engine, tracer in traced
            },
        }
        if args.fabric != "direct":
            payload["fabric"] = args.fabric
        _emit_json(args.json, payload)
    if args.chrome:
        # one merged trace file; engines run on separate virtual clusters,
        # so export the first traced engine (use --engine to pick).
        engine, tracer = traced[0]
        with open(args.chrome, "w") as fh:
            json.dump(tracer.to_chrome_trace(), fh, sort_keys=True)
        print(f"wrote {args.chrome} ({engine} run)", file=sys.stderr)
    return 0


def _run_profiled(args, workloads: list[str]):
    """Run each workload traced+profiled; yield (name, row, traced) tuples.

    ``traced`` pairs each engine with its tracer and hostprof snapshot.
    """
    for name in workloads:
        if len(workloads) > 1:
            print(f"  running {name} ...", file=sys.stderr, flush=True)
        workload = workload_by_name(name, args.fidelity)
        row = run_workload(
            workload,
            engines=args.engine,
            obs=True,
            profile=True,
            **_fabric_opts(args, workload),
        )
        traced = [
            (engine, tracer, snap)
            for engine, tracer, snap in (
                ("hamr", row.hamr_obs, row.hamr_hostprof),
                ("hadoop", row.hadoop_obs, row.hadoop_hostprof),
            )
            if tracer is not None and snap is not None
        ]
        yield name, row, traced


def _profile(args) -> int:
    """Run workload(s) with the dual clock on; print host profile + fidelity."""
    from repro.evaluation.profilereport import profile_payload, render_hostprof
    from repro.obs.fidelity import fidelity_dict, render_fidelity

    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workloads, _engines = filters
    entries: dict[str, dict] = {}
    chrome_pick = None
    for name, row, traced in _run_profiled(args, workloads):
        if not traced:
            print(
                f"error: no profiled engine runs for {name!r} "
                f"(--engine {args.engine})",
                file=sys.stderr,
            )
            return 2
        for engine, tracer, snap in traced:
            makespan = row.hamr_seconds if engine == "hamr" else row.idh_seconds
            fid = fidelity_dict(tracer, snap, name, engine)
            if args.json != "-":
                label = _engine_label(engine, args.fabric)
                print(
                    render_hostprof(
                        snap,
                        title=f"== {row.label} ({row.data_size}) on {label} — "
                        f"virtual makespan {makespan:.3f}s, "
                        f"host {snap['total_ns'] / 1e6:.1f}ms ==",
                    )
                )
                print()
                print(render_fidelity(fid))
                print()
            entries.setdefault(name, {})[engine] = {
                "hostprof": snap,
                "fidelity": fid,
            }
        if chrome_pick is None:
            chrome_pick = (name, *traced[0])
    if args.json:
        _emit_json(args.json, profile_payload(args.fidelity, entries))
    if args.chrome and chrome_pick is not None:
        workload, engine, tracer, snap = chrome_pick
        with open(args.chrome, "w") as fh:
            json.dump(tracer.to_chrome_trace(hostprof=snap), fh, sort_keys=True)
        print(f"wrote {args.chrome} ({workload} on {engine})", file=sys.stderr)
    return 0


def _calibrate(args) -> int:
    """Re-fit compute-cost constants from measured host time (proposal only)."""
    from repro.cluster.spec import CostModel
    from repro.obs.fidelity import (
        _engine_samples,
        calibration_dict,
        fit_cost_constants,
        render_calibration,
    )

    filters = _expand_filters(args)
    if isinstance(filters, int):
        return filters
    workloads, _engines = filters
    samples = []
    sources = []
    for name, _row, traced in _run_profiled(args, workloads):
        if not traced:
            print(
                f"error: no profiled engine runs for {name!r} "
                f"(--engine {args.engine})",
                file=sys.stderr,
            )
            return 2
        for engine, _tracer, snap in traced:
            samples.extend(_engine_samples(snap))
            sources.append(f"{name}/{engine}")
    fit = fit_cost_constants(samples, CostModel())
    if fit is None:
        print(
            "error: no engine-bucket samples with recorded work units — "
            "nothing to fit",
            file=sys.stderr,
        )
        return 2
    cal = calibration_dict(fit, sources)
    if args.json != "-":
        print(render_calibration(cal))
    if args.json:
        _emit_json(args.json, cal)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
