"""Command-line interface.

Subcommands::

    repro-atpg generate  <circuit> [--seed N] [--no-compact]
    repro-atpg translate <circuit> [--seed N]
    repro-atpg profile   <circuit> [--seed N] [--skip-translation] [--top N]
    repro-atpg table     {5,6,7}   [--profile quick|default|full] [--jobs N]
    repro-atpg analyze   <circuit>
    repro-atpg report    [--profile ...] [--jobs N] [--out FILE]
    repro-atpg export    <circuit> <out.vcd|out.stil> [--seed N]
    repro-atpg explain-fault  <circuit> <fault> [--seed N]
    repro-atpg explain-vector <circuit> [index] [--seed N]
    repro-atpg diff-metrics <old.json|runs:ID> <new.json|runs:ID> [--threshold PAT=PCT ...]
    repro-atpg watch     <journal> [--once | --interval S] [--top N]
    repro-atpg export-trace <journal> <out.json>
    repro-atpg runs      {list,show,trend,gc} [...]
    repro-atpg cache     {stats,clear} [dir]
    repro-atpg serve     [--host H] [--port P] [--workers N] [--cache DIR]
    repro-atpg info      <circuit>
    repro-atpg list

``<circuit>`` is a suite name (``s27``, ``s298``, ``b01``, ...) or a path
to a ``.bench`` / structural-``.v`` file of a sequential circuit.

The flow-running subcommands (``generate``, ``translate``, ``profile``,
``export``, ``explain-fault``, ``explain-vector``) take ``--seed N``
plus the deployment flags ``--cache`` and ``--run-index``; how to
simulate (backend, checkpoint spacing) is not a flag — the simulation
layer picks it and it never changes a result bit.  A flow simulates in
one process.  ``table`` and ``report`` take
``--jobs N`` (default 1): whole per-circuit flows run N at a time in
worker processes (see :mod:`repro.parallel`), with the same results
as a serial run.

``--cache [DIR]`` turns on the content-addressed result store (see
:mod:`repro.cache`): each finished flow's whole result is persisted
under DIR as one entry and replayed on the next run of the same
circuit + config — warm runs skip straight to the final numbers,
bit-identically.  Bare
``--cache`` uses ``$REPRO_CACHE`` or ``.repro-cache``.  ``table`` and
``report`` export the resolved directory to the environment so their
prefetch workers share the store.

Every subcommand also accepts the telemetry flags ``--trace FILE``
(stream a JSONL run journal, see :mod:`repro.obs.journal`) and
``--metrics-out FILE`` (write the metrics/spans JSON artifact after the
command finishes).  ``profile`` turns telemetry on implicitly and prints
the per-phase breakdown.

Live monitoring: ``watch`` tails a ``--trace`` journal and renders
phase progress and an ETA — live by default, single-shot with
``--once``.  ``export-trace`` converts a journal into Chrome
trace-event / Perfetto JSON.  Both are read-only consumers of the
journal; the running process stays the single writer.

Run history: ``--run-index [DB]`` on the flow commands appends a
versioned run record (fingerprints, the run's metrics artifact,
platform/git rev) to a SQLite run index (bare flag = ``$REPRO_RUN_INDEX``
or ``.repro-runs.sqlite``) and implies a telemetry session so records
are rich.  ``runs list/show`` browse the index, ``runs trend``
computes median/MAD statistics over the last N same-fingerprint runs
and — with ``--assert`` — becomes a statistical regression gate
(deterministic drift fails; wall-clock outliers are flagged but never
fatal), ``runs gc --keep N`` prunes old records.  ``diff-metrics``
accepts ``runs:<id>`` / ``runs:latest`` wherever a metrics JSON path
is expected, so ``diff-metrics runs:A runs:B`` diffs any two records.

Service mode: ``serve`` starts the ATPG-as-a-service daemon (see
:mod:`repro.serve` and ``docs/SERVICE.md``) — HTTP/JSON submissions,
fingerprint-level dedup against in-flight and cached work, per-tenant
fair queueing, live SSE job streams, graceful drain on SIGTERM.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import obs
from .circuit import corpus as corpus_mod
from .circuit.bench import load_bench
from .circuit.netlist import Circuit, CircuitError
from .core import FlowConfig, generation_flow, translation_flow
from .experiments import suite as suite_mod
from .experiments import table5, table6, table7


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Resolve the ``--cache [DIR]`` flag to a FlowConfig ``cache_dir``.

    Absent flag -> ``None`` (the ``REPRO_CACHE`` env var may still turn
    caching on, see :func:`repro.cache.resolve_cache_dir`); bare
    ``--cache`` -> the env var or the default directory; ``--cache DIR``
    -> DIR.
    """
    import os

    from .cache import CACHE_ENV, DEFAULT_CACHE_DIR

    raw = getattr(args, "cache", None)
    if raw is None:
        return None
    if raw == "":
        return os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR
    return raw


def _run_index_arg(args: argparse.Namespace) -> Optional[str]:
    """Resolve ``--run-index [DB]`` to a FlowConfig ``run_index``.

    Absent flag -> ``None`` (``REPRO_RUN_INDEX`` may still turn history
    on); bare ``--run-index`` -> the env var or the default database;
    ``--run-index DB`` -> DB.
    """
    import os

    from .obs.history import DEFAULT_RUN_INDEX, RUN_INDEX_ENV

    raw = getattr(args, "run_index", None)
    if raw is None:
        return None
    if raw == "":
        return os.environ.get(RUN_INDEX_ENV) or DEFAULT_RUN_INDEX
    return raw


def _runs_index_path(args: argparse.Namespace) -> Path:
    """The index database the ``runs``/``diff-metrics`` read paths
    operate on: the explicit flag, the environment, or the default
    database."""
    from .obs.history import DEFAULT_RUN_INDEX, resolve_run_index

    resolved = resolve_run_index(getattr(args, "run_index", None) or None)
    return resolved if resolved is not None else Path(DEFAULT_RUN_INDEX)


def _flow_config(args: argparse.Namespace, **overrides) -> FlowConfig:
    """Build the FlowConfig shared by the flow-running subcommands.

    A ``corpus:<name>`` circuit argument additionally applies the
    corpus-scale presets (reduced ATPG effort, no PODEM redundancy
    proofs, no Section 2 completions).
    """
    name = getattr(args, "circuit", None)
    if isinstance(name, str) and corpus_mod.is_corpus_spec(name):
        corpus_over = corpus_mod.flow_overrides(name, seed_offset=args.seed)
    else:
        corpus_over = {}
    corpus_over.update(overrides)
    return FlowConfig(
        seed=args.seed,
        cache_dir=_cache_dir(args),
        run_index=_run_index_arg(args),
        **corpus_over,
    )


def _resolve_circuit(name: str) -> Circuit:
    """Resolve a CLI circuit argument: ``corpus:<name>`` spec, netlist
    path (case-insensitive ``.bench``/``.v`` suffix), or suite name."""
    if corpus_mod.is_corpus_spec(name):
        return corpus_mod.load_circuit(name)
    path = Path(name)
    if path.suffix or path.exists():
        return corpus_mod.load_circuit(path)
    return suite_mod.build_circuit(name)


def _cmd_generate(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.circuit)
    flow = generation_flow(circuit, _flow_config(args, compact=not args.no_compact))
    print(f"circuit {circuit.name}: {circuit.num_inputs} PI, "
          f"{circuit.num_state_vars} FF -> C_scan with {flow.num_faults} "
          f"collapsed faults")
    print(f"detected {flow.detected_total} "
          f"(fcov {flow.fault_coverage:.2f}%, testable "
          f"{flow.testable_coverage:.2f}%), funct {flow.funct_count}, "
          f"proven redundant {len(flow.untestable)}")
    print(f"generated sequence: {flow.raw_stats()}")
    if flow.restored is not None:
        print(f"after restoration [23]: {flow.restored_stats()}")
        print(f"after omission [22]: {flow.omitted_stats()} "
              f"(+{flow.extra_detected} extra faults)")
    if args.show_sequence:
        final = flow.omitted.sequence if flow.omitted else flow.raw
        print(final.to_table())
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.circuit)
    flow = translation_flow(circuit, _flow_config(args))
    print(f"circuit {circuit.name}: baseline {flow.baseline.test_set.summary()}")
    print(f"translated sequence: {flow.translated_stats()}")
    print(f"after restoration [23]: {flow.restored_stats()}")
    print(f"after omission [22]: {flow.omitted_stats()}")
    cycles = flow.baseline_cycles
    compacted = flow.omitted_stats().total
    if compacted:
        print(f"test application time: {cycles} -> {compacted} cycles "
              f"({cycles / compacted:.2f}x faster)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.report import render_profile

    circuit = _resolve_circuit(args.circuit)
    telemetry = obs.active()
    generation_flow(circuit, _flow_config(args))
    if not args.skip_translation:
        translation_flow(circuit, _flow_config(args))
    print(render_profile(
        telemetry, title=f"{circuit.name}: per-phase time breakdown",
        top=args.top))
    return 0


def _cmd_explain_fault(args: argparse.Namespace) -> int:
    from .obs.ledger import explain_fault

    circuit = _resolve_circuit(args.circuit)
    fault_ledger = obs.active().ledger
    flow = generation_flow(circuit, _flow_config(args))
    fault = next((f for f in flow.faults if str(f) == args.fault), None)
    if fault is None:
        print(f"fault {args.fault!r} is not in the collapsed universe of "
              f"{circuit.name} ({len(flow.faults)} fault classes)")
        close = [str(f) for f in flow.faults if args.fault in str(f)]
        if close:
            print("did you mean: " + ", ".join(close[:6]))
        return 1
    print(explain_fault(fault_ledger, fault))
    return 0


def _cmd_explain_vector(args: argparse.Namespace) -> int:
    from .obs.ledger import explain_vector

    circuit = _resolve_circuit(args.circuit)
    fault_ledger = obs.active().ledger
    generation_flow(circuit, _flow_config(args))
    print(explain_vector(fault_ledger, args.index))
    return 0


def _load_metrics_spec(spec: str, args: argparse.Namespace):
    """A metrics artifact from a JSON path or a ``runs:<id>`` /
    ``runs:latest`` run-index reference."""
    from .obs.diff import load_metrics
    from .obs.history import is_runs_ref, load_runs_ref

    if is_runs_ref(spec):
        return load_runs_ref(spec, _runs_index_path(args))
    return load_metrics(spec)


def _cmd_diff_metrics(args: argparse.Namespace) -> int:
    from .obs.diff import (
        check_thresholds,
        diff_metrics,
        format_rel,
        format_value,
        parse_threshold,
        render_diff,
    )

    try:
        old = _load_metrics_spec(args.old, args)
        new = _load_metrics_spec(args.new, args)
        thresholds = [parse_threshold(spec) for spec in args.threshold]
    except ValueError as exc:
        print(f"diff-metrics: {exc}")
        return 2
    rows = diff_metrics(old, new)
    print(render_diff(rows, top=args.top, only_changed=not args.all))
    violations = check_thresholds(rows, thresholds)
    if violations:
        print()
        for row, pattern, limit in violations:
            allowed = "no change" if limit == 0 else f"+{limit:g}%"
            print(f"REGRESSION {row.name}: {format_value(row.old)} -> "
                  f"{format_value(row.new)} ({format_rel(row)}; "
                  f"'{pattern}' allows {allowed})")
        return 1
    if thresholds:
        print(f"\nall thresholds satisfied "
              f"({len(thresholds)} pattern(s) checked)")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json
    import time as time_mod

    from .obs.history import (
        DETERMINISTIC_GATES,
        RunIndex,
        compute_trend,
        render_trend,
    )
    from .reporting.tables import format_table

    path = _runs_index_path(args)
    index = RunIndex(path)

    if args.action == "list":
        entries = index.list(limit=args.last, circuit=args.circuit)
        if not entries:
            print(f"runs: no records in {path}")
            return 0
        rows = []
        for e in entries:
            when = time_mod.strftime("%Y-%m-%d %H:%M:%S",
                                     time_mod.localtime(e.created))
            coverage = [value for name, value
                        in e.record.get("gauges", {}).items()
                        if name.endswith("coverage_percent")]
            cov = max(coverage) if coverage else None
            rows.append([
                e.id, e.circuit, e.flow, f"{e.wall_seconds:.3f}",
                f"{cov:.2f}" if cov is not None else "-",
                e.git_rev or "-", e.config_fp[:10], when,
            ])
        print(format_table(
            ["id", "circuit", "flow", "wall_s",
             "cov%", "rev", "config_fp", "created"],
            rows, title=f"run index {path} ({index.count()} records)",
            align_left=(1, 2, 5, 6, 7)))
        return 0

    if args.action == "show":
        entry = index.get(args.id)
        if entry is None:
            print(f"runs: no record {args.id} in {path}")
            return 1
        print(json.dumps(entry.record, indent=2, sort_keys=True))
        return 0

    if args.action == "trend":
        latest = index.latest(circuit=args.circuit)
        if latest is None:
            where = f" for circuit {args.circuit}" if args.circuit else ""
            print(f"runs: no records{where} in {path}")
            return 1 if getattr(args, "assert_", False) else 0
        window = index.same_fingerprint(
            latest.circuit_fp, latest.config_fp, limit=args.last)
        if len(window) < 2:
            print(f"runs: only {len(window)} same-fingerprint record(s) "
                  f"for {latest.circuit} — need 2+ for a trend")
            return 0
        report = compute_trend(
            window, gates=args.gate or DETERMINISTIC_GATES,
            z_threshold=args.z_threshold)
        print(render_trend(report, top=args.top))
        if getattr(args, "assert_", False) and not report.passed:
            print(f"\nTREND GATE FAILED: {len(report.drift)} "
                  f"deterministic counter(s) drifted across "
                  f"{report.window} same-fingerprint runs")
            return 1
        if getattr(args, "assert_", False):
            print("\ntrend gate passed (deterministic counters stable; "
                  f"{len(report.outliers)} wall-clock outlier(s) "
                  "flagged, non-fatal)")
        return 0

    if args.action == "gc":
        before = index.count()
        deleted = index.gc(keep=args.keep)
        print(f"runs gc: deleted {deleted} of {before} records "
              f"(kept the newest {max(1, args.keep)} per fingerprint) "
              f"in {path}")
        return 0

    print(f"runs: unknown action {args.action!r}")
    return 2


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as time_mod

    from .obs.live import JournalFollower, ProgressModel, render_watch

    journal = Path(args.journal)
    model = ProgressModel()
    follower = JournalFollower(journal)
    if args.once:
        if not journal.exists():
            print(f"watch: {journal}: no journal (yet)")
            return 0
        for event in follower.poll():
            model.ingest(event)
        print(render_watch(model.snapshot(), top_metrics=args.top))
        return 0
    interactive = sys.stdout.isatty()
    try:
        while True:
            for event in follower.poll():
                model.ingest(event)
            text = render_watch(model.snapshot(), top_metrics=args.top)
            if interactive:
                # Clear + home; plain prints (with a separator) when piped.
                print("\x1b[2J\x1b[H" + text, flush=True)
            else:
                print(text + "\n--", flush=True)
            if follower.finished:
                return 0
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from .obs.journal import read_journal
    from .obs.trace import write_chrome_trace

    try:
        events = read_journal(args.journal)
    except (OSError, ValueError) as exc:
        print(f"export-trace: {exc}")
        return 2
    if not events:
        print(f"export-trace: {args.journal}: no journal events")
        return 2
    trace = write_chrome_trace(args.output, events)
    print(f"wrote {len(trace['traceEvents'])} trace events "
          f"(trace {trace['otherData']['trace_id'][:12] or '?'}) "
          f"to {args.output}")
    return 0


def _export_cache_env(args: argparse.Namespace) -> None:
    """Make a ``--cache`` request visible to the whole process tree.

    ``table``/``report`` run their per-circuit flows through the
    experiments runner — possibly in prefetch worker processes — so the
    resolved cache directory is exported via ``REPRO_CACHE`` rather than
    threaded through a FlowConfig: the runner builds its own configs,
    and spawn-started workers re-read the environment.
    """
    import os

    from .cache import CACHE_ENV

    resolved = _cache_dir(args)
    if resolved is not None:
        os.environ[CACHE_ENV] = str(resolved)


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import runner

    _export_cache_env(args)
    runner.prefetch(
        suite_mod.suite_circuits(args.profile), args.jobs,
        translation=args.number in ("6", "7"),
    )
    module = {"5": table5, "6": table6, "7": table7}[args.number]
    module.main(args.profile)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import runner
    from .experiments.report import build_report

    _export_cache_env(args)
    runner.prefetch(
        suite_mod.suite_circuits(args.profile), args.jobs, translation=True,
    )
    text = build_report(args.profile)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze

    print(analyze(_resolve_circuit(args.circuit)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .testseq import write_stil, write_vcd

    out = Path(args.output)
    writers = {".vcd": write_vcd, ".stil": write_stil}
    if out.suffix not in writers:
        print(f"unsupported extension {out.suffix!r} (use .vcd or .stil)")
        return 1
    circuit = _resolve_circuit(args.circuit)
    flow = generation_flow(circuit, _flow_config(args))
    sequence = flow.omitted.sequence if flow.omitted else flow.raw
    scan_circuit = flow.scan_circuit.circuit
    writers[out.suffix](sequence, out, circuit=scan_circuit)
    print(f"wrote {len(sequence)} cycles ({sequence.scan_vector_count()} "
          f"scan) for {scan_circuit.name} to {out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import ResultStore, resolve_cache_dir

    root = resolve_cache_dir(args.dir if args.dir else None)
    if root is None:
        from .cache import DEFAULT_CACHE_DIR

        root = Path(DEFAULT_CACHE_DIR)
    store = ResultStore(root)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} under {root}")
        return 0
    stats = store.stats()
    print(f"cache root: {stats.root}")
    print(f" entries: {stats.entries}")
    print(f"   bytes: {stats.total_bytes}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.app import ServerConfig, serve

    serve(ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        state_dir=args.state,
        cache_dir=args.cache,
        run_index=args.run_index,
        queue_depth=args.queue_depth,
        wall_budget=args.wall_budget,
        cycle_budget=args.cycle_budget,
        drain_timeout=args.drain_timeout,
        max_records=args.max_records,
        max_body_bytes=args.max_body,
    ))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    circuit = _resolve_circuit(args.circuit)
    for key, value in circuit.stats().items():
        print(f"{key:>8}: {value}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("s27 (exact netlist)")
    for spec in suite_mod.PAPER_CIRCUITS:
        print(f"{spec.name} (synthetic stand-in, {spec.family}, "
              f"inp={spec.paper_inputs} stvr={spec.paper_state_vars} "
              f"faults~{spec.paper_faults}, tier={spec.tier})")
    for spec in corpus_mod.CORPUS.values():
        print(f"corpus:{spec.name} (big-circuit stand-in, {spec.family}, "
              f"pi={spec.num_inputs} po={spec.num_outputs} "
              f"ff={spec.num_flops} gates={spec.num_gates})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for testing/sphinx)."""
    parser = argparse.ArgumentParser(
        prog="repro-atpg",
        description="Scan-as-primary-input test generation and compaction "
                    "(Pomeranz & Reddy, DATE 2003 reproduction).",
    )
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry_group = telemetry.add_argument_group("telemetry")
    telemetry_group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="stream a JSONL run journal of structured events to FILE")
    telemetry_group.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the metrics/spans JSON artifact to FILE on exit")
    flowopts = argparse.ArgumentParser(add_help=False)
    flow_group = flowopts.add_argument_group("flow")
    flow_group.add_argument("--seed", type=int, default=0)
    flow_group.add_argument(
        "--cache", nargs="?", const="", default=None, metavar="DIR",
        help="persist flow results to the content-addressed store "
             "under DIR and replay them on warm runs (bare --cache = "
             "$REPRO_CACHE or .repro-cache)")
    flow_group.add_argument(
        "--run-index", nargs="?", const="", default=None, metavar="DB",
        help="append a run record to the SQLite run index DB when the "
             "flow finishes (bare --run-index = $REPRO_RUN_INDEX or "
             ".repro-runs.sqlite; implies a telemetry session)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[telemetry, flowopts],
                         help="Section 2 generation + Section 4 "
                              "compaction on one circuit")
    gen.add_argument("circuit")
    gen.add_argument("--no-compact", action="store_true")
    gen.add_argument("--show-sequence", action="store_true")
    gen.set_defaults(func=_cmd_generate)

    trans = sub.add_parser("translate", parents=[telemetry, flowopts],
                           help="Section 3 translation flow on one circuit")
    trans.add_argument("circuit")
    trans.set_defaults(func=_cmd_translate)

    prof = sub.add_parser("profile", parents=[telemetry, flowopts],
                          help="run both flows with telemetry on and "
                               "print the per-phase breakdown")
    prof.add_argument("circuit")
    prof.add_argument("--skip-translation", action="store_true",
                      help="profile the generation flow only")
    prof.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N most expensive phases")
    prof.set_defaults(func=_cmd_profile)

    exf = sub.add_parser("explain-fault", parents=[telemetry, flowopts],
                         help="run the generation flow with the fault "
                              "ledger on and replay one fault's lifecycle")
    exf.add_argument("circuit")
    exf.add_argument("fault",
                     help="collapsed fault class, e.g. 'G10/SA0' or "
                          "'G5->G9.B/SA1'")
    exf.set_defaults(func=_cmd_explain_fault)

    exv = sub.add_parser("explain-vector", parents=[telemetry, flowopts],
                         help="attribute the kept vectors of the "
                              "compacted sequence (all, or one index)")
    exv.add_argument("circuit")
    exv.add_argument("index", nargs="?", type=int, default=None,
                     help="final-sequence vector index (omit for the "
                          "full per-vector table)")
    exv.set_defaults(func=_cmd_explain_vector)

    diff = sub.add_parser("diff-metrics",
                          help="compare two --metrics-out artifacts and "
                               "gate on regression thresholds")
    diff.add_argument("old", help="baseline artifact: a metrics JSON path "
                                  "or a run-index reference "
                                  "(runs:<id> / runs:latest)")
    diff.add_argument("new", help="freshly produced artifact (same forms)")
    diff.add_argument("--run-index", default=None, metavar="DB",
                      help="index database runs:<id> references resolve "
                           "against (default: $REPRO_RUN_INDEX or "
                           ".repro-runs.sqlite)")
    diff.add_argument("--threshold", action="append", default=[],
                      metavar="PATTERN=PCT",
                      help="fail (exit 1) when a metric matching the "
                           "shell-style PATTERN increased by more than "
                           "PCT percent; repeatable")
    diff.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N largest movers")
    diff.add_argument("--all", action="store_true",
                      help="also list unchanged metrics")
    diff.set_defaults(func=_cmd_diff_metrics)

    watch = sub.add_parser("watch",
                           help="tail a --trace journal and render live "
                                "phase progress and ETA")
    watch.add_argument("journal", help="journal file a run is writing")
    watch.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit "
                            "(CI/pipe friendly)")
    watch.add_argument("--interval", type=float, default=1.0, metavar="S",
                       help="seconds between refreshes (default 1.0)")
    watch.add_argument("--top", type=int, default=5, metavar="N",
                       help="metrics shown in the footer (default 5)")
    watch.set_defaults(func=_cmd_watch)

    ext = sub.add_parser("export-trace",
                         help="convert a run journal to Chrome "
                              "trace-event / Perfetto JSON")
    ext.add_argument("journal", help="journal written by --trace")
    ext.add_argument("output", help="trace JSON destination "
                                    "(open in ui.perfetto.dev)")
    ext.set_defaults(func=_cmd_export_trace)

    runs = sub.add_parser("runs",
                          help="browse and trend the run-history index "
                               "written by --run-index")
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument(
        "--run-index", default=None, metavar="DB",
        help="index database (default: $REPRO_RUN_INDEX or "
             ".repro-runs.sqlite)")
    runs_sub = runs.add_subparsers(dest="action", required=True)

    runs_list = runs_sub.add_parser("list", parents=[runs_common],
                                    help="newest records first")
    runs_list.add_argument("--circuit", default=None,
                           help="only records for this circuit name")
    runs_list.add_argument("--last", type=int, default=20, metavar="N",
                           help="records shown (default 20)")

    runs_show = runs_sub.add_parser("show", parents=[runs_common],
                                    help="dump one record as JSON")
    runs_show.add_argument("id", type=int, help="record id (see runs list)")

    runs_trend = runs_sub.add_parser(
        "trend", parents=[runs_common],
        help="median/MAD trend over the last N same-fingerprint "
             "runs; --assert turns it into a regression gate")
    runs_trend.add_argument("--circuit", default=None,
                            help="anchor on the latest record for this "
                                 "circuit (default: latest overall)")
    runs_trend.add_argument("--last", type=int, default=20, metavar="N",
                            help="window size (default 20)")
    runs_trend.add_argument("--top", type=int, default=None, metavar="N",
                            help="rows shown per section")
    runs_trend.add_argument("--gate", action="append", default=[],
                            metavar="PATTERN",
                            help="override the deterministic-counter "
                                 "gate patterns; repeatable")
    runs_trend.add_argument("--z-threshold", type=float, default=None,
                            metavar="Z",
                            help="modified z-score above which a "
                                 "wall-clock value is an outlier "
                                 "(default 3.5)")
    runs_trend.add_argument("--assert", dest="assert_", action="store_true",
                            help="exit 1 on deterministic drift "
                                 "(wall-clock outliers are flagged, "
                                 "never fatal)")

    runs_gc = runs_sub.add_parser(
        "gc", parents=[runs_common],
        help="prune old records, keeping the newest N per "
             "(circuit, config) fingerprint")
    runs_gc.add_argument("--keep", type=int, default=5, metavar="N",
                         help="records kept per fingerprint (default 5; "
                              "the newest is never deleted)")
    runs.set_defaults(func=_cmd_runs)

    table = sub.add_parser("table", parents=[telemetry],
                           help="regenerate a paper table")
    table.add_argument("number", choices=["5", "6", "7"])
    table.add_argument("--profile", default=None,
                       choices=sorted(suite_mod.PROFILES))
    table.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run the per-circuit flows N circuits at a "
                            "time (default 1)")
    table.add_argument("--cache", nargs="?", const="", default=None,
                       metavar="DIR",
                       help="share a content-addressed result store "
                            "across the per-circuit flows (exported to "
                            "prefetch workers via $REPRO_CACHE)")
    table.set_defaults(func=_cmd_table)

    rep = sub.add_parser("report", parents=[telemetry],
                         help="run the whole evaluation and "
                              "render a markdown report")
    rep.add_argument("--profile", default=None,
                     choices=sorted(suite_mod.PROFILES))
    rep.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run the per-circuit flows N circuits at a "
                          "time (default 1)")
    rep.add_argument("--cache", nargs="?", const="", default=None,
                     metavar="DIR",
                     help="share a content-addressed result store "
                          "across the per-circuit flows (exported to "
                          "prefetch workers via $REPRO_CACHE)")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=_cmd_report)

    ana = sub.add_parser("analyze", parents=[telemetry],
                         help="structure report (logic and sequential "
                              "depth)")
    ana.add_argument("circuit")
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("export", parents=[telemetry, flowopts],
                         help="generate, compact and export a "
                              "test sequence (.vcd / .stil)")
    exp.add_argument("circuit")
    exp.add_argument("output")
    exp.set_defaults(func=_cmd_export)

    cache = sub.add_parser("cache",
                           help="inspect or clear the content-addressed "
                                "result store")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("dir", nargs="?", default=None,
                       help="store root (default: $REPRO_CACHE or "
                            ".repro-cache)")
    cache.set_defaults(func=_cmd_cache)

    srv = sub.add_parser("serve", parents=[telemetry],
                         help="run the ATPG-as-a-service daemon "
                              "(HTTP/JSON submissions, dedup, tenant "
                              "fair queueing, SSE job streams)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8349,
                     help="bind port (default 8349; 0 = ephemeral)")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="persistent worker processes / concurrent "
                          "jobs (default 2)")
    srv.add_argument("--cache", default=None, metavar="DIR",
                     help="result store shared by all tenants "
                          "(default <state>/cache)")
    srv.add_argument("--state", default=".repro-serve", metavar="DIR",
                     help="job specs/journals/results directory "
                          "(default .repro-serve)")
    srv.add_argument("--run-index", default=None, metavar="DB",
                     help="run-history index completed jobs append to "
                          "(default <state>/runs.sqlite)")
    srv.add_argument("--queue-depth", type=int, default=16, metavar="N",
                     help="per-tenant queue depth before 429 "
                          "back-pressure (default 16)")
    srv.add_argument("--wall-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="per-job wall-clock budget (default: none)")
    srv.add_argument("--cycle-budget", type=int, default=None,
                     metavar="CYCLES",
                     help="per-job fault-simulation cycle budget "
                          "(default: none)")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="shutdown grace for running jobs (default 30)")
    srv.add_argument("--max-records", type=int, default=1024, metavar="N",
                     help="terminal job records kept in memory before "
                          "the oldest are evicted (default 1024)")
    srv.add_argument("--max-body", type=int, default=16 * 1024 * 1024,
                     metavar="BYTES",
                     help="request-body size limit, 413 above it "
                          "(default 16 MiB)")
    srv.set_defaults(func=_cmd_serve)

    info = sub.add_parser("info", parents=[telemetry],
                          help="print circuit statistics")
    info.add_argument("circuit")
    info.set_defaults(func=_cmd_info)

    lst = sub.add_parser("list", parents=[telemetry],
                         help="list suite circuits")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code.

    ``--trace`` / ``--metrics-out`` (or the ``profile`` subcommand, which
    implies telemetry) run the dispatched command inside an
    :func:`repro.obs.session`; the metrics artifact is written after the
    command returns.
    """
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    wants_ledger = args.command in ("explain-fault", "explain-vector")
    # A run index on a flow command implies telemetry so the appended
    # record carries the run's full metrics artifact.
    wants_history = False
    if args.command in ("generate", "translate", "profile", "export",
                        "explain-fault", "explain-vector"):
        from .obs.history import resolve_run_index

        wants_history = resolve_run_index(_run_index_arg(args)) is not None
    wants_telemetry = (
        trace is not None or metrics_out is not None
        or args.command in ("profile", "serve") or wants_ledger
        or wants_history
    )
    def dispatch() -> int:
        try:
            return args.func(args)
        except (CircuitError, FileNotFoundError) as exc:
            # Bad circuit arguments (unsupported extension, malformed
            # netlist, missing file) are user errors: one line, no
            # traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if not wants_telemetry:
        return dispatch()
    with obs.session(trace=trace, ledger=wants_ledger) as telemetry:
        status = dispatch()
    if metrics_out:
        from .obs.report import write_metrics_json

        meta = {"command": args.command}
        if getattr(args, "circuit", None):
            meta["circuit"] = args.circuit
        write_metrics_json(metrics_out, telemetry, meta=meta)
        print(f"metrics written to {metrics_out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
