"""repro.obs — structured telemetry for the ATPG → fault-sim →
compaction pipeline.

Three cooperating pieces (``docs/OBSERVABILITY.md`` has the full guide):

* a **metrics registry** of named counters / gauges / histograms
  (:mod:`~repro.obs.metrics`), populated by instrumentation hooks in the
  hot layers under the ``atpg.*`` / ``faultsim.*`` / ``compaction.*`` /
  ``pipeline.*`` namespaces;
* **nestable timed spans** (:mod:`~repro.obs.spans`) with a
  context-manager / decorator API, giving per-phase wall-clock
  breakdowns;
* an optional **JSONL run journal** (:mod:`~repro.obs.journal`)
  streaming structured events (span boundaries, metric snapshots,
  coverage deltas) to a file as they happen;
* an optional **fault-lifecycle ledger** (:mod:`~repro.obs.ledger`)
  recording the per-fault provenance chain (targeted-by, detected-at,
  secured-by, keep/omit decisions) behind the ``repro-atpg explain-*``
  subcommands;
* **cross-run regression diffing** (:mod:`~repro.obs.diff`) of two
  ``--metrics-out`` artifacts behind ``repro-atpg diff-metrics``;
* **live monitoring** (:mod:`~repro.obs.live`): journal tailing
  (:func:`follow_journal`), a progress/ETA model fed by span and
  ``progress.*`` events, and the renderer behind
  ``repro-atpg watch``; plus **trace identity and export**
  (:mod:`~repro.obs.trace`): run-scoped trace ids, span ids, and
  Chrome/Perfetto trace-event JSON via ``repro-atpg export-trace``;
* a **run-history index** (:mod:`~repro.obs.history`): every flow run
  with ``--run-index`` appends a versioned record (fingerprints,
  metrics snapshot, journal summary, platform/git rev) to a
  corruption-tolerant SQLite database; ``repro-atpg runs`` browses,
  compares and trend-gates the fleet of records;
* an **OpenMetrics surface** (:mod:`~repro.obs.openmetrics`): render
  any metrics artifact or index record as Prometheus/OpenMetrics text
  via ``repro-atpg metrics-export``.

Telemetry is **off by default and free when off**: every hook is a
global load plus an ``is None`` test until a session is opened with
:func:`session` (the CLI's ``--trace`` / ``--metrics-out`` flags do
this).  :mod:`~repro.obs.report` renders a finished session as the
``repro-atpg profile`` table or the cross-PR metrics JSON artifact.

Typical use::

    from repro import obs
    from repro.obs import write_metrics_json

    with obs.session(trace="s27.jsonl") as telemetry:
        flow = generation_flow(s27())
    write_metrics_json("s27-metrics.json", telemetry)
"""

from .context import (
    Telemetry,
    activate,
    active,
    coverage,
    deactivate,
    enabled,
    event,
    incr,
    observe,
    progress_snapshot,
    session,
    set_gauge,
    span,
    stopwatch,
    timed,
)
from .diff import (
    DiffRow,
    check_thresholds,
    diff_metrics,
    flatten_metrics,
    load_metrics,
    parse_threshold,
    render_diff,
)
from .history import (
    RUN_RECORD_SCHEMA,
    RunEntry,
    RunIndex,
    TrendReport,
    TrendRow,
    build_run_record,
    compare_records,
    compute_trend,
    load_runs_ref,
    record_to_artifact,
    render_trend,
    resolve_run_index,
    run_config_fingerprint,
)
from .journal import SCHEMA as JOURNAL_SCHEMA
from .journal import RunJournal, read_journal, rotated_journal_path
from .ledger import (
    FaultLedger,
    LedgerEvent,
    explain_fault,
    explain_vector,
    render_attribution,
)
from .live import (
    DEFAULT_PHASE_WEIGHTS,
    JournalFollower,
    PhaseInfo,
    ProgressModel,
    ProgressSnapshot,
    follow_journal,
    render_watch,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    write_textfile,
)
from .report import (
    METRICS_SCHEMA,
    metrics_artifact,
    render_profile,
    write_metrics_json,
)
from .spans import SpanLog, SpanRecord
from .trace import (
    TRACE_SCHEMA,
    export_chrome_trace,
    new_span_id,
    new_trace_id,
    write_chrome_trace,
)

__all__ = [
    "FaultLedger",
    "LedgerEvent",
    "explain_fault",
    "explain_vector",
    "render_attribution",
    "DiffRow",
    "load_metrics",
    "flatten_metrics",
    "diff_metrics",
    "render_diff",
    "parse_threshold",
    "check_thresholds",
    "Telemetry",
    "session",
    "active",
    "activate",
    "deactivate",
    "enabled",
    "incr",
    "set_gauge",
    "observe",
    "event",
    "coverage",
    "span",
    "stopwatch",
    "timed",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanLog",
    "SpanRecord",
    "RunJournal",
    "read_journal",
    "rotated_journal_path",
    "JOURNAL_SCHEMA",
    "RUN_RECORD_SCHEMA",
    "RunEntry",
    "RunIndex",
    "TrendReport",
    "TrendRow",
    "build_run_record",
    "compare_records",
    "compute_trend",
    "load_runs_ref",
    "record_to_artifact",
    "render_trend",
    "resolve_run_index",
    "run_config_fingerprint",
    "parse_openmetrics",
    "render_openmetrics",
    "write_textfile",
    "METRICS_SCHEMA",
    "metrics_artifact",
    "render_profile",
    "write_metrics_json",
    "progress_snapshot",
    "DEFAULT_PHASE_WEIGHTS",
    "JournalFollower",
    "PhaseInfo",
    "ProgressModel",
    "ProgressSnapshot",
    "follow_journal",
    "render_watch",
    "TRACE_SCHEMA",
    "export_chrome_trace",
    "new_span_id",
    "new_trace_id",
    "write_chrome_trace",
]
