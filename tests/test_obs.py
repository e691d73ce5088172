"""Tests for the ``repro.obs`` telemetry layer.

Covers the metrics registry arithmetic, span nesting/monotonicity, the
JSONL journal schema round-trip, the no-op-when-disabled guarantee, the
end-to-end ``repro-atpg profile`` acceptance path (nonzero hot-layer
counters plus per-phase span durations in the metrics artifact), and
per-phase peak-RSS sampling from span close to the run record.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.journal import SCHEMA as JOURNAL_SCHEMA
from repro.obs.journal import read_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import METRICS_SCHEMA, metrics_artifact, render_profile
from repro.obs.spans import SpanLog, peak_rss_kb


# -- metrics registry -------------------------------------------------------


def test_counter_arithmetic():
    registry = MetricsRegistry()
    registry.incr("a.b")
    registry.incr("a.b", 4)
    assert registry.counter("a.b").value == 5
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.b": 5}


def test_gauge_is_set_not_accumulated():
    registry = MetricsRegistry()
    registry.set_gauge("cov", 50.0)
    registry.set_gauge("cov", 75.0)
    assert registry.snapshot()["gauges"] == {"cov": 75.0}


def test_histogram_summary():
    registry = MetricsRegistry()
    for value in (2.0, 4.0, 12.0):
        registry.observe("len", value)
    hist = registry.snapshot()["histograms"]["len"]
    assert hist["count"] == 3
    assert hist["total"] == 18.0
    assert hist["mean"] == 6.0
    assert hist["min"] == 2.0
    assert hist["max"] == 12.0


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.incr("x")
    with pytest.raises(ValueError):
        registry.set_gauge("x", 1.0)


def test_registry_reset_zeroes_everything():
    registry = MetricsRegistry()
    registry.incr("c", 3)
    registry.set_gauge("g", 9.0)
    registry.observe("h", 7.0)
    registry.reset()
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"c": 0}
    assert snapshot["gauges"] == {"g": 0.0}
    assert snapshot["histograms"]["h"]["count"] == 0


# -- spans ------------------------------------------------------------------


def test_span_nesting_builds_paths():
    log = SpanLog()
    log.open("outer")
    log.open("inner")
    inner = log.close()
    outer = log.close()
    assert inner.path == "outer/inner"
    assert inner.depth == 1
    assert outer.path == "outer"
    assert outer.depth == 0


def test_span_timing_monotonic_and_nested():
    log = SpanLog()
    log.open("outer")
    log.open("inner")
    inner = log.close()
    outer = log.close()
    assert inner.duration >= 0.0
    assert outer.duration >= inner.duration
    assert outer.start <= inner.start
    assert inner.end <= outer.end


def test_span_name_rejects_separator():
    log = SpanLog()
    with pytest.raises(ValueError):
        log.open("a/b")


def test_close_without_open_raises():
    with pytest.raises(RuntimeError):
        SpanLog().close()


def test_aggregate_orders_parents_before_children():
    log = SpanLog()
    log.open("root")
    for _ in range(2):
        log.open("child")
        log.close()
    log.close()
    aggregated = log.aggregate()
    assert list(aggregated) == ["root", "root/child"]
    assert aggregated["root/child"]["count"] == 2


# -- sessions / disabled hooks ----------------------------------------------


def test_hooks_are_noops_when_disabled():
    assert not obs.enabled()
    assert obs.active() is None
    # None of these may raise or create state anywhere.
    obs.incr("never.recorded", 3)
    obs.set_gauge("never.recorded.g", 1.0)
    obs.observe("never.recorded.h", 1.0)
    obs.event("never.recorded.e", detail=1)
    obs.coverage("never.recorded.phase", 1, 2)
    noop = obs.span("never")
    with noop:
        pass
    assert noop.duration is None
    # The shared no-op span is reused, not allocated per call.
    assert obs.span("other") is noop


def test_stopwatch_measures_even_when_disabled():
    assert not obs.enabled()
    with obs.stopwatch("timed.block") as watch:
        pass
    assert watch.duration is not None
    assert watch.duration >= 0.0


def test_session_collects_and_restores():
    with obs.session() as telemetry:
        assert obs.enabled()
        assert obs.active() is telemetry
        obs.incr("in.session", 2)
        with obs.span("phase"):
            obs.incr("in.session")
    assert not obs.enabled()
    assert telemetry.metrics.snapshot()["counters"] == {"in.session": 3}
    assert "phase" in telemetry.spans.aggregate()
    # After the session ends, hooks are inert again.
    obs.incr("in.session", 100)
    assert telemetry.metrics.snapshot()["counters"] == {"in.session": 3}


def test_sessions_nest_and_restore_previous():
    with obs.session() as outer:
        obs.incr("which")
        with obs.session() as inner:
            obs.incr("which")
            assert obs.active() is inner
        assert obs.active() is outer
        obs.incr("which")
    assert outer.metrics.counter("which").value == 2
    assert inner.metrics.counter("which").value == 1


# -- journal -----------------------------------------------------------------


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=str(path)):
        with obs.span("phase"):
            obs.event("custom.kind", payload=7)
    events = read_journal(path)
    kinds = [e["type"] for e in events]
    assert kinds[0] == "journal.open"
    assert kinds[-1] == "journal.close"
    assert "span.open" in kinds and "span.close" in kinds
    assert "custom.kind" in kinds
    custom = next(e for e in events if e["type"] == "custom.kind")
    assert custom["data"] == {"payload": 7}
    close = next(e for e in events if e["type"] == "span.close")
    assert close["data"]["path"] == "phase"
    assert close["data"]["duration"] >= 0.0
    # Every line is standalone JSON (streamable by line-oriented tools).
    for line in path.read_text().splitlines():
        json.loads(line)


def test_read_journal_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0, "t": 0.0, "type": "journal.open", '
                    '"data": {"schema": "other/9"}}\n')
    with pytest.raises(ValueError):
        read_journal(path)


def test_read_journal_rejects_seq_gap(tmp_path):
    path = tmp_path / "gap.jsonl"
    path.write_text(
        '{"seq": 0, "t": 0.0, "type": "journal.open", '
        f'"data": {{"schema": "{JOURNAL_SCHEMA}"}}}}\n'
        '{"seq": 2, "t": 0.1, "type": "x", "data": {}}\n'
    )
    with pytest.raises(ValueError):
        read_journal(path)


def test_read_journal_tolerates_truncated_trailing_line(tmp_path):
    """A killed writer leaves at most one partial record at the end;
    the reader drops it instead of raising."""
    path = tmp_path / "run.jsonl"
    with obs.session(trace=str(path)):
        obs.event("custom.kind", payload=1)
        obs.event("custom.kind", payload=2)
    intact = read_journal(path)
    text = path.read_text()
    lines = text.splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    events = read_journal(path)
    assert events == intact[:-1]


def test_read_journal_rejects_corrupt_middle_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=str(path)):
        obs.event("custom.kind", payload=1)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:5]  # mangle a non-trailing line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt journal line 2"):
        read_journal(path)


def test_read_journal_rejects_future_schema_version(tmp_path):
    path = tmp_path / "future.jsonl"
    family = JOURNAL_SCHEMA.rsplit("/", 1)[0]
    path.write_text(
        '{"seq": 0, "t": 0.0, "type": "journal.open", '
        f'"data": {{"schema": "{family}/999"}}}}\n'
    )
    with pytest.raises(ValueError, match="unsupported journal schema"):
        read_journal(path)


# -- profile rendering -------------------------------------------------------


def test_render_profile_sorts_and_truncates():
    import time

    with obs.session() as telemetry:
        with obs.span("fast"):
            pass
        with obs.span("slow"):
            time.sleep(0.02)
        with obs.span("mid"):
            time.sleep(0.005)
    text = render_profile(telemetry)
    lines = [l for l in text.splitlines() if l and not l.startswith("-")]
    phases = [l.split()[0] for l in lines[2:5]]
    assert phases[0] == "slow"  # time-descending
    assert set(phases) == {"slow", "mid", "fast"}

    topped = render_profile(telemetry, top=1)
    assert "slow" in topped
    assert "mid" not in topped.split("counters")[0]
    assert "... 2 more phases" in topped


def test_render_profile_ties_break_by_name():
    class _FixedSpans:
        @staticmethod
        def aggregate():
            return {
                "b": {"count": 1, "total_seconds": 1.0, "depth": 0},
                "a": {"count": 1, "total_seconds": 1.0, "depth": 0},
                "c": {"count": 1, "total_seconds": 2.0, "depth": 0},
            }

    telemetry = obs.Telemetry()
    telemetry.spans = _FixedSpans()
    lines = render_profile(telemetry).splitlines()
    phases = [line.split()[0] for line in lines[3:6]]
    assert phases == ["c", "a", "b"]  # time desc, then name asc

    # Two flows: the slower root's child is cheaper than the faster
    # root, yet each child prints directly under its own root.
    class _TwoRoots:
        @staticmethod
        def aggregate():
            return {
                "gen": {"count": 1, "total_seconds": 3.0, "depth": 0},
                "gen/omission": {"count": 1, "total_seconds": 1.0,
                                 "depth": 1},
                "gen/atpg": {"count": 1, "total_seconds": 1.5, "depth": 1},
                "tr": {"count": 1, "total_seconds": 2.0, "depth": 0},
                "tr/omission": {"count": 1, "total_seconds": 1.2,
                                "depth": 1},
            }

    telemetry.spans = _TwoRoots()
    lines = render_profile(telemetry).splitlines()
    rows = [line.split()[:2] for line in lines[3:8]]
    assert rows == [["gen", "1"], ["atpg", "1"], ["omission", "1"],
                    ["tr", "1"], ["omission", "1"]]
    shares = [float(line.split()[3]) for line in lines[3:8]]
    assert shares == [60.0, 30.0, 20.0, 40.0, 24.0]
    # --top keeps the most expensive rows, each still under its root.
    lines = render_profile(telemetry, top=3).splitlines()
    assert [line.split()[0] for line in lines[3:6]] == ["gen", "atpg",
                                                        "tr"]
    assert "... 2 more phases" in lines[6]


def test_profile_cli_top_flag(tmp_path, capsys):
    assert main(["profile", "s27", "--skip-translation", "--top", "3"]) == 0
    printed = capsys.readouterr().out
    assert "more phases" in printed


# -- artifact + CLI acceptance path ------------------------------------------


def test_metrics_artifact_schema():
    with obs.session() as telemetry:
        obs.incr("a.count", 2)
        with obs.span("root"):
            pass
    artifact = metrics_artifact(telemetry, meta={"circuit": "s27"})
    assert artifact["schema"] == METRICS_SCHEMA
    assert artifact["meta"]["circuit"] == "s27"
    assert artifact["counters"]["a.count"] == 2
    [root] = [s for s in artifact["spans"] if s["path"] == "root"]
    assert root["count"] == 1 and root["total_seconds"] >= 0.0
    json.dumps(artifact)  # plain data, serializable as-is


def test_profile_s27_metrics_artifact(tmp_path, capsys):
    """Acceptance: ``repro-atpg profile s27 --metrics-out`` produces the
    nonzero hot-layer counters and per-phase span durations."""
    out = tmp_path / "metrics.json"
    trace = tmp_path / "trace.jsonl"
    assert main(["profile", "s27", "--metrics-out", str(out),
                 "--trace", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "per-phase time breakdown" in printed

    artifact = json.loads(out.read_text())
    assert artifact["schema"] == METRICS_SCHEMA
    counters = artifact["counters"]
    assert counters["atpg.backtracks"] > 0
    assert counters["faultsim.faults_dropped"] > 0
    assert counters["compaction.omission.attempts"] > 0

    paths = {s["path"]: s for s in artifact["spans"]}
    for phase in ("pipeline.generation", "pipeline.generation/atpg",
                  "pipeline.generation/restoration",
                  "pipeline.generation/omission",
                  "pipeline.translation"):
        assert phase in paths
        assert paths[phase]["total_seconds"] >= 0.0
    # Children cannot out-total their parent.
    children = sum(s["total_seconds"] for p, s in paths.items()
                   if p.startswith("pipeline.generation/"))
    assert children <= paths["pipeline.generation"]["total_seconds"] + 1e-6

    events = read_journal(trace)
    assert events[0]["type"] == "journal.open"
    assert any(e["type"] == "coverage" for e in events)
    # Telemetry is torn down after the CLI returns.
    assert not obs.enabled()


# -- per-phase peak RSS -----------------------------------------------------


class TestPeakRss:
    def test_sampling_returns_positive_on_linux(self):
        assert peak_rss_kb() > 0

    def test_span_log_records_rss_when_tracking(self):
        """Every span close samples peak RSS; there is no switch."""
        log = SpanLog()
        log.open("phase")
        record = log.close()
        assert record.rss_kb > 0
        assert log.aggregate()["phase"]["peak_rss_kb"] > 0

    def test_session_emits_gauges_and_profile_column(self):
        with obs.session() as telemetry:
            with obs.span("pipeline.generation"):
                pass
        gauges = telemetry.metrics.snapshot()["gauges"]
        assert gauges["pipeline.generation.peak_rss_kb"] > 0
        profile = render_profile(telemetry)
        assert "peakMB" in profile
        [span] = metrics_artifact(telemetry)["spans"]
        assert span["peak_rss_kb"] > 0

    def test_rss_lands_in_run_record(self, tmp_path):
        from repro import FlowConfig, generation_flow
        from repro.circuit import s27
        from repro.obs.history import RunIndex

        db = tmp_path / "runs.sqlite"
        with obs.session():
            generation_flow(s27(), FlowConfig(seed=1,
                                              run_index=str(db)))
        entry = RunIndex(db).latest()
        rss_gauges = {name: value
                      for name, value in entry.record["gauges"].items()
                      if name.endswith("peak_rss_kb")}
        assert rss_gauges
        assert all(value > 0 for value in rss_gauges.values())
        assert all(span["peak_rss_kb"] > 0
                   for span in entry.record["spans"])
