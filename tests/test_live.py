"""Tests for repro.obs.live / repro.obs.trace — journal tailing, the
progress/ETA model, ``repro-atpg watch``, Chrome trace export, and the
cache hit-rate tallies.

The concurrency tests are the heart: a *separate writer process*
appends spans and events to a journal while this process tails it,
and every event must come through exactly once, with torn lines
buffered rather than crashing the follower.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro import generation_flow, obs
from repro.circuit import s27
from repro.cache import ResultStore
from repro.cli import main
from repro.obs import (
    JournalFollower,
    ProgressModel,
    export_chrome_trace,
    follow_journal,
    new_span_id,
    new_trace_id,
    progress_snapshot,
    read_journal,
    render_watch,
)
from repro.obs.journal import RunJournal
from repro.obs.live import DEFAULT_PHASE_WEIGHTS, _FileTail


# -- trace identity ----------------------------------------------------------


def test_trace_ids_are_fresh_hex():
    tid, sid = new_trace_id(), new_span_id()
    assert len(tid) == 32 and int(tid, 16) >= 0
    assert len(sid) == 16 and int(sid, 16) >= 0
    assert new_trace_id() != tid
    assert new_span_id() != sid


def test_session_threads_trace_id_through_journal_and_spans(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=path) as telemetry:
        trace_id = telemetry.trace_id
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    events = read_journal(path)
    assert events[0]["data"]["trace_id"] == trace_id
    spans = [e for e in events if e["type"] == "span.open"]
    ids = {e["data"]["path"]: e["data"]["span"] for e in spans}
    parents = {e["data"]["path"]: e["data"]["parent"] for e in spans}
    assert ids["outer"] != ids["outer/inner"]
    assert parents["outer"] == ""
    assert parents["outer/inner"] == ids["outer"]
    closes = [e for e in events if e["type"] == "span.close"]
    assert {e["data"]["span"] for e in closes} == set(ids.values())


# -- incremental tailing -----------------------------------------------------


def test_file_tail_buffers_torn_line(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.emit("alpha")
    tail = _FileTail(path, "main")
    assert [e["type"] for e in tail.poll()] == ["journal.open", "alpha"]
    # Simulate the writer caught mid-write: append half a record.
    whole = json.dumps({"seq": 2, "t": 9.0, "type": "beta", "data": {}})
    with path.open("a", encoding="utf-8") as fh:
        fh.write(whole[:10])
        fh.flush()
    assert tail.poll() == []        # torn tail buffered, not parsed
    with path.open("a", encoding="utf-8") as fh:
        fh.write(whole[10:] + "\n")
    assert [e["type"] for e in tail.poll()] == ["beta"]
    assert tail.malformed == 0
    journal.close()


def test_file_tail_counts_malformed_complete_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{not json}\n")
    tail = _FileTail(path, "main")
    assert [e["type"] for e in tail.poll()] == ["journal.open"]
    assert tail.malformed == 1
    journal.close()


_WRITER_SCRIPT = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.obs.journal import RunJournal

journal = RunJournal({path!r}, trace_id="ab" * 16)
print("ready", flush=True)
for i in range({count}):
    journal.emit("span.open", path="work.%d" % i, span="%016x" % i, parent="")
    journal.emit("progress.work", phase="work", total={count}, done=i,
                 unit="steps", pid=os.getpid())
    journal.emit("span.close", path="work.%d" % i, span="%016x" % i)
    time.sleep(0.002)
journal.close()
"""


def test_tail_while_separate_process_writes(tmp_path):
    """A writer *process* appends spans and events while this process
    tails — no event lost, no partial-line crash, and ``watch --once``
    renders mid-run."""
    path = tmp_path / "run.jsonl"
    count = 150
    script = _WRITER_SCRIPT.format(
        src=str((os.path.dirname(os.path.dirname(__file__))) + "/src"),
        path=str(path), count=count)
    writer = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert writer.stdout.readline().strip() == "ready"
        seen = []
        watched_mid_run = False
        for event in follow_journal(path, poll_interval=0.005, timeout=30):
            seen.append(event)
            if not watched_mid_run and len(seen) > 5 \
                    and writer.poll() is None:
                assert main(["watch", str(path), "--once"]) == 0
                watched_mid_run = True
        assert writer.wait(timeout=30) == 0
    finally:
        if writer.poll() is None:
            writer.kill()
        writer.stdout.close()
    # journal.open + 3 per iteration + journal.close — each exactly once.
    assert len(seen) == 2 + 3 * count
    seqs = [e["seq"] for e in seen]
    assert seqs == list(range(2 + 3 * count))
    follower = JournalFollower(path)
    follower.poll()
    assert follower.malformed == 0 and follower.finished


def test_watch_once_renders_mid_run_output(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path, trace_id="cd" * 16)
    journal.emit("progress.plan", flow="generation", phases=["atpg"])
    journal.emit("span.open", path="pipeline", span="1" * 16, parent="")
    assert main(["watch", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "RUNNING" in out and "cdcdcdcdcdcd" in out
    assert "generation" in out and "pipeline" in out
    journal.close()
    assert main(["watch", str(path), "--once"]) == 0
    assert "FINISHED" in capsys.readouterr().out


def test_watch_once_missing_journal_is_not_an_error(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "nope.jsonl"), "--once"]) == 0
    assert "no journal" in capsys.readouterr().out


# -- progress model ----------------------------------------------------------


def test_progress_model_on_recorded_generation_run(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=path):
        generation_flow(s27())
    model = ProgressModel()
    for event in read_journal(path):
        model.ingest(event)
    snap = model.snapshot()
    assert snap.finished and snap.started
    assert snap.fraction == 1.0 and snap.eta == 0.0
    assert snap.flow == "generation"
    names = {p.name for p in snap.phases}
    assert {"atpg", "restoration", "omission"} <= names
    details = {p.name: p.detail for p in snap.phases}
    assert details["atpg"].endswith("faults")
    text = render_watch(snap)
    assert "FINISHED" in text and "100.0%" in text
    assert text.isascii()


def test_progress_model_mid_run_fraction_and_eta():
    model = ProgressModel()
    model.ingest({"seq": 0, "t": 0.0, "type": "journal.open", "_wall": 100.0,
                  "data": {"wall_time": 100.0, "trace_id": "ef" * 16}})
    model.ingest({"seq": 1, "t": 0.0, "type": "progress.plan", "_wall": 100.0,
                  "data": {"flow": "generation",
                           "phases": ["collapse", "atpg", "omission"]}})
    model.ingest({"seq": 2, "t": 0.1, "type": "span.open", "_wall": 100.1,
                  "data": {"path": "pipeline"}})
    model.ingest({"seq": 3, "t": 0.1, "type": "span.open", "_wall": 100.1,
                  "data": {"path": "pipeline/collapse"}})
    model.ingest({"seq": 4, "t": 0.2, "type": "span.close", "_wall": 100.2,
                  "data": {"path": "pipeline/collapse", "duration": 0.1}})
    model.ingest({"seq": 5, "t": 0.2, "type": "span.open", "_wall": 100.2,
                  "data": {"path": "pipeline/atpg"}})
    model.ingest({"seq": 6, "t": 0.2, "type": "progress.work", "_wall": 100.2,
                  "data": {"phase": "atpg", "total": 100, "unit": "faults"}})
    model.ingest({"seq": 7, "t": 5.0, "type": "coverage", "_wall": 105.0,
                  "data": {"phase": "pipeline.atpg", "detected": 50}})
    snap = model.snapshot(now=105.0)
    weights = DEFAULT_PHASE_WEIGHTS
    total = weights["collapse"] + weights["atpg"] + weights["omission"]
    expected = (weights["collapse"] + 0.5 * weights["atpg"]) / total
    assert snap.fraction == pytest.approx(expected)
    assert not snap.finished
    assert snap.elapsed == pytest.approx(5.0)
    assert snap.eta == pytest.approx(5.0 * (1 - expected) / expected)
    assert snap.phase == "pipeline/atpg"
    assert "50/100 faults" in render_watch(snap)


def test_render_watch_before_any_event():
    assert render_watch(ProgressModel().snapshot(now=0.0)) == \
        "waiting for journal events..."


def test_in_process_progress_snapshot():
    assert progress_snapshot() is None       # no active session
    with obs.session():
        obs.event("progress.plan", flow="generation", phases=["atpg"])
        with obs.span("pipeline"):
            with obs.span("atpg"):
                snap = progress_snapshot()
    assert snap is not None and snap.started and not snap.finished
    assert snap.phase == "pipeline/atpg"
    assert snap.flow == "generation"


# -- trace export ------------------------------------------------------------


def test_export_chrome_trace_structure(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=path) as telemetry:
        trace_id = telemetry.trace_id
        generation_flow(s27())
    trace = export_chrome_trace(read_journal(path))
    events = trace["traceEvents"]
    assert events and trace["otherData"]["trace_id"] == trace_id
    opens = [e for e in events if e["ph"] == "B"]
    closes = [e for e in events if e["ph"] == "E"]
    assert len(opens) == len(closes) > 0
    assert all(e.get("ts", 0) >= 0 for e in events)
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta} == {"main"}
    json.dumps(trace)       # must be valid JSON end to end


def test_export_synthesizes_close_for_unclosed_span(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path, trace_id=new_trace_id())
    journal.emit("span.open", path="pipeline", span="a" * 16, parent="")
    journal.emit("span.open", path="pipeline/atpg", span="b" * 16,
                 parent="a" * 16)
    del journal     # crashed run: no span.close, no journal.close
    trace = export_chrome_trace(read_journal(path))
    opens = [e for e in trace["traceEvents"] if e["ph"] == "B"]
    closes = [e for e in trace["traceEvents"] if e["ph"] == "E"]
    assert len(opens) == len(closes) == 2


def test_export_trace_cli_writes_valid_json(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=path) as telemetry:
        trace_id = telemetry.trace_id
        generation_flow(s27())
    out = tmp_path / "trace.json"
    assert main(["export-trace", str(path), str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["otherData"]["trace_id"] == trace_id
    assert trace["otherData"]["sources"] == ["main"]
    opens = [e for e in trace["traceEvents"] if e["ph"] == "B"]
    closes = [e for e in trace["traceEvents"] if e["ph"] == "E"]
    assert len(opens) == len(closes) > 0
    assert {e["pid"] for e in trace["traceEvents"]} == {1}


def test_export_trace_cli_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a journal\n", encoding="utf-8")
    assert main(["export-trace", str(bad), str(tmp_path / "out.json")]) == 2


# -- cache hit-rate tallies --------------------------------------------------


def test_cache_tallies_persist_and_rate(tmp_path):
    store = ResultStore(tmp_path / "cache")
    store.put("detection", "a" * 40, "b" * 40, {"times": []})
    store.get("detection", "a" * 40, "b" * 40)      # hit
    store.get("detection", "a" * 40, "c" * 40)      # miss
    store.get("atpg", "a" * 40, "b" * 40)           # miss
    assert store.tallies() == {"detection": [1, 1], "atpg": [0, 1]}
    store.flush_tallies()
    # A fresh store instance reads the persisted file.
    fresh = ResultStore(tmp_path / "cache")
    stats = fresh.stats()
    assert stats.tallies["detection"] == [1, 1]
    assert stats.hit_rate("detection") == pytest.approx(50.0)
    assert stats.hit_rate("atpg") == pytest.approx(0.0)
    assert stats.hit_rate("never_looked_up") is None


def test_cache_stats_cli_shows_hit_rates(tmp_path, capsys):
    root = tmp_path / "cache"
    store = ResultStore(root)
    store.put("detection", "a" * 40, "b" * 40, {"times": []})
    store.get("detection", "a" * 40, "b" * 40)
    store.get("detection", "a" * 40, "c" * 40)
    store.flush_tallies()
    assert main(["cache", "stats", str(root)]) == 0
    out = capsys.readouterr().out
    assert "hit rates" in out
    assert " 50.0%" in out and "1 hit / 2 lookups" in out


def test_cache_tally_file_damage_is_a_clean_slate(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "hit-tally.json").write_text("][", encoding="utf-8")
    store = ResultStore(root)
    store.get("detection", "a" * 40, "b" * 40)      # miss; must not raise
    store.flush_tallies()
    assert store.tallies() == {"detection": [0, 1]}
