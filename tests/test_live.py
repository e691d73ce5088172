"""Tests for repro.obs.live / repro.obs.trace — journal tailing, the
progress/ETA model, ``repro-atpg watch`` and Chrome trace export.

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
from repro.cli import main
from repro.obs.journal import RunJournal, read_journal
from repro.obs.live import (
    DEFAULT_PHASE_WEIGHTS,
    JournalFollower,
    ProgressModel,
    render_watch,
)
from repro.obs.trace import export_chrome_trace, new_trace_id


# -- trace identity ----------------------------------------------------------


def test_trace_ids_are_fresh_hex():
    tid = new_trace_id()
    assert len(tid) == 32 and int(tid, 16) >= 0
    assert new_trace_id() != tid


def test_session_threads_trace_id_through_journal_and_spans(tmp_path):
    path = tmp_path / "run.jsonl"
    with obs.session(trace=path) as telemetry:
        trace_id = telemetry.trace_id
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    events = read_journal(path)
    assert events[0]["data"]["trace_id"] == trace_id
    # A span is its path: the paths and the open/close order nest them.
    spans = [(e["type"], e["data"]["path"]) for e in events
             if e["type"] in ("span.open", "span.close")]
    assert spans == [("span.open", "outer"), ("span.open", "outer/inner"),
                     ("span.close", "outer/inner"), ("span.close", "outer")]


# -- incremental tailing -----------------------------------------------------


def test_file_tail_buffers_torn_line(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.emit("alpha")
    tail = JournalFollower(path)
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
    tail = JournalFollower(path)
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
    journal.emit("span.open", path="work.%d" % i)
    journal.emit("progress.work", phase="work", total={count}, done=i,
                 unit="steps", pid=os.getpid())
    journal.emit("span.close", path="work.%d" % i)
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
        follower = JournalFollower(path)
        for event in follower.follow(poll_interval=0.005, timeout=30):
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
    journal.emit("span.open", path="pipeline")
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


def test_progress_model_counts_only_the_current_flow():
    """A second flow's phases must not count as done because the first
    flow finished phases of the same name."""
    events = [("journal.open", {"wall_time": 0.0, "trace_id": "ab" * 16})]
    plans = {
        "pipeline.generation": ["scan_insert", "collapse", "atpg",
                                "restoration", "omission"],
        "pipeline.translation": ["scan_insert", "collapse", "baseline_atpg",
                                 "translate", "restoration", "omission"],
    }
    for root, plan in plans.items():
        events.append(("span.open", {"path": root}))
        events.append(("progress.plan", {"flow": root, "phases": plan}))
        for phase in plan:
            events.append(("span.open", {"path": f"{root}/{phase}"}))
            events.append(("span.close", {"path": f"{root}/{phase}",
                                          "duration": 0.1}))
        events.append(("span.close", {"path": root, "duration": 1.0}))

    def snapshot_after_open(path):
        cut = events.index(("span.open", {"path": path})) + 1
        model = ProgressModel()
        for seq, (etype, data) in enumerate(events[:cut]):
            model.ingest({"seq": seq, "t": 0.1 * seq, "type": etype,
                          "_wall": 0.1 * seq, "data": data})
        return model.snapshot(now=0.1 * cut)

    def share(done):
        weights = DEFAULT_PHASE_WEIGHTS
        plan = plans["pipeline.translation"]
        return sum(weights[p] for p in done) / sum(weights[p] for p in plan)

    snap = snapshot_after_open("pipeline.translation/omission")
    assert snap.phase == "pipeline.translation/omission"
    assert snap.fraction == pytest.approx(
        share(plans["pipeline.translation"][:-1]))
    assert snap.fraction < 1.0 and snap.eta > 0.0
    # Early in translation, generation's same-named phases do not count.
    snap = snapshot_after_open("pipeline.translation/collapse")
    assert snap.fraction == pytest.approx(share(["scan_insert"]))


def test_render_watch_before_any_event():
    assert render_watch(ProgressModel().snapshot(now=0.0)) == \
        "waiting for journal events..."


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
    journal.emit("span.open", path="pipeline")
    journal.emit("span.open", path="pipeline/atpg")
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
