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
    new_span_id,
    new_trace_id,
    read_journal,
    render_watch,
)
from repro.obs.journal import RunJournal
from repro.obs.live import DEFAULT_PHASE_WEIGHTS


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
    store.put("a" * 40, "b" * 40, {"times": []})
    store.get("a" * 40, "b" * 40)      # hit
    store.get("a" * 40, "c" * 40)      # miss
    store.get("d" * 40, "b" * 40)      # miss
    assert store.tallies() == [1, 2]
    # A fresh store instance reads the persisted file.
    fresh = ResultStore(tmp_path / "cache")
    stats = fresh.stats()
    assert stats.tallies == [1, 2]
    assert ResultStore(tmp_path / "never_looked_up").stats().tallies == \
        [0, 0]


def test_cache_stats_cli_shows_hit_rates(tmp_path, capsys):
    root = tmp_path / "cache"
    store = ResultStore(root)
    store.put("a" * 40, "b" * 40, {"times": []})
    store.get("a" * 40, "b" * 40)
    store.get("a" * 40, "c" * 40)
    assert main(["cache", "stats", str(root)]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert " 50.0%" in out and "1 hit / 2 lookups" in out


def test_cache_tally_file_damage_is_a_clean_slate(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "hit-tally.json").write_text("][", encoding="utf-8")
    store = ResultStore(root)
    store.get("a" * 40, "b" * 40)      # miss; must not raise
    assert store.tallies() == [0, 1]


def test_cache_tallies_free_stores_and_count_every_lookup(tmp_path):
    """Lookups through short-lived stores (one per flow, one per serve
    submission): no store outlives its last reference, no exit hook is
    added, and every lookup is counted."""
    import atexit
    import gc
    import weakref

    root = tmp_path / "cache"
    hooks = atexit._ncallbacks()
    refs = []
    for _ in range(200):
        store = ResultStore(root)
        store.get("a" * 40, "b" * 40)
        refs.append(weakref.ref(store))
    del store
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert atexit._ncallbacks() == hooks
    assert ResultStore(root).tallies() == [0, 200]


def test_cache_tallies_count_every_lookup_across_threads(tmp_path):
    """Threads looking up through their own stores on one root (the
    daemon's event loop and an in-process flow) lose no increment."""
    import threading

    root = tmp_path / "cache"

    def lookups():
        for _ in range(150):
            ResultStore(root).get("a" * 40, "b" * 40)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert ResultStore(root).tallies() == [0, 600]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_tallies_reach_disk(tmp_path):
    """A pool worker forked while another thread held the tally lock
    still counts its lookups, and they reach the tally file although
    it leaves through ``os._exit`` (no exit hooks run)."""
    import time

    from repro.cache import store as store_module

    root = tmp_path / "cache"
    ResultStore(root).get("a" * 40, "b" * 40)
    with store_module._tally_lock:
        pid = os.fork()
        if pid == 0:
            ResultStore(root).get("a" * 40, "b" * 40)
            os._exit(0)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done, "the forked child deadlocked on the tally lock"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert ResultStore(root).tallies() == [0, 2]
