"""Journal size control (rotation + stitched reads) and per-phase peak
RSS sampling."""

import json

from repro import obs
from repro.obs.journal import (
    MAX_MB_ENV,
    RunJournal,
    read_journal,
    resolve_journal_max_bytes,
    rotated_journal_path,
)
from repro.obs.live import JournalFollower
from repro.obs.spans import SpanLog, peak_rss_kb

TINY_MB = 0.0005  # ~512 bytes: a handful of events per segment


class TestCapResolution:
    def test_default_unbounded(self, monkeypatch):
        monkeypatch.delenv(MAX_MB_ENV, raising=False)
        assert resolve_journal_max_bytes() is None

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(MAX_MB_ENV, "2")
        assert resolve_journal_max_bytes() == 2 * 1024 * 1024

    def test_explicit_wins_and_zero_disables(self, monkeypatch):
        monkeypatch.setenv(MAX_MB_ENV, "2")
        assert resolve_journal_max_bytes(1) == 1024 * 1024
        assert resolve_journal_max_bytes(0) is None

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_MB_ENV, "lots")
        assert resolve_journal_max_bytes() is None


class TestRotation:
    def test_journal_rotates_at_cap(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        for i in range(40):
            journal.emit("tick", i=i)
        journal.close()
        rotated = rotated_journal_path(path)
        assert rotated.exists()
        assert journal.segment > 0
        # The sealed segment ends with the rotation marker.
        sealed = [json.loads(line)
                  for line in rotated.read_text().splitlines()]
        assert sealed[-1]["type"] == "journal.rotated"

    def test_each_segment_is_self_contained(self, tmp_path):
        """Both files independently satisfy every journal invariant."""
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        for i in range(40):
            journal.emit("tick", i=i)
        journal.close()
        from repro.obs.journal import _read_segment

        current = _read_segment(path)
        head = current[0]["data"]
        assert head["segment"] == journal.segment
        assert head["rotated_from"] == rotated_journal_path(path).name
        _read_segment(rotated_journal_path(path))  # must not raise

    def test_read_journal_stitches(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        total = 10  # small enough for exactly one rotation at ~512 B
        for i in range(total):
            journal.emit("tick", i=i)
        journal.close()
        assert journal.segment == 1
        events = read_journal(path)
        # One continuous stream: gap-free seq, monotonic t.
        assert [e["seq"] for e in events] == list(range(len(events)))
        times = [e["t"] for e in events]
        assert times == sorted(times)
        # It starts with the first segment's open and ends closed; the
        # current segment's own open is dropped from the stitched view.
        assert events[0]["type"] == "journal.open"
        assert "segment" not in events[0]["data"]
        assert events[-1]["type"] == "journal.close"
        # Every tick survived, in order, across the boundary.
        ticks = [e["data"]["i"] for e in events if e["type"] == "tick"]
        assert ticks == list(range(total))

    def test_deep_rotation_keeps_last_two_segments(self, tmp_path):
        """One rotation level: older segments are gone, but the stitched
        stream over the surviving pair still validates and stays
        continuous."""
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        total = 40
        for i in range(total):
            journal.emit("tick", i=i)
        journal.close()
        assert journal.segment > 1
        events = read_journal(path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        ticks = [e["data"]["i"] for e in events if e["type"] == "tick"]
        assert ticks == sorted(ticks)
        assert ticks[-1] == total - 1

    def test_unrotated_journal_reads_as_before(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("tick", i=0)
        journal.close()
        events = read_journal(path)
        assert [e["type"] for e in events] == [
            "journal.open", "tick", "journal.close"]

    def test_session_env_cap(self, tmp_path, monkeypatch):
        """REPRO_JOURNAL_MAX_MB flows through obs.session --trace."""
        monkeypatch.setenv(MAX_MB_ENV, str(TINY_MB))
        path = tmp_path / "run.jsonl"
        with obs.session(trace=str(path)):
            for i in range(60):
                obs.event("tick", i=i)
        assert rotated_journal_path(path).exists()
        read_journal(path)  # stitched stream must validate


class TestFollowerAcrossRotation:
    def test_tail_sees_every_event(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        tail = JournalFollower(path)
        seen = []
        for i in range(40):
            journal.emit("tick", i=i)
            if i % 7 == 0:
                seen.extend(tail.poll())
        journal.close()
        seen.extend(tail.poll())
        assert tail.rotations >= 1
        ticks = [e["data"]["i"] for e in seen if e.get("type") == "tick"]
        assert ticks == list(range(40))

    def test_follower_ignores_rotated_sibling_as_worker(self, tmp_path):
        """<base>.1 and <base>.w<pid>.1 must not be mistaken for new
        worker journals."""
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, max_mb=TINY_MB)
        for i in range(10):
            journal.emit("tick", i=i)
        journal.close()
        assert rotated_journal_path(path).exists()
        worker_rot = tmp_path / "run.jsonl.w123.1"
        worker_rot.write_text("{}\n")
        follower = JournalFollower(path)
        events = follower.poll()
        # Neither <base>.1 nor <base>.w<pid>.1 is read; a late-attaching
        # follower tails the live segment only (the stitched history is
        # read_journal's job).
        assert events[0]["data"]["segment"] == journal.segment
        assert [e["seq"] for e in events] == list(
            range(events[0]["seq"], events[0]["seq"] + len(events)))
        assert events[-1]["type"] == "journal.close"
        assert follower.finished and follower.malformed == 0


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
        profile = obs.render_profile(telemetry)
        assert "peakMB" in profile
        [span] = obs.metrics_artifact(telemetry)["spans"]
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
