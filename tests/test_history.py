"""Run-history index (repro.obs.history): records, durability, fleet
analytics, and the ``repro-atpg runs`` CLI surface."""

import importlib.util
import json
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import FlowConfig, generation_flow, obs
from repro.cache.fingerprint import run_config_fingerprint
from repro.circuit import s27
from repro.cli import main
from repro.obs.history import (
    DEFAULT_OUTLIER_Z,
    DETERMINISTIC_GATES,
    RUN_INDEX_ENV,
    RUN_RECORD_SCHEMA,
    RunEntry,
    RunIndex,
    build_run_record,
    compute_trend,
    is_runs_ref,
    load_runs_ref,
    modified_z,
    record_to_artifact,
    render_trend,
    resolve_run_index,
    robust_stats,
)


def make_record(circuit="s27", config_fp="cfg0", wall=1.0, cycles=100,
                coverage=100.0, flow="generation", cache_hit=3):
    """A hand-built record with controllable deterministic counters.

    It keeps the ``backend`` and ``journal`` keys records written before
    they were dropped carry, so every reader test also reads old records.
    """
    return {
        "schema": RUN_RECORD_SCHEMA,
        "created": time.time(),
        "circuit": circuit,
        "circuit_fp": f"fp-{circuit}",
        "config_fp": config_fp,
        "flow": flow,
        "backend": "packed",
        "wall_seconds": wall,
        "git_rev": "abc123",
        "python": "3.x",
        "platform": "test",
        "counters": {"faultsim.cycles": cycles, "atpg.backtracks": 7,
                     "cache.hit": cache_hit},
        "gauges": {"pipeline.generation.coverage_percent": coverage},
        "histograms": {},
        "spans": [{"path": "pipeline.generation", "count": 1,
                   "total_seconds": wall, "depth": 0}],
        "journal": {},
    }


# -- fingerprints ------------------------------------------------------------


class TestConfigFingerprint:
    def test_stable(self):
        assert (run_config_fingerprint(FlowConfig(seed=3))
                == run_config_fingerprint(FlowConfig(seed=3)))

    def test_semantic_knobs_change_it(self):
        base = run_config_fingerprint(FlowConfig())
        assert run_config_fingerprint(FlowConfig(seed=9)) != base
        assert run_config_fingerprint(FlowConfig(compact=False)) != base
        assert run_config_fingerprint(
            FlowConfig(max_omission_passes=3)) != base

    def test_flow_changes_it(self):
        """A generation and a translation run of the same config compute
        different things — they must not share a trend group."""
        cfg = FlowConfig(seed=3)
        assert (run_config_fingerprint(cfg, flow="generation")
                != run_config_fingerprint(cfg, flow="translation"))

    def test_speed_knobs_do_not(self):
        """The deployment settings jobs / cache_dir / run_index cannot
        change result bits, so they must not split trend groups."""
        base = run_config_fingerprint(FlowConfig())
        for cfg in (FlowConfig(jobs=4),
                    FlowConfig(cache_dir="/tmp/x"),
                    FlowConfig(run_index="runs.sqlite")):
            assert run_config_fingerprint(cfg) == base

    def test_every_field_is_hashed_or_a_deployment_setting(self,
                                                          monkeypatch):
        """FlowConfig says what to compute: its fields are exactly the
        keys the run fingerprint hashes plus the deployment settings.  A
        new field must either change the fingerprint or be declared a
        deployment setting here."""
        import dataclasses

        from repro.cache import fingerprint

        hashed = {}
        real = fingerprint.config_fingerprint
        monkeypatch.setattr(
            fingerprint, "config_fingerprint",
            lambda stage, **fields: hashed.update(fields) or real(
                stage, **fields))
        run_config_fingerprint(FlowConfig())
        config_keys = set(hashed) - {"flow", "scan"}
        fields = {f.name for f in dataclasses.fields(FlowConfig)}
        assert fields == config_keys | {"jobs", "cache_dir", "run_index"}
        assert not config_keys & {"jobs", "cache_dir", "run_index"}


# -- records -----------------------------------------------------------------


class TestRunRecord:
    def test_shape_and_schema(self):
        record = build_run_record(
            circuit_name="s27", circuit_fp="c", config_fp="k",
            flow="generation", wall_seconds=1.5)
        assert record["schema"] == RUN_RECORD_SCHEMA
        assert record["wall_seconds"] == 1.5
        assert not {"jobs", "backend", "journal"} & set(record)
        assert "counters" in record and record["spans"] == []
        json.dumps(record)  # must be JSON-able as is

    def test_artifact_bridge(self):
        """record_to_artifact feeds the existing diff toolchain."""
        from repro.obs.diff import flatten_metrics
        from repro.obs.report import METRICS_SCHEMA, metrics_artifact

        artifact = record_to_artifact(make_record(wall=2.5))
        assert artifact["schema"] == METRICS_SCHEMA
        flat = flatten_metrics(artifact)
        assert flat["wall_seconds"] == 2.5
        assert flat["faultsim.cycles"] == 100

        # A record of a real session carries exactly that session's
        # metrics artifact: one record format, not a second dump.
        with obs.session() as telemetry:
            generation_flow(s27(), FlowConfig(seed=1))
        record = build_run_record(
            circuit_name="s27", circuit_fp="c", config_fp="k",
            flow="generation", wall_seconds=0.5, telemetry=telemetry)
        bridged = record_to_artifact(record)
        direct = metrics_artifact(telemetry)
        for key in ("counters", "histograms", "spans"):
            assert bridged[key] == direct[key], key
        assert bridged["gauges"] == {**direct["gauges"],
                                     "wall_seconds": 0.5}
        assert direct["spans"] and all(span["peak_rss_kb"] > 0
                                       for span in bridged["spans"])


# -- the index ---------------------------------------------------------------


class TestRunIndex:
    def test_append_get_roundtrip(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        run_id = index.append(make_record(wall=1.25))
        assert run_id is not None
        entry = index.get(run_id)
        assert entry is not None
        assert entry.circuit == "s27"
        assert entry.wall_seconds == 1.25
        assert entry.record["counters"]["faultsim.cycles"] == 100
        assert (entry.circuit_fp, entry.config_fp) == ("fp-s27", "cfg0")

    def test_list_latest_and_filters(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        index.append(make_record(circuit="s27"))
        index.append(make_record(circuit="s298"))
        index.append(make_record(circuit="s27", wall=9.0))
        assert index.count() == 3
        assert [e.circuit for e in index.list()] == ["s27", "s298", "s27"]
        assert index.latest().wall_seconds == 9.0
        assert index.latest(circuit="s298").circuit == "s298"
        assert len(index.list(circuit="s27")) == 2

    def test_same_fingerprint_window(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0, 3.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.append(make_record(config_fp="B"))
        window = index.same_fingerprint("fp-s27", "A")
        assert [e.wall_seconds for e in window] == [3.0, 2.0, 1.0]

    def test_index_with_legacy_columns_still_works(self, tmp_path):
        """An index created with the old ``backend``/``jobs`` columns
        takes appends and answers queries."""
        path = tmp_path / "runs.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript("""
            CREATE TABLE runs (
                id          INTEGER PRIMARY KEY AUTOINCREMENT,
                created     REAL NOT NULL,
                circuit     TEXT NOT NULL,
                circuit_fp  TEXT NOT NULL,
                config_fp   TEXT NOT NULL,
                flow        TEXT NOT NULL,
                backend     TEXT NOT NULL DEFAULT '',
                jobs        INTEGER NOT NULL DEFAULT 1,
                git_rev     TEXT NOT NULL DEFAULT '',
                wall_seconds REAL NOT NULL DEFAULT 0,
                record      TEXT NOT NULL
            );
            INSERT INTO runs (created, circuit, circuit_fp, config_fp,
                              flow, backend, jobs, git_rev, wall_seconds,
                              record)
            VALUES (1.0, 's27', 'fp-s27', 'cfg0', 'generation', 'packed',
                    2, 'abc', 1.5, '{"circuit": "s27"}');
        """)
        conn.commit()
        conn.close()
        index = RunIndex(path)
        run_id = index.append(make_record(wall=2.0))
        assert run_id == 2
        assert [e.wall_seconds for e in index.list()] == [2.0, 1.5]
        assert index.get(1).record == {"circuit": "s27"}
        assert index.get(run_id).record["counters"]["faultsim.cycles"] \
            == 100
        assert len(index.same_fingerprint("fp-s27", "cfg0")) == 2

    def test_missing_db_is_empty_not_error(self, tmp_path):
        index = RunIndex(tmp_path / "nope" / "runs.sqlite")
        assert index.list() == []
        assert index.count() == 0
        assert index.latest() is None


class TestDurability:
    def test_garbage_file_is_quarantined_and_recreated(self, tmp_path):
        """A corrupt database is a clean miss, never an exception."""
        path = tmp_path / "runs.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff")
        index = RunIndex(path)
        run_id = index.append(make_record())
        assert run_id is not None
        assert index.count() == 1
        corpse = tmp_path / "runs.sqlite.corrupt"
        assert corpse.exists()
        assert corpse.read_bytes().startswith(b"this is not")

    def test_truncated_db_recovers(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        RunIndex(path).append(make_record())
        path.write_bytes(path.read_bytes()[:100])  # chop mid-header data
        index = RunIndex(path)
        assert index.append(make_record()) is not None
        assert index.count() >= 1

    def test_unreadable_reads_return_empty(self, tmp_path, monkeypatch):
        index = RunIndex(tmp_path / "runs.sqlite")
        index.append(make_record())

        def boom(*a, **k):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(sqlite3, "connect", boom)
        assert index.list() == []
        assert index.append(make_record()) is None

    def test_concurrent_appends_from_two_processes(self, tmp_path):
        """SQLite file locking serializes writers; no record is lost."""
        db = tmp_path / "runs.sqlite"
        n = 8
        script = (
            "import sys; sys.path.insert(0, sys.argv[3])\n"
            "from tests.test_history import make_record\n"
            "from repro.obs.history import RunIndex\n"
            "index = RunIndex(sys.argv[1])\n"
            "ok = sum(index.append(make_record(wall=float(i))) is not None"
            " for i in range(int(sys.argv[2])))\n"
            "print(ok)\n"
        )
        import repro

        repo_root = str(
            __import__("pathlib").Path(repro.__file__).parents[2])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(db), str(n), repo_root],
                stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert out.strip() == str(n)
        assert RunIndex(db).count() == 2 * n


class TestGc:
    def test_keeps_newest_per_fingerprint(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0, 3.0, 4.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.append(make_record(config_fp="B", wall=9.0))
        deleted = index.gc(keep=2)
        assert deleted == 2
        walls = {e.wall_seconds for e in index.list()}
        assert walls == {3.0, 4.0, 9.0}

    def test_never_deletes_newest_even_at_keep_zero(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.gc(keep=0)  # clamped to 1
        remaining = index.list()
        assert len(remaining) == 1
        assert remaining[0].wall_seconds == 2.0


# -- pipeline hook -----------------------------------------------------------


class TestRecordFlowRun:
    def test_generation_flow_appends_a_record(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        cfg = FlowConfig(seed=1, run_index=str(db))
        generation_flow(s27(), cfg)
        index = RunIndex(db)
        assert index.count() == 1
        entry = index.latest()
        assert entry.circuit == "s27"
        assert entry.flow == "generation"
        assert entry.wall_seconds > 0
        assert entry.config_fp == run_config_fingerprint(
            cfg, flow="generation")

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        generation_flow(s27(), FlowConfig(seed=1))
        assert not list(tmp_path.glob("*.sqlite"))

    def test_env_var_enables(self, tmp_path, monkeypatch):
        db = tmp_path / "env-runs.sqlite"
        monkeypatch.setenv(RUN_INDEX_ENV, str(db))
        generation_flow(s27(), FlowConfig(seed=1))
        assert RunIndex(db).count() == 1

    def test_bench_helper_appends_a_record(self, tmp_path, monkeypatch):
        """``benchmarks/conftest.py::record_bench`` swallows every error,
        so a signature drift against ``build_run_record`` would silently
        stop the bench records; this pins that it still appends."""
        spec = importlib.util.spec_from_file_location(
            "_bench_conftest",
            Path(__file__).resolve().parents[1] / "benchmarks"
            / "conftest.py")
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        db = tmp_path / "bench-runs.sqlite"
        monkeypatch.setenv(RUN_INDEX_ENV, str(db))
        with obs.session() as telemetry:
            telemetry.incr("bench.calls", 2)
        assert bench_conftest.record_bench(telemetry, "table4", "s27",
                                           0.5) is not None
        entry = RunIndex(db).latest()
        assert entry.flow == "bench:table4"
        assert entry.circuit == "s27"
        assert entry.record["counters"]["bench.calls"] == 2

    def test_resolve_rules(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        assert resolve_run_index(None) is None
        assert resolve_run_index("x.sqlite").name == "x.sqlite"
        monkeypatch.setenv(RUN_INDEX_ENV, str(tmp_path / "e.sqlite"))
        assert resolve_run_index(None).name == "e.sqlite"


# -- analytics ---------------------------------------------------------------


def pair_trend(old, new):
    """Trend report over a two-record window: the pairwise zero-drift
    check between two same-fingerprint runs."""
    entries = [RunEntry(id=i + 1, created=float(i), circuit="s27",
                        circuit_fp="fp-s27", config_fp="cfg0",
                        flow="generation", git_rev="",
                        wall_seconds=rec["wall_seconds"], record=rec)
               for i, rec in enumerate((old, new))]
    return compute_trend(list(reversed(entries)))


class TestCompareAndDrift:
    def test_identical_records_have_zero_drift(self):
        report = pair_trend(make_record(), make_record())
        assert report.passed
        assert report.drift == []

    def test_cycle_drift_is_flagged(self):
        report = pair_trend(make_record(cycles=100), make_record(cycles=101))
        assert not report.passed
        assert [r.name for r in report.drift] == ["faultsim.cycles"]

    def test_drift_in_either_direction(self):
        report = pair_trend(make_record(cycles=101), make_record(cycles=100))
        assert len(report.drift) == 1

    def test_wall_and_cache_changes_are_not_drift(self):
        report = pair_trend(make_record(wall=1.0),
                            make_record(wall=50.0, cache_hit=99))
        assert report.passed
        assert report.drift == []


class TestRobustStats:
    def test_median_mad(self):
        med, mad = robust_stats([1.0, 2.0, 3.0, 100.0])
        assert med == 2.5
        assert mad == 1.0

    def test_modified_z_floor_tolerates_tiny_mad(self):
        """5% jitter around the median never flags, even at MAD 0."""
        assert modified_z(1.04, 1.0, 0.0) * 0 == 0  # finite
        assert modified_z(1.04, 1.0, 0.0) <= DEFAULT_OUTLIER_Z
        assert modified_z(0.0, 0.0, 0.0) == 0.0

    def test_cold_run_and_jitter_are_not_outliers(self):
        """A window of nine identical ``generate s27`` runs around
        the measured 0.0235 s median: the measured cold first run
        (0.0474 s, its ``scan_insert`` span 4.4 ms against 0.197 ms)
        and fast third run (0.0154 s) stay unflagged; a tenth record at
        ten times the median plus 1 s is the only outlier."""
        walls = [0.0474, 0.0235, 0.0154, 0.0231, 0.0240, 0.0229, 0.0236,
                 0.0238, 0.0233]
        spans = [0.0044] + [0.000197] * 8
        med, mad = robust_stats(walls)
        assert all(modified_z(w, med, mad) <= DEFAULT_OUTLIER_Z
                   for w in walls)
        span_med, span_mad = robust_stats(spans)
        assert modified_z(spans[0], span_med, span_mad) <= DEFAULT_OUTLIER_Z
        assert compute_trend(entries_with_walls(walls)).outlier_ids == []
        slow = walls + [10 * med + 1.0]
        report = compute_trend(entries_with_walls(slow))
        assert report.outlier_ids == [len(slow)]


def entries_with_walls(walls, cycles=None, cache_hits=None):
    cycles = cycles or [100] * len(walls)
    cache_hits = cache_hits or [3] * len(walls)
    entries = []
    for i, (wall, cyc, hits) in enumerate(zip(walls, cycles, cache_hits)):
        rec = make_record(wall=wall, cycles=cyc, cache_hit=hits)
        entries.append(RunEntry(
            id=i + 1, created=float(i), circuit="s27",
            circuit_fp="fp-s27", config_fp="cfg0", flow="generation",
            git_rev="", wall_seconds=wall,
            record=rec))
    return list(reversed(entries))  # newest-first, like the index


class TestTrend:
    def test_stable_window_passes(self):
        report = compute_trend(entries_with_walls([1.0, 1.01, 0.99, 1.0]))
        assert report.passed
        assert report.drift == []
        assert report.outliers == []
        assert report.window == 4

    def test_wall_outlier_flagged_but_gate_passes(self):
        """The acceptance property: a slowed run flags the wall-clock
        outlier WITHOUT failing the deterministic gate."""
        report = compute_trend(entries_with_walls([1.0, 1.0, 1.0, 30.0]))
        assert report.passed  # outliers never fail the gate
        assert any(r.name == "wall_seconds" for r in report.outliers)
        assert report.outlier_ids == [4]  # the slow record's id

    def test_deterministic_drift_fails_gate(self):
        """A deterministic counter that moves in either direction fails
        the gate; cache-warmth counters and wall time never drift."""
        cases = [
            ([1.0, 1.0, 1.0], dict(cycles=[100, 100, 105]),
             ["faultsim.cycles"]),
            ([1.0, 1.0, 1.0], dict(cycles=[105, 105, 100]),
             ["faultsim.cycles"]),
            ([1.0, 1.0, 50.0], dict(cache_hits=[3, 3, 99]), []),
        ]
        for walls, kwargs, drifted in cases:
            report = compute_trend(entries_with_walls(walls, **kwargs))
            assert report.passed == (not drifted), kwargs
            assert [r.name for r in report.drift] == drifted, kwargs

    def test_render_mentions_anomalies(self):
        report = compute_trend(entries_with_walls([1.0, 1.0, 25.0]))
        text = render_trend(report)
        assert "wall-clock outliers: " in text
        assert "wall_seconds" in text

    def test_custom_gates_and_threshold(self):
        entries = entries_with_walls([1.0, 1.0, 2.0])
        loose = compute_trend(entries, z_threshold=1e9)
        assert loose.outliers == []
        tight = compute_trend(entries, gates=("wall_seconds",))
        assert not tight.passed  # wall drift now gated deterministically


# -- runs: references --------------------------------------------------------


class TestRunsRefs:
    def test_is_runs_ref(self):
        assert is_runs_ref("runs:3") and is_runs_ref("runs:latest")
        assert not is_runs_ref("metrics.json")

    def test_resolve_by_id_and_latest(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        index = RunIndex(db)
        first = index.append(make_record(wall=1.0))
        index.append(make_record(wall=2.0))
        assert load_runs_ref(f"runs:{first}", db)["gauges"][
            "wall_seconds"] == 1.0
        assert load_runs_ref("runs:latest", db)["gauges"][
            "wall_seconds"] == 2.0

    def test_errors_are_precise(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        with pytest.raises(ValueError, match="no run index"):
            load_runs_ref("runs:1", None)
        db = tmp_path / "runs.sqlite"
        with pytest.raises(ValueError, match="empty"):
            load_runs_ref("runs:latest", db)
        RunIndex(db).append(make_record())
        with pytest.raises(ValueError, match="no record 99"):
            load_runs_ref("runs:99", db)
        with pytest.raises(ValueError, match="runs:<id>"):
            load_runs_ref("runs:abc", db)


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def seeded_index(tmp_path):
    """Three bit-identical records plus one slow outlier."""
    db = tmp_path / "runs.sqlite"
    index = RunIndex(db)
    for wall in (1.0, 1.01, 0.99):
        index.append(make_record(wall=wall))
    index.append(make_record(wall=40.0))
    return db


class TestRunsCli:
    def test_list(self, seeded_index, capsys):
        assert main(["runs", "list", "--run-index",
                     str(seeded_index)]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out and "s27" in out
        assert "100.00" in out      # cov% column, from the gauges

    def test_show(self, seeded_index, capsys):
        assert main(["runs", "show", "1", "--run-index",
                     str(seeded_index)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == RUN_RECORD_SCHEMA

    def test_show_missing(self, seeded_index, capsys):
        assert main(["runs", "show", "77", "--run-index",
                     str(seeded_index)]) == 1

    def test_compare_zero_drift(self, seeded_index, capsys):
        gates = [f"--threshold={pattern}=0" for pattern in DETERMINISTIC_GATES]
        assert main(["diff-metrics", "runs:1", "runs:2",
                     "--run-index", str(seeded_index), *gates]) == 0
        assert "all thresholds satisfied" in capsys.readouterr().out

    def test_compare_assert_fails_on_drift(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        index = RunIndex(db)
        index.append(make_record(cycles=100))
        index.append(make_record(cycles=200))
        assert main(["diff-metrics", "runs:1", "runs:2",
                     "--run-index", str(db),
                     "--threshold", "faultsim.*=0"]) == 1
        assert "REGRESSION faultsim.cycles" in capsys.readouterr().out

    def test_trend_assert_passes_with_outlier(self, seeded_index, capsys):
        assert main(["runs", "trend", "--assert",
                     "--run-index", str(seeded_index)]) == 0
        out = capsys.readouterr().out
        assert "trend gate passed" in out
        assert "outlier" in out

    def test_trend_assert_fails_on_drift(self, tmp_path, capsys):
        cases = [
            ((dict(cycles=100), dict(cycles=105)), 1, "TREND GATE FAILED"),
            ((dict(cycles=105), dict(cycles=100)), 1, "TREND GATE FAILED"),
            ((dict(wall=1.0), dict(wall=50.0, cache_hit=99)), 0,
             "trend gate passed"),
        ]
        for i, (records, code, message) in enumerate(cases):
            db = tmp_path / f"runs{i}.sqlite"
            index = RunIndex(db)
            for kwargs in records:
                index.append(make_record(**kwargs))
            assert main(["runs", "trend", "--assert",
                         "--run-index", str(db)]) == code, records
            assert message in capsys.readouterr().out

    def test_gc(self, seeded_index, capsys):
        assert main(["runs", "gc", "--keep", "1",
                     "--run-index", str(seeded_index)]) == 0
        assert RunIndex(seeded_index).count() == 1

    def test_diff_metrics_accepts_runs_refs(self, seeded_index, capsys):
        assert main(["diff-metrics", "runs:1", "runs:2",
                     "--run-index", str(seeded_index),
                     "--threshold", "faultsim.*=0"]) == 0
        assert "all thresholds satisfied" in capsys.readouterr().out

    def test_diff_metrics_bad_ref(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        RunIndex(db).append(make_record())
        assert main(["diff-metrics", "runs:1", "runs:9",
                     "--run-index", str(db)]) == 2

    def test_generate_flag_roundtrip(self, tmp_path, capsys):
        db = tmp_path / "cli-runs.sqlite"
        for _ in range(2):
            assert main(["generate", "s27", "--run-index", str(db)]) == 0
        capsys.readouterr()
        assert main(["runs", "trend", "--assert",
                     "--run-index", str(db)]) == 0
        assert "0 drifting" in capsys.readouterr().out
