"""OpenMetrics rendering and validation (repro.obs.openmetrics)."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.openmetrics import (
    metric_name,
    parse_openmetrics,
    render_openmetrics,
    write_textfile,
)


def artifact():
    return {
        "schema": "repro.obs.metrics/1",
        "meta": {"circuit": "s27", "backend": "packed", "jobs": 2},
        "counters": {"faultsim.cycles": 1234, "atpg.backtracks": 5},
        "gauges": {"pipeline.generation.coverage_percent": 98.5},
        "histograms": {
            "faultsim.query_cycles": {
                "count": 3, "total": 42.0, "mean": 14.0,
                "min": 2.0, "max": 30.0,
            },
        },
        "spans": [
            {"path": "pipeline.generation", "count": 1,
             "total_seconds": 1.5, "depth": 0},
            {"path": "pipeline.generation/atpg", "count": 1,
             "total_seconds": 1.2, "depth": 1},
        ],
    }


class TestNames:
    def test_dots_become_underscores_with_prefix(self):
        assert metric_name("faultsim.cycles") == "repro_faultsim_cycles"

    def test_invalid_chars_sanitized(self):
        name = metric_name("weird-name with spaces")
        assert parse_openmetrics(
            f"# TYPE {name} gauge\n{name} 1\n# EOF\n")


class TestRender:
    def test_passes_own_format_check(self):
        """The acceptance criterion: rendered text validates."""
        families = parse_openmetrics(render_openmetrics(artifact()))
        assert "repro_faultsim_cycles" in families
        assert families["repro_faultsim_cycles"]["type"] == "counter"

    def test_counters_carry_total_suffix(self):
        text = render_openmetrics(artifact())
        assert "repro_faultsim_cycles_total{" in text
        families = parse_openmetrics(text)
        sample, labels, value = families["repro_faultsim_cycles"][
            "samples"][0]
        assert sample == "repro_faultsim_cycles_total"
        assert value == 1234

    def test_meta_rides_as_labels(self):
        families = parse_openmetrics(render_openmetrics(artifact()))
        _s, labels, _v = families["repro_atpg_backtracks"]["samples"][0]
        # Only the circuit is a run dimension; other meta keys are not.
        assert labels == {"circuit": "s27"}

    def test_extra_labels_merged(self):
        families = parse_openmetrics(
            render_openmetrics(artifact(), labels={"env": "ci"}))
        _s, labels, _v = families["repro_atpg_backtracks"]["samples"][0]
        assert labels["env"] == "ci"

    def test_bad_label_name_rejected(self):
        with pytest.raises(ValueError, match="invalid label name"):
            render_openmetrics(artifact(), labels={"bad-name": "x"})

    def test_histogram_becomes_summary_plus_bounds(self):
        families = parse_openmetrics(render_openmetrics(artifact()))
        summary = families["repro_faultsim_query_cycles"]
        assert summary["type"] == "summary"
        by_name = {s[0]: s[2] for s in summary["samples"]}
        assert by_name["repro_faultsim_query_cycles_count"] == 3
        assert by_name["repro_faultsim_query_cycles_sum"] == 42.0
        assert families["repro_faultsim_query_cycles_min"][
            "samples"][0][2] == 2.0
        assert families["repro_faultsim_query_cycles_max"][
            "samples"][0][2] == 30.0

    def test_spans_become_phase_gauges(self):
        families = parse_openmetrics(render_openmetrics(artifact()))
        phases = {s[1]["phase"]: s[2]
                  for s in families["repro_phase_seconds"]["samples"]}
        assert phases["pipeline.generation"] == 1.5
        assert phases["pipeline.generation/atpg"] == 1.2
        calls = families["repro_phase_calls"]["samples"]
        assert all(value == 1 for _s, _l, value in calls)

    def test_label_values_escaped(self):
        text = render_openmetrics(
            artifact(), labels={"note": 'say "hi"\nplease\\'})
        families = parse_openmetrics(text)
        _s, labels, _v = families["repro_atpg_backtracks"]["samples"][0]
        assert labels["note"] == 'say "hi"\nplease\\'

    def test_live_session_snapshot_renders(self):
        with obs.session() as telemetry:
            obs.incr("faultsim.cycles", 7)
            with obs.span("pipeline.generation"):
                pass
        families = parse_openmetrics(
            render_openmetrics(obs.metrics_artifact(telemetry)))
        assert "repro_faultsim_cycles" in families
        assert "repro_phase_seconds" in families


class TestValidator:
    def test_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE repro_x gauge\nrepro_x 1\n")

    def test_eof_must_be_last(self):
        with pytest.raises(ValueError, match="before end"):
            parse_openmetrics("# EOF\nrepro_x 1\n# EOF\n")

    def test_sample_without_family(self):
        with pytest.raises(ValueError, match="no TYPE family"):
            parse_openmetrics("repro_orphan 1\n# EOF\n")

    def test_counter_sample_needs_total(self):
        bad = ("# TYPE repro_x counter\n# HELP repro_x h\n"
               "repro_x 1\n# EOF\n")
        with pytest.raises(ValueError, match="lacks _total"):
            parse_openmetrics(bad)

    def test_non_numeric_value(self):
        bad = "# TYPE repro_x gauge\nrepro_x banana\n# EOF\n"
        with pytest.raises(ValueError, match="non-numeric"):
            parse_openmetrics(bad)

    def test_malformed_labels(self):
        bad = '# TYPE repro_x gauge\nrepro_x{a=unquoted} 1\n# EOF\n'
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics(bad)


class TestTextfile:
    def test_atomic_install(self, tmp_path):
        target = tmp_path / "textfiles" / "repro.prom"
        text = render_openmetrics(artifact())
        write_textfile(target, text)
        assert target.read_text() == text
        assert not list(target.parent.glob("*.tmp*"))


class TestCli:
    def test_export_from_metrics_json(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        source.write_text(json.dumps(artifact()))
        assert main(["metrics-export", str(source)]) == 0
        out = capsys.readouterr().out
        parse_openmetrics(out)
        assert "repro_faultsim_cycles_total" in out

    def test_export_textfile_mode(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        source.write_text(json.dumps(artifact()))
        target = tmp_path / "node.prom"
        assert main(["metrics-export", str(source),
                     "--textfile", str(target),
                     "--label", "env=ci"]) == 0
        families = parse_openmetrics(target.read_text())
        _s, labels, _v = families["repro_atpg_backtracks"]["samples"][0]
        assert labels["env"] == "ci"

    def test_bad_label_spec(self, tmp_path, capsys):
        source = tmp_path / "m.json"
        source.write_text(json.dumps(artifact()))
        assert main(["metrics-export", str(source),
                     "--label", "notkeyvalue"]) == 2

    def test_export_runs_ref(self, tmp_path, capsys):
        from tests.test_history import make_record
        from repro.obs.history import RunIndex

        db = tmp_path / "runs.sqlite"
        RunIndex(db).append(make_record())
        assert main(["metrics-export", "runs:latest",
                     "--run-index", str(db)]) == 0
        families = parse_openmetrics(capsys.readouterr().out)
        assert "repro_faultsim_cycles" in families
