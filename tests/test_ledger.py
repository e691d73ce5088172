"""Tests for the fault-lifecycle ledger and its surfaces.

Covers the acceptance criteria of the observability PR: the ledger
reconciles exactly with the flow's reported fault coverage on s27, every
kept vector of the compacted sequence secures at least one fault, the
backward omission sweep journals its decisions newest-vector-first and
they reconcile with the final kept set, the ``explain-*`` CLI
subcommands work end-to-end, and ``diff-metrics`` gates on regression
thresholds.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core import FlowConfig, generation_flow
from repro.experiments import suite
from repro.obs import ledger as ledger_mod
from repro.obs.diff import check_thresholds, diff_metrics, parse_threshold
from repro.obs.journal import read_journal
from repro.obs.report import METRICS_SCHEMA


@pytest.fixture(scope="module")
def s27_run():
    """One ledger-recorded generation flow on s27, shared by the module
    (the flow is deterministic for a fixed seed)."""
    with obs.session(ledger=True) as telemetry:
        flow = generation_flow(
            suite.build_circuit("s27"),
            FlowConfig(seed=suite.circuit_seed("s27")),
        )
    return telemetry.ledger, flow


# -- recording machinery -----------------------------------------------------


def test_record_is_noop_when_disabled():
    assert not ledger_mod.enabled()
    ledger_mod.record("atpg.detect", fault="f", vector=1)
    assert ledger_mod.active() is None


def test_session_ledger_activates_and_restores():
    assert ledger_mod.active() is None
    with obs.session(ledger=True) as telemetry:
        assert ledger_mod.active() is telemetry.ledger
        with obs.session() as inner:
            # A nested session without a ledger shadows the outer one,
            # mirroring the metrics/journal semantics.
            assert inner.ledger is None
            assert not ledger_mod.enabled()
        assert ledger_mod.active() is telemetry.ledger
    assert ledger_mod.active() is None


def test_ledger_indexes_fault_faults_and_times():
    ledger = ledger_mod.FaultLedger()
    ledger.record("a", fault="f1")
    ledger.record("b", faults=["f1", "f2"])
    ledger.record("c", times={"f2": 3})
    assert [e.kind for e in ledger.events_for("f1")] == ["a", "b"]
    assert [e.kind for e in ledger.events_for("f2")] == ["b", "c"]
    assert ledger.last("b").data["faults"] == ["f1", "f2"]


# -- reconciliation on s27 ---------------------------------------------------


def test_ledger_reconciles_with_reported_coverage(s27_run):
    ledger, flow = s27_run
    recon = ledger.reconcile()
    assert recon["consistent"], recon
    assert recon["ledger_detected"] == flow.detected_total
    assert recon["reported_detected"] == flow.detected_total
    # Every ledger detection names a fault of the flow's universe with
    # the exact first-detection vector the flow recorded.
    detects = [e for e in ledger.events if e.kind == "atpg.detect"]
    assert {e.fault for e in detects} == set(flow.atpg.detection_time)
    for event in detects:
        assert event.data["vector"] == flow.atpg.detection_time[event.fault]


def test_every_kept_vector_secures_at_least_one_fault(s27_run):
    ledger, flow = s27_run
    rows = ledger.vector_chain()
    assert len(rows) == len(flow.omitted.sequence.vectors)
    assert all(row["secures"] for row in rows), [
        row["final"] for row in rows if not row["secures"]
    ]


def test_vector_chain_identity_maps_to_raw_sequence(s27_run):
    ledger, flow = s27_run
    raw_vectors = list(flow.raw.vectors)
    final_vectors = list(flow.omitted.sequence.vectors)
    for row in ledger.vector_chain():
        assert raw_vectors[row["raw"]] == final_vectors[row["final"]]


def test_final_times_match_required_set(s27_run):
    ledger, _flow = s27_run
    required = set(ledger.last("omission.result").data["required"])
    assert required <= set(ledger.final_times())


def test_explain_fault_renders_chain(s27_run):
    ledger, flow = s27_run
    fault = next(iter(flow.atpg.detection_time))
    text = ledger_mod.explain_fault(ledger, fault)
    assert str(fault) in text
    assert "first detected at vector" in text
    assert "final status" in text


def test_explain_fault_of_a_triaged_fault():
    """A fault PODEM proves untestable before its search is explained
    as such, with no search or completion claimed for it."""
    with obs.session(ledger=True) as telemetry:
        flow = generation_flow(suite.build_circuit("s298"),
                               FlowConfig(seed=0))
    ledger = telemetry.ledger
    proven = [e.fault for e in ledger.events
              if e.kind == "atpg.abort" and e.data.get("proven")]
    assert proven and set(proven) <= set(flow.untestable)
    fault = proven[0]
    kinds = [e.kind for e in ledger.events_for(fault)]
    assert "atpg.completion" not in kinds
    text = ledger_mod.explain_fault(ledger, fault)
    assert ("proven untestable on the combinational view before search "
            "(not searched)") in text
    assert "search and completions exhausted" not in text
    assert "functional scan completion" not in text


def test_render_attribution_is_consistent(s27_run):
    ledger, flow = s27_run
    text = ledger_mod.render_attribution(ledger, flow)
    assert "coverage curve — generated sequence" in text
    assert "coverage curve — after compaction" in text
    assert "per-vector attribution" in text
    assert "(consistent)" in text


# -- omission journal ordering -----------------------------------------------


def test_omission_journal_decisions_newest_first(tmp_path):
    """The backward sweep journals one decision per trial, newest vector
    first within each pass, and the decisions reconcile exactly with the
    final kept set."""
    trace = tmp_path / "run.jsonl"
    with obs.session(trace=str(trace), ledger=True):
        generation_flow(
            suite.build_circuit("s27"),
            FlowConfig(seed=suite.circuit_seed("s27")),
        )
    events = read_journal(trace)
    decisions = [e["data"] for e in events
                 if e["type"] == "compaction.omission.decision"]
    assert decisions
    for pass_no in {d["pass_no"] for d in decisions}:
        origins = [d["origin"] for d in decisions if d["pass_no"] == pass_no]
        assert origins == sorted(origins, reverse=True)

    [result] = [e["data"] for e in events
                if e["type"] == "compaction.omission.result"]
    omitted = {d["origin"] for d in decisions if d["omitted"]}
    kept_by_decision = {d["origin"] for d in decisions} - omitted
    # Every surviving origin had a (failed) trial in the last pass.
    assert set(result["kept"]) == kept_by_decision


def test_session_close_journals_checkpoint_counters(tmp_path):
    trace = tmp_path / "run.jsonl"
    with obs.session(trace=str(trace)):
        generation_flow(
            suite.build_circuit("s27"),
            FlowConfig(seed=suite.circuit_seed("s27")),
        )
    events = read_journal(trace)
    closes = [e["data"] for e in events
              if e["type"] == "faultsim.session.close"]
    assert closes, "compaction oracle must close its session"
    for data in closes:
        assert data["runs"] > 0
        assert data["cycles"] > 0
        assert data["checkpoint_hits"] + data["checkpoint_misses"] == \
            data["runs"] or data["checkpoint_hits"] >= 0


# -- CLI surfaces ------------------------------------------------------------


def test_cli_explain_vector_all_kept_vectors_secure(capsys):
    assert main(["explain-vector", "s27"]) == 0
    printed = capsys.readouterr().out
    assert "kept vectors of the compacted sequence" in printed
    footer = [l for l in printed.splitlines() if "kept vectors secure" in l]
    assert footer
    secured, total = footer[0].split()[0].split("/")
    assert secured == total


def test_cli_explain_vector_single_index(capsys):
    assert main(["explain-vector", "s27", "0"]) == 0
    printed = capsys.readouterr().out
    assert "vector 0 of the compacted sequence" in printed
    assert "identity:" in printed


def test_cli_explain_fault_unknown_fault_suggests(capsys):
    assert main(["explain-fault", "s27", "nope/SA9"]) == 1
    printed = capsys.readouterr().out
    assert "not in the collapsed universe" in printed


def test_cli_explain_fault_known_fault(capsys):
    # G10/SA0 collapses into s27's universe under the repo's naming.
    from repro.faults.collapse import collapse_faults
    from repro.circuit.scan import insert_scan

    circuit = suite.build_circuit("s27")
    fault = str(collapse_faults(insert_scan(circuit).circuit)[0])
    assert main(["explain-fault", "s27", fault]) == 0
    printed = capsys.readouterr().out
    assert f"fault {fault}" in printed


# -- diff-metrics ------------------------------------------------------------


def _artifact(counters, spans=()):
    return {
        "schema": METRICS_SCHEMA,
        "meta": {},
        "counters": dict(counters),
        "gauges": {},
        "histograms": {},
        "spans": [
            {"path": p, "count": 1, "total_seconds": s, "depth": 0}
            for p, s in spans
        ],
    }


def test_diff_metrics_sorted_and_thresholds():
    old = _artifact({"a.cycles": 100, "b.count": 10, "c.new": 0})
    new = _artifact({"a.cycles": 150, "b.count": 11, "d.fresh": 5})
    rows = diff_metrics(old, new)
    assert rows[0].name == "a.cycles" and rows[0].rel == pytest.approx(0.5)
    violations = check_thresholds(
        rows, [parse_threshold("a.*=20")])
    assert [v[0].name for v in violations] == ["a.cycles"]
    # 60% allowance passes; new metrics never violate.
    assert not check_thresholds(rows, [parse_threshold("a.*=60")])
    assert not check_thresholds(rows, [parse_threshold("d.*=0")])
    # A positive threshold lets a decrease pass; a 0% one is exact
    # equality, so the same decrease violates it.
    drop = diff_metrics(_artifact({"a.cycles": 150, "b.count": 10}),
                            _artifact({"a.cycles": 100, "b.count": 10}))
    assert not check_thresholds(drop, [parse_threshold("*=20")])
    violations = check_thresholds(drop, [parse_threshold("*=0")])
    assert [v[0].name for v in violations] == ["a.cycles"]
    # A gated metric gone from the new artifact violates, unless its
    # baseline was 0 (counters absent when zero).
    gone = diff_metrics(old, _artifact({"a.cycles": 100}))
    violations = check_thresholds(gone, [parse_threshold("*=20")])
    assert [v[0].name for v in violations] == ["b.count"]


def test_parse_threshold_rejects_malformed():
    with pytest.raises(ValueError):
        parse_threshold("no-equals")
    with pytest.raises(ValueError):
        parse_threshold("a=not-a-number")


def test_cli_diff_metrics_exit_codes(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_artifact({"faultsim.cycles": 100})))
    new.write_text(json.dumps(_artifact({"faultsim.cycles": 150})))

    assert main(["diff-metrics", str(old), str(new)]) == 0
    assert main(["diff-metrics", str(old), str(new),
                 "--threshold", "faultsim.cycles=20"]) == 1
    printed = capsys.readouterr().out
    assert "REGRESSION faultsim.cycles" in printed
    assert main(["diff-metrics", str(old), str(new),
                 "--threshold", "faultsim.cycles=60"]) == 0
    # Under an exact gate a drop fails and is printed with its sign; a
    # gated metric gone from the new artifact fails too.
    capsys.readouterr()
    assert main(["diff-metrics", str(new), str(old),
                 "--threshold", "faultsim.cycles=0"]) == 1
    assert "REGRESSION faultsim.cycles: 150 -> 100 (-33.3%; " \
        "'faultsim.cycles' allows no change)" in capsys.readouterr().out
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(_artifact({})))
    assert main(["diff-metrics", str(old), str(empty),
                 "--threshold", "faultsim.*=20"]) == 1
    assert "REGRESSION faultsim.cycles: 100 -> - (gone; " \
        "'faultsim.*' allows +20%)" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["diff-metrics", str(old), str(bad)]) == 2
