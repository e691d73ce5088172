"""Cross-module integration scenarios a downstream user would run."""

import random

import pytest

from repro import (
    FlowConfig,
    ScanAwareATPG,
    SecondApproachATPG,
    SecondApproachConfig,
    SeqATPGConfig,
    collapse_faults,
    generation_flow,
    insert_scan,
    omission_compact,
    parse_bench,
    restoration_compact,
    s27,
    translate_test_set,
    translation_flow,
    write_bench,
)
from repro.sim import PackedFaultSimulator
from repro.testseq import to_stil, to_vcd


class TestRoundTripScenarios:
    def test_bench_roundtrip_through_scan_insertion(self, s27_circuit):
        """C -> C_scan -> .bench text -> parse -> identical behaviour."""
        sc = insert_scan(s27_circuit)
        text = write_bench(sc.circuit)
        again = parse_bench(text, name=sc.circuit.name)
        assert again == sc.circuit

    def test_generated_sequence_exports(self, tmp_path):
        flow = generation_flow(s27(), FlowConfig(seed=1))
        sequence = flow.omitted.sequence
        vcd = to_vcd(sequence, circuit=flow.scan_circuit.circuit)
        stil = to_stil(sequence, circuit=flow.scan_circuit.circuit)
        assert "scan_sel" in vcd
        assert "scan_sel" in stil
        # Every cycle appears in the STIL pattern.
        assert stil.count("V {") == len(sequence)

    def test_first_approach_feeds_translation(self, s27_circuit):
        """First-approach tests translate and compact to below their own
        conventional cycle count."""
        sc = insert_scan(s27_circuit)
        faults_c = collapse_faults(s27_circuit)
        gen = SecondApproachATPG(s27_circuit, faults_c, SecondApproachConfig(
            seed=4, max_test_length=1, compact=False))
        result = gen.generate()
        sequence = translate_test_set(sc, result.test_set)
        assert len(sequence) == result.test_set.total_cycles()
        filled = sequence.randomize_x(random.Random(4))
        scan_faults = collapse_faults(sc.circuit)
        restored = restoration_compact(sc.circuit, filled, scan_faults)
        omitted = omission_compact(sc.circuit, restored.sequence, scan_faults)
        assert len(omitted.sequence) < result.test_set.total_cycles()


class TestCrossEngineConsistency:
    def test_three_generators_agree_on_detectability(self, s27_circuit):
        """Scan-aware generation and the conventional generator in its
        first-approach (``|T| = 1``) and second-approach settings all
        reach 100% on s27(_scan): no engine disagrees about what is
        testable on the exact benchmark."""
        sc = insert_scan(s27_circuit)
        scan_faults = collapse_faults(sc.circuit)
        aware = ScanAwareATPG(sc, scan_faults,
                              config=SeqATPGConfig(seed=3)).generate()
        assert aware.base.detected_count == len(scan_faults)

        core_faults = collapse_faults(s27_circuit)
        first = SecondApproachATPG(
            s27_circuit, core_faults,
            SecondApproachConfig(seed=3, max_test_length=1, compact=False),
        ).generate()
        assert first.coverage() == 100.0
        second = SecondApproachATPG(
            s27_circuit, core_faults, SecondApproachConfig(seed=3)
        ).generate()
        assert second.coverage() == 100.0

    def test_flow_results_internally_consistent(self):
        """generation_flow's claims are reproducible from its artifacts
        alone (no trust in intermediate bookkeeping)."""
        flow = generation_flow(s27(), FlowConfig(seed=9))
        sim = PackedFaultSimulator(flow.scan_circuit.circuit, flow.faults)
        raw = sim.run(list(flow.raw.vectors))
        assert len(raw.detection_time) == flow.detected_total
        compacted = sim.run(list(flow.omitted.sequence.vectors))
        assert set(raw.detection_time) <= set(compacted.detection_time)

    def test_translation_flow_vs_manual_steps(self):
        """translation_flow == translate + randomize + compact by hand."""
        circuit = s27()
        flow = translation_flow(circuit, FlowConfig(seed=2))
        sc = flow.scan_circuit
        manual = translate_test_set(sc, flow.baseline.test_set)
        assert len(manual) == flow.baseline_cycles
        manual_filled = manual.randomize_x(random.Random(2 ^ 0x7EA5))
        assert manual_filled == flow.translated


class TestDifferentSeedsDifferentSequencesSameClaims:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_claims_hold_across_seeds(self, seed):
        flow = generation_flow(s27(), FlowConfig(seed=seed))
        assert flow.fault_coverage == 100.0
        assert flow.omitted_stats().total <= flow.restored_stats().total \
            <= flow.raw_stats().total
        n_sv = flow.circuit.num_state_vars
        assert any(r < n_sv for r in flow.omitted.sequence.scan_runs())
