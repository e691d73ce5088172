"""Section 3 translation: structure, cycle identity, detection preservation."""

import random

import pytest

from repro.circuit import insert_scan, s27
from repro.circuit.gates import ONE, X, ZERO
from repro.core import translate_test_set
from repro.faults import collapse_faults
from repro.sim import LogicSimulator, PackedFaultSimulator
from repro.testseq import ScanTest, ScanTestSet
from repro.atpg.scan_sim import scan_test_detections


def paper_test_set(circuit):
    """The paper's Table 2 test set S for s27 (vectors over a1..a4)."""
    ts = ScanTestSet(circuit)
    ts.append(ScanTest((0, 1, 1), ((0, 0, 0, 0),)))
    ts.append(ScanTest((0, 1, 1), ((1, 1, 0, 1),)))
    ts.append(ScanTest((0, 0, 0), ((1, 0, 1, 0),)))
    ts.append(ScanTest((1, 1, 0), ((0, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1))))
    return ts


class TestStructureAgainstPaperTable3:
    """The translation of Table 2 must reproduce Table 3's structure."""

    def test_length_matches_cycle_count(self, s27_circuit, s27_scan):
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts)
        assert len(seq) == ts.total_cycles()

    def test_scan_inp_is_reversed_state(self, s27_circuit, s27_scan):
        """First scan-in of SI=011 (G5,G6,G7) feeds 1,1,0 — G7's value
        first, exactly as in Table 3 rows 0-2."""
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts)
        inp_idx = s27_scan.circuit.inputs.index("scan_inp")
        sel_idx = s27_scan.circuit.inputs.index("scan_sel")
        assert [seq[t][inp_idx] for t in range(3)] == [ONE, ONE, ZERO]
        assert all(seq[t][sel_idx] == ONE for t in range(3))

    def test_functional_rows_carry_vectors(self, s27_circuit, s27_scan):
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts)
        idx = [s27_scan.circuit.inputs.index(n) for n in "G0 G1 G2 G3".split()]
        sel_idx = s27_scan.circuit.inputs.index("scan_sel")
        # Row 3 (after the first scan-in) is T_1 = 0000 with scan_sel=0.
        assert [seq[3][i] for i in idx] == [ZERO, ZERO, ZERO, ZERO]
        assert seq[3][sel_idx] == ZERO
        # Row 7 is T_2 = 1101.
        assert [seq[7][i] for i in idx] == [ONE, ONE, ZERO, ONE]

    def test_original_pis_x_during_scan(self, s27_circuit, s27_scan):
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts)
        idx = [s27_scan.circuit.inputs.index(n) for n in "G0 G1 G2 G3".split()]
        for t in range(3):
            assert all(seq[t][i] == X for i in idx)

    def test_trailing_scan_out_unspecified(self, s27_circuit, s27_scan):
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts)
        inp_idx = s27_scan.circuit.inputs.index("scan_inp")
        for t in range(len(seq) - 3, len(seq)):
            assert seq[t][inp_idx] == X


class TestSemantics:
    def test_scan_in_reaches_target_state(self, s27_circuit, s27_scan):
        """Simulating the first scan operation leaves the chain holding SI."""
        ts = paper_test_set(s27_circuit)
        seq = translate_test_set(s27_scan, ts).randomize_x(random.Random(3))
        sim = LogicSimulator(s27_scan.circuit)
        for t in range(3):
            sim.step(seq[t])
        assert sim.state == (ZERO, ONE, ONE)

    def test_custom_chain_order_loads_the_test_state(self, s27_circuit):
        """A chain order other than C's flop order still loads SI into
        the flops SI names: C_scan keeps C's flop order."""
        sc = insert_scan(s27_circuit, chain_order=["G7", "G5", "G6"])
        assert [f.q for f in sc.circuit.flops] == ["G5", "G6", "G7"]
        ts = paper_test_set(s27_circuit)
        sim = LogicSimulator(sc.circuit)
        for vector in list(translate_test_set(sc, ts))[:3]:
            sim.step(vector)
        assert sim.state == (ZERO, ONE, ONE)

    def test_detection_preserved(self, s27_circuit, s27_scan):
        """Every core-logic fault the conventional set detects is detected
        by the randomized translated sequence."""
        ts = paper_test_set(s27_circuit)
        faults = collapse_faults(s27_circuit)
        conventional = PackedFaultSimulator(s27_circuit, faults)
        detected_mask = 0
        for test in ts:
            detected_mask |= scan_test_detections(conventional, test)
        detected = conventional.faults_from_mask(detected_mask)
        assert detected, "paper test set should detect something"

        seq = translate_test_set(s27_scan, ts).randomize_x(random.Random(5))
        scan_sim = PackedFaultSimulator(s27_scan.circuit, detected)
        result = scan_sim.run(list(seq))
        missed = [f for f in detected if f not in result.detection_time]
        assert not missed, f"translation lost detections: {missed}"


class TestValidation:
    def test_wrong_circuit_rejected(self, s27_scan, toy_seq_circuit):
        ts = ScanTestSet(toy_seq_circuit)
        ts.append(ScanTest((0, 0), ((0, 0),)))
        with pytest.raises(ValueError):
            translate_test_set(s27_scan, ts)

    def test_empty_set_translates_to_empty(self, s27_circuit, s27_scan):
        seq = translate_test_set(s27_scan, ScanTestSet(s27_circuit))
        assert len(seq) == 0


class TestMultiChain:
    def test_translation_loads_state_across_chains(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=3)
        ts = ScanTestSet(medium_synth)
        state = tuple(i % 2 for i in range(medium_synth.num_state_vars))
        ts.append(ScanTest(state, ((0,) * medium_synth.num_inputs,)))
        seq = translate_test_set(sc, ts).randomize_x(random.Random(7))
        sim = LogicSimulator(sc.circuit)
        for t in range(sc.max_chain_length):
            sim.step(seq[t])
        assert sim.state == state

    def test_cycle_count_uses_longest_chain(self, medium_synth):
        sc = insert_scan(medium_synth, num_chains=3)
        ts = ScanTestSet(medium_synth)
        ts.append(ScanTest((0,) * 10, ((0,) * 6,)))
        seq = translate_test_set(sc, ts)
        assert len(seq) == 2 * sc.max_chain_length + 1
