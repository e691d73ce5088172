"""The two conventional scan approaches (first: one vector per test;
second: multi-vector tests), both from one generator, and the scan-test
simulation semantics."""

import pytest

from repro.atpg import (
    SecondApproachATPG,
    SecondApproachConfig,
    scan_test_detections,
    scan_test_observability,
)
from repro.circuit import random_circuit, s27
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator
from repro.testseq import ScanTest


def first_approach(seed):
    """The first approach: ``|T| = 1`` and no test-set compaction."""
    return SecondApproachConfig(seed=seed, max_test_length=1, compact=False)


class TestScanTestSimulation:
    def test_scan_in_is_exact(self, s27_circuit):
        """Conventional semantics: the scan-in state loads into every
        machine, including faulty ones (scan assumed ideal)."""
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        test = ScanTest((1, 0, 1), ((0, 0, 0, 0),))
        scan_test_detections(sim, test)
        # After the test the state was loaded and advanced one cycle; the
        # call must not raise and must return a mask subset.
        assert scan_test_detections(sim, test) & ~sim.fault_mask == 0

    def test_final_state_observed(self, s27_circuit):
        """A fault whose only symptom is a wrong next-state is detected
        through the closing scan-out."""
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        detected = 0
        for state in ((0, 0, 0), (1, 1, 1), (1, 0, 1)):
            for vec in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1)):
                detected |= scan_test_detections(
                    sim, ScanTest(state, (vec,))
                )
        po_only = 0
        sim2 = PackedFaultSimulator(s27_circuit, faults)
        for state in ((0, 0, 0), (1, 1, 1), (1, 0, 1)):
            for vec in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1)):
                sim2.load_state(state)
                po_only |= sim2.step(vec)
        # Scan-out observation strictly helps on s27.
        assert detected & ~po_only

    def test_observability_matches_ff_effects(self, s27_circuit):
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        sim.load_state((0, 1, 0))
        sim.step((1, 0, 1, 0))
        expected = 0
        for mask in sim.ff_effect_masks():
            expected |= mask
        assert scan_test_observability(sim) == expected & sim.fault_mask


class TestFirstApproach:
    @pytest.fixture(scope="class")
    def generated(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        return circuit, faults, SecondApproachATPG(
            circuit, faults, first_approach(2)
        ).generate()

    def test_full_coverage_on_s27(self, generated):
        _c, faults, result = generated
        # D-pin branch faults are their own classes (the old D==Q merge
        # was unsound sequentially); PODEM targets them on the comb
        # view's pseudo outputs, so they must not dent the coverage.
        flop_pins = [f for f in faults if f.consumer in ("G5", "G6", "G7")]
        assert flop_pins
        assert result.coverage() == 100.0

    def test_single_vector_tests(self, generated):
        _c, _f, result = generated
        assert all(t.functional_cycles == 1 for t in result.test_set)

    def test_detections_confirmed_by_simulation(self, generated):
        circuit, faults, result = generated
        sim = PackedFaultSimulator(circuit, faults)
        for fault, index in list(result.detected_by.items())[:25]:
            mask = scan_test_detections(sim, result.test_set[index])
            assert mask & (1 << (faults.index(fault) + 1))

    def test_tests_are_binary(self, generated):
        from repro.circuit.gates import X

        _c, _f, result = generated
        for test in result.test_set:
            assert X not in test.scan_in
            assert all(X not in v for v in test.vectors)

    def test_rejects_combinational(self, toy_comb_circuit):
        with pytest.raises(ValueError):
            SecondApproachATPG(toy_comb_circuit, config=first_approach(0))


class TestSecondApproach:
    @pytest.fixture(scope="class")
    def generated(self):
        circuit = s27()
        faults = collapse_faults(circuit)
        config = SecondApproachConfig(seed=2)
        return circuit, faults, SecondApproachATPG(
            circuit, faults, config
        ).generate()

    def test_full_coverage_on_s27(self, generated):
        _c, _f, result = generated
        assert result.coverage() == 100.0

    def test_cycle_accounting(self, generated):
        _c, _f, result = generated
        n_sv = 3
        expected = sum(
            n_sv + t.functional_cycles for t in result.test_set
        ) + n_sv
        assert result.total_cycles() == expected

    def test_beats_or_matches_first_approach(self):
        """The second approach exists to reduce scan operations: on the
        same circuit it must not need more cycles than one-vector tests
        after the same compaction."""
        circuit = s27()
        faults = collapse_faults(circuit)
        first = SecondApproachATPG(
            circuit, faults, first_approach(2)
        ).generate()
        from repro.compaction import scan_set_compact

        first_set, _ = scan_set_compact(circuit, faults, first.test_set)
        second = SecondApproachATPG(
            circuit, faults, SecondApproachConfig(seed=2)
        ).generate()
        assert second.total_cycles() <= first_set.total_cycles() * 1.25

    def test_extension_capped(self):
        circuit = random_circuit("se", 4, 8, 50, seed=31)
        config = SecondApproachConfig(seed=1, max_test_length=3)
        result = SecondApproachATPG(circuit, config=config).generate()
        assert all(t.functional_cycles <= 3 for t in result.test_set)

    def test_compaction_flag(self):
        circuit = random_circuit("sc", 4, 8, 50, seed=32)
        faults = collapse_faults(circuit)
        loose = SecondApproachATPG(
            circuit, faults, SecondApproachConfig(seed=1, compact=False)
        ).generate()
        tight = SecondApproachATPG(
            circuit, faults, SecondApproachConfig(seed=1, compact=True)
        ).generate()
        assert len(tight.test_set) <= len(loose.test_set)

    def test_rejects_combinational(self, toy_comb_circuit):
        with pytest.raises(ValueError):
            SecondApproachATPG(toy_comb_circuit)
