"""Stuck-at fault model and equivalence collapsing."""

import pytest

from repro.circuit import Circuit, Gate, insert_scan, s27, toy_comb
from repro.faults import (
    Fault,
    branch_fault,
    collapse_faults,
    enumerate_faults,
    equivalence_classes,
    stem_fault,
)


class TestFaultObjects:
    def test_stem_str(self):
        assert str(stem_fault("n1", 0)) == "n1/SA0"

    def test_branch_str(self):
        assert str(branch_fault("n1", "g2", 1, 1)) == "n1->g2.1/SA1"

    def test_bad_stuck_value(self):
        with pytest.raises(ValueError):
            stem_fault("n1", 2)

    def test_branch_needs_consumer(self):
        with pytest.raises(ValueError):
            Fault(kind="branch", net="n", consumer=None, pin=0, stuck_at=0)

    def test_stem_rejects_consumer(self):
        with pytest.raises(ValueError):
            Fault(kind="stem", net="n", consumer="g", pin=0, stuck_at=0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Fault(kind="wire", net="n", consumer=None, pin=0, stuck_at=0)

    def test_hashable_and_ordered(self):
        faults = {stem_fault("a", 0), stem_fault("a", 0), stem_fault("a", 1)}
        assert len(faults) == 2
        assert sorted(faults)[0].stuck_at == 0


class TestEnumeration:
    def test_every_net_has_two_stem_faults(self, s27_circuit):
        faults = enumerate_faults(s27_circuit)
        stems = [f for f in faults if f.kind == "stem"]
        assert len(stems) == 2 * len(s27_circuit.nets())

    def test_branch_faults_only_on_fanout_stems(self, s27_circuit):
        faults = enumerate_faults(s27_circuit)
        for fault in faults:
            if fault.kind == "branch":
                assert s27_circuit.fanout_count(fault.net) > 1

    def test_branch_count_matches_fanout(self, s27_circuit):
        faults = enumerate_faults(s27_circuit)
        branches_on_g11 = [
            f for f in faults if f.kind == "branch" and f.net == "G11"
        ]
        assert len(branches_on_g11) == 2 * s27_circuit.fanout_count("G11")

    def test_deterministic_order(self, s27_circuit):
        assert enumerate_faults(s27_circuit) == enumerate_faults(s27_circuit)


class TestCollapsing:
    def test_subset_of_universe(self, s27_circuit):
        universe = set(enumerate_faults(s27_circuit))
        collapsed = collapse_faults(s27_circuit)
        assert set(collapsed) <= universe

    def test_mapping_total(self, s27_circuit):
        universe = enumerate_faults(s27_circuit)
        mapping = equivalence_classes(s27_circuit)
        assert set(mapping) == set(universe)

    def test_representative_fixpoint(self, s27_circuit):
        mapping = equivalence_classes(s27_circuit)
        for rep in set(mapping.values()):
            assert mapping[rep] == rep

    def test_and_gate_rule(self):
        """Input SA0 of a single-fanout AND collapses onto output SA0."""
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "AND", ("a", "b"))])
        mapping = equivalence_classes(c)
        assert mapping[stem_fault("a", 0)] == mapping[stem_fault("y", 0)]
        assert mapping[stem_fault("b", 0)] == mapping[stem_fault("y", 0)]
        # SA1 faults stay separate.
        assert mapping[stem_fault("a", 1)] != mapping[stem_fault("b", 1)]

    def test_nand_inverts_polarity(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "NAND", ("a", "b"))])
        mapping = equivalence_classes(c)
        assert mapping[stem_fault("a", 0)] == mapping[stem_fault("y", 1)]

    def test_not_chain_collapses_through(self):
        c = Circuit("t", ["a"], ["y"],
                    [Gate("m", "NOT", ("a",)), Gate("y", "NOT", ("m",))])
        mapping = equivalence_classes(c)
        # a/SA0 == m/SA1 == y/SA0 all one class.
        assert mapping[stem_fault("a", 0)] == mapping[stem_fault("y", 0)]
        assert len(collapse_faults(c)) == 2

    def test_xor_has_no_rule(self):
        c = Circuit("t", ["a", "b"], ["y"], [Gate("y", "XOR", ("a", "b"))])
        assert len(collapse_faults(c)) == 6  # nothing merges

    def test_dff_pins_not_merged(self, s27_circuit):
        """D-pin faults stay distinct from the Q stem: from the X
        power-up state a Q SA-v is active in cycle 0 while a D SA-v only
        reaches Q after the first clock, so their detection times differ
        under sequential simulation."""
        mapping = equivalence_classes(s27_circuit)
        # G10 feeds only flop G5; the old (unsound) rule merged them.
        for value in (0, 1):
            assert mapping[stem_fault("G10", value)] != \
                mapping[stem_fault("G5", value)]

    def test_stem_preferred_representative(self, s27_circuit):
        """Representatives are stem faults whenever the class has one, so
        every collapsed fault is injectable in the combinational view."""
        sc = insert_scan(s27_circuit)
        for fault in collapse_faults(sc.circuit):
            if fault.kind == "branch":
                assert fault.consumer not in sc.circuit.flop_by_q

    def test_branch_on_fanout_not_collapsed_into_stem(self, toy_comb_circuit):
        """Branch faults across a fanout stem stay distinct from the stem."""
        mapping = equivalence_classes(toy_comb_circuit)
        # Net b fans out to t1 and t2 (both NAND pins).
        b_t1 = branch_fault("b", "t1", 1, 0)
        b_t2 = branch_fault("b", "t2", 0, 0)
        assert mapping[b_t1] != mapping[b_t2]

    def test_collapse_ratio_reasonable(self, s27_scan):
        full = enumerate_faults(s27_scan.circuit)
        collapsed = collapse_faults(s27_scan.circuit)
        ratio = len(collapsed) / len(full)
        assert 0.3 < ratio < 0.8
