"""Static compaction: restoration [23], omission [22], the scan-set
pass (reverse-order dropping plus tail trimming), and the shared
oracle."""

import random

import pytest

from repro.atpg import SecondApproachATPG, SecondApproachConfig, SeqATPGConfig
from repro.atpg.scan_sim import scan_test_detections
from repro.circuit import insert_scan, random_circuit, s27
from repro.compaction import (
    CompactionOracle,
    omission_compact,
    restoration_compact,
    scan_set_compact,
)
from repro.core import ScanAwareATPG
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator
from repro.testseq import TestSequence
from tests.util import random_vectors


@pytest.fixture(scope="module")
def s27_scan_case():
    """A generated sequence for s27_scan with full fault coverage."""
    sc = insert_scan(s27())
    faults = collapse_faults(sc.circuit)
    result = ScanAwareATPG(sc, faults, config=SeqATPGConfig(seed=1)).generate()
    return sc.circuit, faults, result.sequence


def detected_set(circuit, faults, sequence):
    sim = PackedFaultSimulator(circuit, faults)
    return set(sim.run(list(sequence)).detection_time)


class TestRestoration:
    def test_preserves_detections(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        before = detected_set(circuit, faults, sequence)
        result = restoration_compact(circuit, sequence, faults)
        after = detected_set(circuit, faults, result.sequence)
        assert before <= after

    def test_never_longer(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert len(result.sequence) <= len(sequence)

    def test_typically_shorter(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert len(result.sequence) < len(sequence)

    def test_kept_indices_ascending_subset(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert result.kept_indices == sorted(set(result.kept_indices))
        assert all(0 <= i < len(sequence) for i in result.kept_indices)
        assert result.sequence.vectors == tuple(
            sequence[i] for i in result.kept_indices
        )

    def test_never_detected_reported(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        # Truncate the sequence so some faults go undetected.
        short = TestSequence(sequence.inputs, sequence.vectors[:5],
                             scan_sel=sequence.scan_sel)
        result = restoration_compact(circuit, short, faults)
        assert set(result.never_detected) == \
            set(faults) - detected_set(circuit, faults, short)

    def test_empty_sequence(self, s27_scan_case):
        circuit, faults, _ = s27_scan_case
        empty = TestSequence.for_circuit(circuit, [])
        result = restoration_compact(circuit, empty, faults)
        assert len(result.sequence) == 0


class TestOmission:
    def test_preserves_required(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        before = detected_set(circuit, faults, sequence)
        result = omission_compact(circuit, sequence, faults)
        after = detected_set(circuit, faults, result.sequence)
        assert before <= after

    def test_local_minimum_at_fixpoint(self, s27_scan_case):
        """Run to a fixpoint (a sweep with zero omissions); then removing
        any single remaining vector must break coverage.  A *single* pass
        has no such guarantee — omitting a later vector changes the state
        trajectory and can make an earlier vector newly omittable."""
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults, max_passes=20)
        compacted = result.sequence
        required = detected_set(circuit, faults, sequence)
        for index in range(len(compacted)):
            shorter = compacted.without(index)
            still = detected_set(circuit, faults, shorter)
            assert not required <= still, (
                f"vector {index} was omittable but kept"
            )

    def test_omitted_count(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults)
        assert result.omitted_count == len(sequence) - len(result.sequence)

    def test_extra_detected_disjoint_from_required(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        required = detected_set(circuit, faults, sequence)
        result = omission_compact(circuit, sequence, faults)
        assert not set(result.extra_detected) & required

    def test_multi_pass_not_worse(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        one = omission_compact(circuit, sequence, faults, max_passes=1)
        two = omission_compact(circuit, sequence, faults, max_passes=3)
        assert len(two.sequence) <= len(one.sequence)

    def test_shortens_scan_operations(self, s27_scan_case):
        """Omission may shorten scan runs — the limited-scan effect the
        paper demonstrates in Table 4."""
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults)
        assert result.sequence.scan_vector_count() <= \
            sequence.scan_vector_count()


class TestPipelineOrder:
    def test_restoration_then_omission_monotone(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        restored = restoration_compact(circuit, sequence, faults, oracle=oracle)
        omitted = omission_compact(circuit, restored.sequence, faults,
                                   oracle=oracle)
        assert len(omitted.sequence) <= len(restored.sequence) <= len(sequence)
        before = detected_set(circuit, faults, sequence)
        after = detected_set(circuit, faults, omitted.sequence)
        assert before <= after


class TestOracle:
    def test_checkpoint_equals_scratch(self, s27_scan_case):
        """A query that resumes from the checkpoints an earlier prefix
        query left behind equals whole-sequence simulation from scratch
        (the machinery omission relies on)."""
        circuit, faults, sequence = s27_scan_case
        vectors = list(sequence.vectors)
        oracle = CompactionOracle(circuit, faults)
        oracle.detected_mask(vectors[:min(10, len(vectors) // 2)])
        hits = oracle.session.checkpoint_hits
        resumed = oracle.detected_mask(vectors)
        assert oracle.session.checkpoint_hits == hits + 1
        scratch = CompactionOracle(circuit, faults,
                                   incremental=False).detected_mask(vectors)
        assert resumed == scratch

    def test_mask_roundtrip(self, s27_scan_case):
        circuit, faults, _ = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        subset = faults[3:9]
        assert oracle.faults_of(oracle.mask_of(subset)) == sorted(
            subset, key=faults.index
        )

    def test_detects_all_early_exit(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        target = oracle.mask_of(faults[:3])
        assert oracle.detects_all(list(sequence.vectors), target)


class TestReverseOrderScanSet:
    def test_coverage_preserved_with_fewer_tests(self):
        """One scan-set pass over raw first-approach (``|T| = 1``) and
        second-approach sets, checked against per-test reference
        simulation.  The multi-vector sets exercise tail trimming as
        well as test dropping."""
        for circuit_seed in (5, 19, 23, 41):
            circuit = random_circuit("ro", 4, 8, 50, seed=circuit_seed)
            faults = collapse_faults(circuit)
            for max_test_length in (1, 12):
                raw = SecondApproachATPG(circuit, faults, SecondApproachConfig(
                    seed=3, max_test_length=max_test_length, compact=False,
                )).generate().test_set
                compacted, detected_by = scan_set_compact(circuit, faults, raw)
                assert len(compacted) <= len(raw)
                check_scan_set_compaction(circuit, faults, raw, compacted,
                                          detected_by)


def check_scan_set_compaction(circuit, faults, raw, compacted, detected_by):
    """Check one scan-set pass against per-test reference simulation."""
    # Kept tests keep their original order, and each kept test's
    # vectors are a non-empty prefix of its source test's vectors.
    sources = iter(raw)
    for kept in compacted:
        assert kept.vectors
        assert any(source.scan_in == kept.scan_in
                   and source.vectors[:len(kept.vectors)] == kept.vectors
                   for source in sources)
    # The detection union is the raw set's, recomputed per test.
    sim = PackedFaultSimulator(circuit, faults)
    raw_union = 0
    for test in raw:
        raw_union |= scan_test_detections(sim, test)
    kept_masks = [scan_test_detections(sim, test) for test in compacted]
    kept_union = 0
    for mask in kept_masks:
        kept_union |= mask
    assert kept_union == raw_union
    # detected_by names each fault's first detecting kept test.
    expected = {}
    for index, mask in enumerate(kept_masks):
        for fault in sim.faults_from_mask(mask):
            expected.setdefault(fault, index)
    assert detected_by == expected
