"""Static compaction of conventional scan test sets.

This is the compaction world of the *prior* approaches: it operates on
whole ``(SI, T)`` tests and can only drop a scan operation by dropping
the entire test — "when they eliminate a scan operation in order to
compact the test set, they eliminate it completely.  As a result, they do
not have the ability to replace a complete scan operation with a limited
one" (Section 1).  The contrast with
:mod:`repro.compaction.restoration` / :mod:`~repro.compaction.omission`
applied to translated sequences is the substance of Table 7.

The pass implemented here is classic reverse-order fault simulation:
tests are simulated newest-first, and a test is kept only when it detects
a fault not yet covered by the tests kept so far.  (Later tests tend to
target the hard faults and incidentally cover many easy ones, so the
early easy-fault tests usually fall away.)
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..atpg.scan_sim import scan_test_detections
from ..circuit.netlist import Circuit
from ..testseq.scan_tests import ScanTestSet
from ..faults.model import Fault
from ..sim.backend import make_backend
from ..sim.fault_sim import iter_fault_positions
from ..sim.session import SimSession


def reverse_order_compact(
    circuit: Circuit,
    faults: Sequence[Fault],
    test_set: ScanTestSet,
) -> Tuple[ScanTestSet, Dict[Fault, int]]:
    """Reverse-order pass over ``test_set``.

    Returns the compacted set (original relative order preserved) and the
    fault -> kept-test-index detection map.
    """
    sim = make_backend(circuit, faults)
    undetected = sim.fault_mask
    keep: List[int] = []
    detections: Dict[int, int] = {}  # original index -> mask newly detected
    for index in range(len(test_set) - 1, -1, -1):
        mask = scan_test_detections(sim, test_set[index])
        newly = mask & undetected
        if newly:
            keep.append(index)
            detections[index] = newly
            undetected &= ~newly
    keep.reverse()

    compacted = ScanTestSet(circuit, [test_set[i] for i in keep])
    detected_by: Dict[Fault, int] = {}
    for new_index, original_index in enumerate(keep):
        for fault in sim.faults_from_mask(detections[original_index]):
            detected_by[fault] = new_index
    return compacted, detected_by


def trim_test_tails(
    circuit: Circuit,
    faults: Sequence[Fault],
    test_set: ScanTestSet,
) -> Tuple[ScanTestSet, Dict[Fault, int]]:
    """Trailing-vector omission over a conventional scan test set.

    Reverse-order compaction can only drop whole tests; extension-grown
    tests often keep functional vectors whose detections are by now
    covered elsewhere in the set.  This pass shortens each test from the
    tail (``|T| >= 1`` is preserved) whenever every fault the dropped
    vectors detected is still detected by some other test — so total
    detection never shrinks while cycle counts only go down.

    Returns the trimmed set and the fault -> first-detecting-test map.

    Trial candidates for one test are successive *prefixes* of its
    vector list from the same scan-in state — exactly the shape the
    incremental session's checkpoints resume across, so each trial
    re-simulates at most one checkpoint interval instead of the whole
    test.
    """
    session = SimSession(circuit, faults)
    tests = list(test_set)
    masks = [session.scan_test_mask(t.scan_in, t.vectors) for t in tests]

    # fault position -> number of tests detecting it
    cover_count = Counter(position for mask in masks
                          for position in iter_fault_positions(mask))
    for index in range(len(tests) - 1, -1, -1):
        while len(tests[index].vectors) > 1:
            candidate = tests[index].__class__(
                tests[index].scan_in, tests[index].vectors[:-1]
            )
            new_mask = session.scan_test_mask(
                candidate.scan_in, candidate.vectors
            )
            lost = list(iter_fault_positions(masks[index] & ~new_mask))
            if any(cover_count[position] < 2 for position in lost):
                break
            cover_count.subtract(lost)
            cover_count.update(
                iter_fault_positions(new_mask & ~masks[index]))
            tests[index] = candidate
            masks[index] = new_mask

    detected_by: Dict[Fault, int] = {}
    for index, mask in enumerate(masks):
        for fault in session.faults_of(mask):
            detected_by.setdefault(fault, index)
    return ScanTestSet(circuit, tests), detected_by
