"""Static compaction of conventional scan test sets.

This is the compaction world of the *prior* approaches: it operates on
whole ``(SI, T)`` tests and can only drop a scan operation by dropping
the entire test — "when they eliminate a scan operation in order to
compact the test set, they eliminate it completely.  As a result, they do
not have the ability to replace a complete scan operation with a limited
one" (Section 1).  The contrast with
:mod:`repro.compaction.restoration` / :mod:`~repro.compaction.omission`
applied to translated sequences is the substance of Table 7.

One pass over one simulation session does two things:

1. classic reverse-order fault simulation: tests are simulated
   newest-first, and a test is kept only when it detects a fault not yet
   covered by the tests kept so far.  (Later tests tend to target the
   hard faults and incidentally cover many easy ones, so the early
   easy-fault tests usually fall away.)
2. trailing-vector trimming of the kept tests, newest first: a test
   loses its last functional vector (``|T| >= 1`` is preserved) whenever
   every fault that vector's removal stops the test from detecting is
   still detected by another kept test.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..testseq.scan_tests import ScanTest, ScanTestSet
from ..faults.model import Fault
from ..sim.fault_sim import iter_fault_positions
from ..sim.session import SimSession


def scan_set_compact(
    circuit: Circuit,
    faults: Sequence[Fault],
    test_set: ScanTestSet,
) -> Tuple[ScanTestSet, Dict[Fault, int]]:
    """Drop tests in reverse order, then trim the kept tests' tails.

    Returns the compacted set (original relative order preserved) and
    the fault -> first-detecting-test map.  Total detection never
    shrinks and cycle counts only go down.

    Each test's detection mask is simulated once; trimming reuses the
    kept tests' masks.  Its trial candidates for one test are successive
    *prefixes* of its vector list from the same scan-in state — exactly
    the shape the session's checkpoints resume across, so each trial
    re-simulates at most one checkpoint interval instead of the whole
    test.
    """
    session = SimSession(circuit, faults)
    undetected = session.fault_mask
    tests: List[ScanTest] = []
    masks: List[int] = []
    for test in reversed(test_set):
        mask = session.scan_test_mask(test.scan_in, test.vectors)
        if mask & undetected:
            tests.append(test)
            masks.append(mask)
            undetected &= ~mask
    tests.reverse()
    masks.reverse()

    # fault position -> number of kept tests detecting it
    cover_count = Counter(position for mask in masks
                          for position in iter_fault_positions(mask))
    for index in range(len(tests) - 1, -1, -1):
        test = tests[index]
        while len(test.vectors) > 1:
            shorter = test.vectors[:-1]
            new_mask = session.scan_test_mask(test.scan_in, shorter)
            lost = list(iter_fault_positions(masks[index] & ~new_mask))
            if any(cover_count[position] < 2 for position in lost):
                break
            cover_count.subtract(lost)
            cover_count.update(
                iter_fault_positions(new_mask & ~masks[index]))
            test = ScanTest(test.scan_in, shorter)
            masks[index] = new_mask
        tests[index] = test

    detected_by: Dict[Fault, int] = {}
    for index, mask in enumerate(masks):
        for fault in session.faults_of(mask):
            detected_by.setdefault(fault, index)
    return ScanTestSet(circuit, tests), detected_by
