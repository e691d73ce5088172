"""Vector-restoration static compaction (ref [23], Pomeranz & Reddy,
ICCD-97), with the geometric segment growth of ref [24].

The idea: start from the *empty* sequence and restore only the vectors
each fault actually needs, working from the hardest fault (latest
detection time) down.  For fault ``f`` first detected at time ``t_f`` in
the original sequence, vectors are restored backwards from ``t_f`` —
first ``{t_f}``, then geometrically growing spans ``[t_f - k, t_f]`` —
until the restored subsequence detects ``f``.  Restoring the entire
prefix ``[0, t_f]`` reproduces the original prefix, so termination and
correctness are guaranteed.  After each fault is secured, every other
still-unprocessed fault detected by the current restored subsequence is
dropped; the faults that remain are exactly the ones needing more
vectors.

Which machines a trial steps: a one-fault ``detects_all`` trial on the
vector kernel steps only the machine words up to the one holding that
fault, and the secured-set query only up to the last pending fault's
word; the packed backend steps every live machine.  Either way the
answers are the same bits.

The procedure never inspects ``scan_sel``: applied to a ``C_scan``
sequence it freely deletes vectors *inside* scan operations, turning
complete scans into limited scans — the behaviour Section 4 demonstrates
on Table 1's sequence (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..obs import context as obs
from ..obs import ledger
from ..testseq.sequences import TestSequence
from ..faults.model import Fault
from .base import CompactionOracle


@dataclass
class RestorationResult:
    """Compacted sequence plus bookkeeping."""

    sequence: TestSequence
    kept_indices: List[int] = field(default_factory=list)
    #: Faults (among the targets) the compacted sequence still detects.
    detected: List[Fault] = field(default_factory=list)
    #: Targets the original sequence never detected (ignored, as in [23]).
    never_detected: List[Fault] = field(default_factory=list)


def restoration_compact(
    circuit: Circuit,
    sequence: TestSequence,
    faults: Sequence[Fault],
    oracle: Optional[CompactionOracle] = None,
) -> RestorationResult:
    """Compact ``sequence`` by vector restoration, preserving detection of
    every fault in ``faults`` that the sequence detects."""
    oracle = oracle or CompactionOracle(circuit, faults)
    oracle.restore_dropped()  # a shared oracle may carry drops
    vectors = list(sequence.vectors)
    detection = oracle.detection_times(vectors)
    never = [f for f in faults if f not in detection]

    # Hardest-first: decreasing detection time.
    pending: List[Fault] = sorted(
        detection, key=lambda f: detection[f], reverse=True
    )
    pending_mask = oracle.mask_of(pending)
    restored: List[int] = []  # kept original indices, ascending
    restored_set = set()

    want_ledger = ledger.enabled()
    while pending:
        fault = pending[0]
        obs.incr("compaction.restoration.targets")
        t_f = detection[fault]
        ledger.record("restoration.target", fault=fault, t=t_f)
        fault_mask = oracle.mask_of([fault])
        cycles_before = oracle.session.cycles_simulated
        span = 1
        while True:
            obs.incr("compaction.restoration.attempts")
            low = max(0, t_f - span + 1)
            added = False
            for index in range(t_f, low - 1, -1):
                if index not in restored_set:
                    restored_set.add(index)
                    added = True
            if added:
                restored = sorted(restored_set)
            if want_ledger:
                ledger.record("restoration.attempt", fault=fault,
                              low=low, t=t_f, kept=len(restored))
            subsequence = [vectors[i] for i in restored]
            if oracle.detects_all(subsequence, fault_mask):
                break
            if low == 0 and not added:
                # Whole prefix restored and still undetected: cannot happen
                # for a fault with a recorded detection time, but guard
                # against oracle/state drift rather than loop forever.
                break
            span *= 2

        # Every pending fault the restored subsequence now detects is
        # secured: remove it from the work list *and* from the packed
        # planes (the restored set only grows, and the final accounting
        # below restores the full universe anyway).
        subsequence = [vectors[i] for i in restored]
        detected_mask = oracle.detected_mask(subsequence, pending_mask)
        if want_ledger:
            ledger.record(
                "restoration.secured",
                faults=oracle.faults_of(detected_mask),
                via=str(fault), kept=len(restored),
                cycles=oracle.session.cycles_simulated - cycles_before,
            )
        oracle.drop(detected_mask)
        pending_mask &= ~detected_mask
        secured = set(oracle.faults_of(detected_mask))
        pending = [f for f in pending if f not in secured]

    obs.incr("compaction.restoration.restored_vectors", len(restored))
    obs.incr("compaction.restoration.dropped_vectors",
             len(vectors) - len(restored))
    compacted = sequence.subsequence(restored)
    oracle.restore_dropped()
    final_mask = oracle.detected_mask(list(compacted.vectors))
    if ledger.enabled():
        ledger.record("restoration.result", kept=list(restored),
                      original=len(vectors),
                      detected=len(oracle.faults_of(final_mask)))
    return RestorationResult(
        sequence=compacted,
        kept_indices=restored,
        detected=oracle.faults_of(final_mask),
        never_detected=never,
    )
