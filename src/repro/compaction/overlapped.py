"""Overlapped restoration with segment pruning (ref [24], Bommu,
Chakradhar & Doreswamy, ICCAD-98 — simplified).

Plain vector restoration grows each hard fault's restored span backwards
from its detection time until the fault re-detects, then moves on.  The
grown span is usually *larger* than necessary — the geometric growth
overshoots, and earlier faults' spans already provide justification this
fault can reuse.  Ref [24] adds two refinements implemented here:

* **overlap** — restoration for the current fault starts from the spans
  already restored for previously-processed (harder) faults, so shared
  prefixes are paid for once;
* **segment pruning** — after a fault is secured, the *left edge* of the
  newly restored segment is pruned back: vectors restored purely because
  of geometric overshoot are removed again while the fault stays
  detected.

Pruning is locally sound (every removal is re-verified) and usually
wins, but the interaction is greedy: a pruned span changes which faults
later iterations must restore for, so the final sequence is *typically*
— not provably — shorter than plain restoration's.  Ablation D's bench
compares the two across the suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..testseq.sequences import TestSequence
from ..sim.fault_sim import iter_fault_positions, positions_mask
from .base import CompactionOracle
from .restoration import RestorationResult


def overlapped_restoration_compact(
    circuit: Circuit,
    sequence: TestSequence,
    faults: Sequence[Fault],
    oracle: Optional[CompactionOracle] = None,
) -> RestorationResult:
    """Compact ``sequence`` by overlapped restoration + segment pruning.

    Same contract as :func:`repro.compaction.restoration_compact`; only
    the amount of restored material differs.
    """
    oracle = oracle or CompactionOracle(circuit, faults)
    oracle.restore_dropped()  # a shared oracle may carry drops
    vectors = list(sequence.vectors)
    detection = oracle.detection_times(vectors)
    never = [f for p, f in enumerate(oracle.faults) if p not in detection]

    pending: List[int] = sorted(
        detection, key=detection.__getitem__, reverse=True
    )
    pending_mask = positions_mask(pending)
    restored_set = set()

    def detects(indices, fault_mask) -> bool:
        subsequence = [vectors[i] for i in sorted(indices)]
        return oracle.detects_all(subsequence, fault_mask)

    while pending:
        position = pending[0]
        t_f = detection[position]
        fault_mask = 1 << (position + 1)

        # Grow geometrically from t_f (overlapping whatever exists).
        segment: List[int] = []
        span = 1
        while True:
            low = max(0, t_f - span + 1)
            for index in range(t_f, low - 1, -1):
                if index not in restored_set:
                    restored_set.add(index)
                    segment.append(index)
            if detects(restored_set, fault_mask):
                break
            if low == 0:
                break  # everything up to t_f restored; guaranteed case
            span *= 2

        # Prune the newly added segment from its left (oldest) edge:
        # binary search for the shortest suffix of `segment` (which was
        # appended newest-to-oldest) that keeps the fault detected.
        if segment:
            segment_sorted = sorted(segment)  # ascending time
            # Keep segment_sorted[k:]: binary-search the largest k whose
            # removal keeps the fault detected.  Detection is not monotone
            # in k (sequential state effects), so the search may settle on
            # a smaller k than optimal — every accepted k is re-verified,
            # so the result is always sound.
            low_keep, high_keep = 0, len(segment_sorted)
            while low_keep < high_keep:
                mid = (low_keep + high_keep + 1) // 2
                trial = restored_set - set(segment_sorted[:mid])
                if detects(trial, fault_mask):
                    low_keep = mid
                else:
                    high_keep = mid - 1
            if low_keep:
                restored_set -= set(segment_sorted[:low_keep])

        # Fault-drop the rest of the pending list.
        subsequence = [vectors[i] for i in sorted(restored_set)]
        detected_mask = oracle.detected_mask(subsequence, pending_mask)
        pending_mask &= ~detected_mask
        secured = set(iter_fault_positions(detected_mask))
        pending = [p for p in pending if p not in secured]

    kept = sorted(restored_set)
    compacted = sequence.subsequence(kept)
    final_mask = oracle.detected_mask(list(compacted.vectors))
    return RestorationResult(
        sequence=compacted,
        kept_indices=kept,
        detected=oracle.faults_of(final_mask),
        never_detected=never,
    )
