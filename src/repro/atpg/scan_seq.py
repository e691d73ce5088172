"""Conventional scan ATPG — the second approach (refs [6]-[9], stand-in
for the compaction flow of [26]) and, at ``|T| = 1``, the first.

The second approach "repeatedly selects between two options": scan
(out/in) or keep applying primary input vectors.  Tests have the form
``(SI, T)`` with ``|T| >= 1``; every scan operation is *complete* —
``N_SV`` shifts — which is the defining property the paper's cycle-count
comparison targets (its ``[26] cyc`` column counts
``sum(N_SV + |T_i|) + N_SV`` clock cycles).

Implementation:

1. a PODEM call on the combinational view seeds each test with
   ``(SI, t_I)`` for a target fault;
2. a greedy *extension* phase appends further functional vectors while
   they pay for themselves — a candidate vector is kept when the faults
   it newly detects (at primary outputs, or observably parked in the
   final state for the closing scan-out) outnumber zero.  This is the
   simulation-based flavour of refs [6]-[9]: using functional vectors
   instead of scan operations whenever that is cheaper;
3. one compaction pass (:func:`repro.compaction.scan_set.scan_set_compact`)
   drops tests made redundant by later, stronger ones and trims the
   kept tests' trailing vectors.

The result is an honest, literature-shaped baseline: clearly better than
the first approach (fewer scan operations), but still restricted to
complete scan — exactly what Tables 6 and 7 compare against.

The first approach (Section 1, refs [1]-[5]) is this generator with
``max_test_length=1`` and ``compact=False``: every PODEM cube splits
into a scan-in state ``t_s`` and one input vector ``t_I``, giving the
scan test ``(t_s, t_I)``, and a complete scan operation surrounds every
vector.  With ``|T|`` capped at 1 the extension phase draws no random
numbers, so the tests are exactly the randomly filled PODEM cubes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuit.gates import X
from ..circuit.netlist import Circuit
from ..testseq.scan_tests import ScanTest, ScanTestSet
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..obs import ledger
from ..sim.backend import make_backend
from .comb_view import comb_view, view_fault
from .podem import ABORTED, UNTESTABLE, Podem
from .scan_sim import scan_test_detections, scan_test_observability
from .seq_atpg import _require

#: PODEM backtrack limit per target fault.
BACKTRACK_LIMIT = 400


@dataclass
class SecondApproachConfig:
    """Effort knobs for the baseline generator."""

    seed: int = 0
    #: Candidate vectors evaluated per extension step.
    candidates_per_step: int = 6
    #: Maximum functional vectors per test (``|T|`` cap).
    max_test_length: int = 12
    #: Run the test-set compaction pass.
    compact: bool = True

    def __post_init__(self):
        _require(self, "candidates_per_step", self.candidates_per_step >= 1,
                 ">= 1")


@dataclass
class SecondApproachResult:
    """Test set plus fault accounting for the baseline generator."""

    test_set: ScanTestSet
    detected_by: Dict[Fault, int] = field(default_factory=dict)
    untestable: List[Fault] = field(default_factory=list)
    aborted: List[Fault] = field(default_factory=list)

    def coverage(self) -> float:
        """Detected / all classified faults, in percent."""
        total = len(self.detected_by) + len(self.untestable) + len(self.aborted)
        if not total:
            return 100.0
        return 100.0 * len(self.detected_by) / total

    def total_cycles(self) -> int:
        """Conventional application cost of the final test set."""
        return self.test_set.total_cycles()


class SecondApproachATPG:
    """Conventional second-approach generator over complete scan ops."""

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        config: Optional[SecondApproachConfig] = None,
    ):
        if circuit.num_state_vars == 0:
            raise ValueError("second-approach ATPG needs a sequential circuit")
        self.circuit = circuit
        self.faults = list(faults) if faults is not None else collapse_faults(circuit)
        self.config = config or SecondApproachConfig()
        self._rng = random.Random(self.config.seed)
        self._view = comb_view(circuit)
        self._podem = Podem(self._view.circuit,
                            backtrack_limit=BACKTRACK_LIMIT)

    def generate(self) -> SecondApproachResult:
        """PODEM-seeded tests, greedy extension, test-set compaction."""
        result = SecondApproachResult(test_set=ScanTestSet(self.circuit))
        sim = make_backend(self.circuit, self.faults)
        undetected_mask = sim.fault_mask

        for fault in self.faults:
            bit = 1 << sim.machine_of(fault)
            if not undetected_mask & bit:
                continue
            ledger.record("atpg.target", fault=fault, engine="scan_seq")
            podem_result = self._podem.run(view_fault(self.circuit, fault))
            if podem_result.status == UNTESTABLE:
                result.untestable.append(fault)
                undetected_mask &= ~bit
                continue
            if podem_result.status == ABORTED:
                ledger.record("atpg.abort", fault=fault, engine="scan_seq")
                result.aborted.append(fault)
                undetected_mask &= ~bit
                continue
            state, first = self._view.split_assignment(podem_result.assignment, fill=X)
            state = tuple(self._fill(v) for v in state)
            vectors = [tuple(self._fill(v) for v in first)]
            vectors = self._extend(sim, state, vectors, undetected_mask)
            test = ScanTest(scan_in=state, vectors=tuple(vectors))
            index = len(result.test_set)
            result.test_set.append(test)
            newly = scan_test_detections(sim, test) & undetected_mask
            undetected_mask &= ~newly
            want_ledger = ledger.enabled()
            for detected in sim.faults_from_mask(newly):
                result.detected_by.setdefault(detected, index)
                if want_ledger:
                    ledger.record("atpg.detect", fault=detected, vector=index,
                                  engine="scan_seq", unit="test")

        if self.config.compact and len(result.test_set):
            from ..compaction.scan_set import scan_set_compact

            result.test_set, result.detected_by = scan_set_compact(
                self.circuit, self.faults, result.test_set
            )
        return result

    # -- extension phase ----------------------------------------------------

    def _extend(self, sim, state, vectors, undetected_mask) -> List:
        """Greedily grow ``T`` while extra functional vectors detect
        strictly more (still-undetected) faults than stopping here would."""
        config = self.config
        if len(vectors) >= config.max_test_length:
            return vectors
        sim.load_state(state)
        for vector in vectors:
            sim.step(vector)
        while len(vectors) < config.max_test_length:
            baseline = scan_test_observability(sim) & undetected_mask
            snapshot = sim.save_state()
            best = None
            for _k in range(config.candidates_per_step):
                candidate = tuple(
                    self._rng.randint(0, 1) for _ in range(self.circuit.num_inputs)
                )
                sim.restore_state(snapshot)
                po_mask = sim.step(candidate) & undetected_mask
                final_mask = scan_test_observability(sim) & undetected_mask
                gain = (po_mask | final_mask).bit_count() - baseline.bit_count()
                if best is None or gain > best[0]:
                    best = (gain, candidate, sim.save_state())
            gain, candidate, after = best
            if gain <= 0:
                sim.restore_state(snapshot)
                break
            vectors.append(candidate)
            sim.restore_state(after)
        return vectors

    def _fill(self, value: int) -> int:
        return self._rng.randint(0, 1) if value == X else value
