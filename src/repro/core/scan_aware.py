"""Section 2: test generation for ``C_scan`` with functional scan knowledge.

The paper's procedure is a conventional sequential ATPG run on the scan
circuit ``C_scan`` — ``scan_sel``/``scan_inp`` are ordinary inputs —
*enhanced* with the functional-level knowledge that a scan chain exists.
That knowledge is used in exactly two situations, both implemented here
as completions plugged into the base engine's ``completion_hook``:

1. **Scan-out completion** (the paper's main enhancement).  When the
   search fails but "a fault effect of f was propagated to flip-flop i"
   by some subsequence ``T'``, append ``N_SV - i`` vectors with
   ``scan_sel = 1`` (remaining inputs random) — each shift moves the
   effect one position down the chain until it appears on ``scan_out``.
   The candidate ``T' T''`` is verified by simulation before acceptance.

2. **Scan-in justification** (the paper's remark on procedures that can
   justify states, last paragraph of Section 2).  When a required state
   ``s`` would activate the fault but cannot be reached, a sequence of
   ``N_SV`` vectors with ``scan_sel = 1`` and ``scan_inp`` carrying ``s``
   *reversed* brings the circuit to ``s``.  We obtain the activating
   state and input vector from PODEM on the combinational view of
   ``C_scan``, justify the state by scanning it in, apply the vector, and
   — if the effect is captured in a flip-flop rather than a primary
   output — finish with a scan-out completion.

Every completion is verified against the actual (faulty) sequential
behaviour of ``C_scan`` before it is accepted: the fault is present
*during* the scan operations too (it may live in the scan multiplexers),
so the idealized reasoning above is a proposal generator, not an oracle.

**Verdict-first targeting.**  While the justification completion is on,
the same comb-view PODEM engine is asked about each target *before* its
search, through the base engine's ``triage_hook``.  Full scan makes an
``untestable`` verdict exact — a fault with no test in one frame of the
comb view has no sequential test — so such a target is aborted without
a search or a completion, and the redundancy pass later reads its proof
from the engine memo.  Faults on a flip-flop's D pin have no comb-view
site and are never triaged.  The forward-only setting
(``use_justification=False``) and runs without scan knowledge do not
triage: they search every target, as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..atpg.comb_view import CombView, comb_view, has_view_site
from ..atpg.podem import UNTESTABLE, Podem
from ..atpg.seq_atpg import (
    PropagationTrace,
    SeqATPGConfig,
    SeqATPGResult,
    SequentialATPG,
)
from ..circuit.gates import X
from ..circuit.scan import ScanCircuit
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..obs import ledger
from ..sim.backend import SimBackend
from ..testseq.sequences import TestSequence

#: Random refills tried when verifying a proposed completion.
VERIFY_RETRIES = 3
#: PODEM backtrack budget of the justification completion and the
#: verdict-first triage.
COMPLETION_BACKTRACK_LIMIT = 400


@dataclass
class ScanATPGResult:
    """Result of scan-aware generation; extends the base ATPG result with
    the paper's ``funct`` accounting (Table 5's last column)."""

    base: SeqATPGResult
    #: Faults detected through the scan-out completion (the effect was
    #: brought from a flip-flop to ``scan_out``) — the paper's ``funct``.
    funct_scan_out: List[Fault] = field(default_factory=list)
    #: Faults detected through PODEM + scan-in state justification.
    funct_justify: List[Fault] = field(default_factory=list)

    @property
    def sequence(self) -> TestSequence:
        return self.base.sequence

    @property
    def detection_time(self) -> Dict[Fault, int]:
        return self.base.detection_time

    @property
    def funct_count(self) -> int:
        return len(self.funct_scan_out) + len(self.funct_justify)

    def coverage(self) -> float:
        """Detected / all faults (aborted and untargeted count as
        undetected), in percent."""
        return self.base.coverage()


class ScanAwareATPG:
    """The paper's Section 2 generator for a scan circuit.

    Parameters
    ----------
    scan_circuit:
        The scan-inserted circuit with its chain metadata.
    faults:
        Fault targets; defaults to the collapsed stuck-at universe of
        ``C_scan`` (which includes the scan multiplexer logic, as the
        paper requires).
    config:
        Base engine configuration (seeds, search effort).
    use_justification:
        Enable the PODEM + scan-in fallback (completion 2) and the
        verdict-first triage.  Disable to reproduce the paper's
        forward-only setting, which uses only the scan-out completion.
    """

    def __init__(
        self,
        scan_circuit: ScanCircuit,
        faults: Optional[Sequence[Fault]] = None,
        config: Optional[SeqATPGConfig] = None,
        use_scan_knowledge: bool = True,
        use_justification: bool = True,
    ):
        self.scan_circuit = scan_circuit
        circuit = scan_circuit.circuit
        self.circuit = circuit
        self.faults = list(faults) if faults is not None else collapse_faults(circuit)
        self.config = config or SeqATPGConfig()
        self.use_scan_knowledge = use_scan_knowledge
        self.use_justification = use_justification
        self._rng = random.Random(self.config.seed ^ 0x5CA9)
        self._view: CombView = comb_view(circuit)
        #: PODEM on the comb view, used by the justification completion.
        #: Public so a later redundancy pass can reuse its verdict memo.
        self.podem = Podem(self._view.circuit,
                           backtrack_limit=COMPLETION_BACKTRACK_LIMIT)
        self._scan_out_hits: List[Fault] = []
        self._justify_hits: List[Fault] = []

    # -- public API ----------------------------------------------------------

    def generate(self) -> ScanATPGResult:
        """Run the enhanced generator and return sequence + accounting."""
        self._scan_out_hits = []
        self._justify_hits = []
        hook = self._complete if self.use_scan_knowledge else None
        triage = self._proven_untestable \
            if self.use_scan_knowledge and self.use_justification else None
        engine = SequentialATPG(
            self.circuit, self.faults, config=self.config,
            completion_hook=hook, triage_hook=triage,
        )
        base = engine.generate()
        confirmed = set(base.hook_detected)
        return ScanATPGResult(
            base=base,
            funct_scan_out=[f for f in self._scan_out_hits if f in confirmed],
            funct_justify=[
                f
                for f in self._justify_hits
                if f in confirmed and f not in self._scan_out_hits
            ],
        )

    # -- triage hook -----------------------------------------------------------

    def _proven_untestable(self, fault: Fault) -> bool:
        """PODEM on the comb view proves ``fault`` untestable (the
        verdict lands in the engine memo the justification completion
        and the redundancy pass read)."""
        return has_view_site(self.circuit, fault) and \
            self.podem.run(fault).status == UNTESTABLE

    # -- completion hook -------------------------------------------------------

    def _complete(
        self, trace: PropagationTrace, mini: SimBackend
    ) -> Optional[List[Tuple[int, ...]]]:
        """Try the paper's two functional-knowledge completions in order."""
        if trace.flops:
            candidate = self._scan_out_completion(trace, mini)
            ledger.record("atpg.completion", fault=trace.fault,
                          completion="scan_out", flops=len(trace.flops),
                          accepted=candidate is not None)
            if candidate is not None:
                self._scan_out_hits.append(trace.fault)
                return candidate
        if self.use_justification:
            candidate = self._justification_completion(trace, mini)
            ledger.record("atpg.completion", fault=trace.fault,
                          completion="justify",
                          accepted=candidate is not None)
            if candidate is not None:
                self._justify_hits.append(trace.fault)
                return candidate
        return None

    # -- completion 1: scan-out ---------------------------------------------------

    def _scan_out_completion(self, trace, mini) -> Optional[List[Tuple[int, ...]]]:
        """``T' T''``: replay the effect-producing prefix, then shift the
        chain until the effect reaches ``scan_out``."""
        scan = self.scan_circuit
        shifts = max(scan.shifts_to_observe(q) for q in trace.flops)
        template = list(trace.prefix) + [scan.shift_vector()] * shifts
        return self._verify(trace, mini, template)

    # -- completion 2: PODEM + scan-in justification ---------------------------------

    def _justification_completion(self, trace, mini) -> Optional[List[Tuple[int, ...]]]:
        """Scan in an activating state found by combinational ATPG, apply
        its input vector, scan out if the effect is captured in a flop."""
        fault = trace.fault
        if not has_view_site(self.circuit, fault):
            return None
        result = self.podem.run(fault)
        if not result.found:
            return None
        scan = self.scan_circuit
        state, vector = self._view.split_assignment(result.assignment, fill=X)
        template = scan.scan_in_vectors(state)
        template.append(tuple(vector))
        real_po_hit = any(
            po in set(self.circuit.outputs) for po in result.detecting_outputs
        )
        if not real_po_hit:
            capturing = self._view.capturing_flops(result.detecting_outputs)
            if not capturing:
                return None
            shifts = min(scan.shifts_to_observe(q) for q in capturing)
            template.extend([scan.shift_vector()] * shifts)
        return self._verify(trace, mini, template)

    # -- verification ----------------------------------------------------------------

    def _verify(self, trace, mini, template) -> Optional[List[Tuple[int, ...]]]:
        """Randomize the template's X positions and simulate the faulty
        machine; accept (truncated at first detection) only if the fault
        is really detected.  Retries with fresh random fills.

        The leading fully-specified vectors (typically the replayed
        prefix ``T'``) are identical across retries — no X to fill — so
        the machine state after them is snapshotted on the first attempt
        and restored on the rest; only the randomized tail re-simulates.
        The RNG stream is untouched: fills are drawn per X position and
        the concrete prefix has none.
        """
        concrete = 0
        for vector in template:
            if any(value == X for value in vector):
                break
            concrete += 1
        token = None
        for _attempt in range(VERIFY_RETRIES):
            candidate = [
                tuple(self._rng.randint(0, 1) if v == X else v for v in vector)
                for vector in template
            ]
            if token is None:
                mini.reset()
                mini.load_machine_states(list(trace.start_states))
                for index in range(concrete):
                    if mini.step(candidate[index]):
                        return candidate[: index + 1]
                token = mini.save_state()
            else:
                mini.restore_state(token)
            for index in range(concrete, len(candidate)):
                if mini.step(candidate[index]):
                    return candidate[: index + 1]
        return None
