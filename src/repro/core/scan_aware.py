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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..atpg.comb_view import CombView, comb_view
from ..atpg.podem import Podem
from ..atpg.seq_atpg import (
    PropagationTrace,
    SeqATPGConfig,
    SeqATPGResult,
    SequentialATPG,
)
from ..circuit.gates import ONE, X, ZERO
from ..circuit.scan import ScanCircuit
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..obs import ledger
from ..sim.backend import SimBackend
from ..testseq.sequences import TestSequence


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
        """Detected / targeted faults, in percent."""
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
        Enable the PODEM + scan-in fallback (completion 2).  Disable to
        reproduce the paper's forward-only setting, which uses only the
        scan-out completion.
    verify_retries:
        Random refills attempted when verifying a proposed completion.
    """

    def __init__(
        self,
        scan_circuit: ScanCircuit,
        faults: Optional[Sequence[Fault]] = None,
        config: Optional[SeqATPGConfig] = None,
        use_scan_knowledge: bool = True,
        use_justification: bool = True,
        use_dominance: bool = False,
        verify_retries: int = 3,
        podem_backtrack_limit: int = 400,
        simulator_factory=None,
    ):
        self.scan_circuit = scan_circuit
        circuit = scan_circuit.circuit
        self.circuit = circuit
        self.faults = list(faults) if faults is not None else collapse_faults(circuit)
        self.config = config or SeqATPGConfig()
        self.use_scan_knowledge = use_scan_knowledge
        self.use_justification = use_justification
        self.use_dominance = use_dominance
        self.verify_retries = verify_retries
        #: None = stuck-at via backend selection.  Pass
        #: PackedTransitionSimulator (with TransitionFault targets and
        #: use_justification=False — PODEM is stuck-at-only) for at-speed
        #: transition-fault generation.
        self.simulator_factory = simulator_factory
        self._rng = random.Random(self.config.seed ^ 0x5CA9)
        self._input_index = {net: i for i, net in enumerate(circuit.inputs)}
        self._sel_idx = self._input_index[scan_circuit.scan_select]
        self._view: CombView = comb_view(circuit)
        #: PODEM on the comb view, used by the justification completion.
        #: Public so a later redundancy pass can reuse its verdict memo.
        self.podem = Podem(self._view.circuit, backtrack_limit=podem_backtrack_limit)
        self._flop_chain = {
            q: chain for chain in scan_circuit.chains for q in chain.order
        }
        self._scan_out_hits: List[Fault] = []
        self._justify_hits: List[Fault] = []

    # -- public API ----------------------------------------------------------

    def generate(self) -> ScanATPGResult:
        """Run the enhanced generator and return sequence + accounting."""
        self._scan_out_hits = []
        self._justify_hits = []
        hook = self._complete if self.use_scan_knowledge else None
        targets = None
        if self.use_dominance:
            from ..faults.dominance import dominance_reduce

            reduced, covered = dominance_reduce(self.circuit, self.faults)
            # Reduced targets first; dominated faults last (they usually
            # fall to fault dropping once their coverers are tested).
            targets = reduced + [f for f in self.faults if f in covered]
        engine = SequentialATPG(
            self.circuit, self.faults, config=self.config,
            completion_hook=hook, targets=targets,
            simulator_factory=self.simulator_factory,
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
        shifts = max(
            self._flop_chain[q].shifts_to_observe(q)
            for q in trace.flops
            if q in self._flop_chain
        )
        template = list(trace.prefix) + [
            self._scan_vector(scan_inp=X) for _ in range(shifts)
        ]
        return self._verify(trace, mini, template)

    # -- completion 2: PODEM + scan-in justification ---------------------------------

    def _justification_completion(self, trace, mini) -> Optional[List[Tuple[int, ...]]]:
        """Scan in an activating state found by combinational ATPG, apply
        its input vector, scan out if the effect is captured in a flop."""
        fault = trace.fault
        if fault.consumer is not None and fault.consumer in self.circuit.flop_by_q:
            return None  # not representable in the combinational view
        result = self.podem.run(fault)
        if not result.found:
            return None
        state, vector = self._view.split_assignment(result.assignment, fill=X)
        template = self._scan_in_vectors(state)
        test_vector = list(vector)
        template.append(tuple(test_vector))
        real_po_hit = any(
            po in set(self.circuit.outputs) for po in result.detecting_outputs
        )
        if not real_po_hit:
            capturing = self._view.capturing_flops(result.detecting_outputs)
            capturing = [q for q in capturing if q in self._flop_chain]
            if not capturing:
                return None
            shifts = min(
                self._flop_chain[q].shifts_to_observe(q) for q in capturing
            )
            template.extend(self._scan_vector(scan_inp=X) for _ in range(shifts))
        return self._verify(trace, mini, template)

    def _scan_in_vectors(self, state: Sequence[int]) -> List[Tuple[int, ...]]:
        """Vectors loading ``state`` through the chain(s).

        The state is fed *reversed* — the value destined for the last
        flip-flop of a chain enters first (the paper's Section 2 example).
        With several chains, all shift simultaneously for
        ``max_chain_length`` cycles; shorter chains pad with X up front.
        """
        state_of = dict(zip((f.q for f in self.circuit.flops), state))
        total = self.scan_circuit.max_chain_length
        vectors = []
        for step in range(total):
            vector = [X] * len(self.circuit.inputs)
            vector[self._sel_idx] = ONE
            for chain in self.scan_circuit.chains:
                inp_idx = self._input_index[chain.scan_in]
                # Value entering at `step` lands in flip-flop
                # chain.order[length-1-step'] after the remaining shifts;
                # feed the chain back-to-front, late chains start later.
                position = chain.length - 1 - (step - (total - chain.length))
                if 0 <= position < chain.length:
                    vector[inp_idx] = state_of[chain.order[position]]
            vectors.append(tuple(vector))
        return vectors

    # -- shared helpers ----------------------------------------------------------------

    def _scan_vector(self, scan_inp: int = X) -> Tuple[int, ...]:
        """One shift cycle: ``scan_sel = 1``, everything else X (filled
        randomly at verification, as the paper fills "the remaining
        primary input values under T'' randomly")."""
        vector = [X] * len(self.circuit.inputs)
        vector[self._sel_idx] = ONE
        for chain in self.scan_circuit.chains:
            vector[self._input_index[chain.scan_in]] = scan_inp
        return tuple(vector)

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
        for _attempt in range(self.verify_retries):
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
