"""Bit-parallel sequential transition-fault simulator.

Same architecture as :class:`~repro.sim.fault_sim.PackedFaultSimulator`
— machine 0 is fault-free, machine ``f >= 1`` carries fault ``f-1``, one
big-int pair per net — but the injection is *dynamic*: a transition
fault forces its stale value only in the cycle where the faulty machine
would have switched.  Concretely, for a slow-to-rise site ``n`` packed
at bit ``b``:

    launch_b = (n was 0 in machine b last cycle) and (n computes 1 now)
    if launch_b: machine b sees 0 at n this cycle

The "last cycle" value is the *post-injection* faulty value, so a site
that keeps getting blocked keeps holding — the gross-delay model.  X
previous values never launch.

Detection, state handling, snapshots and the mask/result API come from
the shared :class:`~repro.sim.fault_sim.SimBackend` base, so the ATPG
engines drive either simulator through the same interface (see
``SequentialATPG(simulator_factory=...)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import ONE, ZERO
from ..circuit.netlist import Circuit
from ..faults.transition import RISE, TransitionFault
from .fault_sim import SimBackend, _eval_gates, bit_gather
from .logic_sim import vector_from_string


class PackedTransitionSimulator(SimBackend):
    """Parallel transition-fault simulator (see module docstring).

    Adds to :class:`~repro.sim.fault_sim.SimBackend` the dynamic
    injection, its :meth:`step` and the per-site transition history,
    which the state methods carry along.  It has no lane step, so the
    ATPG beam search steps it one candidate at a time.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[TransitionFault]):
        super().__init__(circuit, faults)
        topology = self._topology
        self._pi_idx = [idx for idx, _n in topology.pi]
        self._flop_q = topology.flop_q
        self._flop_d = [d for d, _q in topology.flop_d]

        # Injection tables: net index -> (slow_to_rise bits, slow_to_fall bits)
        site_masks: Dict[int, List[int]] = {}
        for position, fault in enumerate(self.faults):
            if fault.net not in self._index:
                raise ValueError(f"fault on unknown net: {fault}")
            entry = site_masks.setdefault(self._index[fault.net], [0, 0])
            entry[0 if fault.slow_to == RISE else 1] |= 1 << (position + 1)
        self._sites: List[Tuple[int, int, int]] = [
            (idx, masks[0], masks[1]) for idx, masks in site_masks.items()
        ]
        gate_outputs = {self._index[g.output] for g in circuit.gates}
        self._source_sites = [
            entry for entry in self._sites if entry[0] not in gate_outputs
        ]
        # The topological gate list cut after every site gate: each run
        # is evaluated in one sweep, then its site (if any) is injected
        # before any later gate reads it.
        self._runs: List[Tuple[tuple, Optional[int], List[int]]] = []
        run: list = []
        for code, out_idx, in_idx in topology.gates:
            run.append((code, out_idx, in_idx, None, None))
            if out_idx in site_masks:
                self._runs.append((tuple(run), out_idx, site_masks[out_idx]))
                run = []
        if run:
            self._runs.append((tuple(run), None, [0, 0]))
        # Previous-cycle (post-injection) planes per monitored net.
        self._prev: Dict[int, Tuple[int, int]] = {}

        self._ones = [0] * topology.num_nets
        self._zeros = [0] * topology.num_nets

    # -- transition history ----------------------------------------------------

    def reset(self) -> None:
        """All flip-flops to X; transition history cleared."""
        super().reset()
        self._prev = {}

    def save_state(self):
        """Snapshot state + per-site transition history + time."""
        state, time = super().save_state()
        return (state, dict(self._prev), time)

    def restore_state(self, token) -> None:
        """Restore a :meth:`save_state` snapshot."""
        state, prev, time = token
        super().restore_state((state, time))
        self._prev = dict(prev)

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (see :meth:`SimBackend.remap_state_token`); the per-site
        transition history is projected along with the state."""
        state, prev, time = token
        state, time = SimBackend.remap_state_token((state, time), kept_bits)
        gather = bit_gather(kept_bits)
        return (state,
                {idx: (gather(ones), gather(zeros))
                 for idx, (ones, zeros) in prev.items()},
                time)

    def load_machine_states(self, states: Sequence[Sequence[int]]) -> None:
        """Load a scalar flip-flop state per machine (history cleared, so
        the next cycle cannot launch at any site)."""
        super().load_machine_states(states)
        self._prev = {}

    # -- simulation -------------------------------------------------------------------

    def _inject(self, idx: int, ones: int, zeros: int,
                rise_mask: int, fall_mask: int) -> Tuple[int, int]:
        """Dynamic gross-delay injection at one monitored net."""
        prev_ones, prev_zeros = self._prev.get(idx, (0, 0))
        if rise_mask:
            # Machines that were 0 and now compute 1: hold 0.
            launch = prev_zeros & ones & rise_mask
            if launch:
                ones &= ~launch
                zeros |= launch
        if fall_mask:
            launch = prev_ones & zeros & fall_mask
            if launch:
                zeros &= ~launch
                ones |= launch
        return ones, zeros

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return newly-detected machine mask."""
        if isinstance(vector, str):
            vector = vector_from_string(vector)
        ones, zeros = self._ones, self._zeros
        full = self.full_mask

        for idx, value in zip(self._pi_idx, vector):
            if value == ONE:
                ones[idx], zeros[idx] = full, 0
            elif value == ZERO:
                ones[idx], zeros[idx] = 0, full
            else:
                ones[idx], zeros[idx] = 0, 0
        for idx, (so, sz) in zip(self._flop_q, self._state):
            ones[idx], zeros[idx] = so, sz

        # Flip-flop outputs and primary inputs are sites too: inject
        # before combinational evaluation.
        for idx, rise_mask, fall_mask in self._source_sites:
            ones[idx], zeros[idx] = self._inject(
                idx, ones[idx], zeros[idx], rise_mask, fall_mask
            )

        for run, site, (rise_mask, fall_mask) in self._runs:
            _eval_gates(run, ones, zeros, full)
            if site is not None:
                ones[site], zeros[site] = self._inject(
                    site, ones[site], zeros[site], rise_mask, fall_mask)

        # Remember post-injection values for next cycle's launch checks.
        for idx, _r, _f in self._sites:
            self._prev[idx] = (ones[idx], zeros[idx])

        detected = 0
        for idx, _po in self._po:
            o, z = ones[idx], zeros[idx]
            if o & 1:
                detected |= z
            elif z & 1:
                detected |= o

        self._state = [(ones[d], zeros[d]) for d in self._flop_d]
        self.time += 1
        return detected & self.fault_mask
