"""Scan-chain insertion: build ``C_scan`` from a sequential circuit ``C``.

Following Section 1 of the paper, the scan version of a circuit has

* one extra primary input ``scan_sel`` — the select of every scan mux,
* one extra primary input ``scan_inp`` — the serial input of the chain,
* one extra primary output ``scan_out`` — the serial output of the chain.

Every flip-flop's D input is replaced by a 2:1 multiplexer selecting
between the functional data (``scan_sel = 0``) and the previous element
of the scan chain (``scan_sel = 1``).  The paper inserts the flip-flops
into the chain *in their order of appearance in the circuit description*;
we follow that default but accept an explicit chain order.

The multiplexer is expanded into elementary gates (NOT / AND / AND / OR)
rather than kept as a primitive, because the paper's fault counts
explicitly "include faults in the multiplexers we added to implement scan
chains" — expanding gives those faults a natural home in the standard
stuck-at universe.  The expanded mux is the only form.

Multiple balanced scan chains are supported (``num_chains > 1``); the
paper notes its procedures extend directly to this case.  Chain ``k``
gets inputs ``scan_inp<k>``/outputs ``scan_out<k>`` but shares the single
``scan_sel``.

:class:`ScanCircuit` is the one builder of shift and scan-in vectors,
for the Section 3 translation and the Section 2 completions alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .gates import ONE, X
from .netlist import Circuit, FlipFlop, Gate

SCAN_SELECT = "scan_sel"
SCAN_INPUT = "scan_inp"
SCAN_OUTPUT = "scan_out"


@dataclass(frozen=True)
class ScanChain:
    """One scan chain: flip-flop ``q`` nets from scan-input side to output.

    ``order[0]`` is the flip-flop fed by ``scan_inp``; ``order[-1]`` drives
    ``scan_out``.  Shifting the chain moves values toward higher indices.
    """

    scan_in: str
    scan_out: str
    order: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.order)

    def position(self, q_net: str) -> int:
        """Chain position of a flip-flop, counted from the scan input (0-based)."""
        return self.order.index(q_net)

    def shifts_to_observe(self, q_net: str) -> int:
        """Clock cycles with ``scan_sel = 1`` needed to move the value held
        in ``q_net`` out to ``scan_out`` (the paper's ``N_SV - i``).
        """
        return self.length - self.position(q_net)


@dataclass(frozen=True)
class ScanCircuit:
    """A scan-inserted circuit plus its chain bookkeeping.

    ``circuit`` is a plain :class:`Circuit` — deliberately so: the entire
    point of the paper is that downstream tools may treat ``C_scan`` as an
    ordinary sequential circuit.  The chain metadata exists only for the
    functional-knowledge enhancement of Section 2 and for reporting.
    """

    circuit: Circuit
    chains: Tuple[ScanChain, ...]
    original_inputs: Tuple[str, ...]
    original_outputs: Tuple[str, ...]
    select_net: str = SCAN_SELECT

    @property
    def scan_select(self) -> str:
        return self.select_net

    @property
    def name(self) -> str:
        return self.circuit.name

    def chain_of(self, q_net: str) -> ScanChain:
        """The chain containing flip-flop ``q_net``."""
        for chain in self.chains:
            if q_net in chain.order:
                return chain
        raise KeyError(f"flip-flop {q_net!r} is in no scan chain")

    def shifts_to_observe(self, q_net: str) -> int:
        """Shift cycles that bring the value held in ``q_net`` out on its
        chain's ``scan_out`` (the paper's ``N_SV - i``)."""
        return self.chain_of(q_net).shifts_to_observe(q_net)

    @property
    def max_chain_length(self) -> int:
        return max(chain.length for chain in self.chains)

    def shift_vector(self) -> Tuple[int, ...]:
        """One shift cycle: ``scan_sel = 1``, every other input X."""
        vector = [X] * len(self.circuit.inputs)
        vector[self.circuit.inputs.index(self.select_net)] = ONE
        return tuple(vector)

    def scan_in_vectors(self, state: Sequence[int]) -> List[Tuple[int, ...]]:
        """The shift cycles that load ``state`` (aligned with
        ``circuit.flops``) into the chains.

        Every chain shifts for ``max_chain_length`` cycles.  A chain is
        fed back to front — the value destined for the flip-flop nearest
        ``scan_out`` enters first (the paper's Section 2 example) — and a
        shorter chain takes X in its first cycles, so all chains finish
        loading on the last cycle.
        """
        state_of = dict(zip((f.q for f in self.circuit.flops), state))
        template = self.shift_vector()
        total = self.max_chain_length
        feeds = [
            (self.circuit.inputs.index(chain.scan_in),
             [X] * (total - chain.length)
             + [state_of[q] for q in reversed(chain.order)])
            for chain in self.chains
        ]
        vectors = []
        for step in range(total):
            vector = list(template)
            for index, feed in feeds:
                vector[index] = feed[step]
            vectors.append(tuple(vector))
        return vectors


def _fresh_net(base: str, taken: set) -> str:
    """Return ``base`` or the first ``base_<n>`` not colliding with ``taken``."""
    if base not in taken:
        taken.add(base)
        return base
    counter = 1
    while f"{base}_{counter}" in taken:
        counter += 1
    name = f"{base}_{counter}"
    taken.add(name)
    return name


def _split_chains(order: Sequence[str], num_chains: int) -> List[List[str]]:
    """Split flip-flops into ``num_chains`` balanced contiguous chains."""
    total = len(order)
    base, extra = divmod(total, num_chains)
    chains: List[List[str]] = []
    start = 0
    for index in range(num_chains):
        size = base + (1 if index < extra else 0)
        chains.append(list(order[start : start + size]))
        start += size
    return [chain for chain in chains if chain]


def insert_scan(
    circuit: Circuit,
    num_chains: int = 1,
    chain_order: Optional[Sequence[str]] = None,
) -> ScanCircuit:
    """Insert mux-based scan into ``circuit`` and return ``C_scan``.

    Each scan mux is built from NOT/AND/AND/OR gates, so the scan logic
    contributes ordinary stuck-at faults.

    Parameters
    ----------
    circuit:
        The non-scan circuit ``C``.  Must have at least one flip-flop.
    num_chains:
        Number of balanced scan chains to build (default 1, as in the
        paper's experiments).
    chain_order:
        Explicit flip-flop ``q``-net order for the chain(s); defaults to
        the order of appearance in the circuit description.
    """
    if circuit.num_state_vars == 0:
        raise ValueError(f"{circuit.name}: cannot scan-insert a combinational circuit")
    if not 1 <= num_chains <= circuit.num_state_vars:
        raise ValueError(
            f"num_chains must be in [1, {circuit.num_state_vars}], got {num_chains}"
        )
    order = list(chain_order) if chain_order is not None else [f.q for f in circuit.flops]
    if sorted(order) != sorted(f.q for f in circuit.flops):
        raise ValueError("chain_order must be a permutation of the flip-flop outputs")

    taken = set(circuit.nets()) | set(circuit.outputs)
    select_net = _fresh_net(SCAN_SELECT, taken)
    flop_by_q = {f.q: f for f in circuit.flops}

    new_inputs = list(circuit.inputs)
    new_outputs = list(circuit.outputs)
    new_gates = list(circuit.gates)
    mux_of = {}
    chains: List[ScanChain] = []

    new_inputs.append(select_net)
    single = num_chains == 1
    for chain_index, chain_qs in enumerate(_split_chains(order, num_chains)):
        suffix = "" if single else str(chain_index)
        scan_in = _fresh_net(SCAN_INPUT + suffix, taken)
        new_inputs.append(scan_in)
        previous = scan_in
        for q_net in chain_qs:
            flop = flop_by_q[q_net]
            mux_out = _fresh_net(f"{q_net}_scanmux", taken)
            sel_n = _fresh_net(f"{q_net}_seln", taken)
            func_term = _fresh_net(f"{q_net}_dterm", taken)
            scan_term = _fresh_net(f"{q_net}_sterm", taken)
            new_gates.append(Gate(sel_n, "NOT", (select_net,)))
            new_gates.append(Gate(func_term, "AND", (flop.d, sel_n)))
            new_gates.append(Gate(scan_term, "AND", (previous, select_net)))
            new_gates.append(Gate(mux_out, "OR", (func_term, scan_term)))
            mux_of[q_net] = mux_out
            previous = q_net
        scan_out = previous
        if scan_out not in new_outputs:
            new_outputs.append(scan_out)
        chains.append(
            ScanChain(scan_in=scan_in, scan_out=scan_out, order=tuple(chain_qs))
        )

    scanned = Circuit(
        name=f"{circuit.name}_scan",
        inputs=new_inputs,
        outputs=new_outputs,
        gates=new_gates,
        # C's flop order, so a state of C is also a state of C_scan.
        flops=[FlipFlop(q=f.q, d=mux_of[f.q]) for f in circuit.flops],
    )
    return ScanCircuit(
        circuit=scanned,
        chains=tuple(chains),
        original_inputs=circuit.inputs,
        original_outputs=circuit.outputs,
        select_net=select_net,
    )
