"""Combinational view of a sequential circuit.

The *first approach* to scan test generation (Section 1 of the paper,
refs [1]-[5]) treats present-state variables as primary inputs and
next-state variables as primary outputs, then runs combinational ATPG.
This module performs exactly that rewriting: given a sequential
:class:`~repro.circuit.netlist.Circuit`, it produces a combinational
circuit in which

* every flip-flop output net ``q`` becomes a *pseudo primary input*, and
* every flip-flop data net ``d`` becomes a *pseudo primary output*,

with all net names preserved.  Preserving names means stem faults of the
sequential circuit are directly injectable in the view, and a PODEM test
cube over the view splits cleanly into a scan-in state ``SI`` (the pseudo
inputs) and a primary input vector ``t_I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..circuit.netlist import Circuit
from ..faults.model import Fault, branch_fault


@dataclass(frozen=True)
class CombView:
    """A combinational rewriting of a sequential circuit.

    Attributes
    ----------
    circuit:
        The combinational circuit (no flip-flops).
    sequential:
        The circuit this view was derived from.
    pseudo_inputs:
        Flip-flop ``q`` nets, in flip-flop order — the state part of any
        test cube, i.e. the scan-in vector ``SI``.
    real_inputs:
        The original primary inputs.
    pseudo_output_of:
        Maps each flip-flop ``q`` net to its ``d`` net (the pseudo output
        through which a fault effect would be captured into that
        flip-flop).
    """

    circuit: Circuit
    sequential: Circuit
    pseudo_inputs: Tuple[str, ...]
    real_inputs: Tuple[str, ...]
    pseudo_output_of: Dict[str, str]

    def split_assignment(self, assignment: Dict[str, int], fill: int):
        """Split a PODEM cube into ``(SI, t_I)`` value tuples.

        Unassigned positions take ``fill`` (callers typically pass X and
        randomize later, as the paper does).
        """
        state = tuple(assignment.get(q, fill) for q in self.pseudo_inputs)
        vector = tuple(assignment.get(pi, fill) for pi in self.real_inputs)
        return state, vector

    def capturing_flops(self, detecting_outputs) -> List[str]:
        """Flip-flops whose ``d`` net is among ``detecting_outputs`` —
        i.e. where a combinationally-propagated fault effect would be
        latched, ready for scan-out observation."""
        nets = set(detecting_outputs)
        return [q for q, d in self.pseudo_output_of.items() if d in nets]


def has_view_site(sequential: Circuit, fault: Fault) -> bool:
    """False for a branch fault on a flip-flop D pin of ``sequential``:
    the flop is gone from the comb view, so no gate there carries it."""
    return fault.consumer is None or fault.consumer not in sequential.flop_by_q


def view_fault(sequential: Circuit, fault: Fault) -> Fault:
    """Rewrite a fault of ``sequential`` for injection in its comb view.

    Stem faults and gate-pin / PO-pin branch faults carry over verbatim
    (net names are preserved).  A branch fault on a flip-flop D pin has
    no gate site in the view — the flop is gone — but its line *is* the
    branch feeding the pseudo primary output of the flop's ``d`` net, so
    it becomes a ``PO:`` branch fault there.  Detection at that pseudo
    output is exactly "the effect is captured into the flop and scanned
    out", the full-scan semantics under which D-pin and Q-stem faults
    are test-equivalent.
    """
    if not has_view_site(sequential, fault):
        return branch_fault(fault.net, f"PO:{fault.net}", 0, fault.stuck_at)
    return fault


def comb_view(circuit: Circuit) -> CombView:
    """Build the combinational view of ``circuit``.

    Raises ``ValueError`` for a circuit without flip-flops (it already is
    combinational; use it directly).
    """
    if circuit.num_state_vars == 0:
        raise ValueError(f"{circuit.name} is already combinational")
    pseudo_inputs = tuple(f.q for f in circuit.flops)
    outputs = list(circuit.outputs)
    for flop in circuit.flops:
        if flop.d not in outputs:
            outputs.append(flop.d)
    view = Circuit(
        name=f"{circuit.name}_comb",
        inputs=list(circuit.inputs) + list(pseudo_inputs),
        outputs=outputs,
        gates=circuit.gates,
        flops=(),
    )
    return CombView(
        circuit=view,
        sequential=circuit,
        pseudo_inputs=pseudo_inputs,
        real_inputs=circuit.inputs,
        pseudo_output_of={f.q: f.d for f in circuit.flops},
    )
