"""Single stuck-at fault model.

Faults live on *lines*.  A line is either

* a **stem** — the output of a net driver (primary input, gate output or
  flip-flop output), or
* a **branch** — one fanout branch of a net, identified by the consumer
  and its input pin.  Consumers are gates (by output-net name), flip-flop
  D pins (by the flip-flop's ``q`` name) and primary outputs (namespaced
  as ``PO:<name>``, matching :meth:`repro.circuit.netlist.Circuit.fanout`).

Each line can be stuck-at-0 or stuck-at-1.  Branch faults are only
enumerated on nets with more than one fanout branch: with a single
branch, branch and stem are the same physical wire.

This matches the universe the paper targets — note Section 2: "we
consider faults in the logic added in order to implement a scan chain",
which falls out naturally because scan muxes are ordinary gates after
:func:`repro.circuit.scan.insert_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuit.netlist import Circuit

STEM = "stem"
BRANCH = "branch"


@dataclass(frozen=True, order=True)
class Fault:
    """One single stuck-at fault.

    Attributes
    ----------
    kind:
        ``"stem"`` or ``"branch"``.
    net:
        For a stem fault, the faulty net.  For a branch fault, the *driver*
        net of the branch.
    consumer:
        For a branch fault, the consuming gate output / flip-flop ``q`` /
        ``PO:<name>``; ``None`` for stem faults.
    pin:
        For a branch fault, the input pin index on the consumer; 0 for
        stem faults.
    stuck_at:
        0 or 1.
    """

    kind: str
    net: str
    consumer: Optional[str]
    pin: int
    stuck_at: int

    def __post_init__(self):
        if self.kind not in (STEM, BRANCH):
            raise ValueError(f"bad fault kind: {self.kind!r}")
        if self.stuck_at not in (0, 1):
            raise ValueError(f"stuck_at must be 0 or 1, got {self.stuck_at!r}")
        if self.kind == BRANCH and self.consumer is None:
            raise ValueError("branch fault needs a consumer")
        if self.kind == STEM and self.consumer is not None:
            raise ValueError("stem fault must not name a consumer")

    def __str__(self) -> str:
        if self.kind == STEM:
            return f"{self.net}/SA{self.stuck_at}"
        return f"{self.net}->{self.consumer}.{self.pin}/SA{self.stuck_at}"


def stem_fault(net: str, stuck_at: int) -> Fault:
    """Convenience constructor for a stem fault."""
    return Fault(kind=STEM, net=net, consumer=None, pin=0, stuck_at=stuck_at)


def branch_fault(net: str, consumer: str, pin: int, stuck_at: int) -> Fault:
    """Convenience constructor for a branch fault."""
    return Fault(kind=BRANCH, net=net, consumer=consumer, pin=pin, stuck_at=stuck_at)


def fault_keys(circuit: Circuit) -> List[Tuple[str, str, Optional[str], int, int]]:
    """The fault universe of ``circuit`` as field tuples
    ``(kind, net, consumer, pin, stuck_at)``, in :func:`enumerate_faults`
    order, for code that needs no :class:`Fault` objects."""
    keys = []
    for net in circuit.nets():
        keys.append((STEM, net, None, 0, 0))
        keys.append((STEM, net, None, 0, 1))
        sinks = circuit.fanout(net)
        if len(sinks) > 1:
            for consumer, pin in sinks:
                keys.append((BRANCH, net, consumer, pin, 0))
                keys.append((BRANCH, net, consumer, pin, 1))
    return keys


def enumerate_faults(circuit: Circuit) -> List[Fault]:
    """Full (uncollapsed) single stuck-at fault universe of ``circuit``.

    Deterministic order: stems in net declaration order, then branches in
    fanout order, SA0 before SA1 at each site.
    """
    return [Fault(*key) for key in fault_keys(circuit)]
