"""SCOAP testability measures (Goldstein 1979).

SCOAP assigns every net three integer measures:

* ``CC0(n)`` / ``CC1(n)`` — *controllability*: how many line assignments
  it takes to force ``n`` to 0 / 1 from the primary inputs,
* ``CO(n)`` — *observability*: how many assignments it takes to
  propagate ``n``'s value to a primary output.

Primary inputs cost 1 to control; a gate output costs the cheapest way
to produce the value through the gate plus 1.  Observability of a gate
input is the gate output's observability plus the cost of holding every
*other* input at a non-controlling value, plus 1.

For sequential circuits this module computes the standard combinational
approximation used by ATPG heuristics: flip-flop outputs are treated as
controllable sources with a fixed ``state_cost``, and flip-flop D inputs
as observation points with a fixed cost (one clock cycle through scan or
capture).  That is exactly the right model for the combinational view of
a scan circuit, where the state really is directly accessible.

These measures feed the PODEM backtrace (choose the *easiest* input to
set to a controlling value, the *hardest* when all inputs must be
non-controlling) and the sequential search heuristics.  They are also
useful on their own: `repro-atpg`-style reports of hard-to-test regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuit.netlist import Circuit

#: Cost cap: saturate instead of overflowing on reconvergent chains.
INFINITY = 10 ** 9


@dataclass(frozen=True)
class Testability:
    """SCOAP triple for one net."""

    cc0: int
    cc1: int
    co: int

    @property
    def hardest(self) -> int:
        return max(self.cc0, self.cc1, self.co)


def _sat_add(*values: int) -> int:
    total = sum(values)
    return INFINITY if total >= INFINITY else total


def _gate_controllability(kind, in_cc0, in_cc1):
    """(CC0, CC1) of a gate output from its input controllabilities."""
    if kind == "BUF":
        return in_cc0[0] + 1, in_cc1[0] + 1
    if kind == "NOT":
        return in_cc1[0] + 1, in_cc0[0] + 1
    if kind in ("AND", "NAND"):
        zero = _sat_add(min(in_cc0), 1)                 # one 0 suffices
        one = _sat_add(*in_cc1, 1)                      # all 1s needed
        return (one, zero) if kind == "NAND" else (zero, one)
    if kind in ("OR", "NOR"):
        one = _sat_add(min(in_cc1), 1)
        zero = _sat_add(*in_cc0, 1)
        return (one, zero) if kind == "NOR" else (zero, one)
    if kind in ("XOR", "XNOR"):
        # Cheapest even/odd parity assignment over the inputs.
        even, odd = 0, INFINITY
        for cc0, cc1 in zip(in_cc0, in_cc1):
            new_even = min(_sat_add(even, cc0), _sat_add(odd, cc1))
            new_odd = min(_sat_add(even, cc1), _sat_add(odd, cc0))
            even, odd = new_even, new_odd
        even, odd = _sat_add(even, 1), _sat_add(odd, 1)
        return (odd, even) if kind == "XNOR" else (even, odd)
    if kind == "MUX":
        (s0, s1), (a0, a1), (b0, b1) = zip(in_cc0, in_cc1)
        zero = min(_sat_add(s0, a0), _sat_add(s1, b0))
        one = min(_sat_add(s0, a1), _sat_add(s1, b1))
        return _sat_add(zero, 1), _sat_add(one, 1)
    raise ValueError(f"unknown gate kind {kind!r}")


def compute_testability(
    circuit: Circuit,
    state_cost: int = 5,
    capture_cost: int = 5,
) -> Dict[str, Testability]:
    """SCOAP measures for every net of ``circuit``.

    ``state_cost`` is the controllability charged to a flip-flop output;
    ``capture_cost`` the observability charged to a flip-flop D input.
    For a *combinational* circuit both parameters are unused.
    """
    cc0: Dict[str, int] = {}
    cc1: Dict[str, int] = {}
    for net in circuit.inputs:
        cc0[net] = cc1[net] = 1
    for flop in circuit.flops:
        cc0[flop.q] = cc1[flop.q] = state_cost

    for gate in circuit.topo_gates:
        in_cc0 = [cc0[n] for n in gate.inputs]
        in_cc1 = [cc1[n] for n in gate.inputs]
        cc0[gate.output], cc1[gate.output] = _gate_controllability(
            gate.kind, in_cc0, in_cc1
        )

    co: Dict[str, int] = {net: INFINITY for net in circuit.nets()}
    for po in circuit.outputs:
        co[po] = 0
    for flop in circuit.flops:
        co[flop.d] = min(co[flop.d], capture_cost)

    # Observability propagates backwards: reverse topological order.
    for gate in reversed(circuit.topo_gates):
        out_co = co[gate.output]
        if out_co >= INFINITY:
            continue
        kind = gate.kind
        for pin, net in enumerate(gate.inputs):
            others = [n for p, n in enumerate(gate.inputs) if p != pin]
            if kind in ("NOT", "BUF"):
                cost = _sat_add(out_co, 1)
            elif kind in ("AND", "NAND"):
                cost = _sat_add(out_co, *[cc1[n] for n in others], 1)
            elif kind in ("OR", "NOR"):
                cost = _sat_add(out_co, *[cc0[n] for n in others], 1)
            elif kind in ("XOR", "XNOR"):
                cost = _sat_add(
                    out_co,
                    *[min(cc0[n], cc1[n]) for n in others],
                    1,
                )
            elif kind == "MUX":
                select, d0, d1 = gate.inputs
                if net == select:
                    # Seen when the data inputs differ; charge the cheaper
                    # disagreeing assignment.
                    cost = _sat_add(
                        out_co,
                        min(_sat_add(cc0[d0], cc1[d1]),
                            _sat_add(cc1[d0], cc0[d1])),
                        1,
                    )
                elif net == d0:
                    cost = _sat_add(out_co, cc0[select], 1)
                else:
                    cost = _sat_add(out_co, cc1[select], 1)
            else:  # pragma: no cover - kinds validated at construction
                raise ValueError(f"unknown gate kind {kind!r}")
            if cost < co[net]:
                co[net] = cost

    return {
        net: Testability(cc0=cc0[net], cc1=cc1[net], co=co[net])
        for net in circuit.nets()
    }


def hardest_nets(circuit: Circuit, count: int = 10,
                 state_cost: int = 5, capture_cost: int = 5):
    """The ``count`` nets with the worst (largest) SCOAP measure — a
    quick hard-to-test-region report."""
    measures = compute_testability(circuit, state_cost, capture_cost)
    ranked = sorted(
        measures.items(), key=lambda item: item[1].hardest, reverse=True
    )
    return ranked[:count]
