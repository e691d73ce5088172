"""Equivalence-based fault collapsing.

Two faults are *equivalent* when every test detecting one detects the
other; only one representative per equivalence class needs targeting.
This module applies the standard local gate rules:

============  ==========================================
gate          equivalence
============  ==========================================
AND           any input SA0  ==  output SA0
NAND          any input SA0  ==  output SA1
OR            any input SA1  ==  output SA1
NOR           any input SA1  ==  output SA0
NOT / BUF     both input faults ==  matching output fault
============  ==========================================

Flip-flop D-pin faults are deliberately *not* merged with the Q stem.
The textbook "a flip-flop only delays" rule is sound for the
combinational (full-scan) array, but not for sequential simulation from
the X power-up state this reproduction uses: a Q-stem SA-v forces Q=v
already in cycle 0, while a D-pin SA-v leaves Q at its power-up X until
the first clock edge.  The two faulty machines therefore diverge in
cycle 0 and can be first-detected at different times (or one not at
all, if the sequence ends early) — they are not equivalent under the
"detected by exactly the same vectors" definition the simulator and the
property suite enforce.

The "line" of a gate input pin is the branch fault when the driving net
fans out, and the driver's stem fault otherwise — so classes chain
through single-fanout paths exactly as in the classic formulation.

The reduction is typically to ~55-60% of the uncollapsed universe, which
is what the paper's per-circuit ``faults`` column reflects.

The union-find runs on integer fault ids over field tuples; a ``Fault``
is built once per id, for the result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..circuit.netlist import Circuit
from .model import BRANCH, STEM, Fault, fault_keys

#: A fault as its field tuple ``(kind, net, consumer, pin, stuck_at)``,
#: which sorts in the dataclass ordering of :class:`Fault`.
FaultKey = Tuple[str, str, Optional[str], int, int]


def _representative_key(key: FaultKey):
    """Sort key choosing class representatives.

    Stem faults are preferred over branch faults: stem representatives
    remain directly injectable when a sequential circuit is rewritten as
    its combinational view (where gate structure is preserved but
    flip-flops disappear).
    """
    kind, net, consumer, pin, stuck_at = key
    return (0 if kind == STEM else 1, net, consumer or "", pin, stuck_at)


def _classes(circuit: Circuit, faults: Optional[Iterable[Fault]]
             ) -> Tuple[List[FaultKey], List[int]]:
    """Union-find over integer fault ids.

    Id ``i`` is the ``i``-th distinct fault of ``faults`` (default: the
    universe of ``circuit``); a gate rule that reaches a line outside
    them gives it the next id, so it still joins its class.  Returns the
    key of every id and the representative id of each of ``faults``: the
    class member ranked first by :func:`_representative_key`.
    """
    if faults is None:
        keys = fault_keys(circuit)
    else:
        keys = [(f.kind, f.net, f.consumer, f.pin, f.stuck_at) for f in faults]
    by_id = list(dict.fromkeys(keys))
    ids = {key: i for i, key in enumerate(by_id)}
    universe = len(by_id)
    parent = list(range(universe))

    def line_id(key: FaultKey) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(by_id)
            by_id.append(key)
            parent.append(i)
        return i

    def pin_id(consumer: str, pin: int, net: str, stuck_at: int) -> int:
        """The fault on ``consumer``'s input pin ``pin`` fed by ``net``:
        its branch when ``net`` fans out, else ``net``'s stem."""
        if circuit.fanout_count(net) > 1:
            return line_id((BRANCH, net, consumer, pin, stuck_at))
        return line_id((STEM, net, None, 0, stuck_at))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    def union(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            if _representative_key(by_id[b]) < _representative_key(by_id[a]):
                a, b = b, a
            parent[b] = a

    for gate in circuit.gates:
        out = gate.output
        kind = gate.kind
        if kind in ("AND", "NAND"):
            merged_sa, out_sa = 0, (1 if kind == "NAND" else 0)
        elif kind in ("OR", "NOR"):
            merged_sa, out_sa = 1, (1 if kind == "OR" else 0)
        elif kind in ("NOT", "BUF"):
            invert = kind == "NOT"
            for value in (0, 1):
                out_value = 1 - value if invert else value
                union(pin_id(out, 0, gate.inputs[0], value),
                      line_id((STEM, out, None, 0, out_value)))
            continue
        else:  # XOR / XNOR have no single-gate equivalences
            continue
        target = line_id((STEM, out, None, 0, out_sa))
        for pin, net in enumerate(gate.inputs):
            union(pin_id(out, pin, net, merged_sa), target)

    return by_id, [find(i) for i in range(universe)]


def equivalence_classes(circuit: Circuit,
                        faults: Optional[Iterable[Fault]] = None) -> Dict[Fault, Fault]:
    """Map every fault to its class representative.

    ``faults`` defaults to the full universe of ``circuit``.  The mapping
    is total over the provided faults; representatives are chosen
    deterministically (stems first, see :func:`_representative_key`).
    """
    by_id, root = _classes(circuit, faults)
    built = [Fault(*key) for key in by_id]
    return {built[i]: built[rep] for i, rep in enumerate(root)}


def collapse_faults(circuit: Circuit,
                    faults: Optional[Iterable[Fault]] = None) -> List[Fault]:
    """Collapsed fault list: one representative per equivalence class,
    in the dataclass ordering of :class:`Fault`."""
    by_id, root = _classes(circuit, faults)
    return [Fault(*key) for key in sorted(by_id[rep] for rep in set(root))]
