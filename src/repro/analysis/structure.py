"""Structural circuit analysis: logic depth, sequential depth and a
summary report.

These quantities parameterize the ATPG search (how long must a
subsequence be to justify a state?) and appear in the per-circuit
reports the CLI and experiment suite print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..circuit.netlist import Circuit


def logic_levels(circuit: Circuit) -> Dict[str, int]:
    """Combinational level of every net: PIs and flip-flop outputs are
    level 0; a gate output is one more than its deepest input."""
    level: Dict[str, int] = {net: 0 for net in circuit.inputs}
    level.update({f.q: 0 for f in circuit.flops})
    for gate in circuit.topo_gates:
        level[gate.output] = 1 + max(level[n] for n in gate.inputs)
    return level


def combinational_depth(circuit: Circuit) -> int:
    """Deepest combinational path (0 for an empty circuit)."""
    levels = logic_levels(circuit)
    return max(levels.values(), default=0)


def state_dependency_graph(circuit: Circuit) -> Dict[str, Set[str]]:
    """For each flip-flop ``q``: the set of flip-flop outputs its
    next-state function reads (one combinational frame)."""
    # Transitive input cone of each net, restricted to flop outputs.
    flop_qs = {f.q for f in circuit.flops}
    cone: Dict[str, Set[str]] = {net: set() for net in circuit.inputs}
    cone.update({q: {q} for q in flop_qs})
    for gate in circuit.topo_gates:
        merged: Set[str] = set()
        for net in gate.inputs:
            merged |= cone[net]
        cone[gate.output] = merged
    return {f.q: set(cone[f.d]) for f in circuit.flops}


def sequential_depth(circuit: Circuit, limit: int = 64) -> int:
    """Longest shortest dependency chain between flip-flops, capped at
    ``limit``.

    A sequential depth of ``d`` means state effects may need ``d`` clock
    cycles to traverse the machine — a lower bound on justification
    sequence lengths for the deepest state bits.  Computed as the
    eccentricity of the state dependency graph via BFS per flip-flop.
    """
    graph = state_dependency_graph(circuit)
    if not graph:
        return 0
    # Invert: which flops does q feed (next cycle)?
    feeds: Dict[str, Set[str]] = {q: set() for q in graph}
    for target, sources in graph.items():
        for source in sources:
            if source in feeds:
                feeds[source].add(target)
    deepest = 0
    for start in graph:
        distance = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for succ in feeds[node]:
                    if succ not in distance:
                        distance[succ] = distance[node] + 1
                        if distance[succ] >= limit:
                            return limit
                        nxt.append(succ)
            frontier = nxt
        deepest = max(deepest, max(distance.values()))
    return deepest


@dataclass(frozen=True)
class StructureReport:
    """Summary structural metrics for one circuit."""

    name: str
    inputs: int
    outputs: int
    gates: int
    flops: int
    combinational_depth: int
    sequential_depth: int

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.inputs} PI / {self.outputs} PO, "
            f"{self.gates} gates, {self.flops} FF, "
            f"logic depth {self.combinational_depth}, "
            f"sequential depth {self.sequential_depth}"
        )


def analyze(circuit: Circuit) -> StructureReport:
    """Compute the full structural summary."""
    return StructureReport(
        name=circuit.name,
        inputs=circuit.num_inputs,
        outputs=circuit.num_outputs,
        gates=circuit.num_gates,
        flops=circuit.num_state_vars,
        combinational_depth=combinational_depth(circuit),
        sequential_depth=sequential_depth(circuit),
    )
