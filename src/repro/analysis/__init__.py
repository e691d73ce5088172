"""Circuit analysis: SCOAP testability measures and structural metrics
(logic depth, sequential depth)."""

from .scoap import INFINITY, Testability, compute_testability, hardest_nets
from .structure import (
    StructureReport,
    analyze,
    combinational_depth,
    logic_levels,
    sequential_depth,
    state_dependency_graph,
)

__all__ = [
    "Testability",
    "compute_testability",
    "hardest_nets",
    "INFINITY",
    "analyze",
    "StructureReport",
    "logic_levels",
    "combinational_depth",
    "sequential_depth",
    "state_dependency_graph",
]
