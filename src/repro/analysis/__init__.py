"""Circuit analysis: structural metrics (logic depth, sequential depth)."""

from .structure import (
    StructureReport,
    analyze,
    combinational_depth,
    logic_levels,
    sequential_depth,
    state_dependency_graph,
)

__all__ = [
    "analyze",
    "StructureReport",
    "logic_levels",
    "combinational_depth",
    "sequential_depth",
    "state_dependency_graph",
]
