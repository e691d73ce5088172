"""Experiment suite: circuit specs matched to the paper's Table 5 and the
runners that regenerate Tables 5, 6 and 7 plus the ablations."""

from .suite import (
    PAPER_CIRCUITS,
    PAPER_TABLE5,
    PAPER_TABLE6,
    PAPER_TABLE7,
    CircuitSpec,
    active_profile,
    build_circuit,
    suite_circuits,
)

__all__ = [
    "CircuitSpec",
    "PAPER_CIRCUITS",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "PAPER_TABLE7",
    "build_circuit",
    "suite_circuits",
    "active_profile",
]
