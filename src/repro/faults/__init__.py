"""Fault substrate: single stuck-at fault model and equivalence collapsing."""

from .collapse import collapse_faults, equivalence_classes
from .dominance import dominance_reduce
from .transition import (
    TransitionFault,
    enumerate_transition_faults,
    slow_to_fall,
    slow_to_rise,
)
from .model import (
    BRANCH,
    STEM,
    Fault,
    branch_fault,
    enumerate_faults,
    stem_fault,
)

__all__ = [
    "Fault",
    "STEM",
    "BRANCH",
    "stem_fault",
    "branch_fault",
    "enumerate_faults",
    "collapse_faults",
    "equivalence_classes",
    "dominance_reduce",
    "TransitionFault",
    "enumerate_transition_faults",
    "slow_to_rise",
    "slow_to_fall",
]
