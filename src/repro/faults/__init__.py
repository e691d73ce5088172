"""Fault substrate: single stuck-at fault model and equivalence collapsing."""

from .collapse import collapse_faults, equivalence_classes
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
]
