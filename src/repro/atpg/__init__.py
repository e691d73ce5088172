"""ATPG substrate: combinational PODEM, the combinational (full-scan)
view, simulation-based sequential ATPG, and the conventional scan
generator (both approaches the paper contrasts with).

Import order matters here: ``seq_atpg`` must be fully loaded before the
modules that pull in :mod:`repro.core` (whose scan-aware layer imports
``seq_atpg`` back).
"""

from .comb_view import CombView, comb_view
from .podem import ABORTED, DETECTED, UNTESTABLE, Podem, PodemResult
from .seq_atpg import (
    PropagationTrace,
    SeqATPGConfig,
    SeqATPGResult,
    SequentialATPG,
)
from .scan_sim import scan_test_detections, scan_test_observability
from .scan_seq import SecondApproachATPG, SecondApproachConfig, SecondApproachResult

__all__ = [
    "comb_view",
    "CombView",
    "Podem",
    "PodemResult",
    "DETECTED",
    "UNTESTABLE",
    "ABORTED",
    "SequentialATPG",
    "SeqATPGConfig",
    "SeqATPGResult",
    "PropagationTrace",
    "scan_test_detections",
    "scan_test_observability",
    "SecondApproachATPG",
    "SecondApproachConfig",
    "SecondApproachResult",
]
