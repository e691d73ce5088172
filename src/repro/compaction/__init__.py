"""Static test compaction: vector restoration [23] and vector omission
[22] for single test sequences (the paper applies them, unchanged, to
``C_scan`` sequences), plus reverse-order compaction and tail trimming
for conventional scan test sets."""

from .base import CompactionOracle
from .omission import OmissionResult, omission_compact
from .overlapped import overlapped_restoration_compact
from .restoration import RestorationResult, restoration_compact
from .scan_set import scan_set_compact
from .subsequences import SubsequenceRemovalResult, subsequence_removal_compact

__all__ = [
    "CompactionOracle",
    "restoration_compact",
    "RestorationResult",
    "omission_compact",
    "OmissionResult",
    "scan_set_compact",
    "overlapped_restoration_compact",
    "subsequence_removal_compact",
    "SubsequenceRemovalResult",
]
