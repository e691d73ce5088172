"""Stage-level memoization of the expensive pipeline derivations.

:class:`StageCache` binds a :class:`~repro.cache.store.ResultStore` to
one circuit and knows, per stage, which configuration knobs are part of
the result's identity and how the result serializes.  A ``None`` store
degrades every ``load`` to a miss and every ``save`` to a no-op, so the
pipeline code reads the same with caching on or off.

Cached stages and their identity:

============  =============================================================
stage         keyed on (beyond the circuit fingerprint + schema version)
============  =============================================================
collapse      nothing — the collapsed universe is a pure netlist function
atpg          engine config, knowledge toggles, scan-chain config, faults
redundancy    PODEM backtrack budget, the aborted fault list
baseline      conventional-ATPG config (translation flow)
compact       input sequence, fault universe, omission pass budget
detection     fault universe, vector sequence (full-universe times only)
============  =============================================================

The deployment settings, which cannot change the bits of a result —
``jobs``, ``run_index`` and ``cache_dir`` itself — are deliberately
absent from every key, and so is how a stage was simulated (backend,
checkpoint spacing), so a warm restart hits regardless of where the
cold run ran.

Each stage key also carries a small stage version constant; bumping it
(when an engine's algorithm changes) orphans that stage's entries
without invalidating the rest of the store.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from ..atpg.seq_atpg import SeqATPGResult
from ..circuit.netlist import Circuit
from ..circuit.scan import ScanCircuit
from ..compaction.omission import OmissionResult
from ..compaction.restoration import RestorationResult
from ..faults.model import Fault
from ..testseq.sequences import TestSequence
from .codec import (
    decode_fault,
    decode_faults,
    decode_sequence,
    decode_times,
    encode_fault,
    encode_faults,
    encode_sequence,
    encode_times,
)
from .fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    faults_fingerprint,
    scan_config_fingerprint,
    vectors_fingerprint,
)
from .store import ResultStore

#: Per-stage algorithm versions — bump when an engine's output could
#: change for identical inputs.
COLLAPSE_VERSION = 1
ATPG_VERSION = 1
REDUNDANCY_VERSION = 1
BASELINE_VERSION = 1
COMPACT_VERSION = 1
DETECTION_VERSION = 1


def detection_config_fp(faults_fp: str,
                        vectors: Sequence[Sequence[int]]) -> str:
    """Key of one full-universe ``detection_times`` result (shared with
    :class:`~repro.compaction.base.CompactionOracle`)."""
    return config_fingerprint(
        "detection", v=DETECTION_VERSION, faults=faults_fp,
        vectors=vectors_fingerprint(vectors),
    )


class StageCache:
    """Load/save adapters between pipeline objects and store payloads."""

    def __init__(self, store: Optional[ResultStore], circuit: Circuit,
                 scan_circuit: Optional[ScanCircuit] = None):
        self.store = store
        self.circuit_fp = circuit_fingerprint(circuit) if store else ""
        self.scan_fp = (
            scan_config_fingerprint(scan_circuit)
            if store and scan_circuit is not None else ""
        )

    @property
    def enabled(self) -> bool:
        return self.store is not None

    def _get(self, stage: str, config_fp: str):
        if self.store is None:
            return None
        return self.store.get(stage, self.circuit_fp, config_fp)

    def _put(self, stage: str, config_fp: str, payload) -> None:
        if self.store is not None:
            self.store.put(stage, self.circuit_fp, config_fp, payload)

    # -- collapse ------------------------------------------------------------

    def _collapse_fp(self) -> str:
        return config_fingerprint("collapse", v=COLLAPSE_VERSION)

    def load_faults(self) -> Optional[List[Fault]]:
        payload = self._get("collapse", self._collapse_fp())
        if payload is None:
            return None
        return decode_faults(payload["faults"])

    def save_faults(self, faults: Sequence[Fault]) -> None:
        self._put("collapse", self._collapse_fp(),
                  {"faults": encode_faults(faults)})

    # -- generation ATPG ---------------------------------------------------------

    def _atpg_fp(self, cfg, faults: Sequence[Fault]) -> str:
        return config_fingerprint(
            "atpg", v=ATPG_VERSION,
            engine=asdict(cfg.atpg_config()),
            use_scan_knowledge=cfg.use_scan_knowledge,
            use_justification=cfg.use_justification,
            scan=self.scan_fp,
            faults=faults_fingerprint(faults),
        )

    def load_generation_atpg(self, cfg, faults: Sequence[Fault]):
        payload = self._get("atpg", self._atpg_fp(cfg, faults))
        if payload is None:
            return None
        from ..core.scan_aware import ScanATPGResult

        return ScanATPGResult(
            base=SeqATPGResult(
                sequence=decode_sequence(payload["sequence"]),
                detection_time=decode_times(payload["detection"]),
                aborted=decode_faults(payload["aborted"]),
                hook_detected=decode_faults(payload["hook_detected"]),
            ),
            funct_scan_out=decode_faults(payload["funct_scan_out"]),
            funct_justify=decode_faults(payload["funct_justify"]),
        )

    def save_generation_atpg(self, cfg, faults: Sequence[Fault],
                             atpg) -> None:
        self._put("atpg", self._atpg_fp(cfg, faults), {
            "sequence": encode_sequence(atpg.base.sequence),
            "detection": encode_times(atpg.base.detection_time),
            "aborted": encode_faults(atpg.base.aborted),
            "hook_detected": encode_faults(atpg.base.hook_detected),
            "funct_scan_out": encode_faults(atpg.funct_scan_out),
            "funct_justify": encode_faults(atpg.funct_justify),
        })

    # -- redundancy proofs -------------------------------------------------------

    def _redundancy_fp(self, cfg, aborted: Sequence[Fault]) -> str:
        return config_fingerprint(
            "redundancy", v=REDUNDANCY_VERSION,
            backtrack_limit=cfg.redundancy_backtrack_limit,
            aborted=faults_fingerprint(aborted),
        )

    def load_redundancy(self, cfg,
                        aborted: Sequence[Fault]) -> Optional[List[Fault]]:
        payload = self._get("redundancy", self._redundancy_fp(cfg, aborted))
        if payload is None:
            return None
        return decode_faults(payload["untestable"])

    def save_redundancy(self, cfg, aborted: Sequence[Fault],
                        untestable: Sequence[Fault]) -> None:
        self._put("redundancy", self._redundancy_fp(cfg, aborted),
                  {"untestable": encode_faults(untestable)})

    # -- conventional baseline (translation flow) --------------------------------

    def _baseline_fp(self, baseline_config) -> str:
        return config_fingerprint(
            "baseline", v=BASELINE_VERSION,
            engine=asdict(baseline_config),
        )

    def load_baseline(self, baseline_config, circuit: Circuit):
        payload = self._get("baseline", self._baseline_fp(baseline_config))
        if payload is None:
            return None
        from ..atpg.scan_seq import SecondApproachResult
        from ..testseq.scan_tests import ScanTest, ScanTestSet

        return SecondApproachResult(
            test_set=ScanTestSet(circuit, [
                ScanTest(scan_in=tuple(si),
                         vectors=tuple(tuple(v) for v in vectors))
                for si, vectors in payload["tests"]
            ]),
            detected_by=decode_times(payload["detected_by"]),
            untestable=decode_faults(payload["untestable"]),
            aborted=decode_faults(payload["aborted"]),
        )

    def save_baseline(self, baseline_config, baseline) -> None:
        self._put("baseline", self._baseline_fp(baseline_config), {
            "tests": [
                [list(test.scan_in), [list(v) for v in test.vectors]]
                for test in baseline.test_set.tests
            ],
            "detected_by": encode_times(baseline.detected_by),
            "untestable": encode_faults(baseline.untestable),
            "aborted": encode_faults(baseline.aborted),
        })

    # -- compaction --------------------------------------------------------------

    def _compact_fp(self, cfg, faults: Sequence[Fault],
                    sequence: TestSequence) -> str:
        return config_fingerprint(
            "compact", v=COMPACT_VERSION,
            max_omission_passes=cfg.max_omission_passes,
            faults=faults_fingerprint(faults),
            sequence=vectors_fingerprint(sequence.vectors),
            scan_sel=sequence.scan_sel,
        )

    def load_compaction(
        self, cfg, faults: Sequence[Fault], sequence: TestSequence,
    ) -> Optional[Tuple[RestorationResult, OmissionResult]]:
        payload = self._get("compact", self._compact_fp(cfg, faults, sequence))
        if payload is None:
            return None
        restored = payload["restored"]
        omitted = payload["omitted"]
        return (
            RestorationResult(
                sequence=decode_sequence(restored["sequence"]),
                kept_indices=list(restored["kept_indices"]),
                detected=decode_faults(restored["detected"]),
                never_detected=decode_faults(restored["never_detected"]),
            ),
            OmissionResult(
                sequence=decode_sequence(omitted["sequence"]),
                omitted_count=omitted["omitted_count"],
                detected=decode_faults(omitted["detected"]),
                extra_detected=decode_faults(omitted["extra_detected"]),
            ),
        )

    def save_compaction(self, cfg, faults: Sequence[Fault],
                        sequence: TestSequence,
                        restored: RestorationResult,
                        omitted: OmissionResult) -> None:
        self._put("compact", self._compact_fp(cfg, faults, sequence), {
            "restored": {
                "sequence": encode_sequence(restored.sequence),
                "kept_indices": list(restored.kept_indices),
                "detected": encode_faults(restored.detected),
                "never_detected": encode_faults(restored.never_detected),
            },
            "omitted": {
                "sequence": encode_sequence(omitted.sequence),
                "omitted_count": omitted.omitted_count,
                "detected": encode_faults(omitted.detected),
                "extra_detected": encode_faults(omitted.extra_detected),
            },
        })

    # -- full-universe detection times -------------------------------------------

    def load_detection(self, faults: Sequence[Fault],
                       vectors: Sequence[Sequence[int]]):
        """Decoded ``detection_times`` map, or ``None``.  The stored
        pair list pins the insertion order the simulator emitted —
        restoration's stable hardest-first sort depends on it."""
        payload = self._get(
            "detection",
            detection_config_fp(faults_fingerprint(faults), vectors))
        if payload is None:
            return None
        return {decode_fault(item): t for item, t in payload["times"]}

    def save_detection(self, faults: Sequence[Fault],
                       vectors: Sequence[Sequence[int]], times) -> None:
        self._put(
            "detection",
            detection_config_fp(faults_fingerprint(faults), vectors),
            {"times": [[encode_fault(f), t] for f, t in times.items()]})
