"""Stage-level memoization of the expensive pipeline derivations.

:class:`StageCache` binds a :class:`~repro.cache.store.ResultStore` to
one circuit and knows, per stage, which configuration knobs are part of
the result's identity and how the result serializes.  A ``None`` store
degrades every ``load`` to a miss and every ``save`` to a no-op, so the
pipeline code reads the same with caching on or off.  An entry whose
payload does not decode is a miss too, like a damaged file.

Cached stages and their identity:

============  =============================================================
stage         keyed on (beyond the circuit fingerprint + schema version)
============  =============================================================
flow          flow name, run config, every stage version (non-scan
              circuit) — one finished flow's whole result
collapse      nothing — the collapsed universe is a pure netlist function
atpg          engine config, knowledge toggles, scan-chain config, faults
redundancy    PODEM backtrack budget, the aborted fault list
baseline      conventional-ATPG config (translation flow)
compact       input sequence, fault universe, omission pass budget
detection     fault universe, vector sequence (full-universe times only)
============  =============================================================

Read order: a flow looks up its ``flow`` entry first and, on a hit,
reads nothing else.  Only when that entry is missing or damaged does
it walk the per-stage entries below it, which lets a run whose config
differs in one knob reuse every stage that knob does not reach.  The
``flow`` payload carries the collapsed universe once and stores every
fault set and detection map as indices into it.

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
from ..obs.history import run_config_fingerprint
from ..testseq.sequences import TestSequence
from .codec import (
    decode_faults,
    decode_indexed_times,
    decode_indices,
    decode_sequence,
    decode_times,
    encode_faults,
    encode_indexed_times,
    encode_indices,
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
ATPG_VERSION = 2
REDUNDANCY_VERSION = 1
BASELINE_VERSION = 1
COMPACT_VERSION = 1
DETECTION_VERSION = 1
#: Also covers what has no stage of its own: scan insertion and
#: translation.
FLOW_VERSION = 1


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

    def _get(self, stage: str, config_fp: str, decode):
        """``decode(payload)`` of the entry, or ``None``; a payload that
        does not decode is a miss, like a damaged file."""
        if self.store is None:
            return None
        return self.store.get(stage, self.circuit_fp, config_fp, decode)

    def _put(self, stage: str, config_fp: str, payload) -> None:
        if self.store is not None:
            self.store.put(stage, self.circuit_fp, config_fp, payload)

    # -- whole flow --------------------------------------------------------------

    def _flow_fp(self, cfg, flow: str) -> str:
        return config_fingerprint(
            "flow",
            v=[FLOW_VERSION, COLLAPSE_VERSION, ATPG_VERSION,
               REDUNDANCY_VERSION, BASELINE_VERSION, COMPACT_VERSION,
               DETECTION_VERSION],
            run=run_config_fingerprint(cfg, flow),
        )

    def load_flow(self, cfg, flow: str, circuit: Circuit) -> Optional[dict]:
        """The result fields of one finished ``flow`` (``"generation"``
        or ``"translation"``) on the non-scan ``circuit`` this cache is
        bound to, as keyword arguments for the flow's result class
        (``faults``, ``atpg``/``untestable`` or ``baseline``/
        ``translated``, and ``restored``/``omitted`` when compacted), or
        ``None``."""
        return self._get("flow", self._flow_fp(cfg, flow),
                         lambda payload: _flow_fields(payload, circuit))

    def save_flow(self, cfg, flow: str, result) -> None:
        """Persist a finished flow result under its ``flow`` key."""
        if self.store is None:
            return
        index = {f: i for i, f in enumerate(result.faults)}

        def faults_of(faults):
            return encode_indices(faults, index)

        payload = {"faults": encode_faults(result.faults)}
        if flow == "generation":
            payload["atpg"] = _atpg_payload(
                result.atpg, faults_of,
                lambda times: encode_indexed_times(times, index))
            payload["untestable"] = faults_of(result.untestable)
        else:
            payload["baseline"] = _baseline_payload(result.baseline)
            payload["translated"] = encode_sequence(result.translated)
        payload["compact"] = (
            _compaction_payload(result.restored, result.omitted, faults_of)
            if result.omitted is not None else None)
        self._put("flow", self._flow_fp(cfg, flow), payload)

    # -- collapse ------------------------------------------------------------

    def _collapse_fp(self) -> str:
        return config_fingerprint("collapse", v=COLLAPSE_VERSION)

    def load_faults(self) -> Optional[List[Fault]]:
        return self._get("collapse", self._collapse_fp(),
                         lambda payload: decode_faults(payload["faults"]))

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
        return self._get(
            "atpg", self._atpg_fp(cfg, faults),
            lambda payload: _atpg_result(payload, decode_faults,
                                         decode_times))

    def save_generation_atpg(self, cfg, faults: Sequence[Fault],
                             atpg) -> None:
        self._put("atpg", self._atpg_fp(cfg, faults),
                  _atpg_payload(atpg, encode_faults, encode_times))

    # -- redundancy proofs -------------------------------------------------------

    def _redundancy_fp(self, cfg, aborted: Sequence[Fault]) -> str:
        return config_fingerprint(
            "redundancy", v=REDUNDANCY_VERSION,
            backtrack_limit=cfg.redundancy_backtrack_limit,
            aborted=faults_fingerprint(aborted),
        )

    def load_redundancy(self, cfg,
                        aborted: Sequence[Fault]) -> Optional[List[Fault]]:
        return self._get("redundancy", self._redundancy_fp(cfg, aborted),
                         lambda payload: decode_faults(payload["untestable"]))

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
        return self._get("baseline", self._baseline_fp(baseline_config),
                         lambda payload: _baseline_result(payload, circuit))

    def save_baseline(self, baseline_config, baseline) -> None:
        self._put("baseline", self._baseline_fp(baseline_config),
                  _baseline_payload(baseline))

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
        return self._get(
            "compact", self._compact_fp(cfg, faults, sequence),
            lambda payload: _compaction_result(payload, decode_faults))

    def save_compaction(self, cfg, faults: Sequence[Fault],
                        sequence: TestSequence,
                        restored: RestorationResult,
                        omitted: OmissionResult) -> None:
        self._put("compact", self._compact_fp(cfg, faults, sequence),
                  _compaction_payload(restored, omitted, encode_faults))

    # -- full-universe detection times -------------------------------------------

    def load_detection(self, faults: Sequence[Fault],
                       vectors: Sequence[Sequence[int]]):
        """Decoded ``detection_times`` map, or ``None``.  The stored
        pair list pins the insertion order the simulator emitted —
        restoration's stable hardest-first sort depends on it."""
        return self._get(
            "detection",
            detection_config_fp(faults_fingerprint(faults), vectors),
            lambda payload: decode_times(payload["times"]))

    def save_detection(self, faults: Sequence[Fault],
                       vectors: Sequence[Sequence[int]], times) -> None:
        self._put(
            "detection",
            detection_config_fp(faults_fingerprint(faults), vectors),
            {"times": encode_times(times)})


# -- payload shapes shared by the per-stage and the flow entries ------------------
#
# ``faults_of``/``times_of`` encode or decode fault lists and detection
# maps: full fault tuples in the per-stage entries, indices into the
# entry's own universe in a ``flow`` entry.


def _atpg_payload(atpg, faults_of, times_of) -> dict:
    return {
        "sequence": encode_sequence(atpg.base.sequence),
        "detection": times_of(atpg.base.detection_time),
        "aborted": faults_of(atpg.base.aborted),
        "hook_detected": faults_of(atpg.base.hook_detected),
        "funct_scan_out": faults_of(atpg.funct_scan_out),
        "funct_justify": faults_of(atpg.funct_justify),
    }


def _atpg_result(payload, faults_of, times_of):
    from ..core.scan_aware import ScanATPGResult

    return ScanATPGResult(
        base=SeqATPGResult(
            sequence=decode_sequence(payload["sequence"]),
            detection_time=times_of(payload["detection"]),
            aborted=faults_of(payload["aborted"]),
            hook_detected=faults_of(payload["hook_detected"]),
        ),
        funct_scan_out=faults_of(payload["funct_scan_out"]),
        funct_justify=faults_of(payload["funct_justify"]),
    )


def _baseline_payload(baseline) -> dict:
    """The conventional baseline's faults live on the non-scan circuit,
    outside the collapsed ``C_scan`` universe: always full tuples."""
    return {
        "tests": [
            [list(test.scan_in), [list(v) for v in test.vectors]]
            for test in baseline.test_set.tests
        ],
        "detected_by": encode_times(baseline.detected_by),
        "untestable": encode_faults(baseline.untestable),
        "aborted": encode_faults(baseline.aborted),
    }


def _baseline_result(payload, circuit: Circuit):
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


def _compaction_payload(restored: RestorationResult, omitted: OmissionResult,
                        faults_of) -> dict:
    return {
        "restored": {
            "sequence": encode_sequence(restored.sequence),
            "kept_indices": list(restored.kept_indices),
            "detected": faults_of(restored.detected),
            "never_detected": faults_of(restored.never_detected),
        },
        "omitted": {
            "sequence": encode_sequence(omitted.sequence),
            "omitted_count": omitted.omitted_count,
            "detected": faults_of(omitted.detected),
            "extra_detected": faults_of(omitted.extra_detected),
        },
    }


def _compaction_result(payload, faults_of
                       ) -> Tuple[RestorationResult, OmissionResult]:
    restored = payload["restored"]
    omitted = payload["omitted"]
    return (
        RestorationResult(
            sequence=decode_sequence(restored["sequence"]),
            kept_indices=list(restored["kept_indices"]),
            detected=faults_of(restored["detected"]),
            never_detected=faults_of(restored["never_detected"]),
        ),
        OmissionResult(
            sequence=decode_sequence(omitted["sequence"]),
            omitted_count=omitted["omitted_count"],
            detected=faults_of(omitted["detected"]),
            extra_detected=faults_of(omitted["extra_detected"]),
        ),
    )


def _flow_fields(payload, circuit: Circuit) -> dict:
    """Decode a ``flow`` payload into result-class keyword arguments."""
    universe = decode_faults(payload["faults"])

    def faults_of(data):
        return decode_indices(data, universe)

    fields = {"faults": universe}
    if "atpg" in payload:
        fields["atpg"] = _atpg_result(
            payload["atpg"], faults_of,
            lambda data: decode_indexed_times(data, universe))
        fields["untestable"] = faults_of(payload["untestable"])
    else:
        fields["baseline"] = _baseline_result(payload["baseline"], circuit)
        fields["translated"] = decode_sequence(payload["translated"])
    if payload["compact"] is not None:
        fields["restored"], fields["omitted"] = _compaction_result(
            payload["compact"], faults_of)
    return fields
