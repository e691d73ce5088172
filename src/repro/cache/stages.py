"""Whole-flow memoization: one store entry per finished flow.

:class:`StageCache` binds a :class:`~repro.cache.store.ResultStore` to
one non-scan circuit and maps a finished flow result to one ``flow``
entry and back, bit-identically.  A ``None`` store degrades ``load_flow``
to a miss and ``save_flow`` to a no-op, so the pipeline code reads the
same with caching on or off.  An entry whose payload does not decode is
a miss too, like a damaged file.  Beyond the circuit fingerprint and
schema version, the entry is keyed on the flow name, the run config and
:data:`FLOW_VERSION` (see :func:`flow_entry_fp`); the serve daemon's
job key is the same pair, so it answers repeat submissions from it.

A flow looks up its ``flow`` entry first and, on a hit, reads nothing
else.  On a miss it runs every engine and then writes the entry.  The
payload carries the collapsed universe once and stores every fault set
and detection map as indices into it.

The deployment settings, which cannot change the bits of a result —
``jobs``, ``run_index`` and ``cache_dir`` itself — are deliberately
absent from the key, and so is how a flow was simulated (backend,
checkpoint spacing), so a warm restart hits regardless of where the
cold run ran.
"""

from __future__ import annotations

from typing import Optional

from ..atpg.seq_atpg import SeqATPGResult
from ..circuit.netlist import Circuit
from ..compaction.omission import OmissionResult
from ..compaction.restoration import RestorationResult
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
    run_config_fingerprint,
)
from .store import ResultStore

#: Algorithm version of everything a flow runs (scan insertion,
#: collapsing, ATPG, redundancy proofs, the baseline, translation and
#: compaction) — bump when any engine's output could change for
#: identical inputs.
FLOW_VERSION = 3


class StageCache:
    """Load/save adapters between flow results and ``flow`` entries."""

    def __init__(self, store: Optional[ResultStore], circuit: Circuit):
        self.store = store
        self.circuit = circuit
        self.circuit_fp = circuit_fingerprint(circuit) if store else ""

    def load_flow(self, cfg, flow: str) -> Optional[dict]:
        """The result fields of one finished ``flow`` (``"generation"``
        or ``"translation"``) on the non-scan circuit this cache is
        bound to, as keyword arguments for the flow's result class
        (``faults``, ``atpg``/``untestable`` or ``baseline``/
        ``translated``, and ``restored``/``omitted`` when compacted), or
        ``None``."""
        if self.store is None:
            return None
        return self.store.get(
            self.circuit_fp, flow_entry_fp(run_config_fingerprint(cfg, flow)),
            lambda payload: _flow_fields(payload, self.circuit))

    def save_flow(self, cfg, flow: str, result) -> None:
        """Persist a finished flow result under its ``flow`` key."""
        if self.store is None:
            return
        index = {f: i for i, f in enumerate(result.faults)}

        def faults_of(faults):
            return encode_indices(faults, index)

        payload = {"faults": encode_faults(result.faults)}
        if flow == "generation":
            atpg = result.atpg
            payload["atpg"] = {
                "sequence": encode_sequence(atpg.base.sequence),
                "detection": encode_indexed_times(
                    atpg.base.detection_time, index),
                "aborted": faults_of(atpg.base.aborted),
                "untargeted": faults_of(atpg.base.untargeted),
                "hook_detected": faults_of(atpg.base.hook_detected),
                "funct_scan_out": faults_of(atpg.funct_scan_out),
                "funct_justify": faults_of(atpg.funct_justify),
            }
            payload["untestable"] = faults_of(result.untestable)
        else:
            payload["baseline"] = _baseline_payload(result.baseline)
            payload["translated"] = encode_sequence(result.translated)
        payload["compact"] = None
        if result.omitted is not None:
            restored, omitted = result.restored, result.omitted
            payload["compact"] = {
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
        self.store.put(self.circuit_fp,
                       flow_entry_fp(run_config_fingerprint(cfg, flow)),
                       payload)


def flow_entry_fp(run_fp: str) -> str:
    """The ``flow`` entry's config fingerprint for a run fingerprint."""
    return config_fingerprint("flow", v=FLOW_VERSION, run=run_fp)


# -- payload shapes -----------------------------------------------------------


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


def _flow_fields(payload, circuit: Circuit) -> dict:
    """Decode a ``flow`` payload into result-class keyword arguments."""
    from ..core.scan_aware import ScanATPGResult

    universe = decode_faults(payload["faults"])

    def faults_of(data):
        return decode_indices(data, universe)

    fields = {"faults": universe}
    if "atpg" in payload:
        atpg = payload["atpg"]
        fields["atpg"] = ScanATPGResult(
            base=SeqATPGResult(
                sequence=decode_sequence(atpg["sequence"]),
                detection_time=decode_indexed_times(atpg["detection"],
                                                    universe),
                aborted=faults_of(atpg["aborted"]),
                untargeted=faults_of(atpg["untargeted"]),
                hook_detected=faults_of(atpg["hook_detected"]),
            ),
            funct_scan_out=faults_of(atpg["funct_scan_out"]),
            funct_justify=faults_of(atpg["funct_justify"]),
        )
        fields["untestable"] = faults_of(payload["untestable"])
    else:
        fields["baseline"] = _baseline_result(payload["baseline"], circuit)
        fields["translated"] = decode_sequence(payload["translated"])
    compact = payload["compact"]
    if compact is not None:
        restored, omitted = compact["restored"], compact["omitted"]
        fields["restored"] = RestorationResult(
            sequence=decode_sequence(restored["sequence"]),
            kept_indices=list(restored["kept_indices"]),
            detected=faults_of(restored["detected"]),
            never_detected=faults_of(restored["never_detected"]),
        )
        fields["omitted"] = OmissionResult(
            sequence=decode_sequence(omitted["sequence"]),
            omitted_count=omitted["omitted_count"],
            detected=faults_of(omitted["detected"]),
            extra_detected=faults_of(omitted["extra_detected"]),
        )
    return fields
