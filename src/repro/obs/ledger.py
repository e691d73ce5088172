"""Per-fault provenance ledger: the full lifecycle of every collapsed
fault class, from ATPG targeting to the compaction decision that kept
(or omitted) the vectors detecting it.

The paper's argument is an accounting one — every clock cycle and every
detected fault must be attributable to a vector that restoration [23] /
omission [22] chose to keep.  The aggregate counters of
:mod:`repro.obs.metrics` show *how much* work each phase did; this
module records *which fault* each unit of work was for, so the pipeline
can be replayed as a causal chain:

* **generated-for** — which engine targeted the fault (the sequential
  beam search, PODEM, the conventional second-approach baseline), with
  status and backtrack counts;
* **first-detected-at** — vector index and observation point of the
  first detection during generation;
* **dropped-at** — :class:`~repro.sim.session.SimSession` drop / repack
  events that removed the fault from the packed planes;
* **secured-by** — the restoration target/trial that pinned the fault's
  detecting vectors into the compacted sequence;
* **keep/omit** — every backward-sweep omission decision, with the
  faults whose detection the kept vector preserves and the trial's
  simulated-cycle / checkpoint-reuse cost.

Recording follows the same **zero-cost-when-off** convention as
:mod:`repro.obs.context`: instrumented code calls the module-level
:func:`record` (or checks :func:`enabled` before computing expensive
arguments such as fault lists from detection masks), and while no ledger
is active each call is one global load plus an ``is None`` test.  A
ledger is activated through :func:`repro.obs.session` (``ledger=True``,
which the ``repro-atpg explain-*`` subcommands use) or directly with
:func:`activate` / :func:`deactivate`.

Unlike the journal, the ledger is an *in-memory* structure holding live
:class:`~repro.faults.model.Fault` objects — it is meant to be replayed
into the human-readable chains of :func:`explain_fault` /
:func:`explain_vector` within the recording process, not serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..reporting.tables import format_table


@dataclass
class LedgerEvent:
    """One recorded lifecycle event.

    ``fault`` is the primary subject (may be ``None`` for whole-phase
    events); ``data`` may additionally carry ``faults`` (a list) and
    ``times`` (a fault -> vector-index dict), both of which are indexed
    so :meth:`FaultLedger.events_for` finds the event from any fault it
    mentions.
    """

    seq: int
    kind: str
    fault: Optional[object] = None
    data: Dict[str, Any] = field(default_factory=dict)


class FaultLedger:
    """Append-only event ledger with a per-fault index."""

    def __init__(self):
        self.events: List[LedgerEvent] = []
        self._by_fault: Dict[object, List[LedgerEvent]] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, fault=None, faults=None, times=None,
               **data) -> LedgerEvent:
        """Append one event; ``fault``/``faults``/``times`` are indexed."""
        if faults is not None:
            data["faults"] = list(faults)
        if times is not None:
            data["times"] = dict(times)
        event = LedgerEvent(len(self.events), kind, fault, data)
        self.events.append(event)
        touched = []
        if fault is not None:
            touched.append(fault)
        touched.extend(data.get("faults", ()))
        touched.extend(data.get("times", ()))
        seen = set()
        for f in touched:
            if f not in seen:
                seen.add(f)
                self._by_fault.setdefault(f, []).append(event)
        return event

    # -- queries -------------------------------------------------------------

    def events_for(self, fault) -> List[LedgerEvent]:
        """Every event mentioning ``fault``, in recording order."""
        return list(self._by_fault.get(fault, ()))

    def last(self, kind: str) -> Optional[LedgerEvent]:
        """Most recent event of ``kind`` (None when never recorded)."""
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None

    def detected_faults(self) -> List[object]:
        """Faults with a generation-phase first detection, in order."""
        out, seen = [], set()
        for event in self.events:
            if event.kind == "atpg.detect" and event.fault not in seen:
                seen.add(event.fault)
                out.append(event.fault)
        return out

    def final_times(self) -> Dict[object, int]:
        """Fault -> first-detection index over the *final* compacted
        sequence (empty before the pipeline records ``flow.final_times``)."""
        event = self.last("flow.final_times")
        return dict(event.data["times"]) if event else {}

    def vector_chain(self) -> List[Dict[str, Any]]:
        """One row per kept vector of the final compacted sequence.

        Each row chains the vector's identity back through the
        compaction stages (``final`` index -> ``restored`` index in the
        omission input -> ``raw`` index in the generated sequence) and
        attributes it: the faults whose detection its failed omission
        trial proved it secures, the trial's simulated-cycle and
        checkpoint-reuse cost, and the faults first detected at it in
        the final sequence.  Empty when no omission result was recorded.
        """
        omission = self.last("omission.result")
        if omission is None:
            return []
        restoration = self.last("restoration.result")
        raw_of = restoration.data["kept"] if restoration is not None else None
        keep: Dict[int, LedgerEvent] = {}
        for event in self.events:
            if event.kind == "omission.decision" and \
                    not event.data.get("omitted"):
                keep[event.data["origin"]] = event
        detects_at: Dict[int, List[object]] = {}
        for f, t in self.final_times().items():
            detects_at.setdefault(t, []).append(f)
        rows = []
        for final, origin in enumerate(omission.data["kept"]):
            event = keep.get(origin)
            rows.append({
                "final": final,
                "restored": origin,
                "raw": raw_of[origin] if raw_of is not None else origin,
                "secures": list(event.data.get("faults", ())) if event else [],
                "cycles": event.data.get("cycles") if event else None,
                "checkpoint_hits":
                    event.data.get("checkpoint_hits") if event else None,
                "detects": detects_at.get(final, []),
            })
        return rows

    def reconcile(self) -> Dict[str, Any]:
        """Cross-check the ledger against the flow's reported coverage.

        Returns a summary dict; ``consistent`` is True when the distinct
        generation-phase detections in the ledger equal the coverage the
        flow reported (``flow.summary``), and the final-sequence
        detection times cover at least the faults omission was required
        to preserve.
        """
        summary = self.last("flow.summary")
        detected = self.detected_faults()
        result: Dict[str, Any] = {
            "ledger_detected": len(detected),
            "reported_detected": summary.data.get("detected")
            if summary else None,
            "final_detected": len(self.final_times()),
        }
        omission = self.last("omission.result")
        required = set(omission.data.get("required", ())) if omission else set()
        result["required"] = len(required)
        result["consistent"] = (
            summary is not None
            and len(detected) == summary.data.get("detected")
            and required <= set(self.final_times())
        )
        return result


#: The active ledger, or None.  Module-level on purpose — the disabled
#: fast path of :func:`record` must be one load + one comparison.
_active: Optional[FaultLedger] = None


def active() -> Optional[FaultLedger]:
    """The current ledger (None when recording is off)."""
    return _active


def enabled() -> bool:
    """True when a ledger is recording.  Hook sites check this before
    computing expensive arguments (fault lists from masks, observation
    points)."""
    return _active is not None


def activate(ledger: Optional[FaultLedger]) -> Optional[FaultLedger]:
    """Install ``ledger`` (may be None) as the active one; returns the
    previous so callers can restore it."""
    global _active
    previous = _active
    _active = ledger
    return previous


def deactivate(previous: Optional[FaultLedger] = None) -> None:
    global _active
    _active = previous


def record(kind: str, fault=None, faults=None, times=None, **data) -> None:
    """Record an event on the active ledger; no-op while disabled."""
    ledger = _active
    if ledger is not None:
        ledger.record(kind, fault=fault, faults=faults, times=times, **data)


# -- rendering ---------------------------------------------------------------

def _names(faults: Iterable[object], limit: int = 4) -> str:
    names = [str(f) for f in faults]
    if len(names) > limit:
        return ", ".join(names[:limit]) + f", ... (+{len(names) - limit})"
    return ", ".join(names) if names else "-"


def _describe(event: LedgerEvent, fault=None) -> str:
    """One human-readable line for ``event`` (from ``fault``'s
    perspective where the event mentions several faults)."""
    d = event.data
    kind = event.kind
    if kind == "atpg.target":
        return f"targeted by the {d.get('engine', '?')} engine"
    if kind == "atpg.podem":
        reused = ", verdict reused from the engine memo" if d.get("memo") \
            else ""
        return (f"PODEM run on the combinational view: {d.get('status')}"
                f" ({d.get('backtracks', 0)} backtracks{reused})")
    if kind == "atpg.abort":
        if d.get("proven"):
            return ("proven untestable on the combinational view before "
                    "search (not searched)")
        return (f"abandoned by the {d.get('engine', '?')} engine "
                f"(search and completions exhausted)")
    if kind == "atpg.detect":
        where = d.get("observed")
        at = f", observed at {_names(where)}" if where else ""
        return f"first detected at vector {d.get('vector')}{at}"
    if kind == "atpg.completion":
        verdict = "accepted" if d.get("accepted") else "rejected"
        return f"functional scan completion '{d.get('completion')}' {verdict}"
    if kind == "session.drop":
        return (f"dropped from the packed planes "
                f"({d.get('live')} live machines remain)")
    if kind == "restoration.target":
        return (f"restoration target (hardest-first): first detection "
                f"at vector {d.get('t')}")
    if kind == "restoration.attempt":
        return (f"restoration trial: restore span [{d.get('low')}, "
                f"{d.get('t')}], {d.get('kept')} vectors restored")
    if kind == "restoration.secured":
        via = d.get("via")
        extra = "" if fault is None or via == str(fault) \
            else f" via target {via}"
        return (f"secured by the restored subsequence "
                f"({d.get('kept')} vectors{extra}, "
                f"{d.get('cycles', 0)} simulated cycles)")
    if kind == "omission.decision":
        cost = (f"trial: {d.get('cycles')} cycles, "
                f"{d.get('checkpoint_hits')} checkpoint hits")
        if d.get("omitted"):
            return f"vector {d.get('origin')} omitted ({cost})"
        return (f"vector {d.get('origin')} kept — omitting it loses "
                f"{_names(d.get('faults', ()))} ({cost})")
    if kind == "flow.final_times":
        if fault is not None and fault in d.get("times", {}):
            return (f"final: detected at vector {d['times'][fault]} "
                    f"of the compacted sequence")
        return "final detection times recorded"
    if kind == "omission.result":
        if fault is not None and fault in d.get("extra", ()):
            return ("newly detected by the compacted sequence although "
                    "the original missed it (ext det)")
        return (f"omission finished: {len(d.get('kept', ()))} vectors kept")
    if kind == "flow.summary":
        return (f"flow reported {d.get('detected')}/{d.get('total')} "
                f"faults detected ({d.get('coverage', 0):.2f}%)")
    if kind == "compaction.phases":
        return (f"restoration spent {d.get('restoration_cycles')} and "
                f"omission {d.get('omission_cycles')} simulated cycles")
    details = ", ".join(f"{k}={v}" for k, v in d.items()
                        if k not in ("faults", "times"))
    return details or kind


def explain_fault(ledger: FaultLedger, fault) -> str:
    """Replay the ledger into the causal chain of one fault."""
    events = ledger.events_for(fault)
    if not events:
        return (f"fault {fault}: no ledger events — was the ledger active "
                f"while the flow ran?")
    lines = [f"fault {fault} — {len(events)} ledger events"]
    for event in events:
        lines.append(f"  [{event.seq:>4}] {event.kind:<22} "
                     f"{_describe(event, fault)}")
    times = ledger.final_times()
    if times:
        if fault in times:
            lines.append(f"  final status: detected at vector "
                         f"{times[fault]} of the compacted sequence")
        elif any(e.kind == "atpg.detect" for e in events):
            lines.append("  final status: detected during generation but "
                         "not by the compacted sequence (not required)")
        else:
            lines.append("  final status: undetected")
    return "\n".join(lines)


def explain_vector(ledger: FaultLedger, index: Optional[int] = None) -> str:
    """Per-vector attribution of the final compacted sequence.

    With ``index`` None, a table over every kept vector; otherwise the
    detailed chain of that one vector.
    """
    rows = ledger.vector_chain()
    if not rows:
        return ("no compaction chain in the ledger — run the flow with "
                "compaction enabled and the ledger active")
    if index is None:
        table_rows = [
            [r["final"], r["restored"], r["raw"], len(r["secures"]),
             _names(r["secures"], limit=2), len(r["detects"]),
             r["cycles"] if r["cycles"] is not None else "-",
             r["checkpoint_hits"]
             if r["checkpoint_hits"] is not None else "-"]
            for r in rows
        ]
        table = format_table(
            ["vec", "restor", "raw", "secures", "securing faults",
             "detects", "trial cyc", "cp hits"],
            table_rows,
            title="kept vectors of the compacted sequence",
            align_left=(4,),
        )
        secured = sum(1 for r in rows if r["secures"])
        return (table + f"\n{secured}/{len(rows)} kept vectors secure "
                        f">=1 fault each")
    matches = [r for r in rows if r["final"] == index]
    if not matches:
        return (f"vector {index} is not in the compacted sequence "
                f"(kept indices 0..{len(rows) - 1})")
    r = matches[0]
    lines = [
        f"vector {r['final']} of the compacted sequence",
        f"  identity: omission kept input vector {r['restored']}, "
        f"restoration kept raw vector {r['raw']} of the generated sequence",
    ]
    if r["cycles"] is not None:
        lines.append(
            f"  survival: the backward omission trial simulated "
            f"{r['cycles']} cycles ({r['checkpoint_hits']} checkpoint "
            f"hits) and lost {len(r['secures'])} required faults")
    if r["secures"]:
        lines.append("  secures (lost if omitted):")
        lines.extend(f"    {f}" for f in r["secures"])
    if r["detects"]:
        lines.append("  first detects (final sequence):")
        lines.extend(f"    {f}" for f in r["detects"])
    if not r["secures"] and not r["detects"]:
        lines.append("  no attribution recorded for this vector")
    return "\n".join(lines)


def render_attribution(ledger: FaultLedger, flow=None) -> str:
    """Coverage-curve + per-vector attribution section (used by
    ``experiments/report``): cycles spent vs faults secured per vector,
    before/after compaction."""
    sections: List[str] = []

    def curve(times: Dict[object, int], total: int, length: int,
              title: str) -> str:
        by_vector: Dict[int, int] = {}
        for t in times.values():
            by_vector[t] = by_vector.get(t, 0) + 1
        rows, cum = [], 0
        for t in sorted(by_vector):
            cum += by_vector[t]
            rows.append([t, by_vector[t], cum,
                         100.0 * cum / total if total else 100.0])
        return format_table(
            ["vector", "+faults", "cum", "cum%"], rows,
            title=f"{title} ({length} vectors, "
                  f"{cum}/{total} faults)")

    if flow is not None:
        raw_times = dict(flow.atpg.detection_time)
        sections.append(curve(raw_times, flow.num_faults, len(flow.raw),
                              "coverage curve — generated sequence"))
        final = ledger.final_times()
        if final and flow.omitted is not None:
            sections.append(curve(final, flow.num_faults,
                                  len(flow.omitted.sequence),
                                  "coverage curve — after compaction"))

    rows = ledger.vector_chain()
    if rows:
        sections.append(format_table(
            ["vec", "raw", "trial cyc", "cp hits", "secures", "detects"],
            [[r["final"], r["raw"],
              r["cycles"] if r["cycles"] is not None else "-",
              r["checkpoint_hits"]
              if r["checkpoint_hits"] is not None else "-",
              len(r["secures"]), len(r["detects"])] for r in rows],
            title="per-vector attribution — cycles spent vs faults secured",
        ))
    phases = ledger.last("compaction.phases")
    if phases is not None:
        sections.append(
            f"phase attribution: restoration "
            f"{phases.data.get('restoration_cycles')} simulated cycles, "
            f"omission {phases.data.get('omission_cycles')} simulated "
            f"cycles")
    recon = ledger.reconcile()
    sections.append(
        f"ledger reconciliation: {recon['ledger_detected']} faults with "
        f"generation detections, flow reported "
        f"{recon['reported_detected']}, {recon['final_detected']} "
        f"detected by the compacted sequence "
        f"({'consistent' if recon['consistent'] else 'INCONSISTENT'})")
    return "\n\n".join(sections)
