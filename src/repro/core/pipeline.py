"""End-to-end flows: everything a row of Tables 5, 6 or 7 needs.

Two flows mirror the paper's two experiments:

* :func:`generation_flow` — Section 2 generation on ``C_scan`` followed
  by Section 4 compaction (restoration, then omission).  Feeds Tables 5
  and 6.
* :func:`translation_flow` — a conventional second-approach test set
  (the [26] stand-in), Section 3 translation into a ``C_scan`` sequence,
  then the same compaction.  Feeds Table 7.

Both return rich result objects; the experiment modules only format.

With a result store attached (see :mod:`repro.cache.stages`), a flow
first reads its whole result from one ``flow`` entry; only when that
entry is missing or damaged does it run its engines, and it then writes
the ``flow`` entry.  A flow reads and writes no other entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..atpg.comb_view import has_view_site
from ..atpg.podem import UNTESTABLE
from ..cache.stages import StageCache
from ..circuit.netlist import Circuit
from ..circuit.scan import ScanCircuit, insert_scan
from ..compaction.base import CompactionOracle
from ..compaction.omission import OmissionResult, omission_compact
from ..compaction.restoration import RestorationResult, restoration_compact
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from ..obs.history import record_flow_run
from ..testseq.sequences import SequenceStats, TestSequence
from .config import FlowConfig
from .scan_aware import ScanATPGResult, ScanAwareATPG
from .translate import translate_test_set

if TYPE_CHECKING:
    from ..atpg.scan_seq import SecondApproachResult


@dataclass
class GenerationFlowResult:
    """Section 2 + Section 4 on one circuit."""

    circuit: Circuit
    scan_circuit: ScanCircuit
    faults: List[Fault]
    atpg: ScanATPGResult
    #: Aborted targets proven redundant by exhaustive PODEM on the
    #: combinational view (full scan makes that proof exact).  Faults
    #: left untargeted by a ``max_targeted_faults`` cap get no proof.  The
    #: paper's generator cannot prove redundancy; we report both
    #: coverages.
    untestable: List[Fault] = field(default_factory=list)
    raw: Optional[TestSequence] = None
    restored: Optional[RestorationResult] = None
    omitted: Optional[OmissionResult] = None
    elapsed_seconds: float = 0.0

    # -- Table 5 fields ------------------------------------------------------

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    @property
    def detected_total(self) -> int:
        return self.atpg.base.detected_count

    @property
    def fault_coverage(self) -> float:
        """Paper-style: detected / all targeted faults."""
        if not self.faults:
            return 100.0
        return 100.0 * self.detected_total / len(self.faults)

    @property
    def testable_coverage(self) -> float:
        """Detected / (targets minus proven-redundant)."""
        testable = len(self.faults) - len(self.untestable)
        if testable <= 0:
            return 100.0
        return 100.0 * self.detected_total / testable

    @property
    def funct_count(self) -> int:
        return self.atpg.funct_count

    # -- Table 6 fields ---------------------------------------------------------

    def raw_stats(self) -> SequenceStats:
        """Length/scan stats of the generated sequence (Table 6 `test len`)."""
        return self.raw.stats()

    def restored_stats(self) -> SequenceStats:
        """Stats after restoration [23] (Table 6 `restor len`)."""
        return self.restored.sequence.stats()

    def omitted_stats(self) -> SequenceStats:
        """Stats after omission [22] (Table 6 `omit len`)."""
        return self.omitted.sequence.stats()

    @property
    def extra_detected(self) -> int:
        """Faults the final compacted sequence detects beyond
        ``detected_total`` (the paper's ``ext det``): the gains of
        restoration and of omission together."""
        if not self.omitted:
            return 0
        final = set(self.omitted.detected) | set(self.omitted.extra_detected)
        return len(final - self.atpg.detection_time.keys())


def generation_flow(
    circuit: Circuit,
    config: Optional[FlowConfig] = None,
) -> GenerationFlowResult:
    """Run Section 2 generation (+ Section 4 compaction) on ``circuit``.

    ``circuit`` is the *non-scan* circuit; scan insertion, fault
    enumeration/collapsing and everything downstream happen here.
    ``config`` is a :class:`FlowConfig` (``None`` means defaults).
    """
    cfg = _flow_config("generation_flow", config)
    store = _flow_store(cfg)
    with obs.stopwatch("pipeline.generation") as root:
        obs.event("progress.plan", flow="generation",
                  phases=["scan_insert", "collapse", "atpg", "redundancy",
                          "restoration", "omission"])
        with obs.span("scan_insert"):
            scan_circuit = insert_scan(circuit, num_chains=cfg.num_chains)
        result = replay_flow("generation", circuit, scan_circuit, cfg, store)
        if result is not None:
            obs.coverage("pipeline.atpg", result.detected_total,
                         len(result.faults))
        else:
            result = _generate(circuit, scan_circuit, cfg)
            StageCache(store, circuit).save_flow(cfg, "generation", result)
        if ledger.enabled():
            ledger.record(
                "flow.summary", flow="generation",
                detected=result.detected_total, total=len(result.faults),
                coverage=result.fault_coverage,
                raw_len=len(result.raw.vectors),
                final_len=len(result.omitted.sequence.vectors)
                if result.omitted else len(result.raw.vectors),
            )
    result.elapsed_seconds = root.duration
    record_flow_run(cfg, circuit, "generation", result.elapsed_seconds)
    return result


def _generate(circuit: Circuit, scan_circuit: ScanCircuit,
              cfg: FlowConfig) -> GenerationFlowResult:
    """The generation flow's engines, run in order."""
    with obs.span("collapse"):
        faults = collapse_faults(scan_circuit.circuit)
    obs.event("progress.work", phase="atpg", total=len(faults),
              unit="faults")
    with obs.span("atpg"):
        generator = ScanAwareATPG(
            scan_circuit,
            faults,
            config=cfg.atpg_config(),
            use_scan_knowledge=cfg.use_scan_knowledge,
            use_justification=cfg.use_justification,
        )
        atpg = generator.generate()
    result = GenerationFlowResult(
        circuit=circuit,
        scan_circuit=scan_circuit,
        faults=faults,
        atpg=atpg,
        raw=atpg.sequence,
    )
    obs.coverage("pipeline.atpg", result.detected_total, len(faults))
    if cfg.classify_redundant and atpg.base.aborted:
        with obs.span("redundancy"):
            # Proofs follow the search: only aborted targets, never the
            # cap's untargeted survivors.  The generator's engine (same
            # comb view) memoizes the triage's verdicts.
            for fault in atpg.base.aborted:
                if not has_view_site(scan_circuit.circuit, fault):
                    continue
                verdict = generator.podem.run(
                    fault, backtrack_limit=cfg.redundancy_backtrack_limit)
                if verdict.status == UNTESTABLE:
                    result.untestable.append(fault)
    if cfg.compact:
        _compact_into(result, scan_circuit.circuit, atpg.sequence, faults, cfg)
    return result


@dataclass
class TranslationFlowResult:
    """Baseline test set -> Section 3 translation -> Section 4 compaction."""

    circuit: Circuit
    scan_circuit: ScanCircuit
    faults: List[Fault]
    baseline: "SecondApproachResult"
    translated: Optional[TestSequence] = None
    restored: Optional[RestorationResult] = None
    omitted: Optional[OmissionResult] = None
    elapsed_seconds: float = 0.0

    @property
    def baseline_cycles(self) -> int:
        """Conventional application cost — the ``[26] cyc`` column."""
        return self.baseline.total_cycles()

    def translated_stats(self) -> SequenceStats:
        """Stats of the translated sequence (Table 7 `test len`)."""
        return self.translated.stats()

    def restored_stats(self) -> SequenceStats:
        """Stats after restoration [23] (Table 7 `restor len`)."""
        return self.restored.sequence.stats()

    def omitted_stats(self) -> SequenceStats:
        """Stats after omission [22] (Table 7 `omit len`)."""
        return self.omitted.sequence.stats()


def translation_flow(
    circuit: Circuit,
    config: Optional[FlowConfig] = None,
) -> TranslationFlowResult:
    """Run the Section 3 experiment on ``circuit`` (see module docstring).

    ``config`` is a :class:`FlowConfig` (its ``baseline`` field holds
    the conventional-ATPG configuration; ``None`` means defaults).
    """
    cfg = _flow_config("translation_flow", config)
    store = _flow_store(cfg)
    with obs.stopwatch("pipeline.translation") as root:
        obs.event("progress.plan", flow="translation",
                  phases=["scan_insert", "collapse", "baseline_atpg",
                          "translate", "restoration", "omission"])
        with obs.span("scan_insert"):
            scan_circuit = insert_scan(circuit, num_chains=cfg.num_chains)
        result = replay_flow("translation", circuit, scan_circuit, cfg,
                             store)
        if result is None:
            result = _translate(circuit, scan_circuit, cfg)
            StageCache(store, circuit).save_flow(cfg, "translation", result)
    result.elapsed_seconds = root.duration
    record_flow_run(cfg, circuit, "translation", result.elapsed_seconds)
    return result


def _translate(circuit: Circuit, scan_circuit: ScanCircuit,
               cfg: FlowConfig) -> TranslationFlowResult:
    """The translation flow's engines, run in order."""
    from ..atpg.scan_seq import SecondApproachATPG, SecondApproachConfig

    with obs.span("collapse"):
        faults = collapse_faults(scan_circuit.circuit)
    obs.event("progress.work", phase="baseline_atpg",
              total=len(faults), unit="faults")
    # The baseline runs on the *non-scan* circuit.
    with obs.span("baseline_atpg"):
        baseline = SecondApproachATPG(
            circuit,
            config=cfg.baseline or SecondApproachConfig(seed=cfg.seed),
        ).generate()
    with obs.span("translate"):
        translated = translate_test_set(scan_circuit, baseline.test_set)
        translated = translated.randomize_x(random.Random(cfg.seed ^ 0x7EA5))
    result = TranslationFlowResult(
        circuit=circuit,
        scan_circuit=scan_circuit,
        faults=faults,
        baseline=baseline,
        translated=translated,
    )
    if cfg.compact:
        _compact_into(result, scan_circuit.circuit, translated, faults, cfg)
    return result


def replay_flow(flow: str, circuit: Circuit,
                scan_circuit: Optional[ScanCircuit], cfg: FlowConfig, store):
    """The result of ``flow`` (``"generation"`` or ``"translation"``)
    rebuilt from its ``flow`` entry in ``store``, or ``None`` when there
    is none (or ``store`` is ``None``).  The entry holds no scan
    circuit: the result carries ``scan_circuit`` as given, which may be
    ``None`` for a caller that reads only the sequences and coverage."""
    fields = StageCache(store, circuit).load_flow(cfg, flow)
    if fields is None:
        return None
    if flow == "generation":
        return GenerationFlowResult(
            circuit=circuit, scan_circuit=scan_circuit,
            raw=fields["atpg"].sequence, **fields)
    return TranslationFlowResult(
        circuit=circuit, scan_circuit=scan_circuit, **fields)


def _flow_config(name: str, config) -> FlowConfig:
    if config is None:
        return FlowConfig()
    if not isinstance(config, FlowConfig):
        raise TypeError(f"{name}() config must be a FlowConfig, got "
                        f"{type(config).__name__}")
    return config


def _flow_store(cfg: FlowConfig):
    """The flow's result store — ``None`` when caching is off *or* the
    fault ledger is recording: explain-fault/explain-vector need the
    real engines to run, so ledger sessions always re-derive."""
    if ledger.enabled():
        return None
    return cfg.result_store()


def _compact_into(
    result,
    circuit: Circuit,
    sequence: TestSequence,
    faults,
    cfg: Optional[FlowConfig] = None,
) -> None:
    """Shared Section 4 tail: restoration (on the detected set), then
    omission (accounted over the full universe so ``ext det`` shows).
    Both stages share one incremental oracle, so omission reuses the
    packed-state checkpoints restoration left behind."""
    cfg = cfg or FlowConfig()
    oracle = CompactionOracle(circuit, faults)
    cycles_start = oracle.cycles_simulated
    obs.event("progress.work", phase="restoration",
              total=len(sequence.vectors), unit="vectors")
    with obs.span("restoration"):
        restored = restoration_compact(circuit, sequence, faults, oracle=oracle)
    cycles_restored = oracle.cycles_simulated
    obs.event("progress.work", phase="omission",
              total=len(restored.sequence.vectors), unit="vectors")
    with obs.span("omission"):
        omitted = omission_compact(
            circuit, restored.sequence, faults, oracle=oracle,
            max_passes=cfg.max_omission_passes,
        )
    if ledger.enabled():
        ledger.record(
            "compaction.phases",
            restoration_cycles=cycles_restored - cycles_start,
            omission_cycles=oracle.cycles_simulated - cycles_restored,
            raw_len=len(sequence.vectors),
            restored_len=len(restored.sequence.vectors),
            final_len=len(omitted.sequence.vectors),
        )
        # First-detection time of every fault under the final compacted
        # sequence — the ground truth explain-vector reconciles against.
        final_times = oracle.detection_times(list(omitted.sequence.vectors))
        universe = oracle.faults
        ledger.record("flow.final_times",
                      times={universe[p]: t for p, t in final_times.items()})
    oracle.close()
    result.restored = restored
    result.omitted = omitted

