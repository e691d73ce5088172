"""repro — reproduction of Pomeranz & Reddy, "A New Approach to Test
Generation and Test Compaction for Scan Circuits" (DATE 2003).

The package treats a scan circuit's ``scan_sel``/``scan_inp``/``scan_out``
lines as conventional primary inputs/outputs, so test generation and
static compaction procedures for *non-scan* sequential circuits apply
directly — which makes limited scan operations fall out for free and
yields very short test application times.

Quick start::

    from repro import FlowConfig, s27, generation_flow

    flow = generation_flow(s27(), FlowConfig(seed=1))
    print(flow.omitted.sequence.to_table())
    print(flow.omitted_stats())          # cycles (total/scan)
    print(f"coverage {flow.fault_coverage:.2f}%")

:class:`FlowConfig` is the single configuration object for both flows
(seed, scan chains, Section 2 knowledge toggles, compaction switches and
the cache and run-index locations).

Layering (see DESIGN.md):

* :mod:`repro.circuit` — netlist model, ``.bench`` I/O, scan insertion,
  benchmark library, synthetic generator;
* :mod:`repro.faults` — stuck-at model + equivalence collapsing;
* :mod:`repro.sim` — scalar logic simulation and the pluggable
  fault-simulation backends (packed reference + vectorized kernel)
  behind the :class:`SimBackend` protocol;
* :mod:`repro.atpg` — PODEM, combinational view, simulation-based
  sequential ATPG, and the two conventional scan approaches;
* :mod:`repro.core` — the paper: scan-aware generation (Section 2),
  test set translation (Section 3), pipelines (Sections 4-5);
* :mod:`repro.compaction` — vector restoration [23] / omission [22];
* :mod:`repro.experiments` — the Table 5/6/7 suite and ablations;
* :mod:`repro.obs` — structured telemetry (metrics registry, timed
  spans, JSONL run journal), off by default (docs/OBSERVABILITY.md);
* :mod:`repro.parallel` — the resilient process pool behind
  ``repro-atpg table/report --jobs N`` and the service daemon; flows
  themselves simulate in one process.
"""

from .circuit import (
    Circuit,
    CircuitError,
    FlipFlop,
    Gate,
    ScanChain,
    ScanCircuit,
    insert_scan,
    load_bench,
    parse_bench,
    random_circuit,
    s27,
    save_bench,
    write_bench,
)
from .faults import (
    Fault,
    TransitionFault,
    collapse_faults,
    dominance_reduce,
    enumerate_faults,
    enumerate_transition_faults,
)
from .sim import (
    BACKEND_AUTO,
    BACKEND_NAMES,
    BACKEND_PACKED,
    BACKEND_VECTOR,
    FaultSimResult,
    LogicSimulator,
    PackedFaultSimulator,
    PackedPatternSimulator,
    PackedTransitionSimulator,
    SimBackend,
    SimSession,
    make_backend,
)
from .atpg import (
    CombScanATPG,
    Podem,
    PodemResult,
    SecondApproachATPG,
    SecondApproachConfig,
    SeqATPGConfig,
    SequentialATPG,
    TimeFrameATPG,
    comb_view,
    unroll,
)
from .core import (
    FlowConfig,
    GenerationFlowResult,
    ScanATPGResult,
    ScanAwareATPG,
    ScanTest,
    ScanTestSet,
    TestSequence,
    TranslationFlowResult,
    generation_flow,
    translate_test_set,
    translation_flow,
)
from .compaction import (
    CompactionOracle,
    OmissionResult,
    RestorationResult,
    omission_compact,
    overlapped_restoration_compact,
    restoration_compact,
    reverse_order_compact,
    subsequence_removal_compact,
)
from .analysis import analyze, compute_testability
from .cache import ResultStore, circuit_fingerprint, resolve_cache_dir
from .parallel import ResilientPool
from . import obs

__version__ = "1.0.0"

__all__ = [
    # circuit
    "Circuit", "CircuitError", "Gate", "FlipFlop", "ScanChain", "ScanCircuit",
    "insert_scan", "parse_bench", "load_bench", "write_bench", "save_bench",
    "random_circuit", "s27",
    # faults
    "Fault", "enumerate_faults", "collapse_faults",
    # sim
    "LogicSimulator", "PackedFaultSimulator", "FaultSimResult",
    "PackedPatternSimulator", "PackedTransitionSimulator", "SimSession",
    "SimBackend", "make_backend",
    "BACKEND_AUTO", "BACKEND_PACKED", "BACKEND_VECTOR", "BACKEND_NAMES",
    # atpg
    "Podem", "PodemResult", "comb_view", "SequentialATPG", "SeqATPGConfig",
    "CombScanATPG", "SecondApproachATPG", "SecondApproachConfig",
    # core
    "FlowConfig", "TestSequence", "ScanTest", "ScanTestSet", "ScanAwareATPG",
    "ScanATPGResult", "translate_test_set", "generation_flow",
    "GenerationFlowResult", "translation_flow", "TranslationFlowResult",
    # compaction
    "CompactionOracle", "restoration_compact", "RestorationResult",
    "omission_compact", "OmissionResult",
    "reverse_order_compact", "overlapped_restoration_compact",
    "subsequence_removal_compact",
    # extensions
    "dominance_reduce", "TimeFrameATPG", "unroll",
    "analyze", "compute_testability",
    "TransitionFault", "enumerate_transition_faults",
    # process pool
    "ResilientPool",
    # result cache
    "ResultStore", "circuit_fingerprint", "resolve_cache_dir",
    # telemetry
    "obs",
    "__version__",
]
