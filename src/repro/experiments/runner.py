"""Shared, memoized execution of the per-circuit flows.

Tables 5 and 6 consume the *same* generation run, and Tables 6 and 7
share the conventional baseline; this module runs each flow at most once
per process so the benchmark files stay cheap and mutually consistent.

:func:`prefetch` adds **circuit-level parallelism** on top: it warms the
memo caches by running whole per-circuit flows in a
:class:`~repro.parallel.ResilientPool` of worker processes (one circuit
per task — the coarsest unit, so results are trivially identical to the
serial path).  Every task callable here is module-level (spawn-safe
pickling).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..atpg.scan_seq import SecondApproachATPG, SecondApproachResult
from ..core import (
    FlowConfig,
    GenerationFlowResult,
    TranslationFlowResult,
    generation_flow,
    translation_flow,
)
from ..obs import context as obs
from . import suite

_GENERATION: Dict[str, GenerationFlowResult] = {}
_BASELINE: Dict[str, SecondApproachResult] = {}
_TRANSLATION: Dict[str, TranslationFlowResult] = {}


def generation_result(name: str, use_scan_knowledge: bool = True,
                      use_justification: bool = True) -> GenerationFlowResult:
    """Section 2+4 flow for one suite circuit (memoized for the default
    knowledge settings)."""
    cacheable = use_scan_knowledge and use_justification
    if cacheable and name in _GENERATION:
        return _GENERATION[name]
    tier = suite.spec_of(name).tier
    redundancy_limit = {"tiny": 20000, "small": 20000,
                        "medium": 4000}.get(tier, 1500)
    with obs.span(f"experiments.generation.{name}"):
        result = generation_flow(
            suite.build_circuit(name),
            FlowConfig(
                seed=suite.circuit_seed(name),
                atpg=suite.atpg_config_for(name),
                use_scan_knowledge=use_scan_knowledge,
                use_justification=use_justification,
                redundancy_backtrack_limit=redundancy_limit,
            ),
        )
    obs.event("experiments.generation", circuit=name,
              cached=False, elapsed=round(result.elapsed_seconds, 6))
    if cacheable:
        _GENERATION[name] = result
    return result


def baseline_result(name: str) -> SecondApproachResult:
    """Conventional second-approach baseline for one suite circuit."""
    if name not in _BASELINE:
        with obs.span(f"experiments.baseline.{name}"):
            _BASELINE[name] = SecondApproachATPG(
                suite.build_circuit(name),
                config=suite.baseline_config_for(name),
            ).generate()
    return _BASELINE[name]


def translation_result(name: str) -> TranslationFlowResult:
    """Section 3 flow for one suite circuit, sharing the baseline."""
    if name not in _TRANSLATION:
        baseline = baseline_result(name)
        with obs.span(f"experiments.translation.{name}"):
            _TRANSLATION[name] = translation_flow(
                suite.build_circuit(name),
                FlowConfig(seed=suite.circuit_seed(name)),
                baseline=baseline,
            )
    return _TRANSLATION[name]


def clear_caches() -> None:
    """Drop memoized results (tests use this for isolation)."""
    _GENERATION.clear()
    _BASELINE.clear()
    _TRANSLATION.clear()


# -- circuit-level parallel prefetch ------------------------------------------


def _init_prefetch_worker() -> None:
    """Pool initializer: drop any telemetry session inherited across
    ``fork`` (its journal handle belongs to the parent)."""
    obs.deactivate(None)


def _generation_task(name: str) -> Tuple[str, GenerationFlowResult]:
    """Pool task: one circuit's generation flow (module-level by
    requirement — ships to workers by qualified name)."""
    return name, generation_result(name)


def _full_task(
    name: str,
) -> Tuple[str, GenerationFlowResult, SecondApproachResult,
           TranslationFlowResult]:
    """Pool task: generation + baseline + translation for one circuit."""
    generation = generation_result(name)
    translation = translation_result(name)
    return name, generation, _BASELINE[name], translation


def prefetch(names: Iterable[str], jobs: int = 1, *,
             translation: bool = False) -> List[str]:
    """Warm the memo caches for ``names``, ``jobs`` circuits at a time.

    With ``jobs`` at most 1 (the default) this simply runs the flows
    serially in-process — same code path as before.  With more,
    whole circuits fan out across a worker pool and the results land in
    the caches exactly as a serial warm-up would have left them.
    ``translation`` also prepares the baseline + Section 3 flow (what
    Table 7 and the full report consume).  Returns the names actually
    computed (cached ones are skipped).
    """
    from ..parallel import ResilientPool

    todo = [
        name for name in dict.fromkeys(names)
        if name not in _GENERATION
        or (translation and name not in _TRANSLATION)
    ]
    if jobs <= 1 or len(todo) <= 1:
        for name in todo:
            generation_result(name)
            if translation:
                translation_result(name)
        return todo
    obs.incr("experiments.prefetch.runs")
    obs.set_gauge("experiments.prefetch.jobs", jobs)
    pool = ResilientPool(
        _full_task if translation else _generation_task,
        min(jobs, len(todo)),
        initializer=_init_prefetch_worker,
        label="experiments.prefetch",
    )
    with obs.span("experiments.prefetch"), pool:
        for item in pool.run(todo):
            name = item[0]
            _GENERATION.setdefault(name, item[1])
            if translation:
                _BASELINE.setdefault(name, item[2])
                _TRANSLATION.setdefault(name, item[3])
            obs.event("experiments.prefetch.circuit", circuit=name)
    return todo
