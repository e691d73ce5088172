"""Unified flow configuration.

:class:`FlowConfig` is the single knob object for the end-to-end flows
(:func:`~repro.core.pipeline.generation_flow` and
:func:`~repro.core.pipeline.translation_flow`).  It replaces the
spread-out keyword signatures those functions grew: one frozen dataclass
carries the seed, scan-chain count, the Section 2 knowledge toggles and
the Section 4 compaction switches, so a whole experiment is reproducible
from one value::

    from repro import FlowConfig, generation_flow

    cfg = FlowConfig(seed=1, num_chains=2, max_omission_passes=2)
    flow = generation_flow(circuit, cfg)

Every field says *what* to compute: each one either changes result bits
(and is part of :func:`repro.cache.fingerprint.run_config_fingerprint`)
or is a deployment setting (``cache_dir``, ``run_index`` and the ignored
``jobs``).  How to simulate — backend, checkpoint spacing — is chosen
by the simulation layer itself and never changes a result bit.

``FlowConfig`` is frozen; derive variants with :meth:`FlowConfig.replace`
(a thin wrapper over :func:`dataclasses.replace`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ..atpg.seq_atpg import SeqATPGConfig


@dataclass(frozen=True)
class FlowConfig:
    """Immutable configuration for the end-to-end flows."""

    #: Master seed; also seeds the ATPG/baseline configs unless they are
    #: given explicitly.
    seed: int = 0
    #: Scan chains inserted into the circuit under test.
    num_chains: int = 1
    #: Run Section 4 compaction (restoration then omission).
    compact: bool = True
    #: Prove aborted targets redundant with exhaustive PODEM on the
    #: combinational view (generation flow only; faults past a
    #: ``max_targeted_faults`` cap were never targeted and get no proof).
    classify_redundant: bool = True
    #: Enable the Section 2 scan-out completion.
    use_scan_knowledge: bool = True
    #: Enable the PODEM + scan-in justification completion.
    use_justification: bool = True
    #: PODEM backtrack budget for the redundancy proofs.
    redundancy_backtrack_limit: int = 20000
    #: Omission sweeps over the sequence (1 = single backward pass).
    max_omission_passes: int = 1
    #: Accepted (``>= 0``) and ignored: flows always simulate in one
    #: process.  Kept so existing configs that set it, such as the
    #: flow benchmark's ``FlowConfig(jobs=2)``, still construct.
    jobs: int = 0
    #: Root directory of the content-addressed result store (see
    #: :mod:`repro.cache`).  ``None`` defers to the ``REPRO_CACHE``
    #: environment variable; empty/unset both means caching off.  A
    #: deployment setting that cannot change result bits — warm runs
    #: are bit-identical to cold ones.
    cache_dir: Optional[str] = None
    #: Run-history index database (see :mod:`repro.obs.history`):
    #: every finished flow appends one run record there.  ``None``
    #: defers to the ``REPRO_RUN_INDEX`` environment variable;
    #: empty/unset both means history off.  Another deployment setting
    #: that cannot change result bits — the index is
    #: corruption-tolerant and never a point of failure.
    run_index: Optional[str] = None
    #: Sequential ATPG engine configuration; ``None`` derives one from
    #: ``seed`` (generation flow only).
    atpg: Optional[SeqATPGConfig] = None
    #: Conventional second-approach ATPG configuration; ``None`` derives
    #: one from ``seed`` (translation flow only).
    baseline: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.max_omission_passes < 1:
            raise ValueError("max_omission_passes must be >= 1")
        if self.num_chains < 1:
            raise ValueError("num_chains must be >= 1")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (it is ignored)")

    def replace(self, **changes: Any) -> "FlowConfig":
        """A copy with ``changes`` applied (the config is frozen)."""
        return dataclasses.replace(self, **changes)

    def atpg_config(self) -> SeqATPGConfig:
        """The effective sequential-ATPG configuration."""
        return self.atpg or SeqATPGConfig(seed=self.seed)

    def effective_cache_dir(self):
        """``cache_dir`` with the ``None -> REPRO_CACHE -> off`` rule
        applied (see :func:`repro.cache.resolve_cache_dir`); a
        :class:`pathlib.Path` or ``None``."""
        from ..cache.store import resolve_cache_dir

        return resolve_cache_dir(self.cache_dir)

    def result_store(self):
        """A :class:`repro.cache.ResultStore` over the effective cache
        directory, or ``None`` when caching is off."""
        root = self.effective_cache_dir()
        if root is None:
            return None
        from ..cache.store import ResultStore

        return ResultStore(root)

    def effective_run_index(self):
        """``run_index`` with the ``None -> REPRO_RUN_INDEX -> off``
        rule applied (see :func:`repro.obs.history.resolve_run_index`);
        a :class:`pathlib.Path` or ``None``."""
        from ..obs.history import resolve_run_index

        return resolve_run_index(self.run_index)

