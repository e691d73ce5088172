"""The program surface the flow benchmark (``benchmarks/flow/``) uses.

The benchmark is frozen: it wraps named callables for its per-layer
attribution and builds its own ``FlowConfig`` objects.  A deletion in
``src`` that breaks either would only show up when someone runs
``bench_flow.py --trace 1``; these tests catch it in tier-1.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

FLOW_BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "flow"


def _load(name: str):
    """Import ``benchmarks/flow/<name>.py`` under a private module name
    (registered first: its dataclasses resolve their module by name)."""
    qualified = f"_flow_bench_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualified, FLOW_BENCH / f"{name}.py")
        sys.modules[qualified] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[qualified])
    return sys.modules[qualified]


def _layer_targets():
    tracer = _load("tracer")
    return sorted({target for targets, _counters in tracer.LAYERS.values()
                   for target in targets})


@pytest.mark.parametrize("target", _layer_targets())
def test_tracer_layer_target_resolves(target):
    """Every ``module:qualname`` the tracer wraps is a plain function
    in its owner's namespace, as ``Tracer.__enter__`` requires."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    assert callable(vars(owner)[attr]), target


@pytest.mark.parametrize("workload", ["ladder", "corpus_preset",
                                      "warm_replay"])
def test_workload_configs_construct(workload, tmp_path):
    """Each workload's ``FlowConfig`` (``corpus_preset`` passes
    ``jobs=2`` and the corpus-scale overrides) still constructs."""
    flowpass = _load("flowpass")
    wl = flowpass.workload(workload)
    for circuit in wl.circuits:
        config = flowpass._config(wl, circuit, 1, str(tmp_path))
        assert config.jobs == wl.jobs
