"""The package-root public surface (repro.__all__) is the contract."""

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_key_entry_points_exported():
    for name in ("FlowConfig", "generation_flow", "translation_flow",
                 "SimSession", "PackedFaultSimulator", "CompactionOracle",
                 "GenerationFlowResult", "TranslationFlowResult",
                 "OmissionResult", "RestorationResult"):
        assert name in repro.__all__


def test_no_duplicate_all_entries():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_sim_backend_surface_exported():
    for name in ("SimBackend", "make_backend", "BACKEND_AUTO",
                 "BACKEND_PACKED", "BACKEND_VECTOR", "BACKEND_NAMES"):
        assert name in repro.__all__
    assert repro.BACKEND_AUTO == "auto"
    assert repro.BACKEND_NAMES == (repro.BACKEND_PACKED, repro.BACKEND_VECTOR)


def test_sim_backend_protocol_methods_pinned():
    """The SimBackend protocol is the cross-backend contract; renaming a
    method is an API break and must show up here."""
    for method in ("reset", "step", "query", "run", "save_state",
                   "restore_state", "detects_all", "detecting_outputs",
                   "faults_from_mask"):
        assert hasattr(repro.SimBackend, method), method
        assert hasattr(repro.PackedFaultSimulator, method), method


def test_packed_backend_satisfies_protocol():
    from repro.faults import collapse_faults

    circuit = repro.s27()
    sim = repro.make_backend(circuit, collapse_faults(circuit), "packed")
    assert isinstance(sim, repro.SimBackend)


def test_parallel_surface_is_the_pool():
    """Flows simulate in one process: the package root exports the
    process pool, not a fault-sharded engine.  Deleted engines and
    helpers that no flow or command reached stay out of the surface
    too, at the root and in their former subpackages."""
    import importlib

    assert "ResilientPool" in repro.__all__
    removed = [
        ("repro.parallel", "ParallelFaultSim"),
        ("repro.atpg", "TimeFrameATPG"),
        ("repro.atpg", "unroll"),
        ("repro.sim", "PackedPatternSimulator"),
        ("repro.obs", "compare_records"),
        ("repro.analysis", "random_testability"),
        ("repro.obs", "progress_snapshot"),
        ("repro.obs", "follow_journal"),
        ("repro.circuit", "eval_gate_packed"),
        ("repro.obs", "render_openmetrics"),
        ("repro.obs", "parse_openmetrics"),
        ("repro.obs", "write_textfile"),
        ("repro.obs", "rotated_journal_path"),
        ("repro.sim", "PackedTransitionSimulator"),
        ("repro.faults", "TransitionFault"),
        ("repro.faults", "enumerate_transition_faults"),
        ("repro.faults", "slow_to_rise"),
        ("repro.faults", "slow_to_fall"),
    ]
    for module, name in removed:
        assert name not in repro.__all__, name
        assert name not in importlib.import_module(module).__all__, name


def test_no_constructor_takes_a_simulator_factory():
    """Simulators come from backend selection only: no public class
    accepts a custom ``simulator_factory``, and the stuck-at ``Fault``
    carries no fault-model-agnostic alias of its value."""
    import inspect

    exported = [getattr(repro, name) for name in repro.__all__]
    classes = [obj for obj in exported
               if inspect.isclass(obj) and not issubclass(obj, Exception)]
    for cls in (repro.SequentialATPG, repro.ScanAwareATPG, repro.SimSession,
                repro.CompactionOracle):
        assert cls in classes
    for cls in classes:
        params = inspect.signature(cls).parameters
        assert "simulator_factory" not in params, cls.__name__
    assert not hasattr(repro.Fault, "held_value")
