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
    for method in ("reset", "step", "run", "save_state", "restore_state",
                   "detects_all", "detecting_outputs", "faults_from_mask"):
        assert hasattr(repro.SimBackend, method), method
        assert hasattr(repro.PackedFaultSimulator, method), method


def test_packed_backend_satisfies_protocol():
    from repro.faults import collapse_faults

    circuit = repro.s27()
    sim = repro.make_backend(circuit, collapse_faults(circuit), "packed")
    assert isinstance(sim, repro.SimBackend)


def test_parallel_surface_is_the_pool():
    """Flows simulate in one process: the package root exports the
    process pool, not a fault-sharded engine."""
    assert "ResilientPool" in repro.__all__
    assert "ParallelFaultSim" not in repro.__all__
