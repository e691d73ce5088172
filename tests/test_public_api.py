"""The package-root public surface (repro.__all__) is the contract."""

import os
import subprocess
import sys
import textwrap

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
    """Flows simulate in one process: the process pool is reached from
    ``repro.parallel`` only, and there is no fault-sharded engine.
    Deleted engines and helpers that no flow or command reached stay
    out of the surface too, at the root and in their former
    subpackages, and ``repro.obs`` re-exports only its emit API: every
    other telemetry name has one import path, its own module."""
    import importlib

    import repro.parallel

    assert "ResilientPool" in repro.parallel.__all__
    removed = [
        ("repro", "ResilientPool"),
        ("repro.obs", "new_span_id"),
        ("repro.obs", "RunIndex"),
        ("repro.obs", "run_config_fingerprint"),
        ("repro.obs", "read_journal"),
        ("repro.obs", "write_metrics_json"),
        ("repro.obs", "diff_metrics"),
        ("repro.obs", "explain_fault"),
        ("repro.obs", "JournalFollower"),
        ("repro.obs", "export_chrome_trace"),
        ("repro.obs", "MetricsRegistry"),
        ("repro.obs", "SpanLog"),
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
        ("repro.cache", "LayeredResultStore"),
        ("repro.cache", "open_store"),
        ("repro.cache", "write_namespace"),
        ("repro.cache", "NAMESPACE_FILE"),
        ("repro.cache", "NAMESPACE_SCHEMA"),
        ("repro.serve", "tenant_cache_dir"),
        ("repro.serve", "tenant_store"),
        ("repro.faults", "dominance_reduce"),
        ("repro.parallel", "default_start_method"),
        ("repro", "compute_testability"),
        ("repro.analysis", "compute_testability"),
        ("repro.analysis", "hardest_nets"),
        ("repro.analysis", "Testability"),
        ("repro.analysis", "INFINITY"),
        ("repro.obs", "timed"),
        ("repro", "CombScanATPG"),
        ("repro.atpg", "CombScanATPG"),
        ("repro.atpg", "CombScanATPGResult"),
        ("repro", "reverse_order_compact"),
        ("repro.compaction", "reverse_order_compact"),
        ("repro.compaction", "trim_test_tails"),
    ]
    for module, name in removed:
        assert name not in repro.__all__, name
        assert name not in importlib.import_module(module).__all__, name
    assert sorted(repro.obs.__all__) == sorted([
        "Telemetry", "session", "active", "activate", "deactivate",
        "enabled", "incr", "set_gauge", "observe", "event", "coverage",
        "span", "stopwatch"])


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


def test_flows_load_no_run_index_pool_or_monitor():
    """A cold and a cached generation flow with no run index import
    neither the SQLite run index, the process pool, the service daemon,
    the metrics differ, the live monitor nor the report renderer; once
    the vector kernel library is built, nor ``subprocess``."""
    from repro.sim.backend import vector_available

    script = textwrap.dedent("""
        import sys, tempfile
        import repro
        from repro import FlowConfig, generation_flow, obs, s27

        with tempfile.TemporaryDirectory() as cache:
            cfg = FlowConfig(seed=1, cache_dir=cache)
            cold = generation_flow(s27(), cfg)
            with obs.session() as telemetry:
                warm = generation_flow(s27(), cfg)
            hits = telemetry.metrics.snapshot()["counters"].get("cache.hit")
        assert hits == 1, hits
        assert warm.omitted.sequence.vectors == cold.omitted.sequence.vectors
        print(" ".join(sorted(sys.modules)))
    """)
    # Build the kernel library here first; without a C compiler every
    # process tries the build again, so ``subprocess`` is not checked.
    library_built = vector_available()
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_RUN_INDEX", "REPRO_CACHE")}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "repro.core.pipeline" in loaded
    unwanted = {"sqlite3", "multiprocessing", "concurrent.futures",
                "platform", "repro.parallel", "repro.serve",
                "repro.obs.diff", "repro.obs.live", "repro.obs.report"}
    if library_built:
        unwanted.add("subprocess")
    assert not unwanted & loaded, sorted(unwanted & loaded)
