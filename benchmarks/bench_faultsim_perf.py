"""Throughput of the simulation substrate (the reproduction's hot path).

Not a paper table — this bench justifies DESIGN.md substitution 4: the
packed simulator's per-vector cost grows with faults/64 words per gate,
so thousands of fault machines ride one pass.  Timed properly via
pytest-benchmark (multiple rounds) on three circuit scales plus the
scalar reference simulator and a PODEM run for contrast.

The ``vector`` backend (:mod:`repro.sim.kernel`) is benched against the
packed reference at every scale, and the s1423-class run asserts the
10x speedup floor whenever the compiled C engine is available.  Run
standalone (``python benchmarks/bench_faultsim_perf.py --metrics-out
BENCH_faultsim.json``) it executes the packed-vs-vector comparison
inside a telemetry session and writes the metrics artifact — that
produced the committed ``BENCH_faultsim.json`` baseline CI diffs fresh
runs against with ``repro-atpg diff-metrics``."""

import time

import pytest

from repro import obs
from repro.atpg import Podem, comb_view
from repro.circuit import insert_scan, random_circuit, s27
from repro.faults import collapse_faults
from repro.sim import LogicSimulator, PackedFaultSimulator, SimSession
from repro.sim.backend import make_backend, vector_available
from repro.sim.fault_sim import FaultSimResult, iter_fault_positions
from tests.util import random_vectors

SCALES = {
    "s298-class": (3, 14, 90),
    "s953-class": (16, 29, 300),
    "s1423-class": (17, 74, 450),
}


def _build(name):
    pis, ffs, gates = SCALES[name]
    circuit = insert_scan(random_circuit(name, pis, ffs, gates, seed=5)).circuit
    return circuit, collapse_faults(circuit)


@pytest.mark.parametrize("scale", sorted(SCALES))
def bench_packed_fault_sim(benchmark, scale):
    circuit, faults = _build(scale)
    sim = PackedFaultSimulator(circuit, faults)
    vectors = random_vectors(circuit, 32, seed=1)

    def run():
        sim.reset()
        for vector in vectors:
            sim.step(vector)

    benchmark(run)
    benchmark.extra_info["faults"] = len(faults)
    benchmark.extra_info["gates"] = circuit.num_gates


@pytest.mark.parametrize("scale", sorted(SCALES))
def bench_vector_fault_sim(benchmark, scale):
    if not vector_available():
        pytest.skip("vector backend unavailable (needs numpy + C engine)")
    circuit, faults = _build(scale)
    sim = make_backend(circuit, faults, "vector")
    vectors = random_vectors(circuit, 32, seed=1)

    def run():
        sim.reset()
        for vector in vectors:
            sim.step(vector)

    benchmark(run)
    benchmark.extra_info["faults"] = len(faults)


def bench_vector_speedup_floor(benchmark):
    """The tentpole claim: the vector backend is >= 10x the packed
    reference at the s1423 scale, with bit-identical detection maps."""
    if not vector_available():
        pytest.skip("vector backend unavailable (needs numpy + C engine)")
    circuit, faults = _build("s1423-class")
    vectors = random_vectors(circuit, 32, seed=1)
    packed = PackedFaultSimulator(circuit, faults)
    vector = make_backend(circuit, faults, "vector")

    ref = packed.run([list(v) for v in vectors])
    got = vector.run([list(v) for v in vectors])
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)

    def step_loop(sim):
        sim.reset()
        for vec in vectors:
            sim.step(vec)

    best = {}
    for name, sim in (("packed", packed), ("vector", vector)):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            step_loop(sim)
            times.append(time.perf_counter() - start)
        best[name] = min(times)

    speedup = best["packed"] / best["vector"]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["packed_ms"] = round(best["packed"] * 1000, 2)
    benchmark.extra_info["vector_ms"] = round(best["vector"] * 1000, 2)
    assert speedup >= 10.0, (
        f"vector backend only {speedup:.1f}x over packed at s1423-class "
        f"({best['packed'] * 1000:.1f} ms vs {best['vector'] * 1000:.1f} ms); "
        f"the tentpole floor is 10x")
    benchmark(lambda: step_loop(vector))


def bench_scalar_logic_sim(benchmark):
    circuit = insert_scan(random_circuit("scalar", 16, 29, 300, seed=5)).circuit
    sim = LogicSimulator(circuit)
    vectors = random_vectors(circuit, 32, seed=1)

    def run():
        sim.reset()
        for vector in vectors:
            sim.step(vector)

    benchmark(run)


def bench_podem_s27_scan(benchmark):
    circuit = insert_scan(s27()).circuit
    view = comb_view(circuit)
    faults = [
        f for f in collapse_faults(circuit)
        if not (f.consumer is not None and f.consumer in circuit.flop_by_q)
    ]

    def run():
        podem = Podem(view.circuit)
        return sum(1 for f in faults if podem.run(f).found)

    found = benchmark(run)
    assert found == len(faults)


def bench_fault_collapsing(benchmark):
    circuit = insert_scan(random_circuit("coll", 16, 29, 300, seed=5)).circuit
    result = benchmark(lambda: collapse_faults(circuit))
    assert result


def bench_session_incremental(benchmark):
    """Checkpointed session vs cycle-0 restarts on a compaction-shaped
    workload: one full detection-times pass, then a backward sweep of
    single-vector-omission trials (the access pattern of
    ``omission_compact``)."""
    circuit, faults = _build("s298-class")
    vectors = random_vectors(circuit, 48, seed=2)
    trials = [vectors[:i] + vectors[i + 1:] for i in range(47, 31, -1)]

    def workload(incremental):
        session = SimSession(circuit, faults, incremental=incremental)
        session.detection_times(vectors)
        for trial in trials:
            session.detected_mask(trial)
        return session.cycles_simulated

    incremental_cycles = workload(True)
    restart_cycles = workload(False)
    assert incremental_cycles < restart_cycles
    benchmark.extra_info["incremental_cycles"] = incremental_cycles
    benchmark.extra_info["restart_cycles"] = restart_cycles
    benchmark(lambda: workload(True))


def bench_telemetry_off_overhead(benchmark):
    """Guard the zero-cost-by-default promise of ``repro.obs``.

    Runs the instrumented ``PackedFaultSimulator.run`` against a replica
    of the same loop with the telemetry hooks removed and asserts the
    disabled hooks cost < 2% (min-of-N, interleaved to cancel drift).
    """
    circuit, faults = _build("s953-class")
    sim = PackedFaultSimulator(circuit, faults)
    vectors = random_vectors(circuit, 32, seed=1)

    def instrumented():
        return sim.run(vectors)

    def replica():
        # PackedFaultSimulator.run() with the obs hooks stripped.
        sim.reset()
        result = FaultSimResult(faults=list(sim.faults))
        faults = sim.faults
        detection_time = result.detection_time
        remaining = sim.fault_mask
        for t, vector in enumerate(vectors):
            newly = sim.step(vector) & remaining
            if newly:
                remaining &= ~newly
                for position in iter_fault_positions(newly):
                    detection_time[faults[position]] = t
            result.num_vectors = t + 1
        return result

    assert not obs.enabled()
    assert instrumented().detection_time == replica().detection_time

    best_instrumented = best_replica = None
    for _ in range(9):
        start = time.perf_counter()
        instrumented()
        elapsed = time.perf_counter() - start
        if best_instrumented is None or elapsed < best_instrumented:
            best_instrumented = elapsed
        start = time.perf_counter()
        replica()
        elapsed = time.perf_counter() - start
        if best_replica is None or elapsed < best_replica:
            best_replica = elapsed

    overhead = best_instrumented / best_replica - 1.0
    benchmark.extra_info["overhead_percent"] = round(100.0 * overhead, 3)
    assert overhead < 0.02, (
        f"disabled telemetry hooks cost {100.0 * overhead:.2f}% "
        f"(budget 2%): {best_instrumented:.6f}s vs {best_replica:.6f}s"
    )
    benchmark(instrumented)


def run_backend_comparison():
    """One packed and one vector run() at the s1423 scale; returns the
    two results and the wall-clock seconds per backend."""
    circuit, faults = _build("s1423-class")
    vectors = [list(v) for v in random_vectors(circuit, 32, seed=1)]
    results, seconds = {}, {}
    for name in ("packed", "vector"):
        sim = make_backend(circuit, faults, name)
        with obs.span(f"bench_faultsim.{name}"):
            start = time.perf_counter()
            results[name] = sim.run(vectors)
            seconds[name] = time.perf_counter() - start
    assert results["vector"].detection_time == \
        results["packed"].detection_time
    assert list(results["vector"].detection_time) == \
        list(results["packed"].detection_time)
    return len(faults), results, seconds


def main(argv=None):
    """Standalone baseline producer for the diff-metrics CI gate."""
    import argparse

    parser = argparse.ArgumentParser(
        description="run the packed-vs-vector fault-sim comparison under "
                    "telemetry and write the metrics artifact")
    parser.add_argument("--metrics-out", metavar="FILE", required=True)
    args = parser.parse_args(argv)
    if not vector_available():
        print("vector backend unavailable (needs numpy + a C compiler); "
              "this gate requires it")
        return 2
    from conftest import record_bench

    started = time.perf_counter()
    with obs.session() as telemetry:
        with obs.span("bench_faultsim"):
            num_faults, results, seconds = run_backend_comparison()
        speedup = seconds["packed"] / seconds["vector"]
        telemetry.set_gauge("faultsim.bench.speedup", round(speedup, 2))
    record_bench(telemetry, "faultsim", "s1423-class",
                 time.perf_counter() - started, backend="vector")
    detected = len(results["packed"].detection_time)
    print(f"s1423-class: {num_faults} collapsed faults, 32 cycles, "
          f"detected {detected}/{num_faults}")
    print(f"  packed {seconds['packed'] * 1000:8.1f} ms")
    print(f"  vector {seconds['vector'] * 1000:8.1f} ms   {speedup:.1f}x")
    obs.write_metrics_json(args.metrics_out, telemetry,
                           meta={"bench": "faultsim", "scale": "s1423-class"})
    print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
