"""Big-circuit corpus identity gate (the 10k-gate scale guarantee).

Not a paper table — this bench pins the bit-identity promise the
``big-circuit-smoke`` CI job relies on, at real corpus scale
(``synth_like("s15850")``: 9772 gates, 534 flops, 41k collapsed faults
after scan insertion) but on bounded sequences so the whole gate stays
in the tens of seconds:

* **packed vs vector** — both standard backends ``run()`` the same
  bounded sequence over the *full* fault universe and must produce the
  same detection map in the same order.
* **session** — one :class:`SimSession` ``detection_times`` query, the
  full-universe query the compaction oracle issues, timed and counted
  at this scale.

Run standalone (``python benchmarks/bench_corpus.py --metrics-out
BENCH_corpus.json``) it executes both legs inside a telemetry session
and writes the metrics artifact — that produced the committed
``BENCH_corpus.json`` baseline the ``big-circuit-smoke`` job diffs
fresh runs against with ``repro-atpg diff-metrics`` (cycle counts and
backend builds are deterministic and gate at 0%).
"""

import random
import time

from repro import obs
from repro.circuit import insert_scan
from repro.circuit.corpus import synth_like
from repro.faults import collapse_faults
from repro.sim import SimSession
from repro.sim.backend import make_backend, vector_available

CIRCUIT = "s15850"
#: Bounded sequence for the packed-vs-vector identity (packed pays
#: ~0.25 s per vector at 41k faults; 16 keeps the pair under 10 s).
IDENTITY_VECTORS = 16
#: Bounded sequence for the session query.
SESSION_VECTORS = 48


def _build():
    circuit = insert_scan(synth_like(CIRCUIT)).circuit
    return circuit, collapse_faults(circuit)


def _vectors(circuit, count, seed):
    rng = random.Random(seed)
    return [
        [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(count)
    ]


def run():
    """The identity comparison and the session query; returns per-leg
    wall seconds."""
    circuit, faults = _build()
    seconds = {}

    vectors = _vectors(circuit, IDENTITY_VECTORS, seed=7)
    results = {}
    for name in ("packed", "vector"):
        sim = make_backend(circuit, faults, name)
        with obs.span(f"bench_corpus.{name}"):
            start = time.perf_counter()
            results[name] = sim.run([list(v) for v in vectors])
            seconds[name] = time.perf_counter() - start
    assert results["vector"].detection_time == \
        results["packed"].detection_time
    assert list(results["vector"].detection_time) == \
        list(results["packed"].detection_time), "dict order diverged"

    vectors = _vectors(circuit, SESSION_VECTORS, seed=8)
    session = SimSession(circuit, faults)
    with obs.span("bench_corpus.serial"):
        start = time.perf_counter()
        serial = session.detection_times(vectors)
        seconds["serial"] = time.perf_counter() - start
    session.close()

    return circuit, faults, len(results["packed"].detection_time), \
        len(serial), seconds


def report_lines(circuit, faults, identity_detected, session_detected,
                 seconds):
    return [
        f"Corpus identity gate on corpus:{CIRCUIT}: "
        f"{circuit.num_gates} gates, {len(faults)} collapsed faults",
        f"  packed vs vector ({IDENTITY_VECTORS} cycles, "
        f"detected {identity_detected}): "
        f"packed {seconds['packed'] * 1000:8.1f} ms   "
        f"vector {seconds['vector'] * 1000:8.1f} ms   bit-identical",
        f"  session detection_times ({SESSION_VECTORS} cycles, "
        f"detected {session_detected}): "
        f"serial {seconds['serial'] * 1000:8.1f} ms",
    ]


def bench_corpus_identity(benchmark, report_dir):
    import pytest

    from conftest import emit

    if not vector_available():
        pytest.skip("vector backend unavailable (needs a C compiler)")
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report_dir, "corpus_identity", "\n".join(report_lines(*out)))


def main(argv=None):
    """Standalone baseline producer for the diff-metrics CI gate."""
    import argparse

    from repro.obs.report import write_metrics_json

    parser = argparse.ArgumentParser(
        description="run the corpus-scale identity comparisons under "
                    "telemetry and write the metrics artifact")
    parser.add_argument("--metrics-out", metavar="FILE", required=True)
    args = parser.parse_args(argv)
    if not vector_available():
        print("vector backend unavailable (needs a C compiler); "
              "this gate requires it")
        return 2

    started = time.perf_counter()
    with obs.session() as telemetry:
        with obs.span("bench_corpus"):
            circuit, faults, identity_detected, session_detected, \
                seconds = run()
    try:
        from conftest import record_bench
    except ImportError:  # run from outside benchmarks/
        record_bench = None
    if record_bench is not None:
        record_bench(telemetry, "corpus", f"corpus:{CIRCUIT}",
                     time.perf_counter() - started)
    print("\n".join(report_lines(circuit, faults, identity_detected,
                                 session_detected, seconds)))
    write_metrics_json(args.metrics_out, telemetry,
                       meta={"bench": "corpus",
                             "circuit": f"corpus:{CIRCUIT}"})
    print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
