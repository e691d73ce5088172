"""Load benchmark for the ATPG service (``repro-atpg serve``).

Starts an in-process :class:`repro.serve.ReproServer`, then drives it
the way a busy CI fleet would:

* **Load phase** — ``CLIENTS`` threads each fire ``PER_CLIENT``
  submissions, cycling over ``DISTINCT_SEEDS`` distinct s27 configs.
  Most submissions are duplicates of work that is already in flight or
  already cached, so the server must collapse them: exactly one
  execution per distinct config, everything else answered by dedup or
  cache replay.
* **Warm phase** — one client resubmits the same job ``WARM_PROBES``
  times and records per-request latency.  The acceptance bar from the
  service issue is asserted here: **warm cache-hit p99 < 250 ms** on an
  s27-class circuit.

The report prints throughput, the measured dedup ratio, and the warm
p50/p99.  Run as a script (``python benchmarks/bench_serve_load.py
--metrics-out BENCH_serve.json``) it writes the metrics artifact — the
committed ``BENCH_serve.json`` baseline that CI diffs fresh runs
against.  Deterministic admission counters (``serve.queued``,
``serve.started``, ``serve.completed``) gate at 0%; the dedup/cache
split of duplicate answers is timing-dependent, so only their *sum* is
asserted here and the individual counters stay ungated.
"""

import asyncio
import contextlib
import json
import statistics
import tempfile
import threading
import time

from repro.circuit.bench import write_bench
from repro.experiments import suite
from repro.serve import ReproServer, ServeClient, ServerConfig

from conftest import emit

CIRCUIT = "s27"
CLIENTS = 8
PER_CLIENT = 6
DISTINCT_SEEDS = (1, 2, 3)
WARM_PROBES = 40
WARM_SEED = DISTINCT_SEEDS[0]
CACHE_HIT_P99_CEILING = 0.250  # seconds — the issue's acceptance bar


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _start_server(state_dir):
    server = ReproServer(ServerConfig(
        port=0, workers=2, state_dir=state_dir, drain_timeout=30.0))
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()), daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while server.port == server.config.port:
        assert time.monotonic() < deadline, "server never bound"
        time.sleep(0.02)
    return server, thread


def run():
    from repro import obs

    bench_text = write_bench(suite.build_circuit(CIRCUIT))
    with contextlib.ExitStack() as ambient:
        # The server reports through the process-wide obs session; open
        # one here unless the caller (main below) already did.
        if obs.active() is None:
            ambient.enter_context(obs.session())
        return _run_load(bench_text)


def _run_load(bench_text):
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as state:
        server, thread = _start_server(state)
        try:
            results = []
            errors = []

            def client_run(index):
                client = ServeClient("127.0.0.1", server.port)
                try:
                    for shot in range(PER_CLIENT):
                        seed = DISTINCT_SEEDS[
                            (index + shot) % len(DISTINCT_SEEDS)]
                        reply = client.submit(
                            bench_text, config={"seed": seed})
                        reply = client.wait(reply["job_id"], timeout=60)
                        results.append(reply)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            started = time.perf_counter()
            threads = [threading.Thread(target=client_run, args=(i,))
                       for i in range(CLIENTS)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join()
            load_seconds = time.perf_counter() - started
            assert not errors, errors

            warm_client = ServeClient("127.0.0.1", server.port)
            warm_latencies = []
            for _ in range(WARM_PROBES):
                probe_start = time.perf_counter()
                reply = warm_client.submit(
                    bench_text, config={"seed": WARM_SEED})
                assert reply["status"] == "done", reply
                assert reply["source"] == "cache", reply
                warm_latencies.append(time.perf_counter() - probe_start)

            stats = warm_client.stats()
        finally:
            server.request_shutdown()
            thread.join(timeout=60)
            assert not thread.is_alive(), "server failed to drain"
    return results, load_seconds, warm_latencies, stats


def check(results, warm_latencies, stats):
    counters = stats["metrics"]["counters"]
    total = CLIENTS * PER_CLIENT
    assert len(results) == total, len(results)
    assert all(reply["status"] == "done" for reply in results)
    # Exactly one execution per distinct config; every other answer came
    # from in-flight dedup or the cache.
    assert counters["serve.started"] == len(DISTINCT_SEEDS), counters
    duplicates = (counters.get("serve.deduped", 0)
                  + counters.get("serve.cache_hits", 0))
    assert duplicates == total - len(DISTINCT_SEEDS) + WARM_PROBES, counters
    # One tenant: each job's worker writes its flow entry in its own
    # process, and the daemon copies entries only to other tenants, so
    # the daemon itself stores nothing.
    assert counters.get("cache.stores", 0) == 0, counters
    # Every answer for the same job — executed, deduped, or replayed —
    # is bit-identical.
    by_job = {}
    for reply in results:
        canon = json.dumps(reply["result"], sort_keys=True)
        assert by_job.setdefault(reply["job_id"], canon) == canon, \
            f"results diverged for {reply['job_id']}"
    p99 = _percentile(warm_latencies, 0.99)
    assert p99 < CACHE_HIT_P99_CEILING, (
        f"warm cache-hit p99 {p99 * 1000:.1f} ms breaches the "
        f"{CACHE_HIT_P99_CEILING * 1000:.0f} ms ceiling")


def report_lines(results, load_seconds, warm_latencies, stats):
    counters = stats["metrics"]["counters"]
    total = CLIENTS * PER_CLIENT
    executed = counters["serve.started"]
    dedup_ratio = (total - executed) / total
    p50 = _percentile(warm_latencies, 0.50)
    p99 = _percentile(warm_latencies, 0.99)
    return [
        f"Serve load on {CIRCUIT}: {CLIENTS} clients x {PER_CLIENT} "
        f"submissions, {len(DISTINCT_SEEDS)} distinct configs",
        f"  load phase : {total} jobs in {load_seconds:6.2f} s "
        f"({total / load_seconds:6.1f} jobs/s)",
        f"  executions : {executed} "
        f"(dedup ratio {dedup_ratio:.2f}; "
        f"deduped {counters.get('serve.deduped', 0)}, "
        f"cache hits {counters.get('serve.cache_hits', 0)})",
        f"  warm cache : {WARM_PROBES} probes, "
        f"p50 {p50 * 1000:6.1f} ms, p99 {p99 * 1000:6.1f} ms "
        f"(ceiling {CACHE_HIT_P99_CEILING * 1000:.0f} ms)",
        f"  mean warm  : {statistics.mean(warm_latencies) * 1000:6.1f} ms",
    ]


def bench_serve_load(benchmark, report_dir):
    results, load_seconds, warm, stats = benchmark.pedantic(
        run, rounds=1, iterations=1)
    check(results, warm, stats)
    emit(report_dir, "serve_load",
         "\n".join(report_lines(results, load_seconds, warm, stats)))


def main(argv=None):
    """Standalone baseline producer for the diff-metrics CI gate."""
    import argparse

    from repro import obs

    parser = argparse.ArgumentParser(
        description="drive the serve daemon with concurrent duplicate "
                    "load and write the metrics artifact")
    parser.add_argument("--metrics-out", metavar="FILE", required=True)
    args = parser.parse_args(argv)
    from conftest import record_bench

    started = time.perf_counter()
    # The obs session is process-wide, so the server thread's admission
    # counters land in this telemetry and ship in the artifact.
    with obs.session() as telemetry:
        with obs.span("bench_serve"):
            results, load_seconds, warm, stats = run()
    record_bench(telemetry, "serve_load", CIRCUIT,
                 time.perf_counter() - started)
    check(results, warm, stats)
    print("\n".join(report_lines(results, load_seconds, warm, stats)))
    obs.write_metrics_json(args.metrics_out, telemetry,
                           meta={"bench": "serve_load", "circuit": CIRCUIT})
    print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
