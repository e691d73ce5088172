"""Tests for repro.serve — queue fairness, dedup keys, tenant stores,
the live daemon (dedup/cache/SSE/back-pressure), budgets and graceful
shutdown.

The dedup guarantee is the heart: a submission may set only the config
fields that change result bits, each with its exact JSON type, so every
accepted payload has one job fingerprint; concurrent identical
submissions share one execution, and cache replays are bit-identical
to the original run.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cache.store import ResultStore
from repro.circuit import s27
from repro.circuit.bench import write_bench
from repro.core.config import FlowConfig
from repro.obs.journal import read_journal
from repro.serve import (
    DEFAULT_TENANT,
    FairQueue,
    QueueFull,
    ReproServer,
    ServeClient,
    ServeError,
    ServerConfig,
    SubmissionError,
    job_fingerprints,
    parse_submission,
    tenant_cache_dir,
    tenant_store,
    valid_tenant,
)
from repro.serve.jobs import canonical_submission, run_job

S27_BENCH = write_bench(s27())


def submission(config=None, flow="generation", bench=S27_BENCH):
    return {"circuit": {"bench": bench, "name": "s27"},
            "flow": flow, "config": config or {}}


# -- fair queue ---------------------------------------------------------------


def test_fair_queue_fifo_within_tenant():
    queue = FairQueue()
    for item in "abc":
        queue.push("t1", item)
    assert [queue.pop(0)[1] for _ in range(3)] == ["a", "b", "c"]
    assert queue.pop(timeout=0.01) is None


def test_fair_queue_round_robin_across_tenants():
    queue = FairQueue()
    for item in range(3):
        queue.push("big", f"big{item}")
    queue.push("small", "small0")
    order = [queue.pop(0) for _ in range(4)]
    tenants = [tenant for tenant, _ in order]
    # The 1-deep tenant is served on the first rotation, not after the
    # burst.
    assert tenants.index("small") == 1
    assert [item for tenant, item in order if tenant == "big"] == \
        ["big0", "big1", "big2"]


def test_fair_queue_weights():
    queue = FairQueue()
    queue.set_weight("heavy", 2)
    for item in range(4):
        queue.push("heavy", f"h{item}")
        queue.push("light", f"l{item}")
    tenants = [queue.pop(0)[0] for _ in range(6)]
    # heavy takes 2 consecutive slots per turn, light takes 1.
    assert tenants == ["heavy", "heavy", "light", "heavy", "heavy", "light"]


def test_fair_queue_depth_limit_raises():
    queue = FairQueue(max_depth=2)
    queue.push("t", 1)
    queue.push("t", 2)
    with pytest.raises(QueueFull) as excinfo:
        queue.push("t", 3)
    assert excinfo.value.tenant == "t"
    assert queue.push("other", 1) == 1  # other tenants unaffected


def test_fair_queue_close_wakes_and_drains():
    queue = FairQueue()
    queue.push("t", "left-behind")
    results = []
    waiter = threading.Thread(
        target=lambda: (queue.pop(0), results.append(queue.pop(None))))
    waiter.start()
    time.sleep(0.05)
    queue.close()
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert results == [None]
    with pytest.raises(RuntimeError):
        queue.push("t", "rejected")
    assert queue.drain() == []  # popped before close; nothing left


def test_fair_queue_drain_returns_leftovers():
    queue = FairQueue()
    queue.push("a", 1)
    queue.push("b", 2)
    queue.close()
    assert sorted(queue.drain()) == [("a", 1), ("b", 2)]
    assert queue.depth() == 0


# -- the dedup key (satellite: property test) ---------------------------------

#: Deployment settings the server chooses itself (run_job overrides
#: cache_dir and run_index); clients cannot set them.
SERVER_SETTINGS = {
    "jobs": 4,
    "cache_dir": "/tmp/some-cache",
    "run_index": "/tmp/some-index.sqlite",
}

SEMANTIC_KNOBS = {
    "seed": 7,
    "num_chains": 2,
    "compact": False,
    "classify_redundant": False,
    "use_scan_knowledge": False,
    "use_justification": False,
    "redundancy_backtrack_limit": 5,
    "max_omission_passes": 3,
}


def test_speed_knobs_do_not_move_the_job_fingerprint():
    circuit, cfg, flow = parse_submission(submission())
    base = job_fingerprints(circuit, cfg, flow)
    for knob, value in SERVER_SETTINGS.items():
        varied = job_fingerprints(circuit, cfg.replace(**{knob: value}),
                                  flow)
        assert varied == base, f"server setting {knob} moved the dedup key"


@pytest.mark.parametrize("config, message", [
    # bool is an int subclass: true would run as seed 1 under its own key
    ({"seed": True}, "'seed' must be a JSON integer"),
    ({"seed": "x"}, "'seed' must be a JSON integer"),
    ({"num_chains": 1.0}, "'num_chains' must be a JSON integer"),
    ({"max_omission_passes": None}, "'max_omission_passes' must be a JSON"),
    ({"compact": "no"}, "'compact' must be a JSON boolean"),
    ({"use_justification": 0}, "'use_justification' must be a JSON boolean"),
    # deployment settings are the server's, deleted knobs are gone
    ({"jobs": 2}, "unknown config field"),
    ({"cache_dir": "/tmp/x"}, "unknown config field"),
    ({"run_index": "runs.sqlite"}, "unknown config field"),
    ({"checkpoint_interval": 9}, "unknown config field"),
    ({"incremental": False}, "unknown config field"),
    ({"sim_backend": "packed"}, "unknown config field"),
])
def test_parse_submission_rejects_mistyped_and_unknown_fields(config,
                                                              message):
    with pytest.raises(SubmissionError, match=message):
        parse_submission(submission(config))


def test_semantic_knobs_split_the_job_fingerprint():
    base = job_fingerprints(*parse_submission(submission()))
    seen = {base}
    for knob, value in SEMANTIC_KNOBS.items():
        varied = job_fingerprints(
            *parse_submission(submission({knob: value})))
        assert varied != base, f"semantic knob {knob} did not split the key"
        seen.add(varied)
    # Every semantic variation is distinct from every other.
    assert len(seen) == len(SEMANTIC_KNOBS) + 1


def test_flow_splits_the_job_fingerprint():
    gen = job_fingerprints(*parse_submission(submission()))
    trans = job_fingerprints(
        *parse_submission(submission(flow="translation")))
    assert gen != trans


def test_netlist_form_matches_bench_form():
    circuit = s27()
    netlist = {
        "name": circuit.name,
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "gates": [[g.output, g.kind, list(g.inputs)]
                  for g in circuit.gates],
        "flops": [[f.q, f.d] for f in circuit.flops],
    }
    via_bench = job_fingerprints(*parse_submission(submission()))
    via_netlist = job_fingerprints(*parse_submission(
        {"circuit": {"netlist": netlist}, "config": {}}))
    assert via_bench == via_netlist


def test_parse_submission_rejects_garbage():
    with pytest.raises(SubmissionError):
        parse_submission(["not", "an", "object"])
    with pytest.raises(SubmissionError, match="unknown config field"):
        parse_submission(submission({"bogus_knob": 1}))
    with pytest.raises(SubmissionError, match="unknown flow"):
        parse_submission(submission(flow="mystery"))
    with pytest.raises(SubmissionError, match="exactly one"):
        parse_submission({"circuit": {}, "config": {}})
    with pytest.raises(SubmissionError, match="bad circuit"):
        parse_submission(submission(bench="y = NOT("))
    with pytest.raises(SubmissionError, match="bad config"):
        parse_submission(submission({"num_chains": 0}))


def test_canonical_submission_round_trips():
    circuit, cfg, flow = parse_submission(
        submission({"seed": 3, "num_chains": 2, "compact": False}))
    canonical = canonical_submission(circuit, cfg, flow)
    again = parse_submission(canonical)
    assert job_fingerprints(*again) == job_fingerprints(circuit, cfg, flow)


# -- tenant stores ------------------------------------------------------------


def test_valid_tenant_names():
    assert valid_tenant("team-a")
    assert valid_tenant("Team.B_2")
    for bad in ("", ".", "..", "a/b", "../etc", "tenants", "-lead",
                "x" * 65):
        assert not valid_tenant(bad), bad


def test_default_tenant_uses_base_store(tmp_path):
    assert tenant_cache_dir(tmp_path, DEFAULT_TENANT) == tmp_path


def test_tenant_overlay_reads_through_and_isolates_writes(tmp_path):
    base = ResultStore(tmp_path)
    base.put("c" * 64, "f" * 64, {"from": "base"})
    overlay = tenant_store(tmp_path, "team-a")
    # Read-through: the tenant sees what the shared layer computed.
    assert overlay.get("c" * 64, "f" * 64) == {"from": "base"}
    # Writes stay inside the tenant's namespace.
    overlay.put("d" * 64, "e" * 64, {"from": "team-a"})
    assert base.get("d" * 64, "e" * 64) is None
    assert overlay.get("d" * 64, "e" * 64) == {"from": "team-a"}
    other = tenant_store(tmp_path, "team-b")
    assert other.get("d" * 64, "e" * 64) is None


# -- worker task --------------------------------------------------------------


def test_run_job_reports_failure_as_result(tmp_path):
    outcome = run_job({
        "job_id": "bad", "submission": {"circuit": {"bench": "y = NOT("}},
        "journal": str(tmp_path / "j.jsonl")})
    assert outcome["status"] == "failed"
    assert "bad circuit" in outcome["error"]


def test_run_job_wall_budget_interrupts(tmp_path):
    from repro.experiments import suite

    slow = write_bench(suite.build_circuit("s298"))
    outcome = run_job({
        "job_id": "slow",
        "submission": submission({"seed": 1}, bench=slow),
        "journal": str(tmp_path / "j.jsonl"),
        "wall_budget": 0.1,
    })
    assert outcome["status"] == "budget_exceeded"
    assert outcome["budget"]["breached"] == "wall"
    # The interrupted job still left a journal behind.
    assert (tmp_path / "j.jsonl").exists()


def test_in_process_budget_breach_is_recorded_not_signalled(tmp_path):
    """The serial fallback runs run_job inside the daemon process —
    a budget breach there must never deliver SIGINT (it would hit the
    server, not the job): the flow completes and the outcome carries an
    unenforced-budget note."""
    from repro.serve.app import _serial_run_job

    sigints = []
    recorder = lambda *a: sigints.append(a)  # noqa: E731
    previous = signal.signal(signal.SIGINT, recorder)
    try:
        outcome = _serial_run_job({
            "job_id": "serial",
            "submission": submission({"seed": 1}),
            "journal": str(tmp_path / "j.jsonl"),
            "wall_budget": 0.0001,   # breaches on the first poll
        })
        handler_after = signal.getsignal(signal.SIGINT)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not sigints, "in-process budget monitor raised SIGINT"
    assert outcome["status"] == "done"
    assert outcome["budget"] == {"breached": "wall", "enforced": False}
    # In-process runs must leave the caller's signal disposition alone.
    assert handler_after is recorder


# -- live daemon --------------------------------------------------------------


@pytest.fixture
def live_server(tmp_path):
    server = ReproServer(ServerConfig(
        port=0, workers=2, state_dir=str(tmp_path / "state"),
        drain_timeout=15.0))
    started = threading.Event()

    def run():
        started.set()
        asyncio.run(server.run())

    with obs.session():
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while server.port == server.config.port:
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.02)
        try:
            yield server
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()


def test_concurrent_identical_submissions_share_one_execution(live_server):
    client = ServeClient("127.0.0.1", live_server.port)
    responses = []

    def fire():
        responses.append(client.submit(S27_BENCH, config={"seed": 5}))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    sources = sorted(r["source"] for r in responses)
    assert sources.count("new") == 1, sources
    assert all(s in ("new", "dedup", "cache") for s in sources)
    job_ids = {r["job_id"] for r in responses if r["source"] != "cache"}
    assert len(job_ids) == 1      # deduped submissions joined the job

    finals = [client.wait(r["job_id"]) for r in responses]
    assert all(f["status"] == "done" for f in finals)
    results = [f["result"] for f in finals]
    assert all(r == results[0] for r in results), "results not identical"

    # Exactly one execution: exactly one journal across all job dirs.
    jobs_dir = Path(live_server.config.state_dir) / "jobs"
    journals = list(jobs_dir.glob("*/journal.jsonl"))
    assert len(journals) == 1, journals

    counters = client.stats()["metrics"]["counters"]
    assert counters.get("serve.started", 0) == 1
    assert counters.get("serve.deduped", 0) + \
        counters.get("serve.cache_hits", 0) == 3


def test_warm_cache_hit_is_bit_identical_and_fast(live_server):
    client = ServeClient("127.0.0.1", live_server.port)
    first = client.submit(S27_BENCH, config={"seed": 9})
    assert first["source"] == "new"
    done = client.wait(first["job_id"])

    t0 = time.perf_counter()
    warm = client.submit(S27_BENCH, config={"seed": 9})
    elapsed = time.perf_counter() - t0
    assert warm["source"] == "cache"
    assert warm["result"] == done["result"]
    assert elapsed < 0.25, f"cache hit took {elapsed:.3f}s"
    counters = client.stats()["metrics"]["counters"]
    assert counters.get("serve.cache_hits", 0) >= 1
    assert counters.get("cache.hit", 0) >= 1
    # The job's result lives in one entry: the flow's own.
    fp = first["circuit_fp"]
    entries = sorted(live_server.cache_base.glob(f"{fp[:2]}/{fp}/*"))
    assert len(entries) == 1 and entries[0].name.startswith("flow-"), \
        entries


def test_daemon_replays_flow_entry_written_by_a_plain_flow(tmp_path):
    """A ``flow`` entry any flow run left in the daemon's base store
    answers a matching submission, for the default tenant and through
    a tenant overlay: no execution, and the result a fresh execution
    reports."""
    from repro.core.pipeline import generation_flow
    from repro.serve.jobs import _result_payload

    server = ReproServer(ServerConfig(
        port=0, workers=1, state_dir=str(tmp_path / "state")))
    body = submission({"seed": 4})
    circuit, cfg, flow = parse_submission(body)
    fresh = _result_payload(flow, generation_flow(circuit, cfg))
    generation_flow(circuit, cfg.replace(cache_dir=str(server.cache_base)))
    with obs.session() as telemetry:
        replies = [server.submit(body, tenant)
                   for tenant in (DEFAULT_TENANT, "team-a")]
        counters = telemetry.metrics.snapshot()["counters"]
    for status, reply in replies:
        assert status == 200 and reply["source"] == "cache", reply
        assert reply["result"] == fresh
    assert not counters.get("serve.pool.runs")
    assert not counters.get("serve.queued")
    assert counters.get("cache.hit") == 2


def test_sse_stream_follows_job_to_end(live_server):
    client = ServeClient("127.0.0.1", live_server.port)
    job = client.submit(S27_BENCH, config={"seed": 11})
    frames = list(client.events(job["job_id"]))
    kinds = [f["event"] for f in frames]
    assert kinds[-1] == "end"
    assert "journal" in kinds and "progress" in kinds
    assert frames[-1]["data"]["status"] == "done"
    assert frames[-1]["data"]["result"]["coverage"]["fault_coverage"] > 0
    # The journal frames include the flow's phase spans.
    spans = [f["data"] for f in frames
             if f["event"] == "journal"
             and f["data"].get("type") == "span.open"]
    assert any("pipeline" in s.get("data", {}).get("path", "")
               for s in spans)


def test_http_error_paths(live_server):
    client = ServeClient("127.0.0.1", live_server.port)
    with pytest.raises(ServeError) as excinfo:
        client.job("no-such-job")
    assert excinfo.value.status == 404
    bad_tenant = ServeClient("127.0.0.1", live_server.port,
                             tenant="../escape")
    with pytest.raises(ServeError) as excinfo:
        bad_tenant.submit(S27_BENCH)
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit(S27_BENCH, config={"nope": 1})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client.submit(S27_BENCH, config={"seed": "x"})
    assert excinfo.value.status == 400
    assert "'seed' must be a JSON integer" in str(excinfo.value)


def test_healthz_and_stats_expose_pool_occupancy(live_server):
    client = ServeClient("127.0.0.1", live_server.port)
    health = client.health()
    assert health["status"] == "ok"
    assert set(health["pool"]) == {"workers", "busy", "pending"}
    job = client.submit(S27_BENCH, config={"seed": 13})
    client.wait(job["job_id"])
    stats = client.stats()
    gauges = stats["metrics"]["gauges"]
    assert "parallel.pool.workers" in gauges
    assert stats["pool"]["workers"] >= 1
    assert stats["jobs"].get("done", 0) >= 1


def test_back_pressure_returns_429(tmp_path):
    # No dispatchers running: admitted jobs stay queued, so the bounded
    # per-tenant queue fills deterministically.
    server = ReproServer(ServerConfig(
        port=0, workers=1, queue_depth=2,
        state_dir=str(tmp_path / "state")))
    with obs.session() as telemetry:
        for seed in (1, 2):
            status, _body = server.submit(submission({"seed": seed}),
                                          DEFAULT_TENANT)
            assert status == 202
        status, body = server.submit(submission({"seed": 3}),
                                     DEFAULT_TENANT)
        assert status == 429
        assert "full" in body["error"]
        # Back-pressure is per tenant: another tenant still gets in.
        status, _body = server.submit(submission({"seed": 3}), "team-b")
        assert status == 202
        counters = telemetry.metrics.snapshot()["counters"]
    assert counters.get("serve.rejected", 0) == 1
    assert counters.get("serve.queued", 0) == 3


def test_duplicate_submission_is_deduped_not_queued(tmp_path):
    server = ReproServer(ServerConfig(
        port=0, workers=1, queue_depth=1,
        state_dir=str(tmp_path / "state")))
    with obs.session():
        status1, body1 = server.submit(submission({"seed": 1}),
                                       DEFAULT_TENANT)
        # Queue is full (depth 1) — but an identical submission dedupes
        # instead of bouncing off the full queue.
        status2, body2 = server.submit(
            submission({"seed": 1}), "team-b")
    assert status1 == 202
    assert status2 == 200 and body2["source"] == "dedup"
    assert body2["job_id"] == body1["job_id"]


# -- graceful shutdown (satellite) -------------------------------------------


def test_sigterm_drains_running_job_cleanly(tmp_path):
    from repro.experiments import suite

    state = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--state", str(state)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path))
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        client = ServeClient("127.0.0.1", port, timeout=10)
        slow = write_bench(suite.build_circuit("s298"))
        job = client.submit(slow, config={"seed": 1})
        assert job["source"] == "new"
        # Give the dispatcher a moment to start the job, then kill the
        # daemon mid-run.
        deadline = time.monotonic() + 10
        while client.job(job["job_id"])["status"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 0
    tail = proc.stdout.read()
    assert "repro-serve stopped" in line + tail

    # The drained job finished: its result is on disk and its journal
    # is complete and parseable.
    job_dir = state / "jobs" / job["job_id"]
    outcome = json.loads((job_dir / "result.json").read_text())
    assert outcome["status"] == "done"
    events = read_journal(job_dir / "journal.jsonl")
    assert events[-1]["type"] == "journal.close"

    # No orphan worker processes: nothing on the system still carries
    # this test's unique state-dir path in its command line.
    marker = str(state)
    orphans = []
    for pid_dir in Path("/proc").iterdir():
        if not pid_dir.name.isdigit() or int(pid_dir.name) == os.getpid():
            continue
        try:
            cmdline = (pid_dir / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            orphans.append(pid_dir.name)
    assert not orphans, f"orphan processes: {orphans}"


# -- budget enforcement against a main-thread daemon --------------------------


def test_budget_enforced_in_worker_daemon_survives(tmp_path):
    """E2E regression for SIGINT-based budget enforcement under fork:
    the daemon runs in its subprocess's *main thread* (so asyncio
    installs its SIGINT handler + wakeup fd, which fork-started workers
    inherit).  A budget breach must interrupt the *job* — not leak the
    signal into the parent loop and drain the whole server."""
    from repro.experiments import suite

    state = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") \
        + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--state", str(state),
         "--wall-budget", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(tmp_path))
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        client = ServeClient("127.0.0.1", port, timeout=10)
        # s1423 default generation runs for minutes, so the 0.5 s wall
        # budget always trips however fast the flow gets (s298 used to
        # serve here until ATPG got quick enough to finish near 0.5 s).
        slow = write_bench(suite.build_circuit("s1423"))
        job = client.submit(slow, config={"seed": 1})
        final = client.wait(job["job_id"], timeout=120)
        assert final["status"] == "budget_exceeded", final
        assert final["budget"]["breached"] == "wall", final
        # The daemon survived its own budget enforcement: it still
        # serves, and a cheap job still completes on the same worker.
        assert client.health()["status"] == "ok"
        quick = client.submit(S27_BENCH, config={"seed": 2})
        assert client.wait(quick["job_id"], timeout=120)["status"] == "done"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 0
    # The interrupted job left a parseable journal behind.
    events = read_journal(state / "jobs" / job["job_id"] / "journal.jsonl")
    assert events[-1]["type"] == "journal.close"


# -- registry bounds and request limits ---------------------------------------


@pytest.fixture
def bounded_server(tmp_path):
    server = ReproServer(ServerConfig(
        port=0, workers=1, state_dir=str(tmp_path / "state"),
        max_records=4, drain_timeout=15.0))
    started = threading.Event()

    def run():
        started.set()
        asyncio.run(server.run())

    with obs.session():
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while server.port == server.config.port:
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.02)
        try:
            yield server
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()


def test_cache_replays_do_not_grow_disk_or_registry(bounded_server):
    client = ServeClient("127.0.0.1", bounded_server.port)
    first = client.submit(S27_BENCH, config={"seed": 21})
    assert first["source"] == "new"
    done = client.wait(first["job_id"])

    for _ in range(10):
        warm = client.submit(S27_BENCH, config={"seed": 21})
        assert warm["source"] == "cache"
        assert warm["result"] == done["result"]
        # Replay records stay queryable until evicted.
        assert client.job(warm["job_id"])["status"] == "done"

    # One job directory on disk — replays provision nothing.
    jobs_dir = Path(bounded_server.config.state_dir) / "jobs"
    assert len(list(jobs_dir.iterdir())) == 1
    # The registry is bounded: terminal records aged out.
    with bounded_server._lock:
        assert len(bounded_server._jobs) <= 4
    # The executed job's record may itself have been evicted, but its
    # job directory keeps it readable.
    view = client.job(first["job_id"])
    assert view["status"] == "done"
    assert view["result"] == done["result"]


def test_oversized_content_length_is_rejected_before_buffering(
        bounded_server):
    import http.client

    conn = http.client.HTTPConnection(
        "127.0.0.1", bounded_server.port, timeout=10)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(10 ** 9))
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    assert response.status == 413
    assert "body too large" in body["error"]


def test_header_bomb_closes_connection(bounded_server):
    import socket

    with socket.create_connection(
            ("127.0.0.1", bounded_server.port), timeout=10) as sock:
        chunks = b""
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            for i in range(300):
                sock.sendall(f"x-pad-{i}: y\r\n".encode())
            sock.sendall(b"\r\n")
            # The server abandons the request without a response.
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks += chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server already slammed the door — same outcome
    assert chunks == b""


def test_finish_publishes_to_tenants_attached_during_put(
        tmp_path, monkeypatch):
    """Closing the dedup window: the in-flight key must stay in the
    index until every attached tenant's store holds a copy of the
    worker's ``flow`` entry — a tenant attaching mid-copy still gets
    its entry."""
    from repro.core.pipeline import generation_flow
    from repro.serve import app as serve_app

    server = ReproServer(ServerConfig(
        port=0, workers=1, state_dir=str(tmp_path / "state")))
    body = submission({"seed": 1})
    with obs.session():
        status, reply = server.submit(body, "team-a")
        assert status == 202
        record = server._jobs[reply["job_id"]]
        status, joined = server.submit(body, "team-b")
        assert joined["source"] == "dedup"
        # The worker's part: the flow writes its entry into the
        # submitter's overlay.
        circuit, cfg, _ = parse_submission(body)
        generation_flow(circuit, cfg.replace(cache_dir=str(
            tenant_cache_dir(server.cache_base, "team-a"))))
        real_tenant_store = serve_app.tenant_store

        def attaching_store(base, tenant):
            # Simulate a concurrent identical submission joining the
            # still-in-flight job while the first copy round runs.
            if tenant == "team-b":
                record.tenants.add("team-late")
            return real_tenant_store(base, tenant)

        monkeypatch.setattr(serve_app, "tenant_store", attaching_store)
        server._finish(record, {"job_id": record.job_id, "status": "done",
                                "result": {"ok": 1}}, "team-a")
        monkeypatch.setattr(serve_app, "tenant_store", real_tenant_store)
        assert record.key not in server._by_key
        assert record.status == "done"

        def entries(tenant):
            # Entries live in <fp[:2]>/<fp>/ buckets, below the root's
            # hit-tally.json.
            return sorted(tenant_cache_dir(server.cache_base, tenant)
                          .glob("*/*/*-*.json"))

        (written,) = entries("team-a")
        for tenant in ("team-b", "team-late"):
            (copy,) = entries(tenant)
            assert copy.name == written.name, tenant
            assert copy.read_bytes() == written.read_bytes(), tenant
            status, reply = server.submit(body, tenant)
            assert reply["source"] == "cache", tenant
