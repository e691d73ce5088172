"""Tests for repro.parallel — the resilient process pool — and the one
``--jobs`` path built on it: circuit-level prefetch for
``repro-atpg table`` / ``report``.

The identity tests are the heart: a prefetch or a table run with two
worker processes must leave exactly what a serial run leaves.  Flows
themselves simulate in one process; ``FlowConfig.jobs`` is accepted
and ignored.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import FlowConfig, generation_flow, obs
from repro.circuit.synth import random_circuit
from repro.cli import build_parser, main
from repro.experiments import runner
from repro.parallel import ResilientPool


# -- flows ignore FlowConfig.jobs --------------------------------------------


def test_flow_results_identical_across_job_counts():
    """``jobs`` is accepted for old configs but never changes a flow:
    the compacted sequences must not move by a single cycle."""
    circuit = random_circuit(
        "par_flow", num_inputs=4, num_flops=7, num_gates=45, seed=5)
    serial = generation_flow(circuit, FlowConfig(seed=3, jobs=1))
    other = generation_flow(circuit, FlowConfig(seed=3, jobs=2))
    assert other.detected_total == serial.detected_total
    assert other.fault_coverage == serial.fault_coverage
    assert other.restored_stats() == serial.restored_stats()
    assert other.omitted_stats() == serial.omitted_stats()
    assert [list(v) for v in other.omitted.sequence.vectors] == \
           [list(v) for v in serial.omitted.sequence.vectors]


def test_flow_config_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        FlowConfig(jobs=-1)
    assert FlowConfig().jobs == 0
    assert FlowConfig(jobs=5).jobs == 5


# -- resilient pool ----------------------------------------------------------


def _double(x):
    return x * 2


def _fail_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x * 2


def _sleepy(x):
    time.sleep(1.5)
    return x


def _fallback_negate(x):
    return -x


def _crash_once(payload):
    """Double ``x``, except that the first call to find ``marker``
    missing creates it and kills its worker hard."""
    marker, x = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return x * 2
    os.close(fd)
    os._exit(17)


def test_pool_runs_everything():
    pool = ResilientPool(_double, 2)
    assert sorted(pool.run(list(range(6)))) == [0, 2, 4, 6, 8, 10]


def test_pool_close_leaves_no_live_workers():
    """A non-persistent pool joins its workers when a run completes."""
    before = set(multiprocessing.active_children())
    with ResilientPool(_double, 2) as pool:
        assert sorted(pool.run(range(4))) == [0, 2, 4, 6]
    assert set(multiprocessing.active_children()) <= before


def test_pool_deterministic_error_surfaces_in_parent():
    pool = ResilientPool(_fail_odd, 2, max_retries=1, backoff=0.0)
    with pytest.raises(ValueError, match="odd payload"):
        pool.run([1, 2, 3])


def test_pool_serial_fallback_completes():
    pool = ResilientPool(_fail_odd, 2, max_retries=0, backoff=0.0,
                         serial_fn=_fallback_negate)
    assert sorted(pool.run([1, 2, 3])) == [-3, -1, 4]


def test_pool_timeout_requeues_to_fallback():
    pool = ResilientPool(_sleepy, 2, timeout=0.2, max_retries=0,
                         backoff=0.0, serial_fn=_fallback_negate)
    start = time.monotonic()
    assert sorted(pool.run([1, 2])) == [-2, -1]
    assert time.monotonic() - start < 10.0


def test_crash_injected_worker_is_recovered(tmp_path):
    """A worker killed hard mid-task (``os._exit``) must not lose
    results: the pool rebuilds its executor and requeues the payloads
    the broken one dropped."""
    marker = str(tmp_path / "crash.marker")
    with obs.session() as telemetry:
        pool = ResilientPool(_crash_once, 2, backoff=0.0)
        results = pool.run([(marker, x) for x in range(4)])
    assert os.path.exists(marker), "the crash hook never fired"
    assert sorted(results) == [0, 2, 4, 6]
    assert telemetry.metrics.counter("parallel.pool.broken_pools").value >= 1


def test_pool_rejects_zero_jobs():
    with pytest.raises(ValueError):
        ResilientPool(_double, 0)


def test_pool_stats_idle_and_after_run():
    from repro.parallel import PoolStats

    pool = ResilientPool(_double, 2, persistent=True)
    try:
        idle = pool.stats()
        assert isinstance(idle, PoolStats)
        assert (idle.workers, idle.busy, idle.pending) == (0, 0, 0)
        pool.run(list(range(4)))
        after = pool.stats()
        assert after.workers >= 1       # persistent pool keeps processes
        assert after.busy == 0 and after.pending == 0
        assert after.as_dict() == {"workers": after.workers, "busy": 0,
                                   "pending": 0}
    finally:
        pool.close()
    assert pool.stats().workers == 0    # close() released the executor


def test_pool_stats_exports_gauges():
    with obs.session() as telemetry:
        pool = ResilientPool(_double, 2, label="parallel.pool")
        pool.run([1, 2, 3])
        pool.stats()
        gauges = telemetry.metrics.snapshot()["gauges"]
    assert "parallel.pool.workers" in gauges
    assert "parallel.pool.busy" in gauges
    assert "parallel.pool.pending" in gauges


# -- circuit-level prefetch (table / report --jobs) ---------------------------


def _generation_bits(name):
    flow = runner.generation_result(name)
    return (
        [str(f) for f in flow.faults],
        sorted(str(f) for f in flow.untestable),
        list(flow.raw.vectors),
        list(flow.restored.sequence.vectors),
        list(flow.omitted.sequence.vectors),
        flow.detected_total,
        flow.extra_detected,
    )


def test_prefetch_with_two_workers_matches_serial():
    names = ["b01", "b02"]
    before = set(multiprocessing.active_children())
    try:
        runner.clear_caches()
        assert runner.prefetch(names, jobs=1) == names
        serial = {name: _generation_bits(name) for name in names}
        runner.clear_caches()
        assert runner.prefetch(names, jobs=2) == names
        pooled = {name: _generation_bits(name) for name in names}
    finally:
        runner.clear_caches()
    assert pooled == serial
    assert set(multiprocessing.active_children()) <= before


def test_table_with_two_workers_prints_the_serial_output(capsys):
    outputs = []
    try:
        for jobs in ("1", "2"):
            runner.clear_caches()
            assert main(["table", "5", "--profile", "quick",
                         "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        runner.clear_caches()
    assert "Table 5" in outputs[0]
    assert outputs[1] == outputs[0]


# -- CLI ---------------------------------------------------------------------


def test_cli_jobs_flag_parses():
    parser = build_parser()
    assert parser.parse_args(["table", "5", "--jobs", "2"]).jobs == 2
    assert parser.parse_args(["table", "5"]).jobs == 1
    assert parser.parse_args(["report", "--jobs", "2"]).jobs == 2
    # A flow simulates in one process: the flow commands take no --jobs.
    with pytest.raises(SystemExit):
        parser.parse_args(["generate", "s27", "--jobs", "3"])


# -- diff-metrics added/removed reporting --------------------------------------


def test_render_diff_reports_added_and_removed_keys():
    from repro.obs import diff_metrics, render_diff

    old = {"counters": {"kept": 1, "dropped": 2}, "gauges": {},
           "histograms": {}, "spans": []}
    new = {"counters": {"kept": 1, "added.one": 5, "added.two": 6},
           "gauges": {}, "histograms": {}, "spans": []}
    text = render_diff(diff_metrics(old, new))
    assert "2 metric(s) only in the new artifact: added.one, added.two" \
        in text
    assert "1 metric(s) only in the old artifact: dropped" in text


def test_render_diff_key_churn_not_truncated_by_top():
    from repro.obs import diff_metrics, render_diff

    old = {"counters": {"a": 1}, "gauges": {}, "histograms": {}, "spans": []}
    new = {"counters": {"b": 1, "c": 2}, "gauges": {}, "histograms": {},
           "spans": []}
    text = render_diff(diff_metrics(old, new), top=1)
    assert "only in the new artifact: b, c" in text
    assert "only in the old artifact: a" in text
