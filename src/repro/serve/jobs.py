"""Job canonicalization and the worker-side execution task.

A submission is a JSON object::

    {"circuit": {"bench": "<.bench text>"}            # or {"netlist": {...}}
                                                      # or {"corpus": "s15850"}
     "flow": "generation" | "translation",            # default generation
     "config": {"seed": 1, "num_chains": 2, ...}}     # FlowConfig fields

:func:`parse_submission` canonicalizes it to ``(Circuit, FlowConfig,
flow)`` — rejecting unknown config keys, mistyped config values and
malformed circuits with :class:`SubmissionError` (the HTTP layer's
400) — and :func:`job_fingerprints` derives the **dedup key**: the
circuit fingerprint paired with the run-config fingerprint.  A
submission may only set config fields that change result bits, each
with its exact JSON type, so every accepted payload maps to one key and
any differing field splits it.

:func:`run_job` is the **module-level pool task** (spawn-safe, plain
dict in / plain dict out) executed on the daemon's persistent worker
pool.  It drops the fork-inherited telemetry session, opens its own
(journaling to the job's ``journal.jsonl`` so ``GET /jobs/<id>/events``
can stream it), arms the cycle/wall budget monitor, runs the flow, and
returns a status dict — **catching every exception itself** so a failed
job is a result, not a pool retry storm.  Budget enforcement: after
restoring default signal state (fork-started workers inherit the
daemon's asyncio SIGINT plumbing — see :func:`_reset_worker_signals`),
a daemon thread samples the session's ``faultsim.cycles`` counter and
the wall clock; on breach it delivers ``SIGINT`` to its own (worker)
process, which surfaces as ``KeyboardInterrupt`` in the flow and is
reported as ``status: "budget_exceeded"`` with a parseable journal
left behind.  When the job runs *in the daemon process* instead (the
pool's serial fallback marks this with ``payload["in_process"]``),
SIGINT would kill the server, so the breach is recorded but not
enforced.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..cache.fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    run_config_fingerprint,
)
from ..circuit.bench import parse_bench, write_bench
from ..circuit.netlist import Circuit, CircuitError, FlipFlop, Gate
from ..core.config import FlowConfig
from ..core.pipeline import generation_flow, replay_flow, translation_flow
from ..obs import context as obs

#: Flow names a submission may request.
FLOWS = ("generation", "translation")

#: FlowConfig fields a submission's ``config`` object may set, with the
#: JSON type each must have: exactly the fields that change result bits,
#: so every accepted value is part of the dedup key.  The engine-config
#: objects (``atpg``/``baseline``) are deliberately not accepted over the
#: wire — they are derived from ``seed`` exactly as the CLI derives them.
#: The deployment settings (``jobs``, ``cache_dir``, ``run_index``) are
#: the server's to choose, so they are unknown fields here.
CONFIG_FIELDS = {
    "seed": int, "num_chains": int, "compact": bool,
    "classify_redundant": bool, "use_scan_knowledge": bool,
    "use_justification": bool, "redundancy_backtrack_limit": int,
    "max_omission_passes": int,
}


class SubmissionError(ValueError):
    """A malformed submission (maps to HTTP 400)."""


def parse_submission(payload: Any) -> Tuple[Circuit, FlowConfig, str]:
    """Canonicalize one POST body to ``(circuit, config, flow)``."""
    if not isinstance(payload, dict):
        raise SubmissionError("submission must be a JSON object")
    flow = payload.get("flow", "generation")
    if flow not in FLOWS:
        raise SubmissionError(
            f"unknown flow {flow!r} (expected one of {', '.join(FLOWS)})")
    raw_cfg = payload.get("config", {})
    if not isinstance(raw_cfg, dict):
        raise SubmissionError("config must be a JSON object")
    unknown = set(raw_cfg) - set(CONFIG_FIELDS)
    if unknown:
        raise SubmissionError(
            f"unknown config field(s): {', '.join(sorted(unknown))}")
    for name, value in raw_cfg.items():
        # JSON true/false are Python bools, and bool subclasses int: an
        # integer field must reject them, or {"seed": true} would run as
        # seed 1 under a dedup key of its own.
        wanted = CONFIG_FIELDS[name]
        if type(value) is not wanted:
            raise SubmissionError(
                f"config field {name!r} must be a JSON "
                f"{'boolean' if wanted is bool else 'integer'}, "
                f"got {value!r}")
    try:
        cfg = FlowConfig(**raw_cfg)
    except (TypeError, ValueError) as exc:
        raise SubmissionError(f"bad config: {exc}")
    circuit = _parse_circuit(payload.get("circuit"))
    return circuit, cfg, flow


def _parse_circuit(spec: Any) -> Circuit:
    if not isinstance(spec, dict):
        raise SubmissionError(
            "submission needs a circuit object ({\"bench\": ...}, "
            "{\"netlist\": ...} or {\"corpus\": \"<name>\"})")
    forms = [spec.get("bench"), spec.get("netlist"), spec.get("corpus")]
    if sum(form is not None for form in forms) != 1:
        raise SubmissionError(
            "circuit must carry exactly one of 'bench', 'netlist' "
            "or 'corpus'")
    bench, netlist, corpus = forms
    try:
        if bench is not None:
            if not isinstance(bench, str):
                raise SubmissionError("circuit.bench must be a string")
            return parse_bench(bench, name=str(spec.get("name", "circuit")))
        if corpus is not None:
            if not isinstance(corpus, str):
                raise SubmissionError("circuit.corpus must be a string")
            from ..circuit.corpus import synth_like

            return synth_like(corpus)
        return _circuit_from_netlist(netlist)
    except CircuitError as exc:
        raise SubmissionError(f"bad circuit: {exc}")


def _circuit_from_netlist(raw: Any) -> Circuit:
    """Build a circuit from the JSON netlist form::

        {"name": "c1", "inputs": [...], "outputs": [...],
         "gates": [[output, kind, [inputs...]], ...],
         "flops": [[q, d], ...]}
    """
    if not isinstance(raw, dict):
        raise SubmissionError("circuit.netlist must be a JSON object")
    try:
        gates = [Gate(output=str(g[0]), kind=str(g[1]),
                      inputs=tuple(str(i) for i in g[2]))
                 for g in raw.get("gates", [])]
        flops = [FlipFlop(q=str(f[0]), d=str(f[1]))
                 for f in raw.get("flops", [])]
        return Circuit(
            name=str(raw.get("name", "circuit")),
            inputs=[str(i) for i in raw.get("inputs", [])],
            outputs=[str(o) for o in raw.get("outputs", [])],
            gates=gates,
            flops=flops,
        )
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise SubmissionError(f"bad netlist: {exc}")


# ---------------------------------------------------------------------------
# The dedup key
# ---------------------------------------------------------------------------

def job_fingerprints(circuit: Circuit, cfg: FlowConfig,
                     flow: str) -> Tuple[str, str]:
    """The canonical ``(circuit_fp, config_fp)`` identity of one job.

    ``config_fp`` is
    :func:`repro.cache.fingerprint.run_config_fingerprint`,
    which covers every field that changes result bits (and the flow
    name) — the server's ``cache_dir``/``run_index`` cannot move it.
    """
    return circuit_fingerprint(circuit), run_config_fingerprint(cfg, flow)


def job_key(circuit_fp: str, config_fp: str) -> str:
    """The single dedup key in-flight and completed work index on."""
    return config_fingerprint("serve.job", circuit=circuit_fp,
                              config=config_fp)


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------

class _BudgetMonitor(threading.Thread):
    """Daemon thread enforcing the job's cycle/wall budgets.

    Samples the worker session's ``faultsim.cycles`` counter and the
    wall clock; on breach, records the reason and — when ``enforce`` is
    set — delivers SIGINT to this worker process, the one cross-thread
    interruption mechanism the stdlib offers that lands mid-simulation.

    ``enforce=False`` is the in-process mode (:func:`run_job` running
    inside the daemon via the pool's serial fallback, or in a non-main
    thread): SIGINT would hit the *server*, not the job, so the breach
    is only recorded and journaled — the flow runs to completion and
    the outcome carries an ``enforced: false`` budget note."""

    def __init__(self, telemetry, wall_budget: Optional[float],
                 cycle_budget: Optional[int], poll: float = 0.05,
                 enforce: bool = True):
        super().__init__(name="repro-serve-budget", daemon=True)
        self.telemetry = telemetry
        self.wall_budget = wall_budget
        self.cycle_budget = cycle_budget
        self.poll = poll
        self.enforce = enforce
        self.breached: Optional[str] = None
        self._cancelled = threading.Event()
        self._t0 = time.monotonic()

    def cancel(self) -> None:
        self._cancelled.set()

    def _evaluate(self) -> None:
        if self.wall_budget is not None and \
                time.monotonic() - self._t0 > self.wall_budget:
            self.breached = "wall"
        elif self.cycle_budget is not None:
            cycles = self.telemetry.metrics.snapshot()["counters"] \
                .get("faultsim.cycles", 0)
            if cycles > self.cycle_budget:
                self.breached = "cycles"

    def run(self) -> None:
        while not self._cancelled.wait(self.poll):
            self._evaluate()
            if self.breached:
                if self.enforce:
                    os.kill(os.getpid(), signal.SIGINT)
                else:
                    self.telemetry.incr("serve.budget_unenforced")
                    self.telemetry.event("serve.budget_breach",
                                         breached=self.breached,
                                         enforced=False)
                return
        if not self.enforce:
            # Record-only mode gets a final evaluation at cancel time
            # so a flow that finished between polls but still overran
            # its budget is reported (never killed — it's done).
            self._evaluate()
            if self.breached:
                self.telemetry.incr("serve.budget_unenforced")
                self.telemetry.event("serve.budget_breach",
                                     breached=self.breached,
                                     enforced=False)


def _reset_worker_signals() -> bool:
    """Restore default signal state in a pool worker.

    Fork-started workers (the Linux default) inherit the daemon's
    asyncio signal plumbing: a no-op Python-level SIGINT/SIGTERM handler
    plus the event loop's wakeup fd.  Left in place, the budget
    monitor's ``os.kill(getpid(), SIGINT)`` would (a) never raise
    KeyboardInterrupt in the worker and (b) write into the *shared*
    wakeup fd, which the parent loop dispatches as its own SIGINT —
    draining the whole multi-tenant server.  Returns True when SIGINT
    can now interrupt this thread (main thread of the worker), False
    otherwise (enforcement must stay off)."""
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        # Not the main thread: signal state can't be touched from here,
        # and KeyboardInterrupt could never be raised here anyway.
        return False
    return True


def _stats_dict(stats) -> Dict:
    return dataclasses.asdict(stats)


def _result_payload(flow: str, result) -> Dict:
    """The deterministic, JSON-able outcome of one flow run — the part
    that must be bit-identical between a fresh execution, a deduped
    attach and a cache replay."""
    final = result.omitted.sequence if result.omitted else (
        result.raw if flow == "generation" else result.translated)
    payload: Dict = {
        "flow": flow,
        "circuit": result.circuit.name,
        "sequences": {},
        "final_vectors": [list(v) for v in final.vectors],
    }
    if flow == "generation":
        payload["coverage"] = {
            "fault_coverage": round(result.fault_coverage, 4),
            "testable_coverage": round(result.testable_coverage, 4),
            "detected": result.detected_total,
            "faults": result.num_faults,
            "funct": result.funct_count,
            "proven_redundant": len(result.untestable),
        }
        payload["sequences"]["raw"] = _stats_dict(result.raw_stats())
    else:
        payload["baseline_cycles"] = result.baseline_cycles
        payload["sequences"]["translated"] = _stats_dict(
            result.translated_stats())
    if result.restored is not None:
        payload["sequences"]["restored"] = _stats_dict(
            result.restored_stats())
    if result.omitted is not None:
        payload["sequences"]["omitted"] = _stats_dict(
            result.omitted_stats())
        if flow == "generation":
            payload["coverage"]["extra_detected"] = result.extra_detected
    return payload


def replay_result(store, circuit: Circuit, cfg: FlowConfig,
                  flow: str) -> Optional[Dict]:
    """The result payload of a job, replayed from the ``flow`` entry
    its flow left in ``store``, or ``None`` when there is none.  The
    payload reads no scan circuit, so none is built."""
    result = replay_flow(flow, circuit, None, cfg, store)
    return None if result is None else _result_payload(flow, result)


def run_job(payload: Dict) -> Dict:
    """Execute one job (pool task).  Never raises: every outcome —
    success, flow error, budget breach — is a status dict, so the pool's
    retry/serial-fallback machinery only ever engages on genuine worker
    crashes.

    ``payload["in_process"]`` marks the pool's serial-fallback path:
    :func:`run_job` then runs *inside the daemon process* (on a
    dispatcher thread), so signal state is left alone and the budget
    monitor records breaches without delivering SIGINT — killing the
    server to stop one job is not enforcement."""
    start = time.perf_counter()
    in_process = bool(payload.get("in_process"))
    # Fork-started workers inherit the server's active session (and its
    # journal handle); drop it — this job reports via its own journal.
    # They also inherit the server's asyncio signal handlers + wakeup
    # fd, which must be reset before SIGINT-based budget enforcement
    # can be armed (see _reset_worker_signals).
    obs.deactivate(None)
    enforce = _reset_worker_signals() if not in_process else False
    journal = payload.get("journal")
    monitor: Optional[_BudgetMonitor] = None
    outcome: Dict = {"job_id": payload.get("job_id", ""), "pid": os.getpid()}
    try:
        circuit, cfg, flow = parse_submission(payload["submission"])
        overrides = {
            key: payload[key]
            for key in ("cache_dir", "run_index")
            if payload.get(key) is not None
        }
        if overrides:
            cfg = cfg.replace(**overrides)
        with obs.session(trace=journal,
                         trace_id=payload.get("trace_id")) as telemetry:
            monitor = _BudgetMonitor(
                telemetry,
                wall_budget=payload.get("wall_budget"),
                cycle_budget=payload.get("cycle_budget"),
                enforce=enforce)
            monitor.start()
            try:
                run_flow = generation_flow if flow == "generation" \
                    else translation_flow
                result = run_flow(circuit, cfg)
            finally:
                monitor.cancel()
                monitor.join(timeout=1.0)
            outcome["result"] = _result_payload(flow, result)
            outcome["metrics"] = telemetry.metrics.snapshot()["counters"]
            outcome["status"] = "done"
            if monitor.breached and not monitor.enforce:
                # The job overran its budget but ran unenforced (serial
                # in-process fallback): surface the breach on the
                # otherwise-complete result.
                outcome["budget"] = {"breached": monitor.breached,
                                     "enforced": False}
    except KeyboardInterrupt:
        reason = monitor.breached if monitor is not None else None
        outcome["status"] = "budget_exceeded"
        outcome["error"] = f"budget exceeded ({reason or 'interrupted'})"
        outcome["budget"] = {"breached": reason or "interrupted"}
    except Exception as exc:  # noqa: BLE001 - job failures are results
        outcome["status"] = "failed"
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    outcome["elapsed_seconds"] = round(time.perf_counter() - start, 6)
    return outcome


def canonical_submission(circuit: Circuit, cfg: FlowConfig,
                         flow: str) -> Dict:
    """The normalized submission stored in ``spec.json`` and shipped to
    the worker: canonical ``.bench`` text plus the explicit config
    fields, so re-parsing in the worker reproduces the same circuit and
    fingerprints bit-for-bit."""
    fields = {}
    for field in sorted(CONFIG_FIELDS):
        value = getattr(cfg, field)
        default = getattr(FlowConfig(), field)
        if value != default:
            fields[field] = value
    return {
        "circuit": {"bench": write_bench(circuit), "name": circuit.name},
        "flow": flow,
        "config": fields,
    }
