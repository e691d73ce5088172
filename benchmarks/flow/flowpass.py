"""One pass of a flow-benchmark workload, run in a fresh interpreter.

``bench_flow.py`` starts this file once per pass so that in-process
memos, peak RSS and import cost belong to that pass alone::

    python flowpass.py SPEC.json OUT.json

``SPEC.json`` names the workload, the seed, the pass mode and the cache
directory; ``OUT.json`` receives the pass's timings, its flow digests
and every check it failed.  Modes:

* ``setup`` — import ``repro``, build the workload's circuits, load the
  C kernel library, exit.  The caller times the whole interpreter.
* ``cold`` — run every flow of the workload against an empty cache
  (timed), optionally check each result against an independent packed
  re-simulation, then replay every flow ``replay_rounds`` times from the
  cache it just filled, timing each replay and requiring it to be
  bit-identical to the cold result.
* ``replay`` — replay every flow ``replay_rounds`` times from a cache
  another pass filled (timed), requiring bit-identity with the digests
  that pass reported.

With ``trace`` set, the timed phase runs inside ``obs.session()`` with
the layer wrappers of :mod:`tracer` installed.

This module imports ``repro`` only inside functions, so the caller can
import it for :data:`WORKLOADS` without the package on its path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    #: Suite circuits (``repro.experiments.suite.build_circuit`` names).
    circuits: Tuple[str, ...]
    #: ``generation`` and/or ``translation``, run per circuit in order.
    flows: Tuple[str, ...]
    #: ``FlowConfig.jobs``.
    jobs: int
    #: Apply the CLI's corpus-scale ``flow_overrides`` preset.
    preset: bool
    #: Timed passes replay a cache filled by one untimed cold pass.
    warm: bool
    #: Replays of every flow per pass (cold workloads: after the timed
    #: cold flows, as the cold-equals-warm check).
    replay_rounds: int


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (
        Workload(
            "ladder", ("s208", "s298", "s344", "s386"),
            ("generation", "translation"), jobs=1, preset=False,
            warm=False, replay_rounds=15,
        ),
        Workload(
            "corpus_preset",
            ("s953", "s1196", "s1423", "s1488", "b04", "b11", "s5378"),
            ("generation",), jobs=2, preset=True, warm=False,
            replay_rounds=5,
        ),
        Workload(
            "warm_replay", ("s208", "s298", "s344", "s386"),
            ("generation", "translation"), jobs=1, preset=False,
            warm=True, replay_rounds=25,
        ),
    )
}

#: Circuits every workload uses under ``--smoke``.
SMOKE_CIRCUITS = ("s27",)


def workload(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if smoke:
        wl = replace(wl, circuits=SMOKE_CIRCUITS, replay_rounds=5)
    return wl


def flow_items(wl: Workload) -> List[Tuple[str, str]]:
    """``(circuit, flow kind)`` pairs in run order."""
    return [(circuit, kind) for circuit in wl.circuits for kind in wl.flows]


def flow_id(circuit: str, kind: str) -> str:
    return f"{circuit}.{kind}"


# -- flows --------------------------------------------------------------------

def _config(wl: Workload, circuit: str, seed: int, cache_dir: str):
    from repro import FlowConfig
    from repro.circuit.corpus import flow_overrides

    overrides = flow_overrides(circuit, seed_offset=seed) if wl.preset else {}
    return FlowConfig(seed=seed, jobs=wl.jobs, cache_dir=cache_dir,
                      **overrides)


def _run_flow(kind: str, circuit, config):
    from repro import generation_flow, translation_flow

    flow = generation_flow if kind == "generation" else translation_flow
    return flow(circuit, config)


def digest(result) -> str:
    """Hash of everything a flow reports: sequences, fault sets, counts."""
    parts: list = [len(result.faults)]
    if hasattr(result, "atpg"):
        parts += [result.raw.vectors, result.detected_total,
                  sorted(map(str, result.untestable))]
    else:
        parts += [result.translated.vectors, result.baseline_cycles]
    parts += [result.restored.sequence.vectors,
              result.omitted.sequence.vectors,
              sorted(map(str, result.omitted.detected)),
              sorted(map(str, result.omitted.extra_detected))]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def check(result) -> Tuple[int, int, Optional[str]]:
    """Re-simulate the final sequence with the packed reference simulator.

    Returns the number of faults it detects, how many of those a
    generation flow's ``detected_total + extra_detected`` leaves out, and
    a message when the re-simulation contradicts the flow: compaction's
    detection sets differ, the flow claims more detections than the
    sequence has, or the cycle counts disagree.

    ``extra_detected`` counts only what omission gains over the restored
    sequence, so detections that restoration gains over the generated
    sequence are left out of the claim.  That under-claim is counted,
    not failed: the sequence detects at least what the flow reports."""
    from repro.circuit.gates import ONE
    from repro.sim.fault_sim import PackedFaultSimulator

    final = result.omitted.sequence
    sim = PackedFaultSimulator(result.scan_circuit.circuit, result.faults)
    detected = set(sim.run(final.vectors).detection_time)
    claimed = set(result.omitted.detected) | set(result.omitted.extra_detected)
    if detected != claimed:
        return len(detected), 0, (f"re-simulation detects {len(detected)} "
                                  f"faults, compaction claims {len(claimed)}")
    unclaimed = 0
    if hasattr(result, "atpg"):
        total = result.detected_total + result.extra_detected
        if total > len(detected):
            return len(detected), 0, (
                f"detected_total + extra_detected = {total}, re-simulation "
                f"detects only {len(detected)}")
        unclaimed = len(detected) - total
    sel = final.inputs.index(final.scan_sel) if final.scan_sel else None
    scan = sum(1 for v in final.vectors if sel is not None and v[sel] == ONE)
    stats = final.stats()
    if (stats.total, stats.scan) != (len(final.vectors), scan):
        return len(detected), unclaimed, (
            f"stats say {stats}, sequence has {len(final.vectors)} cycles "
            f"({scan} scan)")
    return len(detected), unclaimed, None


# -- measurement ----------------------------------------------------------------

def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


class _Timed:
    """Accumulates wall and CPU seconds spent inside flow calls only, so
    the checks between flows stay out of the measurement."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._cpu = _cpu()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.last = time.perf_counter() - self._wall
        self.wall += self.last
        self.cpu += _cpu() - self._cpu


def run_pass(spec: Dict) -> Dict:
    from repro.experiments.suite import build_circuit
    from repro.sim.kernel import load_kernel_library

    wl = workload(spec["workload"], spec.get("smoke", False))
    circuits = {name: build_circuit(name) for name in wl.circuits}
    load_kernel_library()
    if spec["mode"] == "setup":
        return {}

    seed = spec["seed"]
    cache_dir = spec["cache_dir"]
    configs = {name: _config(wl, name, seed, cache_dir) for name in circuits}
    items = flow_items(wl)
    out: Dict = {"attempted": 0, "failed": 0, "errors": [], "faults": 0,
                 "flows": {}, "flow_s": {}, "round_ms": []}

    def fail(message: str) -> None:
        out["failed"] += 1
        if len(out["errors"]) < 20:
            out["errors"].append(message)

    timed = _Timed()
    # Start from a collected heap so a full collection owed to set-up
    # does not land in the first timed flow.
    gc.collect()
    trace = spec.get("trace", False)
    if trace:
        from repro import obs
        from tracer import Tracer

        session = obs.session()
    else:
        session = nullcontext()
    with session as telemetry:
        tracer = Tracer(telemetry) if trace else None
        with tracer or nullcontext():
            if spec["mode"] == "cold":
                results = {}
                for circuit, kind in items:
                    fid = flow_id(circuit, kind)
                    out["attempted"] += 1
                    try:
                        with timed, \
                                tracer.flow(fid) if tracer else nullcontext():
                            results[fid] = _run_flow(kind, circuits[circuit],
                                                     configs[circuit])
                    except Exception:
                        fail(f"{fid}: {traceback.format_exc(limit=3)}")
                        continue
                    out["flow_s"][fid] = timed.last
                    out["faults"] += len(results[fid].faults)
                expect = {fid: digest(r) for fid, r in results.items()}
                replay_rounds = spec.get("replay_rounds", 0)
            else:
                expect = spec["expect"]
                replay_rounds = spec["replay_rounds"]
                _replay(items, circuits, configs, expect, replay_rounds,
                        tracer, timed, out, fail)
    out["wall_s"] = timed.wall
    out["cpu_s"] = timed.cpu
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["trace"] = {
            "layers": {name: stats.as_dict()
                       for name, stats in tracer.layers.items()},
            "attributed_s": tracer.attributed_seconds(),
        }
        if spec.get("trace_out"):
            Path(spec["trace_out"]).write_text(
                json.dumps(tracer.chrome_trace(), separators=(",", ":")))

    if spec["mode"] == "cold":
        for fid, result in results.items():
            entry = {"faults": len(result.faults), "digest": expect[fid],
                     "cycles": len(result.omitted.sequence.vectors)}
            if spec.get("verify"):
                entry["detected"], entry["unclaimed"], problem = check(result)
                if problem:
                    fail(f"{fid}: {problem}")
            out["flows"][fid] = entry
        if replay_rounds:
            cold = [(c, k) for c, k in items if flow_id(c, k) in expect]
            _replay(cold, circuits, configs, expect, replay_rounds, None,
                    _Timed(), out, fail, count_faults=False)
    return out


def _replay(items, circuits, configs, expect, rounds, tracer, timed, out,
            fail, count_faults=True) -> None:
    """Replay every flow ``rounds`` times.  One round (every flow once)
    is one latency sample; each replay must reproduce its cold digest."""
    for round_no in range(rounds):
        round_s = 0.0
        for circuit, kind in items:
            fid = flow_id(circuit, kind)
            out["attempted"] += 1
            try:
                with timed, tracer.flow(f"{fid}.r{round_no}") if tracer \
                        else nullcontext():
                    result = _run_flow(kind, circuits[circuit],
                                       configs[circuit])
            except Exception:
                fail(f"{fid} replay: {traceback.format_exc(limit=3)}")
                continue
            round_s += timed.last
            if count_faults:
                out["faults"] += len(result.faults)
            if digest(result) != expect[fid]:
                fail(f"{fid} replay {round_no}: not bit-identical to cold")
        out["round_ms"].append(round_s * 1000.0)


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    out = run_pass(spec)
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
