"""Per-layer attribution for the flow benchmark's traced pass.

Layers are measured from outside: :class:`Tracer` replaces each layer's
public callables with timing wrappers for the duration of a ``with``
block and puts the originals back on exit.  Nothing in ``src/`` changes.

Every wrapped call becomes a span.  A span's *self time* is its duration
minus the time of the wrapped calls nested inside it, so the self times
of all spans under one flow root add up to that root's duration.  Spans
carry the id of the flow they belong to and are kept in memory until
:meth:`Tracer.chrome_trace` writes them out.

Work counts are not re-derived here: they are deltas of the program's
own ``repro.obs`` counters, taken over the outermost activation of each
layer, so the traced pass must run inside ``obs.session()``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

#: layer -> (wrapped callables as "module:qualname", obs counters whose
#: deltas over the layer's outermost calls the layer owns).
LAYERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "scan_aware": (
        ("repro.core.scan_aware:ScanAwareATPG.generate",),
        ("atpg.seq.targets", "atpg.seq.aborted",
         "atpg.seq.hook_attempts", "atpg.seq.hook_detections"),
    ),
    # Podem calls made directly under a generation flow root are the
    # redundancy proofs; they are booked to ``redundancy`` instead.
    "podem": (
        ("repro.atpg.podem:Podem.run_multi",),
        ("atpg.podem.untestable", "atpg.backtracks"),
    ),
    "scan_seq": (("repro.atpg.scan_seq:SecondApproachATPG.generate",), ()),
    "translate": (("repro.core.translate:translate_test_set",), ()),
    "restoration": (
        ("repro.compaction.restoration:restoration_compact",),
        ("compaction.restoration.attempts",),
    ),
    "omission": (
        ("repro.compaction.omission:omission_compact",),
        ("compaction.omission.attempts", "compaction.omission.successes"),
    ),
    "oracle": (
        ("repro.compaction.base:CompactionOracle.detection_times",
         "repro.compaction.base:CompactionOracle.detected_mask",
         "repro.compaction.base:CompactionOracle.detects_all"),
        (),
    ),
    "session": (
        ("repro.sim.session:SimSession.detected_mask",
         "repro.sim.session:SimSession.detects_all",
         "repro.sim.session:SimSession.detection_times",
         "repro.sim.session:SimSession.run",
         "repro.sim.session:SimSession.scan_test_mask"),
        ("faultsim.session.cycles", "faultsim.session.checkpoint_hits",
         "faultsim.session.checkpoint_misses"),
    ),
    "backend": (("repro.sim.backend:make_backend",), ()),
    "parallel": (
        ("repro.parallel.engine:ParallelFaultSim.detection_times",),
        ("parallel.runs", "parallel.shards"),
    ),
    "cache.get": (("repro.cache.store:ResultStore.get",), ("cache.hit",)),
    "cache.put": (("repro.cache.store:ResultStore.put",), ("cache.bytes",)),
}

REDUNDANCY = "redundancy"
#: Layer name of the flow root spans the benchmark opens itself.
FLOW = "flow"


def _repoint(mapping: Dict[int, object]) -> None:
    """In every loaded ``repro`` module, replace each attribute whose
    ``id`` is a key of ``mapping`` with the mapped object."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if id(value) in mapping:
                setattr(module, key, mapping[id(value)])


class LayerStats:
    """Accumulated numbers of one layer over a traced pass."""

    def __init__(self, counters: Tuple[str, ...]):
        self.calls = 0          # outermost activations
        self.busy = 0.0         # inclusive seconds of outermost activations
        self.self_time = 0.0    # seconds not covered by nested wrapped calls
        self.deltas = {name: 0 for name in counters}
        self.plane_bytes_max = 0
        self.overhead = 0.0

    def as_dict(self) -> Dict:
        return {"calls": self.calls, "busy_s": self.busy,
                "self_s": self.self_time, "counters": dict(self.deltas),
                "plane_bytes_max": self.plane_bytes_max,
                "overhead_s": self.overhead}


class _Frame:
    __slots__ = ("layer", "start", "child", "before", "flow")

    def __init__(self, layer, start, before, flow):
        self.layer = layer
        self.start = start
        self.child = 0.0
        #: counter values at entry; ``None`` unless the layer's outermost
        self.before = before
        self.flow = flow


class Tracer:
    """Install layer wrappers with ``with Tracer(telemetry):`` and open
    one :meth:`flow` root per flow inside it."""

    def __init__(self, telemetry):
        self._metrics = telemetry.metrics
        self.layers: Dict[str, LayerStats] = {
            name: LayerStats(counters) for name, (_c, counters) in LAYERS.items()
        }
        self.layers[REDUNDANCY] = LayerStats(LAYERS["podem"][1])
        self.layers[FLOW] = LayerStats(())
        #: finished spans: (flow id, layer, start, duration, self time)
        self.spans: List[Tuple[str, str, float, float, float]] = []
        self._stack: List[_Frame] = []
        self._depth: Dict[str, int] = {}
        #: (owner, attribute, original, wrapper) of every patch
        self._patched: List[Tuple[object, str, object, object]] = []
        self._t0 = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------

    def _counter(self, name: str) -> int:
        return self._metrics.counter(name).value

    def _open(self, layer: str, flow: str = "") -> _Frame:
        depth = self._depth.get(layer, 0)
        self._depth[layer] = depth + 1
        stats = self.layers[layer]
        before = ({name: self._counter(name) for name in stats.deltas}
                  if depth == 0 else None)
        if not flow and self._stack:
            flow = self._stack[-1].flow
        frame = _Frame(layer, time.perf_counter(), before, flow)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("unbalanced layer spans")
        duration = end - frame.start
        self_time = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        self._depth[frame.layer] -= 1
        stats = self.layers[frame.layer]
        stats.self_time += self_time
        if frame.before is not None:
            stats.calls += 1
            stats.busy += duration
            for name, value in frame.before.items():
                stats.deltas[name] += self._counter(name) - value
        self.spans.append((frame.flow, frame.layer, frame.start, duration,
                           self_time))
        return duration

    @contextmanager
    def flow(self, flow_id: str):
        """The root span of one flow; nested spans carry ``flow_id``."""
        frame = self._open(FLOW, flow_id)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers -----------------------------------------------------------

    def _layer_for(self, layer: str) -> str:
        if layer == "podem" and self._stack:
            parent = self._stack[-1]
            if parent.layer == FLOW and parent.flow.endswith(".generation"):
                return REDUNDANCY
        return layer

    def _wrap(self, layer: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer._open(tracer._layer_for(layer))
            runs = tracer._counter("parallel.runs") if layer == "parallel" else 0
            try:
                return func(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
                tracer._after(layer, duration, runs)
        return wrapper

    def _after(self, layer: str, duration: float, runs_before: int) -> None:
        """Per-call readings of the gauges the program sets per call."""
        stats = self.layers[layer]
        if layer == "backend":
            plane = self._metrics.gauge("faultsim.backend.plane_bytes").value
            stats.plane_bytes_max = max(stats.plane_bytes_max, int(plane))
        elif layer == "parallel" and self._counter("parallel.runs") > runs_before:
            shard_max = self._metrics.gauge(
                "parallel.last.shard_seconds_max").value
            stats.overhead += duration - shard_max

    def __enter__(self) -> "Tracer":
        for layer, (targets, _counters) in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, qualname = qualname.split(".")
                    owner = getattr(owner, class_name)
                original = owner.__dict__[qualname]
                wrapper = self._wrap(layer, original)
                self._patched.append((owner, qualname, original, wrapper))
                setattr(owner, qualname, wrapper)
        # ``from x import f`` copies a function into the importing module.
        _repoint({id(original): wrapper
                  for _o, _q, original, wrapper in self._patched})
        return self

    def __exit__(self, *exc) -> None:
        for owner, qualname, original, _wrapper in self._patched:
            setattr(owner, qualname, original)
        _repoint({id(wrapper): original
                  for _o, _q, original, wrapper in self._patched})
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def attributed_seconds(self) -> float:
        """Sum of every span's self time (flow roots included)."""
        return sum(stats.self_time for stats in self.layers.values())

    def chrome_trace(self) -> Dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "bench_flow traced pass"}}]
        for flow, layer, start, duration, self_time in self.spans:
            events.append({
                "name": layer, "cat": "layer", "ph": "X", "pid": 1, "tid": 0,
                "ts": round((start - self._t0) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"flow": flow, "self_us": round(self_time * 1e6, 3)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
