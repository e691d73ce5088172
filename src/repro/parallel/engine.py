"""Benchmark-compatibility stub: fault-sharded simulation was removed.

Flows simulate in one process (see ``docs/ARCHITECTURE.md`` → "Why
flows are serial").  The flow benchmark's tracer
(``benchmarks/flow/tracer.py``) still wraps
``ParallelFaultSim.detection_times`` as its ``parallel`` layer, so that
name must keep resolving until the benchmark drops the layer.  Nothing
in ``repro`` calls it.
"""


class ParallelFaultSim:
    """Placeholder kept only so the flow benchmark's tracer resolves."""

    def detection_times(self, vectors):
        raise NotImplementedError(
            "fault-sharded simulation was removed; flows run serial")
