"""Table 4 — Table 1's sequence after restoration [23] then omission [22].

The paper shows that the non-scan compaction procedures, applied to the
``C_scan`` sequence, omit vectors freely — including vectors *inside*
scan operations — producing a shorter sequence whose scan runs are
reshaped.  This bench regenerates the Section 2 sequence and compacts
it, asserting the paper's ordering (omit <= restor <= raw) and that
coverage is fully preserved.

Run as a script (``python benchmarks/bench_table4_compaction.py
--metrics-out BENCH_table4.json``) it executes the same flow inside a
telemetry session and writes the metrics artifact — the committed
``BENCH_table4.json`` baseline that CI diffs fresh runs against with
``repro-atpg diff-metrics``."""

from repro.atpg import SeqATPGConfig
from repro.circuit import insert_scan, s27
from repro.compaction import CompactionOracle, omission_compact, restoration_compact
from repro.core import ScanAwareATPG
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator

from conftest import emit


def run():
    from repro.obs import context as obs

    with obs.span("bench_table4"):
        with obs.span("generate"):
            sc = insert_scan(s27())
            faults = collapse_faults(sc.circuit)
            generated = ScanAwareATPG(
                sc, faults, config=SeqATPGConfig(seed=1)
            ).generate()
        oracle = CompactionOracle(sc.circuit, faults)
        with obs.span("restoration"):
            restored = restoration_compact(sc.circuit, generated.sequence,
                                           faults, oracle=oracle)
        with obs.span("omission"):
            omitted = omission_compact(sc.circuit, restored.sequence, faults,
                                       oracle=oracle)
        oracle.close()
    return sc, faults, generated, restored, omitted


def bench_table4_compaction(benchmark, report_dir):
    sc, faults, generated, restored, omitted = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    raw = generated.sequence

    assert len(omitted.sequence) <= len(restored.sequence) <= len(raw)
    sim = PackedFaultSimulator(sc.circuit, faults)
    final = sim.run(list(omitted.sequence.vectors))
    assert set(generated.detection_time) <= set(final.detection_time)

    lines = [
        "Table 4: compacted test sequence for s27_scan (regenerated)",
        f"  raw        {raw.stats()}  runs {raw.scan_runs()}",
        f"  restoration {restored.sequence.stats()}  "
        f"runs {restored.sequence.scan_runs()}",
        f"  omission    {omitted.sequence.stats()}  "
        f"runs {omitted.sequence.scan_runs()}",
        f"  coverage preserved: {final.coverage():.2f}%",
        "",
        omitted.sequence.to_table(),
    ]
    emit(report_dir, "table4", "\n".join(lines))


def main(argv=None):
    """Standalone baseline producer for the diff-metrics CI gate."""
    import argparse

    from repro import obs
    from repro.obs.report import write_metrics_json
    from repro.sim.backend import vector_available

    parser = argparse.ArgumentParser(
        description="run the Table 4 compaction flow under telemetry and "
                    "write the metrics artifact")
    parser.add_argument("--metrics-out", metavar="FILE", required=True)
    args = parser.parse_args(argv)
    import time

    from conftest import record_bench

    # Import and load the vector kernel before the session opens, so
    # the ``generate`` span times the ATPG, not the first use of the
    # kernel module and its shared library.
    vector_available()
    started = time.perf_counter()
    with obs.session() as telemetry:
        _sc, _faults, generated, restored, omitted = run()
    record_bench(telemetry, "table4", "s27",
                 time.perf_counter() - started)
    raw = generated.sequence
    print(f"raw {len(raw)} -> restoration {len(restored.sequence)} "
          f"-> omission {len(omitted.sequence)} vectors")
    write_metrics_json(args.metrics_out, telemetry,
                       meta={"bench": "table4", "circuit": "s27"})
    print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
