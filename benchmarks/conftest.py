"""Shared infrastructure for the benchmark harness.

Every ``bench_*.py`` file regenerates one of the paper's tables (or an
ablation) and

* prints the rendered table (visible with ``pytest -s`` or in the
  benchmark summary),
* writes it to ``benchmarks/out/<name>.txt`` so results persist,
* asserts the *shape* claims the paper makes (who wins, orderings),
* times the underlying flow through pytest-benchmark.

The circuit profile is selected with ``REPRO_SUITE`` (quick/default/full,
see ``repro.experiments.suite``); the default ``quick`` profile keeps the
whole harness in the minutes range on a laptop.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def profile() -> str:
    from repro.experiments import suite

    return suite.active_profile()


def emit(report_dir: Path, name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/out/."""
    print()
    print(text)
    (report_dir / f"{name}.txt").write_text(text + "\n")


def record_bench(telemetry, bench: str, circuit_name: str,
                 wall_seconds: float, backend: str = "packed"):
    """Append this bench session to the ambient run index
    (``REPRO_RUN_INDEX``), when one is configured.

    Bench runs group by bench name rather than by netlist + flow-config
    fingerprints — the benches drive the engines directly, so the flow
    fingerprints do not apply.  Like every run-history operation this is
    strictly best-effort: a broken index must never fail a bench."""
    try:
        from repro.cache.fingerprint import config_fingerprint
        from repro.obs.history import (
            RunIndex,
            build_run_record,
            resolve_run_index,
        )

        path = resolve_run_index()
        if path is None:
            return None
        record = build_run_record(
            circuit_name=circuit_name,
            circuit_fp=config_fingerprint("bench-circuit",
                                          circuit=circuit_name),
            config_fp=config_fingerprint("bench", bench=bench),
            flow=f"bench:{bench}",
            wall_seconds=wall_seconds,
            backend=backend,
            telemetry=telemetry,
        )
        return RunIndex(path).append(record)
    except Exception:
        return None
