"""Smoke test of the flow benchmark: s27 in every workload, one pass.

Not collected by the tier-1 suite (``testpaths = tests``); run it by
path from the repository root::

    python -m pytest benchmarks/flow/test_bench_flow.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench_flow.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_metric_and_no_failures(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    proc = _bench("--smoke", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in bench["workloads"])
    for name, result in results.items():
        assert result["failed"] == 0 and result["fail_ratio"] == 0, \
            result["errors"]
        for kind in ("end_to_end", "per_layer"):
            for metric in bench[kind]:
                reported = result[kind][metric["name"]]
                assert reported["unit"] == metric["unit"], (name, metric)
                assert isinstance(reported["value"], (int, float))
        # Layer self times plus flow-root self time cover the traced wall.
        assert abs(result["attribution"]["attributed_pct"] - 100) <= 5, name

    # The last stdout line is the result line of the last workload.
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0

    warm = results["warm_replay"]["per_layer"]
    for metric in ("scan_aware.targets", "podem.calls", "session.cycles"):
        assert warm[metric]["value"] == 0, metric
    corpus = results["corpus_preset"]["per_layer"]
    assert corpus["redundancy.proofs"]["value"] == 0

    same = _bench("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout
    assert "REGRESSED" not in same.stdout and "MISMATCH" not in same.stdout
