"""Whole-flow benchmark: cold ladder, corpus-preset and warm-replay workloads.

Run from the repository root::

    python benchmarks/flow/bench_flow.py [--workload W] [--seed N]
        [--seconds S | --passes K] [--trace 0|1] [--out result.json]
    python benchmarks/flow/bench_flow.py --compare A.json B.json
    python benchmarks/flow/bench_flow.py --smoke --out smoke.json

Each workload (see ``flowpass.WORKLOADS``) runs its flows in passes.
Every pass is a fresh interpreter (``flowpass.py``) so memos, peak RSS
and import cost belong to that pass; passes repeat until ``--seconds``
have elapsed (or ``--passes`` ran) and timing metrics take the median.
One client drives one flow at a time: a closed loop.  The first pass is
checked against an independent packed re-simulation and every warm
replay against its cold flow; a flow that raises or fails a check counts
as failed.  ``--trace 1`` adds one pass under ``obs.session()`` with the
layer wrappers of ``tracer.py`` and reports the per-layer metrics.

Metric names, units, directions and regression bounds come from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is one JSON object per workload run: ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics.  ``--out`` keeps everything, including the
per-pass samples ``--compare`` uses to tell a regression from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for caches, pass specs and traces (ignored by git).
WORK = ROOT / ".bench_flow"
BENCHMARK = ROOT / "BENCHMARK.json"

import flowpass  # noqa: E402  (this script's directory is on sys.path)

#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 5
#: A whole invocation must finish inside this many seconds.
DEADLINE_S = 170.0
#: End-to-end metrics that repeat exactly for one seed and commit.
DETERMINISTIC = ("coverage_pct", "test_cycles")


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


# -- passes ---------------------------------------------------------------------

class Runner:
    """Starts pass interpreters under one deadline and cleans them up."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        (run_dir / "tmp").mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            XDG_CACHE_HOME=str(WORK / "xdg"),  # the C kernel's .so cache
            TMPDIR=str(run_dir / "tmp"),
            PYTHONHASHSEED="0",
        )

    def run(self, spec: Dict) -> Dict:
        """Run one pass interpreter; returns its output plus
        ``process_s``, the interpreter's whole lifetime."""
        self.count += 1
        spec_path = self.run_dir / f"pass{self.count}.spec.json"
        out_path = self.run_dir / f"pass{self.count}.out.json"
        spec_path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "flowpass.py"), str(spec_path),
             str(out_path)],
            cwd=ROOT, env=self.env, stdout=sys.stderr.fileno(),
            start_new_session=True,
        )
        # A blocking wait times the interpreter exactly (a wait with a
        # timeout polls in steps of up to 50 ms); the timer enforces the
        # deadline by killing the pass's whole process group.
        watchdog = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), _kill_group,
            (proc.pid,))
        watchdog.start()
        try:
            code = proc.wait()
            elapsed = time.perf_counter() - start
        finally:
            watchdog.cancel()
            _kill_group(proc.pid)  # anything the pass left behind
            proc.wait()
        if code == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise BenchError(f"{spec['mode']} pass overran the deadline")
        if code != 0:
            raise BenchError(f"{spec['mode']} pass exited with {code}")
        out = json.loads(out_path.read_text())
        out["process_s"] = elapsed
        return out


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(name: str, args, runner: Runner, defs: Dict) -> Dict:
    wl = flowpass.workload(name, args.smoke)
    base = {"workload": name, "seed": args.seed, "smoke": args.smoke}
    run_dir = runner.run_dir

    # The first interpreter compiles the C kernel and writes bytecode;
    # set-up is timed only once both are cached.  The timed samples are
    # spread between passes, so one busy moment of the host cannot set
    # their median.
    setup_spec = dict(base, mode="setup")
    runner.run(setup_spec)
    setup: List[float] = []

    def sample_setup() -> None:
        if len(setup) < SETUP_SAMPLES:
            setup.append(runner.run(setup_spec)["process_s"])

    fill = None
    if wl.warm:
        fill_cache = str(run_dir / "cache-fill")
        fill = runner.run(dict(base, mode="cold", cache_dir=fill_cache,
                               verify=True, replay_rounds=0))
        replay = dict(base, mode="replay", cache_dir=fill_cache,
                      replay_rounds=wl.replay_rounds,
                      expect={fid: f["digest"]
                              for fid, f in fill["flows"].items()})

    passes: List[Dict] = []
    start = time.perf_counter()
    while (len(passes) < args.passes if args.passes is not None
           else not passes or time.perf_counter() - start < args.seconds):
        sample_setup()
        if wl.warm:
            passes.append(runner.run(replay))
            continue
        cache = run_dir / f"cache-{len(passes)}"
        passes.append(runner.run(dict(
            base, mode="cold", cache_dir=str(cache), verify=not passes,
            replay_rounds=wl.replay_rounds)))
        shutil.rmtree(cache, ignore_errors=True)
    for _ in range(SETUP_SAMPLES):
        sample_setup()

    traced = None
    if args.trace:
        trace_out = str(WORK / f"{name}.seed{args.seed}.trace.json")
        if wl.warm:
            traced = runner.run(dict(replay, trace=True, trace_out=trace_out))
        else:
            cache = run_dir / "cache-traced"
            traced = runner.run(dict(base, mode="cold", cache_dir=str(cache),
                                     trace=True, trace_out=trace_out))
            shutil.rmtree(cache, ignore_errors=True)
        traced["trace_file"] = str(Path(trace_out).relative_to(ROOT))
    return summarize(wl, defs, setup, fill, passes, traced)


# -- metrics --------------------------------------------------------------------

def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` interpolation)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _with_units(values: Dict[str, float], meta: Dict) -> Dict:
    """``values`` in BENCHMARK.json's order, each with its unit."""
    return {name: {"value": values[name], "unit": m["unit"]}
            for name, m in meta.items()}


def summarize(wl, defs, setup, fill, passes, traced) -> Dict:
    verified = fill if wl.warm else passes[0]
    runs = ([fill] if fill else []) + passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    errors = [e for p in runs for e in p["errors"]]
    if not wl.warm:
        # Every cold pass ran the same inputs: its results must match.
        first = {fid: f["digest"] for fid, f in passes[0]["flows"].items()}
        for index, p in enumerate(passes[1:], 1):
            for fid, f in p["flows"].items():
                if first.get(fid) != f["digest"]:
                    failed += 1
                    errors.append(f"{fid}: pass {index} differs from pass 0")

    flows = verified["flows"].values()
    faults = sum(f["faults"] for f in flows)
    replay = [ms for p in passes for ms in p["round_ms"]]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setup,
        "faults_per_s": [_ratio(p["faults"], p["wall_s"]) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "replay_p50_ms": [_quantile(p["round_ms"], 50) for p in passes],
    }
    end_to_end = {name: statistics.median(values)
                  for name, values in samples.items()}
    end_to_end["replay_p50_ms"] = _quantile(replay, 50)
    end_to_end["coverage_pct"] = 100.0 * _ratio(
        sum(f.get("detected", 0) for f in flows), faults)
    end_to_end["test_cycles"] = sum(f["cycles"] for f in flows)

    result = {
        "workload": wl.name, "why": defs["workloads"][wl.name],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_ratio": _ratio(failed, attempted), "errors": errors[:20],
        "passes": len(passes), "replay_samples": len(replay),
        # Detections the final sequences have beyond what generation
        # flows report (see flowpass.check).
        "unclaimed_detections": sum(f.get("unclaimed", 0) for f in flows),
        # The tail is reported but not gated: on a shared host it
        # measures neighbours' load more than the cache (see README).
        "replay_p90_ms": _quantile(replay, 90),
        "end_to_end": _with_units(end_to_end, defs["end_to_end"]),
        "samples": samples,
        "flow_s": [p["flow_s"] for p in passes],
    }
    if traced is not None:
        wall = traced["wall_s"]
        layers = traced["trace"]["layers"]
        result["per_layer"] = _with_units(
            layer_metrics(layers, wall, end_to_end["wall_s"]),
            defs["per_layer"])
        result["layers"] = layers
        result["attribution"] = {
            "traced_wall_s": wall,
            "attributed_s": traced["trace"]["attributed_s"],
            "flow_self_s": layers["flow"]["self_s"],
            "attributed_pct": 100.0 * _ratio(traced["trace"]["attributed_s"],
                                             wall),
        }
        result["trace_file"] = traced["trace_file"]
    return result


def layer_metrics(layers: Dict, traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    def get(layer: str, key: str) -> float:
        return layers[layer][key]

    def counter(layer: str, name: str) -> int:
        return layers[layer]["counters"].get(name, 0)

    podem_bt = counter("podem", "atpg.backtracks")
    cycles = counter("session", "faultsim.session.cycles")
    hits = counter("session", "faultsim.session.checkpoint_hits")
    misses = counter("session", "faultsim.session.checkpoint_misses")
    attempts = counter("omission", "compaction.omission.attempts")
    return {
        "scan_aware.busy_s": get("scan_aware", "busy_s"),
        "scan_aware.targets": counter("scan_aware", "atpg.seq.targets"),
        "scan_aware.aborted": counter("scan_aware", "atpg.seq.aborted"),
        "scan_aware.hook_yield": _ratio(
            counter("scan_aware", "atpg.seq.hook_detections"),
            counter("scan_aware", "atpg.seq.hook_attempts")),
        "podem.calls": get("podem", "calls"),
        "podem.busy_s": get("podem", "busy_s"),
        "podem.backtracks": podem_bt,
        "podem.untestable_ratio": _ratio(
            counter("podem", "atpg.podem.untestable"), get("podem", "calls")),
        "podem.backtracks_per_s": _ratio(podem_bt, get("podem", "busy_s")),
        "redundancy.busy_s": get("redundancy", "busy_s"),
        "redundancy.proofs": get("redundancy", "calls"),
        "redundancy.proven_ratio": _ratio(
            counter("redundancy", "atpg.podem.untestable"),
            get("redundancy", "calls")),
        "scan_seq.busy_s": get("scan_seq", "busy_s"),
        "translate.busy_s": get("translate", "busy_s"),
        "restoration.busy_s": get("restoration", "busy_s"),
        "restoration.attempts": counter(
            "restoration", "compaction.restoration.attempts"),
        "omission.busy_s": get("omission", "busy_s"),
        "omission.attempts": attempts,
        "omission.success_ratio": _ratio(
            counter("omission", "compaction.omission.successes"), attempts),
        "oracle.calls": get("oracle", "calls"),
        "oracle.busy_s": get("oracle", "busy_s"),
        "session.busy_s": get("session", "busy_s"),
        "session.cycles": cycles,
        "session.cycles_per_s": _ratio(cycles, get("session", "busy_s")),
        "session.checkpoint_hit_ratio": _ratio(hits, hits + misses),
        "backend.builds": get("backend", "calls"),
        "backend.build_s": get("backend", "busy_s"),
        "backend.plane_mb": get("backend", "plane_bytes_max") / 2 ** 20,
        "parallel.calls": get("parallel", "calls"),
        "parallel.busy_s": get("parallel", "busy_s"),
        "parallel.shards": counter("parallel", "parallel.shards"),
        "parallel.overhead_s": get("parallel", "overhead_s"),
        "cache.get.calls": get("cache.get", "calls"),
        "cache.get.busy_s": get("cache.get", "busy_s"),
        "cache.put.calls": get("cache.put", "calls"),
        "cache.put.busy_s": get("cache.put", "busy_s"),
        "cache.hit_ratio": _ratio(counter("cache.get", "cache.hit"),
                                  get("cache.get", "calls")),
        "cache.bytes_written": counter("cache.put", "cache.bytes"),
        "obs.trace_overhead_pct": 100.0 * (
            _ratio(traced_wall, untraced_wall) - 1.0),
    }


# -- reporting --------------------------------------------------------------------

def load_definitions() -> Dict:
    """``BENCHMARK.json``'s metric definitions, keyed by metric name."""
    bench = json.loads(BENCHMARK.read_text())
    return {
        "run_seconds": bench["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "end_to_end": {m["name"]: m for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m for m in bench["per_layer"]},
    }


def result_line(result: Dict, trace: bool) -> Dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer" if trace else "end_to_end"],
    }


def print_result(result: Dict, trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}: {result['passes']} passes, "
          f"{result['replay_samples']} replay rounds "
          f"(p90 {result['replay_p90_ms']:.3f} ms), "
          f"{result['failed']}/{result['attempted']} flows failed, "
          f"{result['unclaimed_detections']} unclaimed detections")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    for kind in ("end_to_end", "per_layer"):
        for metric, reported in result.get(kind, {}).items():
            print(f"   {metric:30s} {reported['value']:>16.6f} "
                  f"{reported['unit']}")
    if "attribution" in result:
        print(f"   {'attributed share of traced wall':30s} "
              f"{result['attribution']['attributed_pct']:>16.3f} %")
    print(json.dumps(result_line(result, trace)), flush=True)


# -- --compare ----------------------------------------------------------------------

def _spread(values: Optional[List[float]]) -> float:
    """Interquartile range as a share of the median."""
    if not values or len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, statistics.median(values))


def compare(path_a: str, path_b: str, defs: Dict) -> int:
    """One row per workload: each end-to-end metric of B against A within
    its bound; deterministic numbers and per-layer counts must match."""
    a_all = json.loads(Path(path_a).read_text())
    b_all = json.loads(Path(path_b).read_text())
    same_seed = a_all.get("seed") == b_all.get("seed")
    bad = False
    for name, a in a_all["workloads"].items():
        b = b_all["workloads"].get(name)
        if b is None:
            print(f"{name:14s} missing from {path_b}")
            bad = True
            continue
        cells = []
        for metric, meta in defs["end_to_end"].items():
            va = a["end_to_end"][metric]["value"]
            vb = b["end_to_end"][metric]["value"]
            if same_seed and metric in DETERMINISTIC:
                status = "same" if va == vb else "MISMATCH"
                cells.append(f"{metric} {status}")
                bad |= status == "MISMATCH"
                continue
            lower = meta["better"] == "lower"
            change = _ratio(vb - va, va)
            sa, sb = a["samples"].get(metric), b["samples"].get(metric)
            spread = max(_spread(sa), _spread(sb))
            if spread > meta["bound"]:
                beats = sa and sb and (
                    max(sb) < min(sa) if lower else min(sb) > max(sa))
                status = "better" if beats else "unresolved"
            elif (change if lower else -change) > meta["bound"]:
                status = "REGRESSED"
                bad = True
            else:
                status = "ok"
            cells.append(f"{metric} {change * 100:+.1f}% {status}")
        if same_seed and "per_layer" in a and "per_layer" in b:
            for metric, meta in defs["per_layer"].items():
                if meta["unit"] in ("count", "bytes") and \
                        a["per_layer"][metric]["value"] != \
                        b["per_layer"][metric]["value"]:
                    cells.append(f"{metric} MISMATCH")
                    bad = True
        print(f"{name:14s} " + " | ".join(cells))
    return 1 if bad else 0


# -- entry point ----------------------------------------------------------------------

def parse_args(argv: List[str], defs: Dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *defs["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=defs["run_seconds"],
                        help="measure each workload this long (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly this many timed passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced pass and print per-layer "
                             "metrics; 0: print end-to-end metrics")
    parser.add_argument("--out", help="write every result here (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="s27 only, 1 pass, 5 replay rounds")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check result file B against result file A")
    args = parser.parse_args(argv)
    if args.smoke and args.passes is None:
        args.passes = 1
    return args


def _terminate(signum, frame):
    # Unwinds through Runner.run's cleanup, which kills the pass.
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not BENCHMARK.is_file():
        print(f"bench_flow: {BENCHMARK} not found", file=sys.stderr)
        return 2
    defs = load_definitions()
    args = parse_args(argv, defs)
    if args.compare:
        return compare(*args.compare, defs)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_flow: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = (list(defs["workloads"]) if args.workload == "all"
             else [args.workload])
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        runner = Runner(run_dir, deadline)
        for name in names:
            results[name] = run_workload(name, args, runner, defs)
            print_result(results[name], bool(args.trace))
    except BenchError as exc:
        print(f"bench_flow: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
