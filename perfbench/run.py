"""Benchmark entry point for ``bistab``: one workload, one seed, one result line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``bistab`` from ``./src``.
Every measurement happens in a fresh worker process (``worker.py``), one at
a time, so the run is a closed loop with a single caller.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
several fresh processes), wall time per pass over the workload's fixed item
list (median over the passes that fit in ``--seconds``), peak resident
memory of the measuring process, and the median and 99th-percentile item
latency.  ``--trace 1`` runs one untraced pass and two traced passes, each in
its own process, and reports the per-layer metrics of the first traced pass;
the two traced passes must give identical counts.

The last line of stdout is the JSON result; the line before it is a detailed
report.  The exit code is non-zero only when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = ("relax-sweep", "fold-bisect", "census", "certify")
SETUP_SAMPLES = 5  # fresh processes timed to ready; the measuring one is the fifth
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(root: Path, workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Start one worker and wait for it; returns its READY phases, its RESULT
    (if any) and the time from spawn to ready."""
    workdir = root / ".bench_work" / f"{os.getpid()}-{mode}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spawned_at = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--spawned-at", repr(spawned_at), "--mode", mode, "--seconds", repr(seconds),
         "--workdir", str(workdir)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    timer.start()
    out = {"ready": None, "result": None, "setup_s": None}
    try:
        for line in proc.stdout:
            if line.startswith("@@READY "):
                out["setup_s"] = time.perf_counter() - t0
                out["ready"] = json.loads(line[8:])
            elif line.startswith("@@RESULT "):
                out["result"] = json.loads(line[9:])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or out["ready"] is None or (mode != "setup" and out["result"] is None):
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(root: Path, args, deadline: float) -> tuple[dict, dict, dict]:
    setups = [run_worker(root, args.workload, args.seed, "setup", 0.0, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    main = run_worker(root, args.workload, args.seed, "measure", args.seconds, deadline)
    setups.append(main)
    res = main["result"]
    lat = res["latencies"]
    setup_times = [s["setup_s"] for s in setups]
    import_share = statistics.median(
        (s["ready"]["interpreter_s"] + s["ready"]["numpy_scipy_s"]) / s["ready"]["ready_s"] for s in setups)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(res["passes"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "item_p50_ms": (1e3 * percentile(lat, 0.50), "ms"),
        "item_p99_ms": (1e3 * percentile(lat, 0.99), "ms"),
    }
    by_tag = {}
    for tag, x in zip(res["tags"], lat):
        by_tag.setdefault(tag, []).append(x)
    report = {
        "workload": args.workload, "seed": args.seed, "mode": "end-to-end",
        "passes_s": res["passes"], "passes_raw_s": res["passes_raw"], "items": len(lat),
        "failures": res["failures"], "check_notes": res["notes"],
        "setup_samples_s": setup_times,
        "setup_phases_s": {k: statistics.median(s["ready"][k] for s in setups)
                           for k in ("interpreter_s", "numpy_scipy_s", "bistab_s", "inputs_s", "ready_s")},
        "setup_interpreter_numpy_scipy_share": import_share,
        "item_ms_by_tag": {tag: {"n": len(xs), "p50": 1e3 * percentile(xs, 0.5), "max": 1e3 * max(xs)}
                           for tag, xs in by_tag.items()},
    }
    p99 = percentile(lat, 0.99)
    report["item_latency_us"] = {"n": len(lat), "beyond_p99": sum(x > p99 for x in lat),
                                 "p50": 1e6 * percentile(lat, 0.5), "p99": 1e6 * p99}
    return metrics, {"attempted": res["attempted"], "failed": res["failed"], "correct": res["failed"] == 0}, report


def trace(root: Path, args, deadline: float) -> tuple[dict, dict, dict]:
    plain = run_worker(root, args.workload, args.seed, "measure", 0.0, deadline)["result"]
    traced = [run_worker(root, args.workload, args.seed, "trace", 0.0, deadline)["result"] for _ in range(2)]
    first, second = traced
    counts = lambda res: {k: v for k, (v, unit) in res["per_layer"].items() if unit == "count"}
    mismatched = sorted(k for k, v in counts(first).items() if counts(second)[k] != v)
    metrics = {k: tuple(v) for k, v in first["per_layer"].items()}
    traced_wall, plain_wall = first["passes"][0], plain["passes"][0]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
    layers = first["layers"]
    candidates = {name: layers["incl_s"].get(name, 0.0) for name in tracing.TOP_LAYER_CANDIDATES}
    report = {
        "workload": args.workload, "seed": args.seed, "mode": "trace",
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "counts_repeat": not mismatched, "count_mismatches": mismatched,
        "top_layer": max(candidates, key=candidates.get),
        "layer_calls": layers["calls"], "layer_incl_s": layers["incl_s"], "layer_self_s": layers["self_s"],
        "us_per_call": {k: 1e6 * layers["incl_s"][k] / n for k, n in layers["calls"].items() if n},
        "self_us_per_call": {k: 1e6 * layers["self_s"][k] / n for k, n in layers["calls"].items() if n},
        "by_tag_incl_s": layers["by_tag_s"], "counters": layers["counts"],
        "failures": plain["failures"] + first["failures"] + second["failures"],
    }
    runs = (plain, first, second)
    failed = sum(r["failed"] for r in runs)
    status = {"attempted": sum(r["attempted"] for r in runs), "failed": failed,
              "correct": failed == 0 and not mismatched}
    return metrics, status, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "bistab" / "__init__.py").is_file():
        print(f"error: no bistab sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        metrics, status, report = (trace if args.trace else measure)(root, args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({**status, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
