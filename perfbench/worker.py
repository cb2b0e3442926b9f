"""One fresh benchmark process: set up, run the workload, check, report.

Started by ``run.py``; talks back through stdout lines that begin with
``@@``.  ``@@READY`` marks the end of set-up (imports, seeded inputs, parsing
the signal documents) and carries the time of each set-up phase, measured
from the parent's spawn time.  ``@@RESULT`` carries the measurements.
"""

from __future__ import annotations

import time

T_START = time.time()

import argparse
import json
import os
import random
import resource
import shutil
import sys
from time import perf_counter

import speed
import tracing


def emit(kind: str, payload: dict) -> None:
    sys.__stdout__.write(f"@@{kind} {json.dumps(payload)}\n")
    sys.__stdout__.flush()


def run_pass(items, tracer=None) -> tuple[list, list[tuple[float, float]], list[str | None]]:
    """One closed-loop pass: each item starts when the previous one returns.
    Returns the outputs, the (start, end) of each item and its error."""
    outputs, spans, errors = [], [], []
    for item in items:
        if tracer is not None:
            tracer.tag = item.tag
        t0 = perf_counter()
        try:
            out, err = item.run(), None
        except Exception as exc:  # a failed item is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        spans.append((t0, perf_counter()))
        outputs.append(out)
        errors.append(err)
    return outputs, spans, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    phases = {"interpreter_s": T_START - args.spawned_at}
    t = time.time()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    phases["numpy_scipy_s"] = time.time() - t
    t = time.time()
    import bistab
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(bistab.__file__).startswith(src + os.sep):
        print(f"bistab imported from {bistab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "trace":
        tracer = tracing.install()
    import workloads
    phases["bistab_s"] = time.time() - t
    t = time.time()
    os.makedirs(args.workdir, exist_ok=True)
    try:
        items = workloads.WORKLOADS[args.workload](random.Random(args.seed), args.workdir)
        phases["inputs_s"] = time.time() - t
        phases["ready_s"] = time.time() - args.spawned_at
        emit("READY", phases)
        if args.mode == "setup":
            return 0
        if tracer is not None:
            setup_parse = {"calls": tracer.calls["signals.from_json"], "s": tracer.incl["signals.from_json"]}
            tracer.reset()
        meter = speed.SpeedMeter()
        runs, all_spans = [], []
        t_measure = perf_counter()
        meter.start()
        try:
            while True:
                outputs, spans, errors = run_pass(items, tracer)
                runs.append((outputs, errors))
                all_spans.append(spans)
                elapsed = perf_counter() - t_measure
                if tracer is not None or elapsed * (len(runs) + 1) / len(runs) > args.seconds:
                    break
        finally:
            meter.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    times = [[meter.convert(a, b) for a, b in spans] for spans in all_spans]

    # correctness gates, outside the timed region: the first pass is checked,
    # and every later pass must return the same outputs
    first, first_errors = runs[0]
    problems = []
    for item, out, err in zip(items, first, first_errors):
        if err is None:
            try:
                err = item.check(out)
            except Exception as exc:  # a malformed output is a failed item
                err = f"check raised {type(exc).__name__}: {exc}"
        problems.append(err)
    failures = []
    for p, (outputs, errors) in enumerate(runs):
        for k, item in enumerate(items):
            problem = errors[k] or problems[k] or (None if outputs[k] == first[k] else "output differs from pass 0")
            if problem is not None:
                failures.append({"pass": p, "item": k, "tag": item.tag, "problem": problem})
    notes = {}
    for item in items:
        for key, value in item.notes.items():
            name = f"{item.tag}.{key}_max"
            notes[name] = max(value, notes.get(name, value))
    result = {
        "notes": notes,
        "passes_raw": [sum(raw for raw, _ in pass_times) for pass_times in times],
        "passes": [sum(ref for _, ref in pass_times) for pass_times in times],
        "latencies": [ref for pass_times in times for _, ref in pass_times],
        "tags": [item.tag for _ in runs for item in items],
        "attempted": len(items) * len(runs),
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        # layer spans include the speed meter's handler, so shares are taken
        # of the first pass's wall time with the handler left in
        tag_wall = {}
        for item, (a, b) in zip(items, all_spans[0]):
            tag_wall[item.tag] = tag_wall.get(item.tag, 0.0) + (b - a)
        metrics = tracing.per_layer(tracer, sum(tag_wall.values()), tag_wall)
        metrics["setup.from_json.calls"] = (setup_parse["calls"], "count")
        metrics["setup.from_json.share"] = (100.0 * setup_parse["s"] / phases["ready_s"], "%")
        result["per_layer"] = metrics
        result["layers"] = {"calls": tracer.calls, "incl_s": tracer.incl, "self_s": tracer.self_s,
                            "counts": tracer.counts, "by_tag_s": tracer.tag_s}
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
