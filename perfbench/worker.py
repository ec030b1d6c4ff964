"""One benchmark process: set up a workload, then run its ops.

run.py starts this script in a fresh interpreter and reads its standard
output. The script prints READY once tanglekit is imported and the first
input is built (the end of set-up), then, unless --mode setup, one JSON line
with the raw results:

  timed   ops run back to back for --seconds (and at least MIN_OPS ops),
          one caller waiting for each answer;
  traced  a fixed number of ops, run untraced and then traced, so the layer
          counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tanglekit  # noqa: E402  (set-up includes the package import)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100  # at least ten samples beyond the 90th percentile
GRACE_S = 60  # extra time allowed to reach MIN_OPS


def attempt(wl, inp, tracer=None) -> tuple[float, bool, object]:
    """Run one op; return (seconds, correct, result). Checks are untimed."""
    try:
        wl.prepare(inp)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 0.0, False, None
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = wl.run(inp, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, False, None
    finally:
        if tracer is not None:
            tracer.end_op()
    dt = time.perf_counter() - t0
    try:
        ok = wl.check(inp, result)
    except Exception as exc:  # noqa: BLE001 - a malformed answer is a wrong answer
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    return dt, ok, result


def peak_rss_mib(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed(wl, first, stream, seconds: float) -> dict:
    latencies, failed, done = [], 0, []
    op_seconds = 0.0
    start = time.perf_counter()
    inp = first
    while True:
        dt, ok, result = attempt(wl, inp)
        latencies.append(dt * 1e3)
        op_seconds += dt
        failed += not ok
        done.append((inp, wl.note(result) if ok else None))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds + GRACE_S:
            break
        if elapsed >= seconds and len(latencies) >= MIN_OPS:
            break
        inp = next(stream)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "op_seconds": op_seconds,
        "latencies_ms": latencies,
        "peak_rss_mib": peak_rss_mib(wl.name == "cli-oneshot"),
        "inputs": wl.summary(done),
    }


def traced(wl, inputs: list) -> dict:
    failed = 0
    plain = 0.0
    for inp in inputs:
        dt, ok, _ = attempt(wl, inp)
        plain += dt
        failed += not ok
    tracer = tracing.Tracer()
    spent = 0.0
    walls: dict[str, list[float]] = {}
    bare, imports = [], []
    done = []
    with tracing.installed(tracer):
        for inp in inputs:
            dt, ok, result = attempt(wl, inp, tracer)
            spent += dt
            failed += not ok
            done.append((inp, wl.note(result) if ok else None))
            if wl.name == "cli-oneshot":
                walls.setdefault(inp["verb"], []).append(dt * 1e3)
                interp_ms, import_ms = wl.probe()
                bare.append(interp_ms)
                imports.append(import_ms)
    metrics = tracing.layer_metrics(tracer)
    for verb in ("det", "colorable", "tangle_cf", "template_fit", "certify",
                 "verify", "corpus_check"):
        metrics[f"cli.{verb}.wall_ms"] = statistics.median(walls.get(verb, [0.0]))
    metrics["cli.interp_start_ms"] = statistics.median(bare or [0.0])
    metrics["cli.import_ms"] = statistics.median(imports or [0.0])
    metrics["trace.overhead_ratio"] = spent / plain if plain else 0.0
    return {
        "attempted": 2 * len(inputs),
        "failed": failed,
        "metrics": metrics,
        "inputs": wl.summary(done),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, SRC, tanglekit)
    try:
        stream = wl.stream()
        if args.mode == "traced":
            inputs = list(islice(stream, wl.traced_ops))
        else:
            first = next(stream)
        print("READY", flush=True)
        if args.mode == "timed":
            out = timed(wl, first, stream, args.seconds)
        elif args.mode == "traced":
            out = traced(wl, inputs)
        else:
            return 0
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
