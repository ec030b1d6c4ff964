"""tanglekit benchmark: one workload, one seed, one line of metrics.

Usage (from any directory; paths resolve from this file):

  python3 perfbench/run.py --workload det-closures --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics: the timed run in a fresh worker
process plus SETUP_SAMPLES extra set-ups, each in its own fresh process.
--trace 1 prints the per-layer metrics of a separate traced run. Workers run
one at a time and wait for each answer (a closed loop with one caller).

Standard output ends with a line describing the run (fingerprint and input
summary) followed by the result line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (does not import tanglekit)

SETUP_SAMPLES = 5  # set-up-only processes, besides the timed one
WORKER_LIMIT_S = 170  # a worker is killed past this


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until READY, its JSON result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def fingerprint(seed: int, overhead: float | None) -> dict:
    """Where and on what the run happened; overhead is the traced run's
    trace.overhead_ratio (None for an untraced run, which measures none)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tanglekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "traced": overhead is not None,
        "trace_overhead_ratio": overhead,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(base + ["--mode", "setup"])[0] for _ in range(SETUP_SAMPLES)]
    setup, run = spawn(base + ["--mode", "timed", "--seconds", str(seconds)])
    setups.append(setup)
    lat = run["latencies_ms"]
    correct_ops = run["attempted"] - run["failed"]
    metrics = {
        "ops_per_s": (correct_ops / run["op_seconds"], "ops/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[-1], "ms"),
        "success_ratio": (correct_ops / run["attempted"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    about = {
        "inputs": run["inputs"],
        "error_rate": run["failed"] / run["attempted"],
        "latency_samples": len(lat),
        "setup_samples_s": setups,
    }
    return metrics, run, about


def per_layer(workload: str, seed: int) -> tuple[dict, dict, dict]:
    _, run = spawn(["--workload", workload, "--seed", str(seed), "--mode", "traced"])
    units = {"ms": "ms", "calls": "count", "dim_max": "rows", "dim_cubed_sum": "count",
             "distinct_ratio": "ratio", "rejects": "count", "nodes_total": "count",
             "nodes_max": "count", "json_bytes": "bytes",
             "refits_per_verify": "refits/verify", "overhead_ratio": "ratio"}
    metrics = {}
    for name, value in run["metrics"].items():
        suffix = name.rsplit(".", 1)[1]
        metrics[name] = (value, units["ms" if suffix.endswith("_ms") else suffix])
    about = {
        "inputs": run["inputs"],
        "error_rate": run["failed"] / run["attempted"],
    }
    return metrics, run, about


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tanglekit" / "__init__.py").is_file():
        print(f"error: no tanglekit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, run, about = per_layer(args.workload, args.seed)
        else:
            metrics, run, about = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, ValueError, KeyError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    overhead = metrics["trace.overhead_ratio"][0] if args.trace else None
    about = {"workload": args.workload,
             "fingerprint": fingerprint(args.seed, overhead), **about}
    print(json.dumps(about))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
