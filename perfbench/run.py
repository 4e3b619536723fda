#!/usr/bin/env python3
"""sbuntwist benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload census|classify|words \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own fresh worker process (``perfbench/worker.py``)
as a closed loop with one caller.  With ``--trace 0`` the run prints the
end-to-end metrics; ``setup_s`` is the median, over SETUP_SAMPLES fresh
set-up-only processes, of the time from process start to the point where
the first timed item would start, so per-process caches (``gf.field``,
``verify.case_witness``) are paid every time.  Times are scaled to a fixed
machine speed (``perfbench/speed.py``); raw figures are in the notes line.
With ``--trace 1`` it prints the per-layer metrics of a traced run.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S, kernel_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("census", "classify", "words")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkerError(Exception):
    """A worker failed or overran the deadline; the run has no result."""


def start_worker(args, deadline):
    """Start a worker and wait for its READY line; returns the process and
    the seconds from its start to READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        proc.kill()
        proc.communicate()
        raise WorkerError("set-up exceeded the run deadline; worker killed")
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkerError(f"worker {' '.join(args)} failed in set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Collect a worker's remaining output; kill it if the deadline passes."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run deadline and was killed") from None
    return out


def source_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_commit():
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sbuntwist", "__init__.py")):
        print("error: src/sbuntwist not found; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                before = kernel_seconds()
                proc, ready = start_worker([*common, "--setup-only"], deadline)
                finish(proc, deadline)
                if proc.returncode != 0:
                    raise WorkerError(f"set-up-only worker exited {proc.returncode}")
                loop_s = (before + kernel_seconds()) / 2
                setups.append((ready * REFERENCE_S / loop_s, ready))
        mode = ["--trace"] if args.trace else []
        proc, _ = start_worker([*common, "--seconds", str(args.seconds), *mode], deadline)
        out = finish(proc, deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"error: {args.workload}: worker printed no result (exit {proc.returncode})", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    notes = result["notes"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(scaled for scaled, _ in setups),
            "unit": "s",
            "samples": len(setups),
        }
        notes["raw_setup_s"] = statistics.median(raw for _, raw in setups)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_lines": source_lines(),
    }
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        extra = ""
        if name == "item_tail_ms":
            extra = f"  (p{notes['tail_percentile']:g}: {notes['tail_beyond']} items beyond)"
        print(f"{name:56s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}{extra}")
    if not args.trace:
        print(f"{'failed_frac':56s} {notes['failed_frac']:>16.6g} {'ratio':6s} n={result['attempted']}")
    print("notes " + json.dumps(notes))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
            }
        )
    )
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
