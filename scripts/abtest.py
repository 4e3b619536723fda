#!/usr/bin/env python3
"""Paired A/B runs of perfbench: a parent revision against a change.

The parent tree is extracted with ``git archive`` to a temporary directory;
the change is the working tree, or a second revision extracted the same
way with ``--change``.  For each workload:

* ``setup_s``: 20 set-up-only worker processes per tree
  (``perfbench/worker.py --setup-only``), alternating between the trees,
  each timed from process start to its ``READY`` line and scaled by
  perfbench's reference loop as ``perfbench/run.py`` scales its own five
  samples;
* every other end-to-end metric: ``--pairs`` runs of
  ``perfbench/run.py --trace 0`` per tree, as long as ``BENCHMARK.json``
  says, the order within a pair alternating (parent first in even pairs,
  change first in odd ones);
* one 2 s ``--trace 1`` run per tree, for the output digest and every
  metric counted in unit ``count`` (per-item call counts among them).
  These run first, for every workload, so that a ``--moved`` name that
  no trace reports is refused before the timed runs.

The metrics, their better direction and their bounds are read from
``BENCHMARK.json``.  Per workload and metric, the output gives both
medians, both interquartile ranges, the pairs the change wins, the
relative change of the medians, every value in run order, ``breach``
(worse than the parent by more than the bound), ``unresolved`` (see
``metric_report``) and ``gain`` (better in at least 9 of 10 pairs, and
the medians apart by more than the parent's interquartile range).  ``ok``
is false when a metric breaches its bound or is unresolved, a larger
share of the change's items fails, or the digests differ, or a count
differs that no ``--moved NAME`` names: a change meant to move a count
names it, and the report lists each named count with both values.

Progress goes to standard error; standard output is one JSON object.
Exit status: 0 when ``ok``, 1 otherwise, 2 on bad arguments (a
``--moved`` name that no trace reports among them).

Usage: python scripts/abtest.py --parent REV [--change REV] [--pairs N]
           [--seed S] [--workload W ...] [--moved NAME ...]
"""

import argparse
import importlib.util
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from bench import perfbench_record

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# perfbench/run.py takes 5 set-up samples, which moved by up to 27% between
# runs of identical code
SETUP_SAMPLES = 20
# the length of CI's correctness runs; every pass does the same work, so
# per-item counts do not depend on it
TRACE_SECONDS = 2


def alternating(n):
    """The order of the two trees in each of n pairs: parent first in
    even pairs, change first in odd ones."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(n)]


def iqr(values: list) -> float:
    """The distance between the quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metric_report(better: str, bound: float, parent: list, change: list) -> dict:
    """One metric's verdict from its values, pair by pair.  ``unresolved``:
    the parent's own runs spread by more than the bound (interquartile
    range over median), and not every run of the change beats every run
    of the parent."""
    sign = 1 if better == "higher" else -1
    p50, c50 = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    apart = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    rel = (c50 - p50) / p50
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent_median": p50,
        "change_median": c50,
        "parent_iqr": spread,
        "change_iqr": iqr(change),
        "rel_change": rel,
        "wins": wins,
        "pairs": len(parent),
        "breach": sign * rel < -bound,
        "unresolved": spread > bound * p50 and not apart,
        "gain": wins >= math.ceil(0.9 * len(parent)) and sign * (c50 - p50) > spread,
        "parent_values": parent,
        "change_values": change,
    }


def _counts(record: dict) -> dict:
    return {n: m["value"] for n, m in record["result"]["metrics"].items() if m["unit"] == "count"}


def trace_report(parent_stdout: str, change_stdout: str, moved=()) -> dict:
    """Digests and count metrics of one ``--trace 1`` run per tree.  The
    counts named in ``moved`` may differ; ``moved_counts`` lists those the
    traces report, with both values, and ``differing_counts`` every other
    count that differs."""
    parent, change = perfbench_record(parent_stdout), perfbench_record(change_stdout)
    pc, cc = _counts(parent), _counts(change)
    both = {n: [pc.get(n), cc.get(n)] for n in sorted(pc.keys() | cc.keys())}
    differing = {n: v for n, v in both.items() if v[0] != v[1] and n not in moved}
    digests = [parent["notes"]["digest"], change["notes"]["digest"]]
    return {
        "parent_digest": digests[0],
        "change_digest": digests[1],
        "digests_equal": digests[0] == digests[1],
        "counts_equal": not differing,
        "differing_counts": differing,
        "moved_counts": {n: v for n, v in both.items() if n in moved},
    }


def workload_report(spec: dict, runs: dict, setups: dict, traces: dict, moved=()) -> dict:
    """The verdicts of one workload.  ``runs`` maps each side to its
    ``--trace 0`` outputs in pair order, ``setups`` to its set-up seconds
    in sample order, ``traces`` to its ``--trace 1`` output; ``moved``
    names the counts that may differ."""
    results = {side: [perfbench_record(out)["result"] for out in runs[side]] for side in SIDES}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            values = setups
        else:
            values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         **metric_report(m["better"], m["bound"], values["parent"],
                                         values["change"])}
    failed = {side: sum(r["failed"] for r in results[side])
              / sum(r["attempted"] for r in results[side]) for side in SIDES}
    trace = trace_report(traces["parent"], traces["change"], moved)
    ok = (not any(m["breach"] or m["unresolved"] for m in metrics.values())
          and failed["change"] <= failed["parent"]
          and trace["digests_equal"] and trace["counts_equal"])
    return {"metrics": metrics, "failed_frac": failed, "trace": trace, "ok": ok}


def extract(rev: str, dest: Path) -> Path:
    """The committed tree of ``rev``, from ``git archive``."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git archive {rev}: {proc.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        # the "data" filter refuses absolute paths and links out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # its own process group, so that an interrupted run takes its worker with it
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if not out.strip():
        raise SystemExit(f"error: {' '.join(cmd[1:])} in {tree} printed nothing "
                         f"(exit {proc.returncode})\n{err}")
    return out


def _speed():
    """perfbench's reference loop, from this tree's ``perfbench/speed.py``."""
    spec = importlib.util.spec_from_file_location("speed", ROOT / "perfbench" / "speed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_seconds(tree: Path, workload: str, seed: int, speed) -> float:
    """Start to ``READY`` of one set-up-only worker, scaled by the reference
    loop timed just before and just after it."""
    before = speed.kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "perfbench/worker.py", "--workload", workload,
                             "--seed", str(seed), "--setup-only"],
                            cwd=tree, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.communicate()
    if line.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"error: set-up-only {workload} worker in {tree} failed "
                         f"(exit {proc.returncode})")
    return ready * speed.REFERENCE_S / ((before + speed.kernel_seconds()) / 2)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", help="a revision to measure in place of the working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="extend", nargs="+", choices=names)
    parser.add_argument("--moved", action="extend", nargs="+", default=[], metavar="NAME",
                        help="counts the change is meant to move (repeatable)")
    args = parser.parse_args(argv)
    for flag, value, least in (("--pairs", args.pairs, 1), ("--seed", args.seed, 0)):
        if value < least:
            parser.error(f"{flag} must be >= {least}, got {value}")

    seconds, speed = spec["run_seconds"], _speed()
    report = {"parent": args.parent, "change": args.change or "working tree",
              "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "setup_samples": SETUP_SAMPLES, "moved": args.moved, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract(args.parent, Path(tmp) / "parent"),
                 "change": extract(args.change, Path(tmp) / "change") if args.change else ROOT}
        workloads = args.workload or names
        traces = {w: {side: run_perfbench(trees[side], w, args.seed, TRACE_SECONDS, 1)
                      for side in SIDES} for w in workloads}
        reported = {n for t in traces.values() for out in t.values()
                    for n in _counts(perfbench_record(out))}
        unknown = sorted(set(args.moved) - reported)
        if unknown:
            parser.error(f"--moved {', '.join(unknown)}: no trace reports such a count")
        for workload in workloads:
            setups, runs = {s: [] for s in SIDES}, {s: [] for s in SIDES}
            for order in alternating(SETUP_SAMPLES):
                for side in order:
                    setups[side].append(setup_seconds(trees[side], workload, args.seed, speed))
            for i, order in enumerate(alternating(args.pairs)):
                for side in order:
                    print(f"{workload} pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                    runs[side].append(run_perfbench(trees[side], workload, args.seed, seconds, 0))
            report["workloads"][workload] = workload_report(spec, runs, setups, traces[workload],
                                                            args.moved)
    report["ok"] = all(w["ok"] for w in report["workloads"].values())
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    # a kill then unwinds: the running perfbench process group is killed
    # and the temporary trees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
