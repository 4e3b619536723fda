#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<N>.json.

Runs ``perfbench/run.py --trace 0 --seconds 20 --seed 1`` for the census,
classify and words workloads, then the tier-1 tests with
``--durations=0``, and writes ``BENCH_<N>.json`` at the repository root:

* ``perfbench``: per workload, the run's ``meta``, ``notes`` and final
  result JSON lines, parsed;
* ``tier1``: the pytest summary line, its wall time, and the call times
  of acceptance criteria 5 and 6;
* ``src_lines``: the line count of the ``.py`` files under ``src/``, as
  the first workload's ``meta`` line reports it;
* ``tree``: the measured tree, ``head`` (``git rev-parse HEAD``) and
  ``uncommitted`` (whether ``git status --porcelain -- src tests scripts``
  printed anything).  perfbench's ``meta.git_commit`` names HEAD only, so
  a run on uncommitted changes would otherwise read as the commit below them.

perfbench is run as a command, unchanged.  Nothing is written if a run or
the tests fail; the script then names what failed and exits 1.

Usage: python scripts/bench.py --pr N
"""

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "classify", "words")
PERFBENCH_ARGS = ("--seed", "1", "--seconds", "20", "--trace", "0")
CRITERIA = {
    "criterion_5_s": "test_criterion_5_",
    "criterion_6_s": "test_criterion_6_",
}
# the paths whose uncommitted changes make the tree differ from HEAD
TREE_PATHS = ("src", "tests", "scripts")
# a --durations line: "1.23s call     tests/test_x.py::test_name"
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s call\s+(\S+)$")


def perfbench_record(stdout: str) -> dict:
    """The ``meta``, ``notes`` and final result lines of one perfbench run."""
    lines = stdout.strip().splitlines()
    record = {"result": json.loads(lines[-1])}
    for line in lines:
        for key in ("meta", "notes"):
            if line.startswith(key + " "):
                record[key] = json.loads(line[len(key) + 1:])
    missing = {"meta", "notes"} - set(record)
    if missing:
        raise ValueError(f"perfbench output has no {', '.join(sorted(missing))} line")
    return record


def criterion_times(pytest_stdout: str) -> dict:
    """Call times of acceptance criteria 5 and 6 from ``--durations=0``."""
    times = {}
    for line in pytest_stdout.splitlines():
        match = DURATION.match(line.strip())
        if match:
            for key, name in CRITERIA.items():
                if name in match.group(2):
                    times[key] = float(match.group(1))
    missing = set(CRITERIA) - set(times)
    if missing:
        raise ValueError(f"no duration for {', '.join(sorted(missing))}")
    return times


def tree_record(head_stdout: str, status_stdout: str) -> dict:
    """The ``tree`` entry from the output of ``git rev-parse HEAD`` and of
    ``git status --porcelain`` over the measured paths."""
    return {"head": head_stdout.strip(), "uncommitted": bool(status_stdout.strip())}


def bench_record(
    pr: int,
    perfbench_stdout: dict,
    pytest_stdout: str,
    tier1_wall_s: float,
    tree: dict,
) -> dict:
    summary = pytest_stdout.strip().splitlines()[-1].strip("= ")
    perfbench = {w: perfbench_record(out) for w, out in perfbench_stdout.items()}
    return {
        "pr": pr,
        "perfbench": perfbench,
        "tier1": {"summary": summary, "wall_s": tier1_wall_s, **criterion_times(pytest_stdout)},
        "src_lines": perfbench[WORKLOADS[0]]["meta"]["src_lines"],
        "tree": tree,
    }


def run(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number N in BENCH_<N>.json")
    args = parser.parse_args()
    if args.pr < 1:
        parser.error(f"--pr must be >= 1, got {args.pr}")

    git = [run(["git", "rev-parse", "HEAD"]),
           run(["git", "status", "--porcelain", "--", *TREE_PATHS])]
    for proc in git:
        if proc.returncode != 0:
            print(f"error: {' '.join(proc.args)} exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
    tree = tree_record(git[0].stdout, git[1].stdout)

    perfbench_stdout = {}
    for workload in WORKLOADS:
        proc = run([sys.executable, "perfbench/run.py", "--workload", workload, *PERFBENCH_ARGS])
        if proc.returncode != 0:
            print(f"error: perfbench {workload} exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        perfbench_stdout[workload] = proc.stdout

    t0 = time.perf_counter()
    proc = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                "--durations=0"])
    tier1_wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"error: tier-1 tests exited {proc.returncode}\n{proc.stdout[-2000:]}",
              file=sys.stderr)
        return 1

    record = bench_record(args.pr, perfbench_stdout, proc.stdout, tier1_wall_s, tree)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
