#!/usr/bin/env python3
"""Full oracle verification run with a violation census.

Runs every scan at full scale and, for the degree-6 closed-point scan,
breaks the samples down by family.  Over a finite field the Brauer group is
trivial, so orbits on a rational line, on a conjugate line pair and on a
smooth rational conic occur, at the exact rates of
``sbuntwist.verify.degree6_family_rates``; every other special family is
excluded by Galois transitivity alone and must never appear.  For each
prime the script prints every family's observed and expected count with
its two-sided binomial tail probability.  It exits 0 iff the formulas and
the table are exact, collinear hits stay in cases 1 and 7, every collinear
hit is a conic hit, and every family's tail probability is at least
``TAIL_BOUND``; otherwise it lists the failures and exits 1.

With ``--json`` the last line of output is one JSON object: ``ok`` and,
per scan, its mode (and prime), checks, violations, elapsed seconds and
failures.  For the closed-point census, ``violations`` counts the samples
off general position, which a scan over F_p is expected to meet; only its
``failures`` make the run fail.

Usage: python scripts/run_verification.py [--samples N] [--seed S] [--dmax D] [--json]
(N and D must be at least 1, and N at most 10^6)
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbuntwist.verify import (  # noqa: E402
    DEFAULT_DMAX,
    SEED_STRIDE,
    TAIL_BOUND,
    scan_closed_points,
    scan_phi3,
    scan_phi6,
    scan_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dmax", type=int, default=DEFAULT_DMAX)
    parser.add_argument("--json", action="store_true", help="end with a JSON summary line")
    args = parser.parse_args()
    for flag in ("samples", "dmax"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    # random.Random seeds with |seed|, so -7 would repeat seed 7's scans
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    # more would overlap the closed-point scans at the next seed
    if args.samples > SEED_STRIDE:
        parser.error(f"--samples must be <= {SEED_STRIDE}, got {args.samples}")

    failures = []
    scans = []

    def record(mode, rep, elapsed, scan_failures, **where):
        failures.extend(scan_failures)
        scans.append(
            {"mode": mode, **where, "checked": rep.checked, "violations": rep.violations,
             "elapsed_s": round(elapsed, 3), "failures": scan_failures}
        )

    print("== link formulas vs quadratic-transform bookkeeping ==")
    for scan in (scan_phi3, scan_phi6):
        t0 = time.perf_counter()
        rep = scan(args.dmax)
        elapsed = time.perf_counter() - t0
        print(
            f"  {rep.mode}: {rep.checked} grid points, {rep.mismatches} mismatches "
            f"({elapsed:.2f}s)"
        )
        record(rep.mode, rep, elapsed, [] if rep.ok else [f"{rep.mode}: {rep.first_mismatch}"])

    print("\n== configuration classifier vs the forced line-count table ==")
    for q in (7, 11):
        t0 = time.perf_counter()
        rep = scan_table(q, random_samples=args.samples * 10, seed=args.seed)
        elapsed = time.perf_counter() - t0
        counts = [w.line_count for w in rep.witnesses]
        print(
            f"  F_{q}: witnessed counts {counts}, "
            f"{rep.random_checked} random configurations, "
            f"{rep.unclassifiable} unclassifiable ({elapsed:.2f}s)"
        )
        record(
            "table", rep, elapsed,
            [] if rep.ok else [f"table over F_{q}: {rep.first_failure}"], prime=q,
        )

    print("\n== degree-6 closed points: general-position census ==")
    print(
        f"  ({args.samples} samples per prime, seed {args.seed}; "
        f"observed / expected count, tail probability >= {TAIL_BOUND:g})"
    )
    for p in (5, 7, 11, 13):
        t0 = time.perf_counter()
        rep = scan_closed_points(p, samples=args.samples, seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(
            f"  p={p}: collinear {rep.collinear_hits}, conic {rep.conic_hits}, "
            f"violating {rep.violating_samples}, collinear cases "
            f"{dict(rep.case_breakdown)} ({elapsed:.2f}s)"
        )
        for c in rep.families:
            print(
                f"    {c.family:<13}{c.observed:>5} / {float(c.expected):8.2f}"
                f"   tail {c.tail:.3g}"
            )
        record("lemma3", rep, elapsed, list(rep.failures), prime=p)

    print()
    if failures:
        print("STRUCTURAL FAILURES:")
        for f in failures:
            print(f"  - {f}")
    else:
        print(
            "all checks hold: formula equivalence exact, table exact, every "
            "general-position violation sits in a family that only a nontrivial "
            "Brauer class would rule out, at its exact rate"
        )
    if args.json:
        print(json.dumps({"ok": not failures, "scans": scans}, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
