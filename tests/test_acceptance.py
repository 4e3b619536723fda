"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-2 and 7-9 share a fixed population of 1,000 seeded chains of
length <= 6 pushed out of -omega.  Criteria 3-4 are exhaustive grid
equivalences between the symbolic link formulas and the plane oracle.
Criteria 5-6 are the finite-field sampling checks.

Criterion 5 asserts the finite-field form of degree-6 general position.
On a nontrivial Severi-Brauer surface no three of the six geometric points
are collinear and they lie on no conic, because such a line, line pair or
conic would be Galois-stable, a curve of degree 1 or 2 over the base field.
The Brauer group of F_p is trivial, so those curves exist and sampled
orbits land on them at exact rates (``degree6_family_rates``): about
4.0%, 2.0%, 0.8% and 0.6% on a conjugate line pair, 19.7%, 14.2%, 9.1% and
7.7% on a smooth rational conic at p = 5, 7, 11, 13, and well under 0.2%
on a rational line.  What the argument still yields is asserted:
collinear hits only in the two Galois-stable families (cases 1 and 7),
every collinear hit also a conic hit, each family count within a binomial
tail probability of 1e-6 of its exact rate, and hand-built orbits of each
family flagged as such.  All nine criteria pass.
"""

import time
from functools import lru_cache

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    arithmetic_genus,
    max_multiplicity_orbit,
    noether_check,
)
from sbuntwist.gf import field
from sbuntwist.plane import (
    ClosedPoint,
    ProjPoint,
    classify_configuration,
    general_position_report,
)
from sbuntwist.untwist import Parity, ParityContradiction, random_chain, replay, untwist
from sbuntwist.verify import (
    scan_closed_points,
    scan_phi3,
    scan_phi6,
    scan_table,
)

CHAIN_COUNT = 1000
GAMMA = BrauerLabel.GAMMA


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=1)
def _chains():
    """(length, final cycle, links) for seeds 0..999, lengths seed mod 7."""
    return tuple(
        (seed % 7, *random_chain(seed % 7, seed)) for seed in range(CHAIN_COUNT)
    )


@lru_cache(maxsize=1)
def _trajectories():
    start = CycleClass(GAMMA, 1)
    return tuple(tuple(replay(start, links)) for _, _, links in _chains())


@lru_cache(maxsize=1)
def _factorizations():
    return tuple(untwist(cycle, GAMMA) for _, cycle, _ in _chains())


def test_criterion_1_noether_relations_along_chains():
    t0 = time.perf_counter()
    chains = [(length, *random_chain(length, seed)) for seed in range(CHAIN_COUNT) for length in (seed % 7,)]
    start = CycleClass(GAMMA, 1)
    bad = 0
    checked = 0
    for _, _, links in chains:
        for cycle in replay(start, links):
            rep = noether_check(cycle)
            checked += 1
            if not (rep.e2 and rep.e3):
                bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        bad == 0 and elapsed < 1.0,
        f"{checked} intermediate cycles over {CHAIN_COUNT} chains, "
        f"{bad} relation failures, {elapsed:.2f}s",
    )


def test_criterion_2_round_trip_untwisting():
    chains = _chains()
    t0 = time.perf_counter()
    failures = []
    for i, (length, cycle, _) in enumerate(chains):
        fact = untwist(cycle, GAMMA)
        ok = (
            fact.terminal.is_anticanonical()
            and len(fact.steps) == length
            and all(a > b for a, b in zip(fact.d_trace, fact.d_trace[1:]))
            and fact.parity is (Parity.EVEN if length % 2 == 0 else Parity.ODD)
        )
        if not ok:
            failures.append(i)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        not failures and elapsed < 1.0,
        f"{len(chains)} chains untwisted, {len(failures)} failures, {elapsed:.2f}s",
    )


def test_criterion_3_degree3_link_oracle_equivalence():
    t0 = time.perf_counter()
    report = scan_phi3(dmax=50)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        report.ok and elapsed < 1.0,
        f"{report.checked} (d, b) pairs, {report.mismatches} mismatches"
        f"{'; first: ' + report.first_mismatch if report.first_mismatch else ''}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_degree6_link_oracle_equivalence():
    t0 = time.perf_counter()
    report = scan_phi6(dmax=50)
    # the d=1, b=0 row must reproduce the anticanonical image (5; 6^6)
    from sbuntwist.links import phi6_push

    image, _ = phi6_push(CycleClass(GAMMA, 1))
    anchor_ok = image.d == 5 and [
        (o.degree, o.multiplicity) for o in image.orbits
    ] == [(6, 6)]
    elapsed = time.perf_counter() - t0
    _report(
        4,
        report.ok and anchor_ok and elapsed < 1.0,
        f"{report.checked} (d, b) pairs, {report.mismatches} mismatches, "
        f"anchor (d=1, b=0) -> (5; 6x6): {anchor_ok}, {elapsed:.2f}s",
    )


def _family_controls(p: int) -> dict[tuple[bool, bool, int], ClosedPoint]:
    """Hand-built degree-6 closed points over F_p, keyed by the verdict the
    scan must reach on them: (no three collinear, off every conic, case id
    of the collinear profile or 0).  With a of degree 6 and c in F_{p^2}
    but not in F_p: (1 : a : 0) on the rational line z = 0, (1 : a : c) on
    the conjugate pair z = c x, z = c^p x, and (1 : a : a^2) on the smooth
    conic y^2 = x z."""
    F = field(p, 6)
    a = (0, 1, 0, 0, 0, 0)  # a root of the degree-6 modulus

    def norm(x):  # x^(1 + p^2 + p^4), the norm from F_{p^6} to F_{p^2}
        x2 = F.frobenius(F.frobenius(x))
        return F.mul(x, F.mul(x2, F.frobenius(F.frobenius(x2))))

    norms = (norm(F.add(a, F.element(k))) for k in range(p))
    c = next(n for n in norms if F.frobenius(n) != n)
    controls = {
        (False, False, 1): (F.element(1), a, F.zero),
        (False, False, 7): (F.element(1), a, c),
        (True, False, 0): (F.element(1), a, F.mul(a, a)),
    }
    return {
        key: ClosedPoint(ProjPoint.make(F, coords))
        for key, coords in controls.items()
    }


def test_criterion_5_degree6_general_position_scan():
    t0 = time.perf_counter()
    details = []
    problems = []
    for p in (5, 7, 11, 13):
        rep = scan_closed_points(p, samples=100, seed=1)
        problems.extend(rep.failures)
        for expected, cp in _family_controls(p).items():
            pos = general_position_report(cp)
            case = 0 if pos.no_three_collinear else classify_configuration(cp.points)[0].case_id
            got = (pos.no_three_collinear, pos.off_conic, case)
            if cp.degree != 6 or got != expected:
                problems.append(f"p={p}: control {expected} read as {got}")
        details.append(
            f"p={p}: "
            + ", ".join(
                f"{c.family} {c.observed}/{float(c.expected):.2f}"
                for c in rep.families
            )
        )
    elapsed = time.perf_counter() - t0
    _report(
        5,
        not problems and elapsed < 30.0,
        f"400 sampled degree-6 closed points, observed/expected per family "
        f"({'; '.join(details)}); {problems or 'all within bound'}, {elapsed:.2f}s",
    )


def test_criterion_6_line_count_table_and_classifier_totality():
    t0 = time.perf_counter()
    table = [1, 6, 10, 8, 11, 13, 11, 9, 7]
    problems = []
    for q in (7, 11):
        rep = scan_table(q, random_samples=5000, seed=6)
        counts = [w.line_count for w in rep.witnesses]
        if not all(w.realized for w in rep.witnesses):
            problems.append(f"q={q}: unrealized cases")
        if counts != table:
            problems.append(f"q={q}: counts {counts} != {table}")
        if rep.unclassifiable:
            problems.append(f"q={q}: {rep.unclassifiable} unclassifiable samples")
        if rep.count_mismatches:
            problems.append(f"q={q}: {rep.count_mismatches} line-count mismatches")
    elapsed = time.perf_counter() - t0
    _report(
        6,
        not problems and elapsed < 60.0,
        f"9 witnessed cases and 5000 random configurations per field; "
        f"{problems or 'table reproduced exactly'}, {elapsed:.2f}s",
    )


def test_criterion_7_multiplicity_and_degree_bounds():
    bad = 0
    checked = 0
    for trajectory in _trajectories():
        for cycle in trajectory:
            if cycle.d < 2:
                continue
            checked += 1
            top = max_multiplicity_orbit(cycle)
            if top is None or top.multiplicity < cycle.d + 1 or top.degree not in (3, 6):
                bad += 1
    for fact in _factorizations():
        for cycle in fact.trace:
            if cycle.d < 2:
                continue
            checked += 1
            top = max_multiplicity_orbit(cycle)
            if top is None or top.multiplicity < cycle.d + 1 or top.degree not in (3, 6):
                bad += 1
    _report(7, bad == 0, f"{checked} intermediate cycles with d >= 2, {bad} bound violations")


def test_criterion_8_genus_and_intersection_conservation():
    bad = 0
    checked = 0
    for cycles in _trajectories() + tuple(f.trace for f in _factorizations()):
        for cycle in cycles:
            checked += 1
            if noether_check(cycle).self_intersection != 9 or arithmetic_genus(cycle) != 1:
                bad += 1
    _report(8, bad == 0, f"{checked} intermediate cycles, {bad} conservation violations")


def test_criterion_9_parity_bookkeeping():
    wrong_accepted = 0
    right_rejected = 0
    for length, cycle, _ in _chains():
        correct = cycle.label if length % 2 == 0 else cycle.label.inverse()
        wrong = correct.inverse()
        try:
            fact = untwist(cycle, correct)
            if fact.terminal.label is not correct:
                right_rejected += 1
        except ParityContradiction:
            right_rejected += 1
        try:
            untwist(cycle, wrong)
            wrong_accepted += 1
        except ParityContradiction:
            pass
    _report(
        9,
        wrong_accepted == 0 and right_rejected == 0,
        f"{CHAIN_COUNT} chains x 2 declarations; {wrong_accepted} wrong targets "
        f"accepted, {right_rejected} correct targets rejected",
    )
