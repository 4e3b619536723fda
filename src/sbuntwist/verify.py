"""Oracle verification scans.

Each scan cross-checks one layer of the engine against an independent
route: the link formulas against quadratic-transform bookkeeping on the
plane, sampled Frobenius orbits against the general-position predictions,
and the configuration classifier against a fixed integer witness of every
line-profile case, reduced mod q.  Scans are deterministic given their
seeds and report counts of checks and violations; a violation means either
an implementation bug or a claim that genuinely fails over the chosen field.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .curves import CurveClass, cycle_point_multiset, phi6_decomposition_push, quad_transform_push
from .cycles import BrauerLabel, CycleClass, Orbit
from .gf import field
from .links import DegenerateImage, LinkKind, push
from .plane import (
    ConfigCase,
    ProjPoint,
    UnclassifiableConfiguration,
    classify_configuration,
    connecting_lines,
    general_position_report,
    sample_closed_point,
    sample_configuration,
)

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of a symbolic-vs-oracle formula scan."""

    mode: str
    checked: int
    mismatches: int
    first_mismatch: str

    @property
    def violations(self) -> int:
        return self.mismatches

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


DEFAULT_DMAX = 50  # the --dmax default of the CLI and of scripts/run_verification.py


def _scan_link(kind: LinkKind, dmax: int) -> EquivalenceReport:
    """Compare the link formula at a degree-n center of multiplicity b with
    its realization on the plane (one quadratic transform for n = 3, three
    for n = 6) over the full (d, b) grid on which the formula's image is
    valid: d' = (n-1)d - (n-2)b >= 1 and b' = nd - (n-1)b >= 0.  A dmax
    below 1 raises ``ValueError``: its grid is empty."""
    if dmax < 1:
        raise ValueError(f"dmax must be >= 1, got {dmax}")
    n = kind.center_degree
    labels = tuple(f"p{i}" for i in range(1, n + 1))
    checked = mismatches = 0
    first = ""
    for d in range(1, dmax + 1):
        # d' and b' decrease in b, so the valid b are 0, 1, ..., up to the
        # first b whose image the link rejects
        for b in itertools.count():
            try:
                pushed, _ = push(CycleClass(BrauerLabel.GAMMA, d, (Orbit("c", n, b),)), "c", kind)
            except DegenerateImage:
                break
            symbolic = cycle_point_multiset(
                pushed.d, [(o.degree, o.multiplicity) for o in pushed.orbits]
            )
            curve = CurveClass.make(3 * d, {lbl: b for lbl in labels})
            if kind is LinkKind.PHI3:
                image = quad_transform_push(curve, labels)
            else:
                image = phi6_decomposition_push(curve, labels)
            oracle = (image.line_degree, image.point_multiset())
            checked += 1
            if symbolic != oracle:
                mismatches += 1
                if not first:
                    first = f"(d={d}, b={b}): link {symbolic} vs plane {oracle}"
    return EquivalenceReport(f"oracle-{kind.value}", checked, mismatches, first)


def scan_phi3(dmax: int) -> EquivalenceReport:
    """The degree-3 link against one quadratic transform, b <= min(3d/2, 2d-1)."""
    return _scan_link(LinkKind.PHI3, dmax)


def scan_phi6(dmax: int) -> EquivalenceReport:
    """The degree-6 link against three quadratic transforms, b <= min(6d/5, (5d-1)/4)."""
    return _scan_link(LinkKind.PHI6, dmax)


@dataclass(frozen=True)
class PositionScanReport:
    """General-position statistics for sampled degree-6 closed points.

    Over a finite field the Brauer group is trivial, so the curves of degree
    1 and 2 that a nontrivial Brauer class forbids exist, and orbits occur
    on them: all six points on a rational line (case 1), two disjoint
    collinear triples on a conjugate line pair (case 7), and all six on a
    smooth rational conic.  ``degree6_family_rates`` gives their exact
    shares, ``families`` the report's count of each and ``failures`` the
    checks the report fails; both are computed once, on first read.
    Anything outside cases 1 and 7 among the collinear hits would contradict
    Galois transitivity itself and therefore signal a real bug.  ``ok``
    means ``failures`` is empty; ``violations`` still counts every sample
    off general position, which a scan over F_p is expected to meet.
    """

    prime: int
    samples: int
    collinear_hits: int
    conic_hits: int
    violating_samples: int
    case_breakdown: tuple[tuple[int, int], ...]

    @property
    def checked(self) -> int:
        return self.samples

    @property
    def violations(self) -> int:
        return self.violating_samples

    @property
    def ok(self) -> bool:
        return not self.failures

    @cached_property
    def families(self) -> tuple[FamilyCount, ...]:
        """The samples split into the families of ``degree6_family_rates``,
        each count scored by its binomial tail probability."""
        cases = dict(self.case_breakdown)
        observed = {
            name: cases.get(case_id, 0) for case_id, name in _COLLINEAR_FAMILIES.items()
        }
        observed["smooth_conic"] = self.conic_hits - self.collinear_hits
        observed["general"] = self.samples - self.violating_samples
        return tuple(
            FamilyCount(
                name,
                observed[name],
                self.samples * rate,
                binomial_tail(observed[name], self.samples, rate),
            )
            for name, rate in degree6_family_rates(self.prime).items()
        )

    @cached_property
    def failures(self) -> tuple[str, ...]:
        """What a degree-6 scan over F_p must satisfy when the Brauer class
        is trivial: collinear hits only in cases 1 and 7 (Galois
        transitivity), every collinear hit also a conic hit (a line or a
        line pair is a degenerate conic), and each family count with a
        binomial tail probability of at least ``TAIL_BOUND`` at its exact
        rate.  One message per failed check."""
        p = self.prime
        failures = [
            f"p={p}: {hits} collinear hits in case {case_id}, which a transitive orbit cannot form"
            for case_id, hits in self.case_breakdown
            if case_id not in _COLLINEAR_FAMILIES
        ]
        if self.violating_samples != self.conic_hits:
            failures.append(
                f"p={p}: {self.violating_samples} violating samples but "
                f"{self.conic_hits} conic hits"
            )
        failures.extend(
            f"p={p}: {c.family} observed {c.observed}, expected {float(c.expected):.2f}, "
            f"tail probability {c.tail:.2g} < {TAIL_BOUND:g}"
            for c in self.families
            if c.tail < TAIL_BOUND
        )
        return tuple(failures)


# sample i of a closed-point scan at seed s is drawn with seed
# s * SEED_STRIDE + i, so scans at different seeds share no point as long
# as each draws at most SEED_STRIDE samples
SEED_STRIDE = 1_000_000


def scan_closed_points(p: int, samples: int, seed: int) -> PositionScanReport:
    """Sample degree-6 closed points and test the general-position claims.

    Counts the samples with a collinear triple, those on a common conic
    (degenerate conics included, so every collinear hit is also a conic
    hit) and the case of every collinear hit.  The report's ``failures``
    checks these hits against the rates of ``degree6_family_rates``.
    More than ``SEED_STRIDE`` samples raise ``ValueError``: they would
    overlap the scan at seed + 1.  So do no samples, and a negative seed,
    whose draws ``random.Random`` would seed with |seed|.
    """
    if samples > SEED_STRIDE:
        raise ValueError(f"samples must be <= {SEED_STRIDE}, got {samples}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    collinear_hits = conic_hits = violating = 0
    breakdown: dict[int, int] = {}
    for i in range(samples):
        cp = sample_closed_point(p, 6, seed=seed * SEED_STRIDE + i)
        rep = general_position_report(cp)
        if not rep.no_three_collinear:
            collinear_hits += 1
            case, _ = classify_configuration(cp.points)
            breakdown[case.case_id] = breakdown.get(case.case_id, 0) + 1
        if not rep.off_conic:
            conic_hits += 1
        violating += not (rep.no_three_collinear and rep.off_conic)
    return PositionScanReport(
        prime=p,
        samples=samples,
        collinear_hits=collinear_hits,
        conic_hits=conic_hits,
        violating_samples=violating,
        case_breakdown=tuple(sorted(breakdown.items())),
    )


# Least two-sided tail probability a family count may have: a correct
# four-prime scan (16 family counts) fails it with probability below 2e-5.
TAIL_BOUND = 1e-6

_COLLINEAR_FAMILIES = {
    ConfigCase.ALL_SIX_ON_A_LINE.case_id: "line",
    ConfigCase.TWO_DISJOINT_TRIPLES.case_id: "pair",
}


def degree6_family_rates(q: int) -> dict[str, Fraction]:
    """Exact share of each family among the degree-6 closed points of the
    plane over F_q; ``sample_closed_point`` draws uniformly from them.

    Moebius inversion over |P^n(F_{q^k})| gives N6(P^2) = (q^12 - q^4 - q^3
    + q)/6 such points in the plane and N6(P^1) = (q^6 - q^3 - q^2 + q)/6
    on each line or smooth conic.  The families are disjoint:

    * ``line``: on one of the q^2 + q + 1 rational lines;
    * ``pair``: a triple on each line of one of the (q^4 - q)/2 conjugate
      pairs of lines over F_{q^2}, i.e. one of the (q^6 - q^2)/3 degree-3
      points of P^1 over F_{q^2};
    * ``smooth_conic``: on one of the q^5 - q^2 smooth rational conics;
      six points with no three collinear lie on at most one conic, so no
      orbit is counted twice;
    * ``general``: the rest, no three collinear and on no conic.
    """
    # imported here: ``fractions`` pulls in ``decimal``, which every other
    # user of this module (the CLI included) would pay for at start-up
    from fractions import Fraction

    total = Fraction(q**12 - q**4 - q**3 + q, 6)
    on_p1 = Fraction(q**6 - q**3 - q**2 + q, 6)
    rates = {
        "line": (q**2 + q + 1) * on_p1 / total,
        "pair": Fraction(q**4 - q, 2) * Fraction(q**6 - q**2, 3) / total,
        "smooth_conic": (q**5 - q**2) * on_p1 / total,
    }
    rates["general"] = 1 - sum(rates.values())
    return rates


def binomial_tail(observed: int, n: int, rate: Fraction) -> float:
    """Two-sided exact binomial tail probability of ``observed`` hits in
    ``n`` trials at hit probability ``rate``: 2 min(P[X <= k], P[X >= k]),
    capped at 1.  An impossible count (outside 0..n) has probability 0."""
    if not 0 <= observed <= n:
        return 0.0
    if rate in (0, 1):
        return 1.0 if observed == n * rate else 0.0
    r = float(rate)
    log_r, log_s = math.log(r), math.log1p(-r)
    log_n = math.lgamma(n + 1)
    pmf = [
        math.exp(
            log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_r + (n - k) * log_s
        )
        for k in range(n + 1)
    ]
    return min(1.0, 2 * min(sum(pmf[: observed + 1]), sum(pmf[observed:])))


@dataclass(frozen=True)
class FamilyCount:
    """Observed and expected hits of one family in a closed-point scan."""

    family: str
    observed: int
    expected: Fraction
    tail: float


# --- configuration-case witnesses and the line-count table ---

# One six-point set over the integers per line-profile case 1..9.  Every
# nonzero 3x3 minor of a set, and the gcd of the cross product of every
# pair of its points, has no prime factor other than 2 or 3.  So over F_q
# with q >= 5 the six points stay distinct and exactly the same triples
# stay collinear: each set realizes its case over every field the CLI
# accepts.
_WITNESSES = {
    1: ((0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1)),
    2: ((0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 2, 0), (2, 1, 0)),
    3: ((0, 1, 1), (0, 2, -1), (1, 0, -2), (1, 0, 0), (1, 1, -1), (1, 2, 0)),
    4: ((0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 1, 0)),
    5: ((1, -1, -2), (1, -1, 0), (1, -1, 2), (1, 0, -2), (1, 0, 0), (1, 1, 0)),
    6: ((0, 0, 1), (0, 1, 2), (1, -2, -1), (1, -1, -1), (1, 0, 1), (1, 1, 1)),
    7: ((0, 1, -1), (0, 1, 0), (1, -2, -1), (1, -1, -1), (1, -1, 2), (1, 1, 0)),
    8: ((0, 1, 2), (1, 0, -2), (1, 1, -2), (1, 1, 0), (1, 1, 1), (2, 1, 0)),
    9: ((0, 0, 1), (0, 1, -2), (0, 1, 0), (1, 0, -1), (1, 0, 0), (2, -1, 0)),
}


def case_witness(case_id: int, q: int) -> tuple[ProjPoint, ...]:
    """The fixed six-point witness of configuration case ``case_id`` (1..9),
    reduced mod q; it realizes its case over every F_q with q >= 5."""
    if case_id not in _WITNESSES:
        raise ValueError(f"no witness construction for case {case_id}")
    F = field(q, 1)
    return tuple(ProjPoint.of_ints(F, t) for t in _WITNESSES[case_id])


@dataclass(frozen=True)
class WitnessResult:
    """The classifier's verdict on one case witness: ``realized`` means it
    put the witness in the witness's own case, ``line_count`` is the number
    of connecting lines it counted (0 if it raised
    :class:`UnclassifiableConfiguration`)."""

    case_id: int
    realized: bool
    line_count: int
    expected_count: int

    @property
    def ok(self) -> bool:
        return self.realized and self.line_count == self.expected_count


@dataclass(frozen=True)
class TableScanReport:
    """Witness results for all nine cases plus a randomized totality check
    of the classifier.  ``count_mismatches`` counts the witnesses that are
    not ``ok`` and the random samples whose line count differs from their
    case's; ``ok`` needs both it and ``unclassifiable`` to be 0.
    ``first_failure`` names the first witness that is not ``ok``, else the
    first random configuration that failed, else is empty."""

    q: int
    witnesses: tuple[WitnessResult, ...]
    random_checked: int
    unclassifiable: int
    count_mismatches: int
    first_failure: str

    @property
    def checked(self) -> int:
        return len(self.witnesses) + self.random_checked

    @property
    def violations(self) -> int:
        return self.count_mismatches + self.unclassifiable

    @property
    def ok(self) -> bool:
        return self.violations == 0


def scan_table(q: int, random_samples: int, seed: int) -> TableScanReport:
    """Classify the witness of every configuration case over F_q, check
    the forced line counts, and classify random six-point sets to probe
    for profile gaps.  No random samples raise ``ValueError``, as does a
    negative seed, which ``random.Random`` would seed with |seed|."""
    if random_samples < 1:
        raise ValueError(f"random_samples must be >= 1, got {random_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    witnesses = []
    first = ""
    for case_id in range(1, 10):
        case = ConfigCase(case_id)
        try:
            got, count = classify_configuration(case_witness(case_id, q))
        except UnclassifiableConfiguration:
            got, count = None, 0
        result = WitnessResult(case_id, got is case, count, case.line_count)
        witnesses.append(result)
        if not result.ok and not first:
            read = "unclassifiable" if got is None else f"case {got.case_id}"
            first = (
                f"case {case_id} witness read as {read} with {count} lines, "
                f"expected {result.expected_count}"
            )
    mismatches = sum(not w.ok for w in witnesses)

    F = field(q, 1)
    rng = random.Random(seed)
    unclassifiable = 0
    for i in range(random_samples):
        pts = sample_configuration(F, rng)
        try:
            case, count = classify_configuration(pts)
        except UnclassifiableConfiguration as exc:
            unclassifiable += 1
            first = first or f"random configuration {i}: {exc}"
            continue
        if count != case.line_count:
            mismatches += 1
            if not first:
                sizes = sorted((len(m) for m in connecting_lines(pts)), reverse=True)
                first = (
                    f"random configuration {i}: case {case.case_id} with {count} "
                    f"lines, expected {case.line_count} (line sizes {sizes})"
                )
    return TableScanReport(
        q=q,
        witnesses=tuple(witnesses),
        random_checked=random_samples,
        unclassifiable=unclassifiable,
        count_mismatches=mismatches,
        first_failure=first,
    )
