"""Projective-plane geometry over finite fields.

Closed points are modeled as Frobenius orbits of plane points, and points
and lines share one normalization (first nonzero coordinate 1).  Incidence
tests are exact determinant zero tests with one eliminator, ``_singular``,
over F_p: three points are collinear iff the third lies on the line
through the other two, and a determinant over F_{p^m} is 0 iff its norm
to F_p is, which ``_singular_over`` reads from the regular representation.
Six-point configurations are classified by their line profile, read off
by grouping the 15 point pairs by the line they span and looked up in
``ConfigCase``, the one table of the ten profiles six points can have.
The grouping folds each pair's line key onto a dict in one loop.  The
pairs of n points and their frozensets are built once per count
(``_pairs``, a bounded cache); a 2-point line is its shared pair set, and
a richer line the union of its pairs, listed at its first pair.
Up to p = ``LINE_TABLE_MAX_PRIME`` = 13 two tables of P^2(F_p), each built
once per prime on first use, replace the field arithmetic.  ``_plane_triples``
lists the N = p^2 + p + 1 normalized triples in the order ``_index``
numbers them, (1, a, b) -> a p + b, (0, 1, b) -> p^2 + b,
(0, 0, 1) -> p^2 + p, and both tables are built from that one listing.
``_line_table(p)`` holds at i N + j the number of the line through points
i != j (33,489 bytes at p = 13; p = 17 would take 94,249 and numbers past
a byte), and the pairs of ``connecting_lines`` read their lines from it.
``_point_table(p)`` holds at (r0 p + r1) p + r2 the one shared point of
every nonzero triple (2,197 entries at p = 13), and
``sample_configuration`` reads its draws from it.  Every other field,
F_p with p > 13 as well as F_{p^m}, takes the one ``FiniteField`` route:
``line_through`` keys the pairs and ``_normalized`` normalizes the draws.

Whether a degree-6 closed point lies on a conic is decided by Galois
descent: a conic through a Frobenius orbit is Frobenius-stable, so it is
defined over F_p.  Write the Veronese image v of one orbit point in the
basis 1, x, ..., x^5 of F_{p^6} over F_p, as the rows of a 6x6 matrix C
over F_p.  The Veronese rows of the whole orbit form A C^T, where
A[i][k] = x^(k p^i) is the Moore matrix of the basis, invertible because
the basis is F_p-independent (Lidl and Niederreiter, Finite Fields,
Sec. 3.4).  So the six points lie on a conic iff det C = 0.  The argument
needs the orbit degree to equal the field degree, so the coordinates must
lie in F_{p^6} itself.  The rows of C are the Veronese entries' coordinate
tuples, ints in range(p), so ``_singular`` takes them over F_p with no
``FiniteField`` call.  It packs each row into one int, an entry per slot,
and eliminates whole rows at once.  Only the pivots and leads are reduced
mod p; every other entry stays below (2p)^(n-1) p, the slot bound, so no
slot carries.  Point 0 is normalized, so with x = 1 its Veronese image is
(1, y, z, y^2, yz, z^2), row 0 of C is the unit vector e_0, and det C,
expanded along it, is the 5x5 minor of the rows y, z, y^2, yz, z^2 on
columns 1..5: three products over F_{p^6}.

Whether a degree-6 closed point has a collinear triple is decided by the
one triple (0, 2, 4).  Frobenius sigma sends orbit point i to point
i + 1 mod 6, and two distinct lines share at most one point.  The 20
triples fall into four rotation classes, with representatives (0, 1, 2),
(0, 1, 3), (0, 1, 4) and (0, 2, 4); let L be the line through a
collinear representative.  For (0, 1, 2), sigma L contains 1 and 2, so
sigma L = L: L is rational and holds all six points.  For (0, 1, 3) and
(0, 1, 4), sigma^3 L shares two points with L (0 and 3, or 1 and 4), so
sigma^3 L = L contains 0, 1, 3 and 4; then sigma L shares 1 and 4 with
L, so again sigma L = L holds all six points.  Hence some triple is
collinear iff (0, 2, 4) is: either all six points lie on a rational
line, or the orbit is two triples on a conjugate pair of lines over
F_{p^2}.

That triple is decided by descent too.  A line through the distinct
points 0, 2 and 4 shares two of them with its sigma^2-image, so it is
sigma^2-stable, hence defined over F_{p^2}; a line over F_{p^2} through
point 0 holds 2 and 4.  So (0, 2, 4) is collinear iff the coordinates
x, y, z of point 0 are dependent over F_{p^2}.  For theta in F_{p^2} but
not in F_p, {1, theta} is an F_p-basis of F_{p^2}, so that holds iff
x, y, z, theta x, theta y, theta z are dependent over F_p: a 6x6
determinant over F_p.  A zero coordinate gives a zero row, and the point
lies on a rational coordinate line, as that verdict says.  With x = 1 the
rows x and theta x are e_0 and theta 1 = theta, read once per field
(``_theta_row``), so the determinant is the 5x5 minor of y, z, theta,
theta y, theta z on columns 1..5.  The products by theta are
F_p-linear, so they read one packed table of theta x^i, built per field
on first use (``FiniteField.multiplier``): two per point.  With x = 0
the orbit lies on the rational line x = 0, and both 6x6 matrices have a
zero row (x, theta x, and the Veronese entries x^2, xy, xz), so both
verdicts are "collinear, on a conic" with no determinant.

This layer supplies the geometric side of the oracle: the symbolic
link formulas never see coordinates, so every geometric claim is checked
here explicitly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

from .gf import Element, FiniteField, _residues, field


class SamplingExhausted(Exception):
    """The retry budget for closed-point sampling ran out."""


class UnclassifiableConfiguration(Exception):
    """A six-point line profile matched none of the known cases; would
    signal a gap in the case enumeration."""


def _normalized(F: FiniteField, coords: Sequence[Element]) -> tuple[Element, ...]:
    """Homogeneous coordinates scaled so the first nonzero one is 1; only
    the coordinates after it need a product."""
    zero = F.zero
    for i, c in enumerate(coords):
        if c != zero:
            scale, mul = F.inv(c), F.mul
            return (*coords[:i], F.element(1), *[mul(scale, x) for x in coords[i + 1:]])
    raise ValueError("(0 : 0 : 0) is not a projective point")


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^2 with homogeneous coordinates normalized so the first
    nonzero coordinate is 1; equal points have identical representations.

    The normalization is an invariant that ``connecting_lines`` reads the
    plane's ``_index`` from, and ``general_position_report`` its unit
    row.  ``make``, ``_drawn_point`` and ``_point_table`` normalize, and
    ``frobenius_orbit`` keeps it (Frobenius fixes 0 and 1); a direct
    construction must pass normalized coordinates, and ``_index`` refuses
    a point that does not."""

    field: FiniteField
    coords: tuple[Element, Element, Element]

    @classmethod
    def make(cls, F: FiniteField, coords: Sequence[Element]) -> "ProjPoint":
        if len(coords) != 3:
            raise ValueError("projective points need 3 homogeneous coordinates")
        shaped = all(type(c) is tuple and len(c) == F.m for c in coords)
        if not shaped or not all(type(x) is int and 0 <= x < F.p for c in coords for x in c):
            raise ValueError(f"coordinates must be elements of F_{{{F.p}^{F.m}}}")
        return cls(F, _normalized(F, coords))

    @classmethod
    def of_ints(cls, F: FiniteField, triple: Sequence[int]) -> "ProjPoint":
        """Convenience constructor from prime-subfield coordinates."""
        return cls.make(F, tuple(F.element(t) for t in triple))


def frobenius_orbit(pt: ProjPoint) -> list[ProjPoint]:
    """The orbit of pt under coordinate-wise x -> x^p, in orbit order:
    entry i + 1 is the image of entry i.  Entry k takes the k-th conjugates
    of pt's coordinates from ``FiniteField.conjugates``; Frobenius fixes 0
    and 1, so they stay normalized.  The orbit stops before pt recurs, so
    its size divides the extension degree."""
    F = pt.field
    orbit = [pt]
    for coords in itertools.islice(zip(*map(F.conjugates, pt.coords)), 1, None):
        if coords == pt.coords:
            break
        orbit.append(ProjPoint(F, coords))
    return orbit


def _singular(p: int, rows: Sequence[Sequence[int]]) -> bool:
    """True iff the square matrix over F_p, with entries ints in range(p),
    has determinant 0.

    Fraction-free elimination (Bareiss' idea reduced to a zero test):
    ``row_r <- pivot * row_r - a[r][col] * row_col`` scales the determinant
    only by the nonzero pivot, so no inversion is needed.  A row whose entry
    in the pivot column is already 0 is left as it is.

    Each row is one int with its entries in slots of w bits, column 0 in
    the top slot.  The update is ``row * t + (p - lead) * top`` on whole
    rows, congruent to the one above mod p, with only the pivot t and the
    lead read out and reduced.  Entries stay nonnegative, and each of the
    n - 1 updates multiplies their bound by at most 2p, so they stay below
    (2p)^(n-1) p < 2^w and no slot carries into the next.  This is the one
    eliminator: matrices over F_{p^m} reach it through ``_singular_over``.
    """
    n = len(rows)
    w = ((2 * p) ** (n - 1) * p).bit_length()
    mask = (1 << w) - 1
    live = []
    for row in rows:
        packed = 0
        for x in row:
            packed = packed << w | x
        live.append(packed)
    for s in range(w * (n - 1), -1, -w):
        top, rest = None, []
        for row in live:
            lead = (row >> s & mask) % p
            if not lead:
                rest.append(row)
            elif top is None:
                top, t = row, lead
            else:
                rest.append(row * t + (p - lead) * top)
        if top is None:
            return True
        live = rest
    return False


def _singular_over(F: FiniteField, rows: Sequence[Sequence[Element]]) -> bool:
    """True iff the square matrix A over F = F_{p^m} has determinant 0,
    decided over F_p by ``_singular`` on the regular representation of A:
    row (i, k) holds the coefficients of a_ij x^k over all j, for x^k in
    ``F.basis()``.  That nm x nm matrix is the F_p-matrix of v -> v A on
    F^n, and its determinant is the norm N_{F/F_p}(det A), which is 0 iff
    det A is (Lidl and Niederreiter, Finite Fields, Sec. 2.3).  The rows
    a_ij x^k come from ``F.regular``, each x times the one before."""
    reps = [[F.regular(a) for a in row] for row in rows]
    return _singular(F.p, [[c for r in rep for c in r[k]] for rep in reps for k in range(F.m)])


def _check_same_field(points: Sequence[ProjPoint]) -> FiniteField:
    F = points[0].field
    # identity first: equal fields are nearly always one interned object
    if any(pt.field is not F and pt.field != F for pt in points):
        raise ValueError("points must share a coordinate field")
    return F


def collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    """True iff the 3x3 coordinate determinant vanishes.  It is the triple
    product (a x b) . c, so c must lie on the line a x b, which is the zero
    vector, incident to every point, when a = b."""
    F = _check_same_field((a, b, c))
    return incident(_cross(F, a.coords, b.coords), c)


def _cross(F: FiniteField, u: Sequence[Element], v: Sequence[Element]) -> tuple[Element, Element, Element]:
    # the ops are read from F on each call, so perfbench's counters see them
    mul, sub = F.mul, F.sub
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (
        sub(mul(u1, v2), mul(u2, v1)),
        sub(mul(u2, v0), mul(u0, v2)),
        sub(mul(u0, v1), mul(u1, v0)),
    )


def line_through(a: ProjPoint, b: ProjPoint) -> tuple[Element, Element, Element]:
    """Normalized dual coordinates of the line joining two distinct points:
    their cross product, which is zero exactly when the points coincide,
    however each is scaled."""
    if b.field != a.field:
        raise ValueError("points must share a coordinate field")
    F = a.field
    line = _cross(F, a.coords, b.coords)
    if line == (F.zero,) * 3:
        raise ValueError("two coincident points do not span a line")
    return _normalized(F, line)


def incident(line: Sequence[Element], pt: ProjPoint) -> bool:
    F = pt.field
    if len(line) != 3:
        raise ValueError(f"lines need 3 dual coordinates, got {len(line)}")
    if any(len(c) != F.m for c in line):
        raise ValueError("line and point must share a coordinate field")
    acc = F.zero
    for l, c in zip(line, pt.coords):
        acc = F.add(acc, F.mul(l, c))
    return acc == F.zero


def _veronese(F: FiniteField, coords: Sequence[Element]) -> tuple[Element, ...]:
    """The Veronese image (x^2, xy, xz, y^2, yz, z^2) of a point."""
    x, y, z = coords
    return (F.mul(x, x), F.mul(x, y), F.mul(x, z), F.mul(y, y), F.mul(y, z), F.mul(z, z))


def on_common_conic(points: Sequence[ProjPoint]) -> bool:
    """True iff six points lie on a common conic, degenerate ones included:
    the 6x6 determinant of Veronese images (x^2, xy, xz, y^2, yz, z^2)
    vanishes, decided over F_p through its norm by ``_singular_over``."""
    if len(points) != 6:
        raise ValueError(f"need exactly 6 points, got {len(points)}")
    F = _check_same_field(points)
    return _singular_over(F, [_veronese(F, pt.coords) for pt in points])


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of the plane over F_p: the Frobenius orbit of a
    geometric point, listed in orbit order starting at that point.

    ``degree`` is computed with the point, from its coordinates alone: the
    first nonzero coordinate is 1, which Frobenius fixes, so sigma^k fixes
    the point iff it fixes every coordinate, and the orbit size is the lcm
    of the coordinates' degrees over F_p (``FiniteField.degree``).  The
    orbit itself, ``points``, is built by ``frobenius_orbit`` on first
    read."""

    point: ProjPoint
    degree: int = dataclass_field(init=False)

    def __post_init__(self) -> None:
        F, degree = self.point.field, 1
        for c in self.point.coords:
            degree = math.lcm(degree, F.degree(c))
            if degree == F.m:
                break
        object.__setattr__(self, "degree", degree)

    # orbit order (points[i + 1] is the Frobenius image of points[i]) is
    # what lets general_position_report test the one triple (0, 2, 4)
    @cached_property
    def points(self) -> tuple[ProjPoint, ...]:
        return tuple(frobenius_orbit(self.point))


def _drawn_point(F: FiniteField, r: Sequence[int]) -> ProjPoint:
    """The point of P^2(F) whose coordinates hold the 3m residues r, m per
    coordinate, normalized; r must not be all 0."""
    m = F.m
    return ProjPoint(F, _normalized(F, (tuple(r[:m]), tuple(r[m:2 * m]), tuple(r[2 * m:]))))


def _random_point(F: FiniteField, rng: random.Random) -> ProjPoint:
    """A uniform point of P^2(F): draws the 3m residues of a coordinate
    triple in one call of ``gf._residues``, the one residue loop, until one
    is nonzero, and reads the point off them with ``_drawn_point``.  These
    are the draws of three ``random_element`` calls, in their order."""
    r = _residues(rng, F.p, 3 * F.m)
    while not any(r):
        r = _residues(rng, F.p, 3 * F.m)
    return _drawn_point(F, r)


#: Points drawn by ``sample_closed_point`` before it gives up.
SAMPLING_ATTEMPTS = 1000


def sample_closed_point(p: int, degree: int, seed: int) -> ClosedPoint:
    """A pseudo-random closed point of the requested degree: a uniformly
    sampled point of P^2(F_{p^degree}) whose Frobenius orbit has exactly
    ``degree`` elements.  Deterministic per seed; a negative seed raises
    ``ValueError``, as ``random.Random`` would repeat the point of -seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    F = field(p, degree)
    rng = random.Random(seed)
    for _ in range(SAMPLING_ATTEMPTS):
        cp = ClosedPoint(_random_point(F, rng))
        if cp.degree == degree:
            return cp
    raise SamplingExhausted(
        f"no degree-{degree} point found over F_{p}^{degree} in "
        f"{SAMPLING_ATTEMPTS} tries"
    )


def _quadratic_element(F: FiniteField) -> Element:
    """theta in F_{p^2} but not in F_p, inside F = F_{p^6}: the first trace
    x^i + sigma^2(x^i) + sigma^4(x^i) to F_{p^2} that is not in F_p.  The
    trace is F_p-linear and onto F_{p^2}, so the basis 1, x, ..., x^5
    cannot map wholly into F_p.  Its caller ``_theta_table`` is cached
    per field."""
    p = F.p
    traces = (tuple(sum(c) % p for c in zip(*F.conjugates(b)[::2])) for b in F.basis())
    return next(t for t in traces if any(t[1:]))


@lru_cache(maxsize=None)
def _theta_table(F: FiniteField) -> tuple[int, ...]:
    """The packed table of x -> theta x for ``FiniteField.times``, theta
    from ``_quadratic_element``.  Built once per field, on first use."""
    return F.multiplier(_quadratic_element(F))


@lru_cache(maxsize=None)
def _theta_row(F: FiniteField) -> Element:
    """theta = theta 1, the collinear descent's row of x = 1, read from
    ``_theta_table`` so that one theta reaches every theta row.  Built once
    per field, on first use."""
    return F.times(_theta_table(F), F.element(1))


@dataclass(frozen=True)
class PositionReport:
    """General-position verdicts for the six points of a degree-6 closed point."""

    no_three_collinear: bool
    off_conic: bool


def general_position_report(cp: ClosedPoint) -> PositionReport:
    """Check the six points of a degree-6 closed point for a collinear
    triple and for a common conic.  A valid degree-6 link center must pass
    both.

    Both verdicts are descent determinants over F_p on coordinate tuples
    (see the module docstring), with (x : y : z) = ``cp.point``.  Some
    triple is collinear iff x, y, z, theta x, theta y, theta z are
    F_p-dependent, for theta in F_{p^2} but not in F_p; the six points lie
    on a conic iff the six entries of the Veronese image of (x : y : z)
    are.  The verdicts equal those of ``collinear`` on points 0, 2 and 4
    and of ``on_common_conic(cp.points)``.  The point is normalized, so x
    is 1 or 0.  With x = 1 each 6x6 matrix has the unit row e_0, and its
    determinant is a 5x5 minor, at the cost of 3 products over F_{p^6}
    and 2 packed products by theta; with x = 0 both matrices have a zero
    row, and the report is "collinear, on a conic" at no cost.  Both
    verdicts are computed on every orbit: a collinear orbit always lies on
    a conic, but deciding one from the other would hide a fault in either
    test.  Raises ``ValueError`` unless the coordinates lie in F_{p^6}:
    over a larger field the matrices are not square and the argument
    fails.
    """
    if cp.degree != 6:
        raise ValueError(f"need a degree-6 closed point, got degree {cp.degree}")
    F = cp.point.field
    if F.m != 6:
        raise ValueError(
            f"the conic test needs coordinates in F_{{p^6}}, got F_{{{F.p}^{F.m}}}"
        )
    p, (x, y, z) = F.p, cp.point.coords
    if not x[0]:
        # the orbit lies on the rational line x = 0: a zero row in both
        return PositionReport(no_three_collinear=False, off_conic=False)
    table, times, mul = _theta_table(F), F.times, F.mul
    # row 0 of each 6x6 matrix is x = 1 = e_0, so each determinant is the
    # 5x5 minor of the other five rows on columns 1..5
    rows = (y, z, _theta_row(F), times(table, y), times(table, z))
    veronese = (y, z, mul(y, y), mul(y, z), mul(z, z))
    return PositionReport(
        no_three_collinear=not _singular(p, [r[1:] for r in rows]),
        off_conic=not _singular(p, [v[1:] for v in veronese]),
    )


# --- six-point configuration classification ---


class ConfigCase(Enum):
    """The ten line profiles six distinct points of a plane can have.

    Each case carries its stable id (the value), its profile and its
    forced line count.  The profile is the sizes of the lines through at
    least three of the six points, largest first, and how many points
    those lines cover; the line count is the number of lines through at
    least two.  Two lines of a plane share at most one point, and that
    leaves exactly these ten profiles: a line through 5 or 6 leaves too
    few points for a second rich line, a 4-point line admits only the one
    3-point line through the two points off it, and each point lies on at
    most two 3-point lines, so there are at most four, and three or four
    of them meet pairwise and cover all six points.
    """

    GENERAL_POSITION = 0, ((), 0), 15
    ALL_SIX_ON_A_LINE = 1, ((6,), 6), 1
    FIVE_ON_A_LINE = 2, ((5,), 5), 6
    FOUR_ON_A_LINE = 3, ((4,), 4), 10
    FOUR_AND_A_TRIPLE = 4, ((4, 3), 6), 8
    TWO_TRIPLES_SHARING_A_POINT = 5, ((3, 3), 5), 11
    ONE_TRIPLE = 6, ((3,), 3), 13
    TWO_DISJOINT_TRIPLES = 7, ((3, 3), 6), 11
    TRIPLE_TRIANGLE = 8, ((3, 3, 3), 6), 9
    QUADRILATERAL = 9, ((3, 3, 3, 3), 6), 7

    def __new__(cls, case_id: int, profile: tuple, line_count: int) -> "ConfigCase":
        case = object.__new__(cls)
        case._value_ = case.case_id = case_id
        case.profile = profile
        case.line_count = line_count
        return case


#: ``line_count`` by case, as ``perfbench`` and the tests read it.
EXPECTED_LINE_COUNTS = {case: case.line_count for case in ConfigCase}

#: Case of each line profile, as ``classify_configuration`` reads it.
_CASE_BY_PROFILE = {case.profile: case for case in ConfigCase}


#: The largest p whose pairs ``connecting_lines`` reads from ``_line_table``
#: and whose draws ``sample_configuration`` reads from ``_point_table``.
LINE_TABLE_MAX_PRIME = 13

#: The diagonal entry of ``_line_table``: no line through i = j.
_NO_LINE = 0xFF


def _plane_triples(p: int) -> list[tuple[int, int, int]]:
    """The N = p^2 + p + 1 normalized triples of P^2(F_p) in ``_index``
    order, the one listing both plane tables are built from."""
    triples = [(1, a, b) for a in range(p) for b in range(p)]
    return triples + [(0, 1, b) for b in range(p)] + [(0, 0, 1)]


def _index(p: int, x0: int, x1: int, x2: int) -> int:
    """The number of a normalized triple among the N = p^2 + p + 1 points
    of P^2(F_p), as the module docstring lists it; a line takes the number
    of its dual coordinates.  A triple whose first nonzero entry is not 1
    raises ``ValueError``: read as it stands it would number another
    point."""
    if x0:
        if x0 == 1:
            return x1 * p + x2
    elif x1:
        if x1 == 1:
            return p * p + x2
    elif x2 == 1:
        return p * p + p
    raise ValueError(f"({x0}, {x1}, {x2}) is not normalized: its first nonzero entry must be 1")


@lru_cache(maxsize=None)
def _line_table(p: int) -> bytes:
    """line_of[i N + j], the number of the line through points i != j of
    P^2(F_p), with ``_NO_LINE`` on the diagonal: the p + 1 points on each
    of the N lines listed, triples in ``_index`` order, and every pair of
    them written."""
    triples = _plane_triples(p)
    n = len(triples)
    line_of = bytearray([_NO_LINE]) * (n * n)
    for line, (l0, l1, l2) in enumerate(triples):
        on = [i for i, (x0, x1, x2) in enumerate(triples) if not (l0 * x0 + l1 * x1 + l2 * x2) % p]
        for i in on:
            row = i * n
            for j in on:
                line_of[row + j] = line
    line_of[::n + 1] = bytes([_NO_LINE]) * n
    return bytes(line_of)


@lru_cache(maxsize=None)
def _point_table(p: int) -> tuple[ProjPoint | None, ...]:
    """point_of[(r0 p + r1) p + r2], the point (r0 : r1 : r2) of P^2(F_p)
    as one shared ``ProjPoint`` over ``field(p, 1)``, and None at code 0,
    the zero triple: each of the N normalized triples, in ``_index``
    order, written at the codes of its p - 1 nonzero multiples."""
    F, point_of = field(p, 1), [None] * p ** 3
    for x0, x1, x2 in _plane_triples(p):
        pt = ProjPoint(F, ((x0,), (x1,), (x2,)))
        for s in range(1, p):
            point_of[(s * x0 % p * p + s * x1 % p) * p + s * x2 % p] = pt
    return tuple(point_of)


@lru_cache(maxsize=4)
def _pairs(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[frozenset[int], ...]]:
    """The pairs i < j of range(n) in ``itertools.combinations`` order, and
    the same pairs as frozensets, shared by every ``connecting_lines`` call
    on n points; the cache is bounded, so a one-off call on many points
    does not keep its n (n - 1) / 2 pairs alive."""
    pairs = tuple(itertools.combinations(range(n), 2))
    return pairs, tuple(map(frozenset, pairs))


def connecting_lines(points: Sequence[ProjPoint]) -> list[frozenset[int]]:
    """All lines through at least two of the points, each as the index set
    of the configuration points on it, in the order of their first pair.
    Two points span exactly one line, so grouping the pairs by line gives
    each line's members: shared pair sets, a line the union of its pairs.
    A line met once is its pair's frozenset from ``_pairs``, shared
    between calls and immutable; a line met again becomes its union with
    the new pair, a new frozenset, so no call sees another's lines.

    Over F_p with p <= ``LINE_TABLE_MAX_PRIME`` each point's normalized
    ints are read once into its ``_index``, and each pair's line from
    ``_line_table(p)``; every other field keys the pairs by
    ``line_through``.  Two coincident points raise ``ValueError`` on both
    routes.  A point built unnormalized raises from ``_index`` on the
    table route; ``line_through`` normalizes the cross product, so it
    reads such a point as the point it is."""
    pairs, pair_sets = _pairs(len(points))
    if points and (F := _check_same_field(points)).m == 1 and (p := F.p) <= LINE_TABLE_MAX_PRIME:
        line_of, n = _line_table(p), p * p + p + 1
        at = [_index(p, x0, x1, x2) for (x0,), (x1,), (x2,) in [pt.coords for pt in points]]
        keys = [line_of[at[i] * n + at[j]] for i, j in pairs]
        if _NO_LINE in keys:
            raise ValueError("two coincident points do not span a line")
    else:
        keys = [line_through(points[i], points[j]) for i, j in pairs]
    lines: dict[object, frozenset[int]] = {}
    for key, pair in zip(keys, pair_sets):
        lines[key] = pair if (line := lines.get(key)) is None else line | pair
    return list(lines.values())


def classify_configuration(
    points: Sequence[ProjPoint],
) -> tuple[ConfigCase, int]:
    """Classify six distinct points by their connecting-line profile and
    return (case, number of connecting lines).

    The profile is the sizes of the lines through at least three points,
    largest first, and the number of points those lines cover; it is
    looked up in ``_CASE_BY_PROFILE``.  Two coincident points raise from
    ``connecting_lines``, on both of its routes.  Raises
    :class:`UnclassifiableConfiguration` if the profile is not there; a
    correct line grouping makes that unreachable, so any raise would
    expose a gap in the case analysis.
    """
    if len(points) != 6:
        raise ValueError(f"need exactly 6 points, got {len(points)}")
    lines = connecting_lines(points)
    rich = [m for m in lines if len(m) >= 3]
    profile = (
        tuple(sorted(map(len, rich), reverse=True)),
        len(frozenset().union(*rich)),
    )
    if profile not in _CASE_BY_PROFILE:
        raise UnclassifiableConfiguration(f"unknown line profile {profile}")
    return _CASE_BY_PROFILE[profile], len(lines)


def sample_configuration(
    F: FiniteField, rng: random.Random
) -> tuple[ProjPoint, ...]:
    """Six distinct pseudo-random points of P^2 over F, in the order they
    are first drawn.  All share F, so points are told apart by their
    normalized coordinates alone.

    Each round draws the residues of every missing point in one
    ``gf._residues`` call, 3m per point, and walks the triples in draw
    order, skipping a zero triple or a point already kept.  A round draws
    no more triples than points are missing, and ``_random_point`` draws
    one triple per try, so the generator consumes what one
    ``_random_point`` call per try until six distinct points would, and
    ends in the same state.  Over F_p with p <= ``LINE_TABLE_MAX_PRIME``
    a triple reads its point from ``_point_table(p)``, whose points lie
    over ``field(p, 1)``; otherwise ``_drawn_point`` normalizes it."""
    p, w = F.p, 3 * F.m
    point_of = _point_table(p) if F.m == 1 and p <= LINE_TABLE_MAX_PRIME else None
    kept: dict[tuple[Element, ...], ProjPoint] = {}
    while len(kept) < 6:
        r = _residues(rng, p, w * (6 - len(kept)))
        for i in range(0, len(r), w):
            if point_of is not None:
                pt = point_of[(r[i] * p + r[i + 1]) * p + r[i + 2]]
                if pt is None:
                    continue
            elif any(t := r[i:i + w]):
                pt = _drawn_point(F, t)
            else:
                continue
            # the first draw of a point is kept, a repeat dropped
            kept.setdefault(pt.coords, pt)
    return tuple(kept.values())
