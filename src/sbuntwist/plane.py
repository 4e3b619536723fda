"""Projective-plane geometry over finite fields.

Closed points are modeled as Frobenius orbits of plane points, and points
and lines share one normalization (first nonzero coordinate 1).  Incidence
tests (collinearity, common conics) are exact singularity tests by
inversion-free elimination, and six-point configurations are classified by
their line profile, read off by grouping the 15 point pairs by the line
they span and looked up in ``ConfigCase``, the one table of the ten
profiles six points can have.

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
tuples, so the determinant runs on ints mod p: through ``FiniteField`` on
1-tuples it took most of the census time.

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

This layer supplies the geometric side of the oracle: the symbolic
link formulas never see coordinates, so every geometric claim is checked
here explicitly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Sequence

from .gf import Element, FiniteField, field


class SamplingExhausted(Exception):
    """The retry budget for closed-point sampling ran out."""


class UnclassifiableConfiguration(Exception):
    """A six-point line profile matched none of the known cases; would
    signal a gap in the case enumeration."""


def _normalized(F: FiniteField, coords: Sequence[Element]) -> tuple[Element, ...]:
    """Homogeneous coordinates scaled so the first nonzero one is 1."""
    for c in coords:
        if c != F.zero:
            scale = F.inv(c)
            return tuple(F.mul(scale, x) for x in coords)
    raise ValueError("(0 : 0 : 0) is not a projective point")


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^2 with homogeneous coordinates normalized so the first
    nonzero coordinate is 1; equal points have identical representations."""

    field: FiniteField
    coords: tuple[Element, Element, Element]

    @classmethod
    def make(cls, F: FiniteField, coords: Sequence[Element]) -> "ProjPoint":
        if len(coords) != 3:
            raise ValueError("projective points need 3 homogeneous coordinates")
        return cls(F, _normalized(F, coords))

    @classmethod
    def of_ints(cls, F: FiniteField, triple: Sequence[int]) -> "ProjPoint":
        """Convenience constructor from prime-subfield coordinates."""
        return cls.make(F, tuple(F.element(t) for t in triple))


def frobenius_point(pt: ProjPoint) -> ProjPoint:
    # Frobenius fixes 0 and 1, so the image is already normalized
    F = pt.field
    return ProjPoint(F, tuple(F.frobenius(c) for c in pt.coords))


def frobenius_orbit(pt: ProjPoint) -> list[ProjPoint]:
    """The orbit of pt under coordinate-wise x -> x^p; its size divides the
    extension degree of the coordinate field."""
    orbit = [pt]
    cur = frobenius_point(pt)
    while cur != pt:
        orbit.append(cur)
        if len(orbit) > pt.field.m:
            raise AssertionError("Frobenius orbit exceeded the field degree")
        cur = frobenius_point(cur)
    return orbit


def _singular(F: FiniteField, rows: Sequence[Sequence]) -> bool:
    """True iff the square matrix has determinant 0.

    Fraction-free elimination (Bareiss' idea reduced to a zero test):
    ``row_r <- pivot * row_r - a[r][col] * row_col`` scales the determinant
    only by the nonzero pivot, so no inversion is needed.  A row whose entry
    in the pivot column is already 0 is left as it is.

    Over the prime field (``F.m == 1``) the entries are ints in range(p),
    and each update is one integer expression mod p: the descent conic
    test's 6x6 determinant would otherwise cost about 90 ``FiniteField``
    calls on 1-tuples per orbit.  Elsewhere the entries are elements of F.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    p = F.p if F.m == 1 else 0
    zero = 0 if p else F.zero
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != zero), None)
        if pivot is None:
            return True
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        for r in range(col + 1, n):
            lead = a[r][col]
            if lead != zero:
                row = a[r]
                for c in range(col + 1, n):
                    if p:
                        row[c] = (top[col] * row[c] - lead * top[c]) % p
                    else:
                        row[c] = F.sub(F.mul(top[col], row[c]), F.mul(lead, top[c]))
    return False


def _entries(F: FiniteField, rows: Sequence[Sequence[Element]]) -> Sequence[Sequence]:
    """Rows of elements of F as ``_singular`` takes them: over the prime
    field, the int inside each 1-tuple."""
    return [[e for (e,) in row] for row in rows] if F.m == 1 else rows


def _check_same_field(points: Sequence[ProjPoint]) -> FiniteField:
    F = points[0].field
    if any(pt.field != F for pt in points):
        raise ValueError("points must share a coordinate field")
    return F


def collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    """True iff the 3x3 coordinate determinant vanishes."""
    F = _check_same_field((a, b, c))
    return _singular(F, _entries(F, (a.coords, b.coords, c.coords)))


def _cross(F: FiniteField, u: Sequence[Element], v: Sequence[Element]) -> tuple[Element, Element, Element]:
    return (
        F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
        F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
        F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0])),
    )


def line_through(a: ProjPoint, b: ProjPoint) -> tuple[Element, Element, Element]:
    """Normalized dual coordinates of the line joining two distinct points."""
    if b.field != a.field:
        raise ValueError("points must share a coordinate field")
    if a == b:
        raise ValueError("two coincident points do not span a line")
    F = a.field
    return _normalized(F, _cross(F, a.coords, b.coords))


def incident(line: Sequence[Element], pt: ProjPoint) -> bool:
    F = pt.field
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
    the 6x6 determinant of Veronese images (x^2, xy, xz, y^2, yz, z^2)."""
    if len(points) != 6:
        raise ValueError(f"need exactly 6 points, got {len(points)}")
    F = _check_same_field(points)
    return _singular(F, _entries(F, [_veronese(F, pt.coords) for pt in points]))


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of the plane over F_p: the Frobenius orbit of a
    geometric point, listed in orbit order starting at that point."""

    point: ProjPoint
    # orbit order (points[i + 1] is the Frobenius image of points[i]) is
    # what lets general_position_report test the one triple (0, 2, 4)
    points: tuple[ProjPoint, ...] = dataclass_field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(frobenius_orbit(self.point)))

    @property
    def degree(self) -> int:
        return len(self.points)


def _random_point(F: FiniteField, rng: random.Random) -> ProjPoint:
    """A uniform point of P^2(F): draws triples until one is nonzero."""
    while True:
        coords = tuple(F.random_element(rng) for _ in range(3))
        if any(c != F.zero for c in coords):
            return ProjPoint.make(F, coords)


#: Points drawn by ``sample_closed_point`` before it gives up.
SAMPLING_ATTEMPTS = 1000


def sample_closed_point(p: int, degree: int, seed: int) -> ClosedPoint:
    """A pseudo-random closed point of the requested degree: a uniformly
    sampled point of P^2(F_{p^degree}) whose Frobenius orbit has exactly
    ``degree`` elements.  Deterministic per seed."""
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


@dataclass(frozen=True)
class PositionReport:
    """General-position verdicts for the six points of a degree-6 closed point."""

    no_three_collinear: bool
    off_conic: bool


def general_position_report(cp: ClosedPoint) -> PositionReport:
    """Check the six points of a degree-6 closed point for a collinear
    triple and for a common conic.  A valid degree-6 link center must pass
    both.

    Some triple of the six points is collinear iff (0, 2, 4) is; the
    module docstring proves it.  Both verdicts are computed on every
    orbit: a collinear orbit always lies on a conic, but deciding one
    from the other would hide a fault in either test.

    The six points lie on a common conic iff the 6x6 matrix over F_p of
    the coordinates of ``cp.point``'s Veronese image in the basis 1, x,
    ..., x^5 is singular: the orbit's Veronese rows form A C^T, with A the
    invertible Moore matrix of the basis (see the module docstring).
    This gives the verdict of ``on_common_conic(cp.points)`` from 6
    multiplications over F_{p^6} and one determinant over F_p.  Raises
    ``ValueError`` unless the coordinates lie in F_{p^6}: over a larger
    field the coordinate matrix is not square and the argument fails.
    """
    if cp.degree != 6:
        raise ValueError(f"need a degree-6 closed point, got degree {cp.degree}")
    F = cp.point.field
    if F.m != 6:
        raise ValueError(
            f"the conic test needs coordinates in F_{{p^6}}, got F_{{{F.p}^{F.m}}}"
        )
    points = cp.points
    return PositionReport(
        no_three_collinear=not collinear(points[0], points[2], points[4]),
        # row j of C is the coordinate tuple of Veronese entry j over F_p
        off_conic=not _singular(field(F.p, 1), _veronese(F, cp.point.coords)),
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


def connecting_lines(points: Sequence[ProjPoint]) -> list[frozenset[int]]:
    """All lines through at least two of the points, each as the index set
    of the configuration points on it.  Two points span exactly one line,
    so grouping the pairs by the normalized ``line_through`` key gives each
    line's members without an incidence test."""
    members: dict[tuple[Element, Element, Element], set[int]] = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        members.setdefault(line_through(points[i], points[j]), set()).update((i, j))
    return [frozenset(m) for m in members.values()]


def classify_configuration(
    points: Sequence[ProjPoint],
) -> tuple[ConfigCase, int]:
    """Classify six distinct points by their connecting-line profile and
    return (case, number of connecting lines).

    The profile is the sizes of the lines through at least three points,
    largest first, and the number of points those lines cover; it is
    looked up in ``_CASE_BY_PROFILE``.  Raises
    :class:`UnclassifiableConfiguration` if the profile is not there; a
    correct line grouping makes that unreachable, so any raise would expose
    a gap in the case analysis.
    """
    if len(points) != 6:
        raise ValueError(f"need exactly 6 points, got {len(points)}")
    _check_same_field(points)
    if len(set(points)) != 6:
        raise ValueError("configuration points must be distinct")
    lines = connecting_lines(points)
    rich = [m for m in lines if len(m) >= 3]
    profile = (
        tuple(sorted((len(m) for m in rich), reverse=True)),
        len(frozenset().union(*rich)),
    )
    if profile not in _CASE_BY_PROFILE:
        raise UnclassifiableConfiguration(f"unknown line profile {profile}")
    return _CASE_BY_PROFILE[profile], len(lines)


def sample_configuration(
    F: FiniteField, rng: random.Random
) -> tuple[ProjPoint, ...]:
    """Six distinct pseudo-random points of P^2 over F."""
    points: list[ProjPoint] = []
    while len(points) < 6:
        pt = _random_point(F, rng)
        if pt not in points:
            points.append(pt)
    return tuple(points)
