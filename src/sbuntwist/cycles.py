"""Cycle data on Severi-Brauer surfaces and their exact integer invariants.

A 0-cycle datum is stored against the anticanonical generator: ``d`` is the
coefficient of -omega, and each base orbit carries a (degree, multiplicity)
pair, where the degree counts the geometric points of the Galois orbit and
the multiplicity applies uniformly to all of them.  Every sum below runs
over geometric points, so an orbit of degree n and multiplicity b
contributes n*b (or n*b**2) -- this keeps the Galois symmetry explicit.

All arithmetic is exact (Python integers are unbounded).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional


class BrauerLabel(Enum):
    """Which surface family a cycle lives on: one of the two mutually
    inverse Brauer classes of order 3.  The trivial class, the plane
    itself, is not modelled: it also has links at points of degree 1, 2,
    4, ..., which the phi3/phi6 formulas do not cover."""

    GAMMA = "gamma"
    GAMMA_INVERSE = "gamma_inv"

    def inverse(self) -> "BrauerLabel":
        # module-bound members: a class attribute read goes through EnumType
        return GAMMA_INVERSE if self is GAMMA else GAMMA


GAMMA, GAMMA_INVERSE = BrauerLabel.GAMMA, BrauerLabel.GAMMA_INVERSE


class _OrbitFields(NamedTuple):
    id: str
    degree: int
    multiplicity: int


class Orbit(_OrbitFields):
    """A Galois orbit of base points: ``degree`` geometric points sharing
    one multiplicity.  Degrees are positive multiples of 3; multiplicities
    are non-negative.

    An immutable (id, degree, multiplicity) named tuple, which costs half
    as much to build as a frozen dataclass.  Every construction through the
    class is validated, :meth:`_make` and ``_replace`` included.  Two sites
    skip the check with ``tuple.__new__(Orbit, ...)``: ``links._Walk.step``
    for an image orbit, of degree n in {3, 6} from ``LinkKind`` and a
    multiplicity it has tested to be positive, and
    ``cli.parse_cycle_document`` after its own stricter field checks."""

    __slots__ = ()

    def __new__(cls, id: str, degree: int, multiplicity: int) -> "Orbit":
        if degree < 3 or degree % 3 != 0:
            raise ValueError(
                f"orbit degree must be a positive multiple of 3, got {degree!r}"
            )
        if multiplicity < 0:
            raise ValueError(
                f"orbit multiplicity must be non-negative, got {multiplicity!r}"
            )
        return tuple.__new__(cls, (id, degree, multiplicity))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Orbit":
        return cls(*iterable)


@dataclass(frozen=True)
class CycleClass:
    """The cycle -d*omega - sum_i b_i x_i, tagged with its surface family.

    Orbits of multiplicity 0 are permitted transiently (a link center need
    not be a base point) but are dropped by :meth:`normalized`; they never
    affect any invariant.
    """

    label: BrauerLabel
    d: int
    orbits: tuple[Orbit, ...] = ()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"anticanonical coefficient must be >= 1, got {self.d!r}")
        orbits = tuple(self.orbits)
        ids = [o.id for o in orbits]
        if len(set(ids)) != len(ids):
            raise ValueError(f"orbit ids must be unique, got {ids!r}")
        object.__setattr__(self, "orbits", orbits)

    def normalized(self) -> "CycleClass":
        """Drop multiplicity-0 orbits."""
        kept = tuple(o for o in self.orbits if o.multiplicity > 0)
        if len(kept) == len(self.orbits):
            return self
        return CycleClass(self.label, self.d, kept)

    def is_anticanonical(self) -> bool:
        """True iff the cycle is -omega itself: d = 1 and no base points."""
        return self.d == 1 and all(o.multiplicity == 0 for o in self.orbits)


def arithmetic_genus(cycle: CycleClass) -> int:
    """p_a = 9(d^2-d)/2 + 1 - sum(degree * b(b-1)/2).

    Each halved term is integral on its own (d^2-d and b(b-1) are even),
    so the computation stays in exact integers.
    """
    d = cycle.d
    genus = 9 * (d * d - d) // 2 + 1
    for o in cycle.orbits:
        b = o.multiplicity
        genus -= o.degree * (b * (b - 1) // 2)
    return genus


def greedy_key(orbit: Orbit) -> tuple[int, int, int, str]:
    """The greedy order on orbits, smallest first: maximal multiplicity,
    then the smallest degree (degree-3 links shorten words), then the
    smallest id, so factorizations are deterministic.  Ids compare by
    length first, so "x2" comes before "x10".  Keys of distinct ids
    differ, so the order is total.  The key is flat, (-b, degree,
    len(id), id), so the untwisting heap holds keys and reads ids at [3]."""
    return (-orbit.multiplicity, orbit.degree, len(orbit.id), orbit.id)


def max_multiplicity_orbit(cycle: CycleClass) -> Optional[Orbit]:
    """The orbit of maximal positive multiplicity, or None; the first orbit
    in :func:`greedy_key` order.  This is the one statement of the greedy
    choice; the untwisting heap pops centers in the same order."""
    return min(
        (o for o in cycle.orbits if o.multiplicity > 0),
        key=greedy_key,
        default=None,
    )


@dataclass(frozen=True)
class NoetherReport:
    """Verdicts for the integer relations a pushforward of -omega satisfies.

    self_intersection: (-d*omega - sum b_i x_i)^2 = 9 d^2 - sum(degree * b^2).
    anticanonical_degree: intersection with -omega, 9 d - sum(degree * b).
    e2: self-intersection equals 9.
    e3: anticanonical degree equals 9.
    e4: some multiplicity reaches d+1 whenever d >= 2.
    e5: every orbit of maximal multiplicity has degree 3 or 6.

    e4 and e5 are the termination lemma of :mod:`sbuntwist.untwist`: e2, e3
    and non-negative multiplicities imply both, so they can fail only on
    inconsistent data, where the report still shows them.
    """

    self_intersection: int
    anticanonical_degree: int
    e2: bool
    e3: bool
    e4: bool
    e5: bool

    @property
    def consistent(self) -> bool:
        return self.e2 and self.e3


def noether_check(cycle: CycleClass) -> NoetherReport:
    """Evaluate the Noether-type relations in one pass; never raises."""
    d = cycle.d
    sq, lin, bmax = 9 * d * d, 9 * d, 0
    for _, n, b in cycle.orbits:
        nb = n * b
        sq, lin = sq - nb * b, lin - nb
        if b > bmax:
            bmax = b
    e4 = bmax >= d + 1 if d >= 2 else True
    # with bmax = 0 there is no orbit of positive multiplicity to check
    e5 = bmax == 0 or all(o.degree in (3, 6) for o in cycle.orbits if o.multiplicity == bmax)
    return NoetherReport(
        self_intersection=sq,
        anticanonical_degree=lin,
        e2=(sq == 9),
        e3=(lin == 9),
        e4=e4,
        e5=e5,
    )
