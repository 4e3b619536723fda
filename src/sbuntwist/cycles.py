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
from typing import Iterable, Optional


class BrauerLabel(Enum):
    """Which surface family a cycle lives on: one of the two mutually
    inverse Brauer classes of order 3.  The trivial class, the plane
    itself, is not modelled: it also has links at points of degree 1, 2,
    4, ..., which the phi3/phi6 formulas do not cover."""

    GAMMA = "gamma"
    GAMMA_INVERSE = "gamma_inv"

    def inverse(self) -> "BrauerLabel":
        if self is BrauerLabel.GAMMA:
            return BrauerLabel.GAMMA_INVERSE
        return BrauerLabel.GAMMA


def id_sort_key(orbit_id: str) -> tuple[int, str]:
    """Total order on orbit ids with "x2" before "x10"."""
    return (len(orbit_id), orbit_id)


@dataclass(frozen=True)
class Orbit:
    """A Galois orbit of base points: ``degree`` geometric points sharing
    one multiplicity.  Degrees are positive multiples of 3; multiplicities
    are non-negative."""

    id: str
    degree: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.degree < 3 or self.degree % 3 != 0:
            raise ValueError(
                f"orbit degree must be a positive multiple of 3, got {self.degree!r}"
            )
        if self.multiplicity < 0:
            raise ValueError(
                f"orbit multiplicity must be non-negative, got {self.multiplicity!r}"
            )


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

    @classmethod
    def make(
        cls,
        label: BrauerLabel,
        d: int,
        orbits: Iterable[tuple[str, int, int]] = (),
    ) -> "CycleClass":
        """Build a cycle from (id, degree, multiplicity) triples."""
        return cls(label, d, tuple(Orbit(i, n, b) for i, n, b in orbits))

    def find(self, orbit_id: str) -> Optional[Orbit]:
        return next((o for o in self.orbits if o.id == orbit_id), None)

    def normalized(self) -> "CycleClass":
        """Drop multiplicity-0 orbits."""
        kept = tuple(o for o in self.orbits if o.multiplicity > 0)
        if len(kept) == len(self.orbits):
            return self
        return CycleClass(self.label, self.d, kept)

    def is_anticanonical(self) -> bool:
        """True iff the cycle is -omega itself: d = 1 and no base points."""
        return self.d == 1 and all(o.multiplicity == 0 for o in self.orbits)


def self_intersection(cycle: CycleClass) -> int:
    """(-d*omega - sum b_i x_i)^2 = 9 d^2 - sum(degree * b^2)."""
    return 9 * cycle.d * cycle.d - sum(
        o.degree * o.multiplicity * o.multiplicity for o in cycle.orbits
    )


def anticanonical_degree(cycle: CycleClass) -> int:
    """Intersection with -omega: 9 d - sum(degree * b)."""
    return 9 * cycle.d - sum(o.degree * o.multiplicity for o in cycle.orbits)


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


def max_multiplicity_orbit(cycle: CycleClass) -> Optional[Orbit]:
    """The orbit of maximal positive multiplicity, or None.

    Ties break to the smallest degree first (degree-3 links shorten words),
    then to the smallest id, so factorizations are deterministic.  The
    key below is the one statement of this greedy order.
    """
    return min(
        (o for o in cycle.orbits if o.multiplicity > 0),
        key=lambda o: (-o.multiplicity, o.degree, id_sort_key(o.id)),
        default=None,
    )


@dataclass(frozen=True)
class NoetherReport:
    """Verdicts for the integer relations a pushforward of -omega satisfies.

    e2: self-intersection equals 9.
    e3: anticanonical degree equals 9.
    e4: some multiplicity reaches d+1 whenever d >= 2.
    e5: every orbit of maximal multiplicity has degree 3 or 6.

    e4 and e5 are consequences of e2 + e3 + non-negative multiplicities, so
    they can only fail when the cycle is already inconsistent; they are
    reported separately because the untwisting engine relies on them.
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
    """Evaluate the Noether-type relations; never raises."""
    sq = self_intersection(cycle)
    lin = anticanonical_degree(cycle)
    positive = [o for o in cycle.orbits if o.multiplicity > 0]
    bmax = max((o.multiplicity for o in positive), default=0)
    e4 = bmax >= cycle.d + 1 if cycle.d >= 2 else True
    e5 = all(o.degree in (3, 6) for o in positive if o.multiplicity == bmax)
    return NoetherReport(
        self_intersection=sq,
        anticanonical_degree=lin,
        e2=(sq == 9),
        e3=(lin == 9),
        e4=e4,
        e5=e5,
    )
