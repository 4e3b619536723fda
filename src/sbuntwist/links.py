"""The two elementary links, phi3 and phi6, as pushforward rules on cycles.

Blowing up a closed point of degree n in {3, 6} and contracting the
complementary exceptional configuration lands on a surface of the inverse
Brauer class.  On cycle data, a center of degree n and multiplicity b maps

    d        ->  (n-1) d - (n-2) b
    b_center ->  n d - (n-1) b        (at a fresh image orbit)

with every other orbit carried over unchanged and the label flipped.  Both
Noether relations are preserved exactly iff n^2 - 9n + 18 = 0, i.e. n = 3
or n = 6, which is why no further elementary links exist on these surfaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cycles import BrauerLabel, CycleClass, Orbit


class LinkError(Exception):
    """Base class for link pushforward failures."""


class WrongDegree(LinkError):
    """The chosen center's degree does not match the link kind."""


class DegenerateImage(LinkError):
    """The pushforward would leave the cone of valid cycles (d < 1 or a
    negative multiplicity); the input was not a pushforward of -omega."""


class UnsupportedDegree(LinkError):
    """No elementary link exists at a center of this degree."""


class UnknownCenter(LinkError):
    """The requested center id is not an orbit of the cycle."""


class LinkKind(Enum):
    PHI3 = "phi3"
    PHI6 = "phi6"

    @property
    def center_degree(self) -> int:
        return 3 if self is LinkKind.PHI3 else 6


KIND_BY_DEGREE = {3: LinkKind.PHI3, 6: LinkKind.PHI6}


@dataclass(frozen=True)
class Link:
    """One elementary transformation: kind, center orbit, source label, and
    the fresh id given to the image orbit it creates.  Every link flips the
    Brauer label."""

    kind: LinkKind
    center_id: str
    source_label: BrauerLabel
    image_orbit_id: str

    @property
    def target_label(self) -> BrauerLabel:
        return self.source_label.inverse()


_ID_PATTERN = re.compile(r"^x(\d+)$")


@dataclass
class IdSource:
    """Deterministic fresh-orbit-id counter handing out x1, x2, ...

    The only stateful piece of the link machinery; confine one instance to
    each chain or factorization session so runs reproduce byte-for-byte.
    """

    counter: int = 1

    @classmethod
    def past(cls, cycle: CycleClass) -> "IdSource":
        """A source whose ids avoid every x<k> id already in the cycle."""
        taken = [
            int(m.group(1))
            for o in cycle.orbits
            if (m := _ID_PATTERN.match(o.id)) is not None
        ]
        return cls(counter=max(taken, default=0) + 1)

    def take(self, used: frozenset[str] | set[str] = frozenset()) -> str:
        while True:
            name = f"x{self.counter}"
            self.counter += 1
            if name not in used:
                return name


def _apply(
    cycle: CycleClass,
    center_id: Optional[str],
    kind: LinkKind,
    ids: Optional[IdSource],
    image_id: Optional[str] = None,
) -> tuple[CycleClass, Link]:
    n = kind.center_degree
    if ids is None:
        ids = IdSource.past(cycle)
    used = {o.id for o in cycle.orbits}

    center = cycle.find(center_id) if center_id is not None else None
    if center is not None:
        if center.degree != n:
            raise WrongDegree(
                f"{kind.value} needs a degree-{n} center, orbit {center.id!r} "
                f"has degree {center.degree}"
            )
        b = center.multiplicity
    else:
        # A center absent from the orbit list is a valid choice with b = 0.
        b = 0
        if center_id is None:
            center_id = ids.take(used)

    d2 = (n - 1) * cycle.d - (n - 2) * b
    m2 = n * cycle.d - (n - 1) * b
    if d2 < 1 or m2 < 0:
        raise DegenerateImage(
            f"{kind.value} at (degree={n}, b={b}) on d={cycle.d} gives "
            f"d'={d2}, image multiplicity {m2}"
        )

    if image_id is None:
        image_id = ids.take(used | {center_id})
    carried = [o for o in cycle.orbits if o.id != center_id and o.multiplicity > 0]
    if m2 > 0:
        carried.append(Orbit(image_id, n, m2))
    out = CycleClass(cycle.label.inverse(), d2, tuple(carried))
    link = Link(
        kind=kind,
        center_id=center_id,
        source_label=cycle.label,
        image_orbit_id=image_id,
    )
    return out, link


def phi3_push(
    cycle: CycleClass,
    center_id: Optional[str] = None,
    ids: Optional[IdSource] = None,
    image_id: Optional[str] = None,
) -> tuple[CycleClass, Link]:
    """Push the cycle through the link at a degree-3 center.

    ``center_id=None`` requests a fresh center that is not a base point
    (multiplicity 0); an id absent from the cycle is likewise treated as a
    multiplicity-0 center.  The image orbit gets a fresh id from ``ids``
    unless ``image_id`` pins it (used when replaying recorded links).
    Output is normalized.
    """
    return _apply(cycle, center_id, LinkKind.PHI3, ids, image_id)


def phi6_push(
    cycle: CycleClass,
    center_id: Optional[str] = None,
    ids: Optional[IdSource] = None,
    image_id: Optional[str] = None,
) -> tuple[CycleClass, Link]:
    """Push the cycle through the link at a degree-6 center."""
    return _apply(cycle, center_id, LinkKind.PHI6, ids, image_id)


def push(
    cycle: CycleClass,
    center_id: str,
    ids: Optional[IdSource] = None,
) -> tuple[CycleClass, Link]:
    """Dispatch on the degree of an existing center orbit."""
    orbit = cycle.find(center_id)
    if orbit is None:
        raise UnknownCenter(f"cycle has no orbit with id {center_id!r}")
    kind = KIND_BY_DEGREE.get(orbit.degree)
    if kind is None:
        raise UnsupportedDegree(
            f"no elementary link at a degree-{orbit.degree} center (orbit "
            f"{center_id!r})"
        )
    return _apply(cycle, center_id, kind, ids)
