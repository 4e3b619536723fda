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


KIND_BY_DEGREE = {kind.center_degree: kind for kind in LinkKind}


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


class _Walk:
    """A cycle being pushed through links in place: the label, ``d``, an
    insertion-ordered ``id -> Orbit`` map and a fresh-id counter.  One link
    costs O(1) dict work; :meth:`freeze` builds the :class:`CycleClass`.

    Fresh ids run x1, x2, ... from past every x<k> id of the starting
    cycle and skip ids in use, so one walk never hands out an id twice.

    Multiplicity-0 orbits of the starting cycle stay visible to the first
    link (as centers and as taken ids) and are dropped by it, so every
    frozen cycle after a link is normalized.
    """

    def __init__(self, cycle: CycleClass) -> None:
        self.label = cycle.label
        self.d = cycle.d
        self.orbits = {o.id: o for o in cycle.orbits}
        taken = [int(m.group(1)) for o in cycle.orbits if (m := _ID_PATTERN.match(o.id))]
        self._counter = max(taken, default=0) + 1
        self._zeros = any(o.multiplicity == 0 for o in cycle.orbits)

    def _fresh(self) -> str:
        while True:
            name = f"x{self._counter}"
            self._counter += 1
            if name not in self.orbits:
                return name

    def step(
        self,
        kind: LinkKind,
        center_id: Optional[str] = None,
        image_id: Optional[str] = None,
    ) -> Link:
        """Apply the link of this kind; see :func:`push`.  ``image_id``
        pins the image orbit's id, as :func:`~sbuntwist.untwist.replay` does."""
        n = kind.center_degree
        orbits = self.orbits
        center = orbits.get(center_id) if center_id is not None else None
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
                center_id = self._fresh()

        d2 = (n - 1) * self.d - (n - 2) * b
        m2 = n * self.d - (n - 1) * b
        if d2 < 1 or m2 < 0:
            raise DegenerateImage(
                f"{kind.value} at (degree={n}, b={b}) on d={self.d} gives "
                f"d'={d2}, image multiplicity {m2}"
            )

        if image_id is None:
            image_id = self._fresh()
            # a pinned absent center may be the id the counter gives next
            if image_id == center_id:
                image_id = self._fresh()
        orbits.pop(center_id, None)
        if self._zeros:
            self.orbits = orbits = {
                k: o for k, o in orbits.items() if o.multiplicity > 0
            }
            self._zeros = False
        if m2 > 0:
            if image_id in orbits:
                raise ValueError(f"orbit ids must be unique, {image_id!r} is taken")
            orbits[image_id] = Orbit(image_id, n, m2)
        link = Link(kind, center_id, self.label, image_id)
        self.label = self.label.inverse()
        self.d = d2
        return link

    def push(self, center_id: str) -> Link:
        """Apply the link whose kind the existing center's degree selects."""
        orbit = self.orbits.get(center_id)
        if orbit is None:
            raise UnknownCenter(f"cycle has no orbit with id {center_id!r}")
        kind = KIND_BY_DEGREE.get(orbit.degree)
        if kind is None:
            raise UnsupportedDegree(
                f"no elementary link at a degree-{orbit.degree} center (orbit "
                f"{center_id!r})"
            )
        return self.step(kind, center_id)

    def freeze(self) -> CycleClass:
        return CycleClass(self.label, self.d, tuple(self.orbits.values()))


def push(
    cycle: CycleClass, center_id: Optional[str] = None, kind: Optional[LinkKind] = None
) -> tuple[CycleClass, Link]:
    """Push the cycle through one link: of this kind, or else of the kind
    the existing center's degree selects (an absent center then raises
    :class:`UnknownCenter`).  With a kind, ``center_id=None`` asks for a
    fresh center, and an id absent from the cycle names one: a center of
    multiplicity 0.  Fresh ids avoid the input cycle's ids, and one walk
    (see :mod:`sbuntwist.untwist`) never hands one out twice.  Output is
    normalized."""
    walk = _Walk(cycle)
    link = walk.step(kind, center_id) if kind is not None else walk.push(center_id)
    return walk.freeze(), link


def phi3_push(cycle: CycleClass, center_id: Optional[str] = None) -> tuple[CycleClass, Link]:
    """``push`` at a degree-3 center; kept because ``perfbench`` traces it by name."""
    return push(cycle, center_id, LinkKind.PHI3)


def phi6_push(cycle: CycleClass, center_id: Optional[str] = None) -> tuple[CycleClass, Link]:
    """``push`` at a degree-6 center; kept because ``perfbench`` traces it by name."""
    return push(cycle, center_id, LinkKind.PHI6)
