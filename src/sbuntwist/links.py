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
from enum import Enum
from typing import NamedTuple, Optional

from .cycles import BrauerLabel, CycleClass, Orbit


class WrongDegree(Exception):
    """The chosen center's degree does not match the link kind."""


class DegenerateImage(Exception):
    """The pushforward would leave the cone of valid cycles (d < 1 or a
    negative multiplicity); the input was not a pushforward of -omega."""


class LinkKind(Enum):
    """The two links; ``center_degree`` (3 or 6) is a plain attribute,
    read once per link step."""

    PHI3 = "phi3"
    PHI6 = "phi6"

    def __init__(self, value: str) -> None:
        self.center_degree = 3 if value == "phi3" else 6


KIND_BY_DEGREE = {kind.center_degree: kind for kind in LinkKind}


class Link(NamedTuple):
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
    An id is x<k> when ``_ID_PATTERN`` matches it, with k the ``int`` of
    its digits: x05 gives 5, x١٢ (Unicode digits) gives 12, and so does
    x12 with a trailing newline, which ``$`` allows; x and y5 give none.

    Multiplicity-0 orbits of the starting cycle stay visible to the first
    link (as centers and as taken ids) and are dropped by it, so every
    frozen cycle after a link is normalized.
    """

    def __init__(self, cycle: CycleClass) -> None:
        self.label = cycle.label
        self.d = cycle.d
        self.orbits = {o.id: o for o in cycle.orbits}
        digits = [m[1] for m in map(_ID_PATTERN.match, self.orbits) if m]
        self._counter = max(map(int, digits), default=0) + 1
        self._zeros = any(o.multiplicity == 0 for o in cycle.orbits)

    def _fresh(self) -> str:
        while True:
            name = f"x{self._counter}"
            self._counter += 1
            if name not in self.orbits:
                return name

    def step(
        self, kind: LinkKind, center_id: Optional[str] = None, image_id: Optional[str] = None
    ) -> Link:
        """Apply one link; see :func:`push`.  ``image_id`` pins the image
        orbit's id, as :func:`~sbuntwist.untwist.replay` does."""
        d = self.d
        orbits = self.orbits
        center = None if center_id is None else orbits.get(center_id)
        n = kind.center_degree
        if center is None:
            # A center absent from the orbit list is a valid choice with
            # b = 0, and its image d' = (n-1) d, n d never degenerates.
            if center_id is None:
                center_id = self._fresh()
            d2 = (n - 1) * d
            m2 = d2 + d
        else:
            if center.degree != n:
                raise WrongDegree(
                    f"{kind.value} needs a degree-{n} center, orbit {center_id!r} "
                    f"has degree {center.degree}"
                )
            b = center.multiplicity
            # one product: d' = d + (n-2) t and m' = d' + t, for t = d - b
            t = d - b
            d2 = d + (n - 2) * t
            m2 = d2 + t
            if d2 < 1 or m2 < 0:
                raise DegenerateImage(
                    f"{kind.value} at (degree={n}, b={b}) on d={d} gives "
                    f"d'={d2}, image multiplicity {m2}"
                )
            del orbits[center_id]

        if image_id is None:
            image_id = self._fresh()
            # the center's id (absent, or deleted above) may be the one the
            # counter gives next
            if image_id == center_id:
                image_id = self._fresh()
        if self._zeros:
            self.orbits = orbits = {
                k: o for k, o in orbits.items() if o.multiplicity > 0
            }
            self._zeros = False
        if m2 > 0:
            if image_id in orbits:
                raise ValueError(f"orbit ids must be unique, {image_id!r} is taken")
            # unvalidated, as the Orbit docstring allows: n is 3 or 6 and m2 > 0
            orbits[image_id] = tuple.__new__(Orbit, (image_id, n, m2))
        # tuple.__new__ skips the Python-level __new__ of the named tuple
        link = tuple.__new__(Link, (kind, center_id, self.label, image_id))
        self.label = self.label.inverse()
        self.d = d2
        return link

    def freeze(self) -> CycleClass:
        return CycleClass(self.label, self.d, tuple(self.orbits.values()))


def push(cycle: CycleClass, center_id: Optional[str], kind: LinkKind) -> tuple[CycleClass, Link]:
    """Push the cycle through one link of this kind.  ``center_id=None``
    asks for a fresh center, and an id absent from the cycle names one: a
    center of multiplicity 0.  An existing center of the wrong degree
    raises :class:`WrongDegree`.  Fresh ids avoid the input cycle's ids,
    and one walk (see :mod:`sbuntwist.untwist`) never hands one out twice.
    Output is normalized."""
    walk = _Walk(cycle)
    link = walk.step(kind, center_id)
    return walk.freeze(), link


def phi3_push(cycle: CycleClass, center_id: Optional[str] = None) -> tuple[CycleClass, Link]:
    """``push`` at a degree-3 center; kept because ``perfbench`` traces it by name."""
    return push(cycle, center_id, LinkKind.PHI3)


def phi6_push(cycle: CycleClass, center_id: Optional[str] = None) -> tuple[CycleClass, Link]:
    """``push`` at a degree-6 center; kept because ``perfbench`` traces it by name."""
    return push(cycle, center_id, LinkKind.PHI6)
