"""Greedy factorization of birational-map cycle data into elementary links.

Given the pushforward of -omega under a birational map, repeatedly apply
the link centered at an orbit of maximal multiplicity.  On consistent data
the maximal multiplicity satisfies b >= d+1 and sits on an orbit of degree
3 or 6, so d drops by at least 1 (phi3) or 4 (phi6) per step and the
procedure terminates at -omega, certifying a word in the link generators
followed by a biregular automorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .cycles import (
    BrauerLabel,
    CycleClass,
    max_multiplicity_orbit,
    noether_check,
)
from .links import (
    DegenerateImage,
    IdSource,
    Link,
    LinkKind,
    phi3_push,
    phi6_push,
    push,
)


class InconsistentCycle(Exception):
    """The input fails the Noether relations or cannot be untwisted; it is
    not the pushforward of -omega under any birational map."""


class ParityContradiction(Exception):
    """The factorization lands on the wrong surface family: an even word
    cannot change the Brauer class and an odd word always does."""


class NonTermination(Exception):
    """Defensive guard: the step count exceeded the initial degree, which
    is impossible for genuine cycle data."""


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Factorization:
    """An ordered word of links together with the cycle trajectory it
    induces; trace[0] is the (normalized) input and trace[-1] is -omega,
    the terminal biregular-automorphism marker."""

    steps: tuple[Link, ...]
    trace: tuple[CycleClass, ...]

    @property
    def initial(self) -> CycleClass:
        return self.trace[0]

    @property
    def terminal(self) -> CycleClass:
        return self.trace[-1]

    @property
    def parity(self) -> Parity:
        return Parity.EVEN if len(self.steps) % 2 == 0 else Parity.ODD

    @property
    def d_trace(self) -> tuple[int, ...]:
        return tuple(c.d for c in self.trace)


def untwist(
    cycle: CycleClass,
    declared_target: Optional[BrauerLabel] = None,
) -> Factorization:
    """Factor the cycle datum into elementary links ending at -omega.

    ``declared_target`` is the family the map is declared to land on; it
    defaults to the source label (an automorphism datum).  The terminal
    label must match it, otherwise :class:`ParityContradiction` is raised
    after the word has been computed.
    """
    report = noether_check(cycle)
    if not report.consistent:
        raise InconsistentCycle(
            "cycle fails the Noether relations: self-intersection "
            f"{report.self_intersection} (want 9), anticanonical degree "
            f"{report.anticanonical_degree} (want 9)"
        )
    declared = declared_target if declared_target is not None else cycle.label

    current = cycle.normalized()
    ids = IdSource.past(current)
    bound = current.d
    steps: list[Link] = []
    trace: list[CycleClass] = [current]

    while not current.is_anticanonical():
        if len(steps) >= bound:
            raise NonTermination(
                f"no termination after {len(steps)} steps from d={bound}"
            )
        center = max_multiplicity_orbit(current)
        if center is None:
            # d >= 2 with no base points contradicts the checked relations.
            raise InconsistentCycle(
                f"no center available at d={current.d}; corrupted cycle data"
            )
        try:
            # raises UnsupportedDegree at a center of degree other than 3, 6
            current, link = push(current, center.id, ids)
        except DegenerateImage as exc:
            # Satisfying the Noether relations is necessary but not
            # sufficient; data that cannot be pushed is not a pushforward
            # of -omega (positivity would fail downstream).
            raise InconsistentCycle(
                f"greedy step at orbit {center.id!r} degenerates: {exc}"
            ) from exc
        steps.append(link)
        trace.append(current)

    if current.label is not declared:
        raise ParityContradiction(
            f"word of length {len(steps)} ends on {current.label.value!r}, "
            f"but the map was declared to land on {declared.value!r}"
        )
    return Factorization(steps=tuple(steps), trace=tuple(trace))


def random_chain(length: int, seed: int) -> tuple[CycleClass, list[Link]]:
    """Push -omega through ``length`` links at fresh multiplicity-0 centers
    with kinds chosen pseudo-randomly from the seed.  Deterministic per
    seed; returns the resulting cycle and the ground-truth chain."""
    if length < 0:
        raise ValueError(f"chain length must be >= 0, got {length}")
    rng = random.Random(seed)
    ids = IdSource()
    current = CycleClass(BrauerLabel.GAMMA, 1)
    chain: list[Link] = []
    for _ in range(length):
        pushed = phi3_push if rng.randrange(2) == 0 else phi6_push
        current, link = pushed(current, None, ids)
        chain.append(link)
    return current, chain


def replay(initial: CycleClass, chain: Sequence[Link]) -> list[CycleClass]:
    """Cycle trajectory from re-applying recorded links in order.

    Recorded center and image ids are honored verbatim: centers absent
    from the running cycle act as fresh multiplicity-0 centers, and each
    image orbit reuses its recorded id, so words that later push at their
    own images replay exactly.
    """
    trajectory = [initial]
    current = initial
    for link in chain:
        pushed = phi3_push if link.kind is LinkKind.PHI3 else phi6_push
        current, _ = pushed(
            current, link.center_id, image_id=link.image_orbit_id
        )
        trajectory.append(current)
    return trajectory
