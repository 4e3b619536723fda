"""Greedy factorization of birational-map cycle data into elementary links.

Given the pushforward of -omega under a birational map, repeatedly apply
the link centered at an orbit of maximal multiplicity (the Noether-Fano
step of Iskovskikh's link theory).  The Noether relations are necessary
but not sufficient for a datum to be such a pushforward: greedy either
reaches -omega, certifying a word in the link generators followed by a
biregular automorphism, or meets a link whose image leaves the cone of
cycles and raises :class:`InconsistentCycle`.  The second outcome is the
common one: 967 of the 979 solutions of the relations with 2 <= d <= 16
end there.

Termination lemma.  Let a datum with d >= 2 and every b >= 0 satisfy
both relations, sum n b = 9(d-1) and sum n b^2 = 9(d^2-1).  Then
sum n b^2 = (d+1) sum n b > 0, so some b is at least d+1 (were every
b <= d, the left side would be at most d sum n b).  An orbit with
b >= d+1 has n (d+1)^2 <= n b^2 <= 9(d-1)(d+1), so n < 9, and as 3 | n,
n is 3 or 6.  At such a center phi3 gives d' = 2d - b <= d - 1 and phi6
gives d' = 5d - 4b <= d - 4.  A link preserves both relations (see
:mod:`sbuntwist.links`) and either raises or leaves every multiplicity
non-negative, so each cycle of the walk meets the same hypotheses: while
d >= 2 a center exists and has degree 3 or 6, d falls at every link, and
a word from degree d has fewer than d links.  At d = 1, sum n b = 0 leaves no orbit.  The loop checks
the fall of d after each link; a link that breaks it is a bug in
:mod:`sbuntwist.links`, not a property of the input, and raises
``AssertionError``.

A word of length L costs O(L log L) link and heap operations (plus the
exact arithmetic on d, which grows to O(L) bits): one mutable walk holds
the running cycle, and a heap keyed on :func:`~sbuntwist.cycles.greedy_key`
yields the centers.  The trajectory, O(L^2) orbits in all, is rebuilt only
on request (:attr:`Factorization.trace`).

A link costs a few microseconds of Python: one big-int product for its
formula, one :class:`~sbuntwist.cycles.Orbit` per surviving image (an image
of positive multiplicity, built unvalidated) and one
:class:`~sbuntwist.links.Link` per step, both named tuples; the heap holds
the flat greedy keys themselves.  At L = 300 on a shared 2-vCPU machine
(Python 3.11), :func:`random_chain` takes about 1.2-2.4 us per link and
:func:`untwist` about 2.3-5.1 us, its Noether check, id scan and heap
build included (the spread is the machine's speed drifting between runs).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .cycles import BrauerLabel, CycleClass, greedy_key, noether_check
from .links import KIND_BY_DEGREE, DegenerateImage, Link, LinkKind, _Walk


class InconsistentCycle(Exception):
    """The input fails the Noether relations or cannot be untwisted; it is
    not the pushforward of -omega under any birational map."""


class ParityContradiction(Exception):
    """The factorization lands on the wrong surface family: an even word
    cannot change the Brauer class and an odd word always does."""


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Factorization:
    """An ordered word of links with the endpoints and the degree sequence
    of the cycle trajectory it induces: ``initial`` is the (normalized)
    input, ``terminal`` is -omega, the biregular-automorphism marker, and
    ``d_trace[i]`` is d after i links."""

    steps: tuple[Link, ...]
    initial: CycleClass
    terminal: CycleClass
    d_trace: tuple[int, ...]

    @property
    def parity(self) -> Parity:
        return Parity.EVEN if len(self.steps) % 2 == 0 else Parity.ODD

    @property
    def trace(self) -> tuple[CycleClass, ...]:
        """Every cycle along the word, trace[0] = initial and trace[-1] =
        terminal, rebuilt by :func:`replay` (O(L^2) orbits in all)."""
        return tuple(replay(self.initial, self.steps))


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

    initial = cycle.normalized()
    walk = _Walk(initial)
    # The keys of exactly the walk's orbits (all of positive multiplicity):
    # a link removes only the center, the orbit whose key was just popped.
    heap = list(map(greedy_key, initial.orbits))
    heapq.heapify(heap)
    steps: list[Link] = []
    d_trace = [initial.d]
    # the input is normalized, so the walk keeps this one orbit dict
    step, orbits, pop, push = walk.step, walk.orbits, heapq.heappop, heapq.heappush

    # by the termination lemma the heap is non-empty at d >= 2 and every
    # center has degree 3 or 6; if not, heappop or the index raises
    while walk.d > 1 or heap:
        _, n, _, center_id = pop(heap)
        try:
            link = step(KIND_BY_DEGREE[n], center_id)
        except DegenerateImage as exc:
            # Satisfying the Noether relations is necessary but not
            # sufficient; data that cannot be pushed is not a pushforward
            # of -omega (positivity would fail downstream).
            raise InconsistentCycle(
                f"greedy step at orbit {center_id!r} degenerates: {exc}"
            ) from exc
        if walk.d >= d_trace[-1]:
            raise AssertionError(f"link at {center_id!r} took d={d_trace[-1]} to {walk.d}")
        image = orbits.get(link.image_orbit_id)
        if image is not None:
            push(heap, greedy_key(image))
        steps.append(link)
        d_trace.append(walk.d)

    if walk.label is not declared:
        raise ParityContradiction(
            f"word of length {len(steps)} ends on {walk.label.value!r}, "
            f"but the map was declared to land on {declared.value!r}"
        )
    return Factorization(
        steps=tuple(steps),
        initial=initial,
        terminal=walk.freeze(),
        d_trace=tuple(d_trace),
    )


def random_chain(length: int, seed: int) -> tuple[CycleClass, list[Link]]:
    """Push -omega through ``length`` links at fresh multiplicity-0 centers
    with kinds chosen pseudo-randomly from the seed.  Deterministic per
    seed; returns the resulting cycle and the ground-truth chain.  A
    negative seed raises ``ValueError``: ``random.Random`` would seed with
    |seed| and repeat the chain of -seed."""
    if length < 0:
        raise ValueError(f"chain length must be >= 0, got {length}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    draw = random.Random(seed).getrandbits
    walk = _Walk(CycleClass(BrauerLabel.GAMMA, 1))
    kinds, chain = (LinkKind.PHI3, LinkKind.PHI6), []
    for _ in range(length):
        r = draw(2)  # redrawn while >= 2, as rng.choice(kinds) draws; tests pin it
        while r >= 2:
            r = draw(2)
        chain.append(walk.step(kinds[r]))
    return walk.freeze(), chain


def replay(initial: CycleClass, chain: Sequence[Link]) -> list[CycleClass]:
    """Cycle trajectory from re-applying recorded links in order.

    Recorded center and image ids are honored verbatim: centers absent
    from the running cycle act as fresh multiplicity-0 centers, and each
    image orbit reuses its recorded id, so words that later push at their
    own images replay exactly.
    """
    walk = _Walk(initial)
    trajectory = [initial]
    for link in chain:
        walk.step(link.kind, link.center_id, link.image_orbit_id)
        trajectory.append(walk.freeze())
    return trajectory
