"""Plane-curve classes in the line basis and quadratic-transform pushforwards.

This is the oracle's bookkeeping layer: a curve class is a line degree n
together with assigned point multiplicities, and the standard quadratic
Cremona transformation based at three non-collinear points acts by

    n  ->  2n - m1 - m2 - m3
    m_i -> n - m_j - m_k          (at a fresh image label)

The anticanonical class of the plane is 3 lines, so d in the cycle basis
corresponds to n = 3d here; composing three quadratic transformations in
the right order reproduces the degree-6 link formula exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class CurveClass:
    """Degree-n curve class with point multiplicities, stored canonically
    as a label-sorted tuple.  Multiplicity-0 entries are meaningful here
    (they name points the class simply misses), so none are pruned."""

    line_degree: int
    mults: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.line_degree < 1:
            raise ValueError(f"line degree must be >= 1, got {self.line_degree}")
        labels = [lbl for lbl, _ in self.mults]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels: {labels!r}")
        for lbl, m in self.mults:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at {lbl!r}")
        object.__setattr__(self, "mults", tuple(sorted(self.mults)))

    @classmethod
    def make(cls, line_degree: int, mults: Mapping[str, int] = {}) -> "CurveClass":
        return cls(line_degree, tuple(mults.items()))

    def multiplicity(self, label: str) -> int:
        for lbl, m in self.mults:
            if lbl == label:
                return m
        return 0

    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.mults)

    def point_multiset(self) -> tuple[int, ...]:
        """Sorted positive multiplicities, one per geometric point; the
        basis-free shape used to compare against cycle data."""
        return tuple(sorted(m for _, m in self.mults if m > 0))


def fresh_label(label: str, taken: set[str]) -> str:
    """Deterministic image label: append primes until unused."""
    candidate = label + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


def _quad_push(
    curve: CurveClass, centers: Sequence[str]
) -> tuple[CurveClass, tuple[str, str, str]]:
    if len(centers) != 3 or len(set(centers)) != 3:
        raise ValueError(f"need three distinct centers, got {centers!r}")
    n = curve.line_degree
    m = [curve.multiplicity(c) for c in centers]
    out = {lbl: mult for lbl, mult in curve.mults if lbl not in centers}
    taken = set(curve.labels()) | set(centers)
    images = []
    for center, m_i in zip(centers, m):
        image = fresh_label(center, taken)
        taken.add(image)
        out[image] = n - sum(m) + m_i  # n - m_j - m_k
        images.append(image)
    pushed = CurveClass.make(2 * n - sum(m), out)
    return pushed, tuple(images)


def quad_transform_push(curve: CurveClass, centers: Sequence[str]) -> CurveClass:
    """Push a curve class through the quadratic transformation based at
    three distinct centers.

    Centers may carry multiplicity 0 (including labels absent from the
    class).  The push is symbolic: like the cycle layer, it assumes the
    centers are not collinear and never sees their coordinates.
    """
    pushed, _ = _quad_push(curve, centers)
    return pushed


def phi6_decomposition_push(curve: CurveClass, six_labels: Sequence[str]) -> CurveClass:
    """Realize the degree-6 link as three quadratic transformations.

    The six labels split into the first triple A and the second triple B;
    the composite transforms at A, then at B, then at the fresh triple that
    the first step created.  For input (n = 3d, multiplicity b at all six)
    the result is (15d - 12b; 6d - 5b at six points), i.e. the degree-6
    link in the line basis.
    """
    if len(six_labels) != 6 or len(set(six_labels)) != 6:
        raise ValueError(f"need six distinct labels, got {six_labels!r}")
    triple_a = six_labels[:3]
    triple_b = six_labels[3:]
    step1, images_a = _quad_push(curve, triple_a)
    step2, _ = _quad_push(step1, triple_b)
    return quad_transform_push(step2, images_a)


def cycle_point_multiset(d: int, orbits: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Translate cycle data (d; [(degree, mult), ...]) into the line basis:
    n = 3d and one multiplicity per geometric point, sorted."""
    mults: list[int] = []
    for degree, b in orbits:
        if b > 0:
            mults.extend([b] * degree)
    return 3 * d, tuple(sorted(mults))
