import pytest
from hypothesis import given, strategies as st

from sbuntwist.curves import (
    CurveClass,
    cycle_point_multiset,
    phi6_decomposition_push,
    quad_transform_push,
)


def test_curve_class_is_canonical():
    a = CurveClass.make(3, {"b": 1, "a": 2})
    b = CurveClass(3, (("b", 1), ("a", 2)))
    assert a == b
    assert a.multiplicity("a") == 2
    assert a.multiplicity("missing") == 0


def test_curve_class_validation():
    with pytest.raises(ValueError):
        CurveClass.make(0, {})
    with pytest.raises(ValueError):
        CurveClass.make(3, {"a": -1})
    with pytest.raises(ValueError):
        CurveClass(3, (("a", 1), ("a", 2)))


def test_quad_transform_on_anticanonical():
    # three lines, no assigned points: the image is (6; 3,3,3)
    out = quad_transform_push(CurveClass.make(3), ("p1", "p2", "p3"))
    assert out.line_degree == 6
    assert out.point_multiset() == (3, 3, 3)


def test_quad_transform_matches_cycle_formula():
    # (3d; b,b,b) -> (3(2d-b); (3d-2b)^3)
    for d in range(1, 12):
        for b in range(0, min(3 * d // 2, 2 * d - 1) + 1):
            curve = CurveClass.make(3 * d, {"p1": b, "p2": b, "p3": b})
            out = quad_transform_push(curve, ("p1", "p2", "p3"))
            assert out.line_degree == 3 * (2 * d - b)
            expected = tuple(sorted([3 * d - 2 * b] * 3)) if 3 * d - 2 * b else ()
            assert out.point_multiset() == expected


def test_quad_transform_keeps_zero_entries():
    # the involution image keeps explicit multiplicity-0 markers
    first = quad_transform_push(CurveClass.make(6, {"q1": 3, "q2": 3, "q3": 3}), ("q1", "q2", "q3"))
    assert first.line_degree == 3
    assert first.point_multiset() == ()
    assert set(first.labels()) == {"q1'", "q2'", "q3'"}


def test_quad_transform_involution():
    curve = CurveClass.make(9, {"a": 2, "b": 1, "c": 0, "z": 4})
    once = quad_transform_push(curve, ("a", "b", "c"))
    twice = quad_transform_push(once, ("a'", "b'", "c'"))
    assert twice.line_degree == curve.line_degree
    assert twice.multiplicity("a''") == 2
    assert twice.multiplicity("b''") == 1
    assert twice.multiplicity("c''") == 0
    assert twice.multiplicity("z") == 4


@given(
    st.integers(min_value=1, max_value=50),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
)
def test_quad_transform_involution_generic(n, ms):
    m1, m2, m3 = ms
    if 2 * n - m1 - m2 - m3 < 1 or any(n - mj - mk < 0 for mj, mk in [(m2, m3), (m1, m3), (m1, m2)]):
        return
    curve = CurveClass.make(n, {"a": m1, "b": m2, "c": m3})
    once = quad_transform_push(curve, ("a", "b", "c"))
    twice = quad_transform_push(once, ("a'", "b'", "c'"))
    assert twice.line_degree == n
    assert (twice.multiplicity("a''"), twice.multiplicity("b''"), twice.multiplicity("c''")) == ms


def test_phi6_decomposition_reproduces_eq_of_the_link():
    labels = tuple(f"p{i}" for i in range(6))
    out = phi6_decomposition_push(CurveClass.make(3, {l: 0 for l in labels}), labels)
    assert out.line_degree == 15
    assert out.point_multiset() == (6,) * 6


def test_phi6_decomposition_inverse():
    labels = tuple(f"p{i}" for i in range(6))
    out = phi6_decomposition_push(
        CurveClass.make(15, {l: 6 for l in labels}), labels
    )
    assert out.line_degree == 3
    assert out.point_multiset() == ()


def test_phi6_decomposition_needs_six_distinct_labels():
    with pytest.raises(ValueError):
        phi6_decomposition_push(CurveClass.make(3), ("a", "a", "b", "c", "d", "e"))


def test_cycle_point_multiset():
    assert cycle_point_multiset(5, [(6, 6)]) == (15, (6, 6, 6, 6, 6, 6))
    assert cycle_point_multiset(1, []) == (3, ())
    assert cycle_point_multiset(2, [(3, 3), (6, 0)]) == (6, (3, 3, 3))
