import pytest
from hypothesis import given, strategies as st

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    anticanonical_degree,
    arithmetic_genus,
    self_intersection,
)
from sbuntwist.links import (
    DegenerateImage,
    Link,
    LinkKind,
    UnknownCenter,
    UnsupportedDegree,
    WrongDegree,
    phi3_push,
    phi6_push,
    push,
)
from sbuntwist.untwist import replay

GAMMA = BrauerLabel.GAMMA
GAMMA_INV = BrauerLabel.GAMMA_INVERSE


def cyc(d, orbits=(), label=GAMMA):
    return CycleClass.make(label, d, [(f"c{i+1}", n, b) for i, (n, b) in enumerate(orbits)])


# --- the two pushforward formulas on the anticanonical class ---

def test_phi3_fresh_center_on_anticanonical():
    out, link = phi3_push(cyc(1))
    assert out.d == 2
    assert [(o.degree, o.multiplicity) for o in out.orbits] == [(3, 3)]
    assert out.label is GAMMA_INV
    assert link.kind.value == "phi3"
    assert link.source_label is GAMMA and link.target_label is GAMMA_INV


def test_phi6_fresh_center_on_anticanonical():
    # -omega maps to -5*omega - 6(x1+...+x6)
    out, _ = phi6_push(cyc(1))
    assert out.d == 5
    assert [(o.degree, o.multiplicity) for o in out.orbits] == [(6, 6)]
    assert out.label is GAMMA_INV


def test_phi3_inverse_step():
    out, _ = phi3_push(cyc(2, [(3, 3)]), "c1")
    assert out.d == 1 and out.orbits == ()


def test_phi6_inverse_step():
    out, _ = phi6_push(cyc(5, [(6, 6)]), "c1")
    assert out.d == 1 and out.orbits == ()


def test_phi3_keeps_other_orbits():
    out, _ = phi3_push(cyc(4, [(3, 6), (3, 3)]), "c1")
    assert out.d == 2
    assert [(o.degree, o.multiplicity) for o in out.orbits] == [(3, 3)]


def test_phi6_keeps_other_orbits():
    out, _ = phi6_push(cyc(25, [(6, 30), (6, 6)]), "c1")
    assert out.d == 5
    assert [(o.degree, o.multiplicity) for o in out.orbits] == [(6, 6)]


def test_absent_center_id_is_a_fresh_center():
    out, link = phi3_push(cyc(1), "y7")
    assert link.center_id == "y7"
    assert out.d == 2


# --- errors ---

def test_wrong_degree():
    with pytest.raises(WrongDegree):
        phi3_push(cyc(5, [(6, 6)]), "c1")
    with pytest.raises(WrongDegree):
        phi6_push(cyc(2, [(3, 3)]), "c1")


def test_wrong_degree_at_an_explicit_multiplicity_0_orbit():
    # a listed orbit of multiplicity 0 is still a center of its own degree
    with pytest.raises(WrongDegree):
        phi3_push(cyc(2, [(3, 3), (6, 0)]), "c2")
    with pytest.raises(WrongDegree):
        phi6_push(cyc(2, [(3, 3), (3, 0)]), "c2")


def test_degenerate_image_on_inconsistent_data():
    # d' = 2*2 - 5 < 1
    with pytest.raises(DegenerateImage):
        phi3_push(cyc(2, [(3, 5)]), "c1")
    # image multiplicity 3*10 - 2*16 < 0
    with pytest.raises(DegenerateImage):
        phi3_push(cyc(10, [(3, 16)]), "c1")


def test_push_dispatch_and_guards():
    out, _ = push(cyc(2, [(3, 3)]), "c1")
    assert out.d == 1
    out, _ = push(cyc(5, [(6, 6)]), "c1")
    assert out.d == 1
    # with a kind, push is the named link at an existing, fresh or absent center
    for kind, named, c in (
        (LinkKind.PHI3, phi3_push, cyc(2, [(3, 3), (6, 1)])),
        (LinkKind.PHI6, phi6_push, cyc(5, [(6, 6), (3, 1)])),
    ):
        assert push(c, "c1", kind) == named(c, "c1") == push(c, "c1")
        assert push(c, None, kind) == named(c)
        assert push(c, "y7", kind) == named(c, "y7")
    with pytest.raises(UnsupportedDegree):
        push(cyc(4, [(9, 1)]), "c1")
    with pytest.raises(UnknownCenter):
        push(cyc(1), "nope")
    # neither a center nor a kind: nothing selects the link
    with pytest.raises(UnknownCenter):
        push(cyc(1))


# --- id management ---

def test_fresh_ids_are_deterministic():
    c1, l1 = phi3_push(cyc(1))
    c2, l2 = phi6_push(c1)
    assert (l1.center_id, l1.image_orbit_id) == ("x1", "x2")
    assert (l2.center_id, l2.image_orbit_id) == ("x3", "x4")


def test_default_id_source_avoids_existing_ids():
    c = CycleClass.make(GAMMA, 2, [("x7", 3, 3)])
    out, link = phi3_push(c, "x7")
    assert link.image_orbit_id == "x8"


def test_pinned_absent_center_is_never_the_image_id():
    # the pinned center is the counter's next id; the image skips it
    out, link = phi3_push(cyc(1), "x1")
    assert (link.center_id, link.image_orbit_id) == ("x1", "x2")
    assert [o.id for o in out.orbits] == ["x2"]
    c = CycleClass.make(GAMMA, 2, [("x1", 3, 3)])
    out, link = phi6_push(c, "x2")
    assert (link.center_id, link.image_orbit_id) == ("x2", "x3")
    assert [o.id for o in out.orbits] == ["x1", "x3"]


def test_pinned_image_id_of_a_carried_orbit_is_rejected():
    def pinned(cycle, image_id):
        return replay(cycle, [Link(LinkKind.PHI3, "c1", GAMMA, image_id)])[-1]

    with pytest.raises(ValueError):
        pinned(cyc(10, [(3, 3), (6, 2)]), "c2")
    # the center's own id and a dropped multiplicity-0 id are free again
    out = pinned(cyc(10, [(3, 3), (6, 0)]), "c2")
    assert [(o.id, o.multiplicity) for o in out.orbits] == [("c2", 24)]
    out = pinned(cyc(10, [(3, 3)]), "c1")
    assert [(o.id, o.multiplicity) for o in out.orbits] == [("c1", 24)]


def test_replay_from_a_non_normalized_cycle():
    # c2 and x3 are listed with multiplicity 0; x4 is the first link's image
    start = CycleClass.make(GAMMA, 2, [("c1", 3, 3), ("c2", 6, 0), ("x3", 3, 0)])
    trajectory = [start]
    links = []
    for pushed, center in [
        (phi6_push, "c2"), (phi3_push, "x3"), (phi6_push, "x4"), (phi3_push, "c1"),
        (phi3_push, None),
    ]:
        out, link = pushed(trajectory[-1], center)
        trajectory.append(out)
        links.append(link)
    assert links[0].image_orbit_id == "x4"
    assert replay(start, links) == trajectory


# --- algebraic properties ---

@given(st.integers(min_value=1, max_value=10**6))
def test_phi3_involution_on_fresh_center(d):
    start = cyc(d, [(3, 2), (6, 1)])
    mid, link = phi3_push(start)
    back, _ = push(mid, link.image_orbit_id)
    assert back.d == start.d
    assert back.label is start.label
    assert sorted((o.degree, o.multiplicity) for o in back.orbits) == sorted(
        (o.degree, o.multiplicity) for o in start.orbits
    )


@given(st.integers(min_value=1, max_value=10**6))
def test_phi6_involution_on_fresh_center(d):
    start = cyc(d, [(3, 2)])
    mid, link = phi6_push(start)
    back, _ = push(mid, link.image_orbit_id)
    assert back.d == start.d and back.label is start.label


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
)
def test_phi3_preserves_noether_values(d, b):
    if 2 * d - b < 1 or 3 * d - 2 * b < 0:
        return
    start = cyc(d, [(3, b)]) if b else cyc(d)
    out, _ = phi3_push(start, "c1" if b else None)
    assert self_intersection(out) == self_intersection(start)
    assert anticanonical_degree(out) == anticanonical_degree(start)
    assert arithmetic_genus(out) == arithmetic_genus(start)


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
)
def test_phi6_preserves_noether_values(d, b):
    if 5 * d - 4 * b < 1 or 6 * d - 5 * b < 0:
        return
    start = cyc(d, [(6, b)]) if b else cyc(d)
    out, _ = phi6_push(start, "c1" if b else None)
    assert self_intersection(out) == self_intersection(start)
    assert anticanonical_degree(out) == anticanonical_degree(start)


def test_every_link_flips_the_label():
    c = cyc(1)
    for pushed in (phi3_push, phi6_push):
        out, link = pushed(c)
        assert out.label is c.label.inverse()
        assert link.target_label is link.source_label.inverse()


def test_outputs_are_normalized():
    out, _ = phi3_push(cyc(2, [(3, 3), (6, 0)]), "c1")
    assert out.orbits == ()
