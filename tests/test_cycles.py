import pytest
from hypothesis import given, strategies as st

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    Orbit,
    arithmetic_genus,
    greedy_key,
    max_multiplicity_orbit,
    noether_check,
)

GAMMA = BrauerLabel.GAMMA


def cyc(d, orbits=(), label=GAMMA):
    return CycleClass(label, d, tuple(Orbit(f"x{i+1}", n, b) for i, (n, b) in enumerate(orbits)))


# --- label group ---

@pytest.mark.parametrize(
    "label,inverse",
    [
        (BrauerLabel.GAMMA, BrauerLabel.GAMMA_INVERSE),
        (BrauerLabel.GAMMA_INVERSE, BrauerLabel.GAMMA),
    ],
)
def test_label_inverse(label, inverse):
    assert label.inverse() is inverse
    assert label.inverse().inverse() is label


# --- construction invariants ---

def test_orbit_rejects_bad_degree():
    with pytest.raises(ValueError):
        Orbit("x1", 4, 1)
    with pytest.raises(ValueError):
        Orbit("x1", 0, 1)
    with pytest.raises(ValueError):
        Orbit("x1", -3, 1)


def test_orbit_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        Orbit("x1", 3, -1)


def test_orbit_messages_and_every_construction_validate():
    with pytest.raises(ValueError, match=r"^orbit degree must be a positive multiple of 3, got 4$"):
        Orbit("x1", 4, 1)
    with pytest.raises(ValueError, match=r"^orbit multiplicity must be non-negative, got -1$"):
        Orbit("x1", 3, -1)
    # the tuple constructors a NamedTuple inherits validate too
    with pytest.raises(ValueError, match="degree"):
        Orbit("x1", 3, 1)._replace(degree=5)
    with pytest.raises(ValueError, match="multiplicity"):
        Orbit._make(("x1", 3, -2))
    assert Orbit._make(("x1", 6, 0)) == Orbit("x1", 6, 0)


def test_orbit_is_an_immutable_value():
    o = Orbit("x1", 3, 2)
    assert repr(o) == "Orbit(id='x1', degree=3, multiplicity=2)"
    assert o == Orbit("x1", 3, 2) and hash(o) == hash(Orbit("x1", 3, 2))
    assert o != Orbit("x1", 3, 1) and o != Orbit("x2", 3, 2) and o != Orbit("x1", 6, 2)
    for name in ("id", "degree", "multiplicity", "label"):
        with pytest.raises(AttributeError):
            setattr(o, name, 3)
    assert (o.id, o.degree, o.multiplicity) == ("x1", 3, 2)


def test_cycle_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        cyc(0)


def test_cycle_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        CycleClass(GAMMA, 2, (Orbit("x1", 3, 1), Orbit("x1", 3, 2)))


def test_normalized_prunes_zero_orbits():
    c = cyc(2, [(3, 3), (6, 0)])
    n = c.normalized()
    assert [o.multiplicity for o in n.orbits] == [3]
    assert c.d == n.d and c.label is n.label


# --- frozen examples for the invariants ---

def test_self_intersection_anticanonical():
    assert noether_check(cyc(1)).self_intersection == 9


def test_self_intersection_phi6_image():
    # the image of -omega under the degree-6 link
    assert noether_check(cyc(5, [(6, 6)])).self_intersection == 9 * 25 - 6 * 36 == 9


def test_self_intersection_phi3_image():
    assert noether_check(cyc(2, [(3, 3)])).self_intersection == 36 - 27 == 9


def test_genus_examples():
    assert arithmetic_genus(cyc(1)) == 1
    assert arithmetic_genus(cyc(2, [(3, 3)])) == 1
    assert arithmetic_genus(cyc(10, [(6, 12), (3, 3)])) == 405 + 1 - (6 * 66 + 3 * 3)
    assert arithmetic_genus(cyc(10, [(6, 12), (3, 3)])) == 1


def test_noether_check_passes_on_chain_cycles():
    for c in (cyc(1), cyc(2, [(3, 3)]), cyc(10, [(6, 12), (3, 3)])):
        rep = noether_check(c)
        assert rep.consistent and rep.e4 and rep.e5, c


def test_noether_check_flags_bad_linear_relation():
    rep = noether_check(cyc(2, [(3, 2)]))
    assert rep.anticanonical_degree == 12
    assert not rep.e3
    assert not rep.consistent


# --- max-multiplicity orbit and tie-breaking ---

def test_max_orbit_none_for_anticanonical():
    assert max_multiplicity_orbit(cyc(1)) is None
    assert max_multiplicity_orbit(cyc(2, [(3, 0)])) is None


def test_max_orbit_picks_largest():
    c = cyc(10, [(6, 12), (3, 3)])
    assert max_multiplicity_orbit(c).multiplicity == 12


def test_max_orbit_tie_prefers_degree_3():
    c = CycleClass(GAMMA, 4, (Orbit("a", 6, 6), Orbit("b", 3, 6)))
    assert max_multiplicity_orbit(c).id == "b"


def test_max_orbit_tie_prefers_smaller_id():
    c = CycleClass(GAMMA, 4, (Orbit("x10", 3, 6), Orbit("x2", 3, 6)))
    assert max_multiplicity_orbit(c).id == "x2"


def nested_greedy_key(orbit):
    """The greedy key before it was flattened: the id inside a pair."""
    return (-orbit.multiplicity, orbit.degree, (len(orbit.id), orbit.id))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["x2", "x10", "x05", "x5", "x1", "x100", "x09", "y5", "x"])
            | st.integers(min_value=0, max_value=200).map("x{}".format),
            st.sampled_from([3, 6, 9]),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
def test_flat_greedy_key_orders_as_the_nested_key(fields):
    orbits = [Orbit(*f) for f in fields]
    assert sorted(orbits, key=greedy_key) == sorted(orbits, key=nested_greedy_key)
    # the untwisting heap reads the center id from the key itself
    assert all(greedy_key(o)[3] == o.id for o in orbits)


# --- property tests ---

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.sampled_from([3, 6, 9]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
def test_max_orbit_equals_the_stepwise_reference(orbits):
    # reference: max multiplicity, then min degree, then min id number
    c = CycleClass(GAMMA, 2, tuple(Orbit(f"x{k}", n, b) for k, n, b in orbits))
    candidates = [o for o in c.orbits if o.multiplicity > 0]
    if candidates:
        top = max(o.multiplicity for o in candidates)
        candidates = [o for o in candidates if o.multiplicity == top]
        low = min(o.degree for o in candidates)
        candidates = [o for o in candidates if o.degree == low]
        candidates.sort(key=lambda o: int(o.id[1:]))
    expected = candidates[0] if candidates else None
    assert max_multiplicity_orbit(c) is expected


orbit_lists = st.lists(
    st.tuples(st.sampled_from([3, 6, 9]), st.integers(min_value=0, max_value=40)),
    max_size=5,
)


@given(st.integers(min_value=1, max_value=1000), orbit_lists)
def test_genus_identity_against_direct_sum(d, orbits):
    # halved-term formula agrees with the all-integer rearrangement
    # 2 p_a = (9 d^2 - sum n b^2) - (9 d - sum n b) + 2
    c = cyc(d, orbits)
    rep = noether_check(c)
    assert 2 * arithmetic_genus(c) == rep.self_intersection - rep.anticanonical_degree + 2


@given(st.integers(min_value=1, max_value=1000), orbit_lists)
def test_normalization_preserves_invariants(d, orbits):
    c = cyc(d, orbits)
    n = c.normalized()
    assert noether_check(c).self_intersection == noether_check(n).self_intersection
    assert arithmetic_genus(c) == arithmetic_genus(n)
    assert noether_check(c) == noether_check(n)


@given(st.integers(min_value=2, max_value=500), orbit_lists)
def test_e4_e5_follow_from_e2_e3(d, orbits):
    # with non-negative multiplicities, the multiplicity bound and the
    # degree bound are consequences of the two equalities
    c = cyc(d, orbits)
    rep = noether_check(c)
    if rep.consistent:
        assert rep.e4 and rep.e5
