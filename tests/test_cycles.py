import pytest
from hypothesis import given, strategies as st

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    Orbit,
    anticanonical_degree,
    arithmetic_genus,
    max_multiplicity_orbit,
    noether_check,
    self_intersection,
)

GAMMA = BrauerLabel.GAMMA


def cyc(d, orbits=(), label=GAMMA):
    return CycleClass.make(label, d, [(f"x{i+1}", n, b) for i, (n, b) in enumerate(orbits)])


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


def test_cycle_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        cyc(0)


def test_cycle_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        CycleClass.make(GAMMA, 2, [("x1", 3, 1), ("x1", 3, 2)])


def test_normalized_prunes_zero_orbits():
    c = cyc(2, [(3, 3), (6, 0)])
    n = c.normalized()
    assert [o.multiplicity for o in n.orbits] == [3]
    assert c.d == n.d and c.label is n.label


# --- frozen examples for the invariants ---

def test_self_intersection_anticanonical():
    assert self_intersection(cyc(1)) == 9


def test_self_intersection_phi6_image():
    # the image of -omega under the degree-6 link
    assert self_intersection(cyc(5, [(6, 6)])) == 9 * 25 - 6 * 36 == 9


def test_self_intersection_phi3_image():
    assert self_intersection(cyc(2, [(3, 3)])) == 36 - 27 == 9


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
    c = CycleClass.make(GAMMA, 4, [("a", 6, 6), ("b", 3, 6)])
    assert max_multiplicity_orbit(c).id == "b"


def test_max_orbit_tie_prefers_smaller_id():
    c = CycleClass.make(GAMMA, 4, [("x10", 3, 6), ("x2", 3, 6)])
    assert max_multiplicity_orbit(c).id == "x2"


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
    c = CycleClass.make(GAMMA, 2, [(f"x{k}", n, b) for k, n, b in orbits])
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
    assert 2 * arithmetic_genus(c) == (
        self_intersection(c) - anticanonical_degree(c) + 2
    )


@given(st.integers(min_value=1, max_value=1000), orbit_lists)
def test_normalization_preserves_invariants(d, orbits):
    c = cyc(d, orbits)
    n = c.normalized()
    assert self_intersection(c) == self_intersection(n)
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
