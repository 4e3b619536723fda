import pytest
from hypothesis import given, settings, strategies as st

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    arithmetic_genus,
    noether_check,
    self_intersection,
)
from sbuntwist.untwist import (
    InconsistentCycle,
    Parity,
    ParityContradiction,
    random_chain,
    replay,
    untwist,
)

GAMMA = BrauerLabel.GAMMA
GAMMA_INV = BrauerLabel.GAMMA_INVERSE


def cyc(d, orbits=(), label=GAMMA):
    return CycleClass.make(label, d, [(f"x{i+1}", n, b) for i, (n, b) in enumerate(orbits)])


def test_identity_automorphism():
    fact = untwist(cyc(1))
    assert fact.steps == ()
    assert fact.parity is Parity.EVEN
    assert fact.terminal.is_anticanonical()


def test_two_step_example():
    fact = untwist(cyc(10, [(6, 12), (3, 3)]), GAMMA)
    assert [s.kind.value for s in fact.steps] == ["phi6", "phi3"]
    assert fact.d_trace == (10, 2, 1)
    assert fact.parity is Parity.EVEN
    assert fact.terminal.label is GAMMA


def test_double_phi6_example():
    fact = untwist(cyc(25, [(6, 30), (6, 6)]))
    assert [s.kind.value for s in fact.steps] == ["phi6", "phi6"]
    assert fact.parity is Parity.EVEN
    assert fact.terminal.is_anticanonical()


def test_inconsistent_cycle_rejected_upfront():
    with pytest.raises(InconsistentCycle):
        untwist(cyc(2, [(3, 2)]))


def test_consistent_but_unpushable_cycle_reports_inconsistent():
    # passes both Noether equalities, yet the greedy center (3, 16) would
    # get image multiplicity 30 - 32 < 0: the datum is not a pushforward
    c = cyc(10, [(3, 16), (3, 4), (3, 4), (3, 3)])
    assert noether_check(c).consistent
    with pytest.raises(InconsistentCycle):
        untwist(c)


def test_parity_contradiction_even_word():
    with pytest.raises(ParityContradiction):
        untwist(cyc(10, [(6, 12), (3, 3)]), GAMMA_INV)


def test_parity_contradiction_odd_word():
    c, chain = random_chain(3, seed=9)
    assert len(chain) == 3
    with pytest.raises(ParityContradiction):
        untwist(c, c.label)  # odd word cannot fix the family
    fact = untwist(c, c.label.inverse())
    assert fact.parity is Parity.ODD


def test_declared_target_defaults_to_source():
    c, _ = random_chain(4, seed=11)
    fact = untwist(c)
    assert fact.terminal.label is c.label


# --- random chains ---

def test_random_chain_trivia():
    c, chain = random_chain(0, seed=1)
    assert c.is_anticanonical() and chain == []
    with pytest.raises(ValueError):
        random_chain(-1, seed=1)


def test_random_chain_deterministic_per_seed():
    a = random_chain(6, seed=123)
    b = random_chain(6, seed=123)
    assert a == b
    c = random_chain(6, seed=124)
    assert c != a


def test_replay_reproduces_chain_exactly():
    c, chain = random_chain(5, seed=77)
    trajectory = replay(CycleClass(GAMMA, 1), chain)
    assert trajectory[-1] == c  # ids included


def test_replay_words_that_push_at_their_own_images():
    # second link's center is the first link's image orbit; the replay
    # must resolve it to the created orbit, not to a fresh b=0 center
    from sbuntwist.links import IdSource, phi3_push

    ids = IdSource()
    start = CycleClass(GAMMA, 1)
    mid, l1 = phi3_push(start, None, ids)
    end, l2 = phi3_push(mid, l1.image_orbit_id, ids)
    assert end.is_anticanonical()
    trajectory = replay(start, [l1, l2])
    assert trajectory[-1] == end
    assert trajectory[-1].is_anticanonical()


def test_replay_of_factorization_words():
    c, _ = random_chain(6, seed=5)
    fact = untwist(c, GAMMA)
    trajectory = replay(fact.initial, fact.steps)
    assert tuple(trajectory) == fact.trace


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=10**9))
def test_round_trip_untwisting(length, seed):
    cycle, chain = random_chain(length, seed)
    # a chain from gamma always unwinds back to gamma: the label flips of
    # the chain and of its inverse word cancel pairwise
    fact = untwist(cycle, GAMMA)

    assert len(fact.steps) == length
    assert fact.parity is (Parity.EVEN if length % 2 == 0 else Parity.ODD)
    assert fact.terminal.is_anticanonical()
    # strictly decreasing degree sequence
    assert all(a > b for a, b in zip(fact.d_trace, fact.d_trace[1:]))
    # the greedy word inverts the chain kind-by-kind, in reverse
    assert [s.kind for s in fact.steps] == [l.kind for l in reversed(chain)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=10**9))
def test_intermediate_invariants_along_untwisting(length, seed):
    cycle, _ = random_chain(length, seed)
    fact = untwist(cycle, cycle.label if length % 2 == 0 else cycle.label.inverse())
    labels = [c.label for c in fact.trace]
    for a, b in zip(labels, labels[1:]):
        assert b is a.inverse()
    for c in fact.trace:
        assert self_intersection(c) == 9
        assert arithmetic_genus(c) == 1
        rep = noether_check(c)
        assert rep.consistent and rep.e4 and rep.e5
