import importlib

import pytest
from hypothesis import given, settings, strategies as st

from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    arithmetic_genus,
    max_multiplicity_orbit,
    noether_check,
    self_intersection,
)
from sbuntwist.links import (
    DegenerateImage,
    Link,
    LinkKind,
    UnsupportedDegree,
    _Walk,
    phi3_push,
    phi6_push,
)
from sbuntwist.untwist import (
    InconsistentCycle,
    NonTermination,
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


@pytest.mark.parametrize(
    "name, attr", [("untwist", "random_chain"), ("links", "push"), ("cycles", "noether_check")]
)
def test_submodule_attribute_is_the_module(name, attr):
    # the package root re-exports nothing, so no function shadows its module
    import sbuntwist

    module = importlib.import_module(f"sbuntwist.{name}")
    assert getattr(sbuntwist, name) is module
    assert callable(getattr(getattr(sbuntwist, name), attr))


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
    start = CycleClass(GAMMA, 1)
    mid, l1 = phi3_push(start)
    end, l2 = phi3_push(mid, l1.image_orbit_id)
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


# --- the engine against the stepwise reference ---

UNTWIST_ERRORS = (InconsistentCycle, NonTermination, ParityContradiction, UnsupportedDegree)


def reference_untwist(cycle, declared_target=None):
    """The stepwise loop: max_multiplicity_orbit on the frozen cycle, then
    one push of a single walk, collecting every cycle of the trajectory."""
    if not noether_check(cycle).consistent:
        raise InconsistentCycle("fails the Noether relations")
    declared = declared_target if declared_target is not None else cycle.label
    current = cycle.normalized()
    walk = _Walk(current)
    steps, trace = [], [current]
    while not current.is_anticanonical():
        if len(steps) >= trace[0].d:
            raise NonTermination("too many steps")
        center = max_multiplicity_orbit(current)
        if center is None:
            raise InconsistentCycle("no center")
        try:
            link = walk.push(center.id)
        except DegenerateImage as exc:
            raise InconsistentCycle("degenerate step") from exc
        current = walk.freeze()
        steps.append(link)
        trace.append(current)
    if current.label is not declared:
        raise ParityContradiction("wrong family")
    return tuple(steps), tuple(c.d for c in trace), trace[-1], tuple(trace)


def engine_untwist(cycle, declared_target=None):
    fact = untwist(cycle, declared_target)
    return fact.steps, fact.d_trace, fact.terminal, fact.trace


def outcome(run, cycle, declared_target):
    try:
        return run(cycle, declared_target)
    except UNTWIST_ERRORS as exc:
        return type(exc)


def assert_engine_matches_reference(cycle):
    for target in (GAMMA, GAMMA_INV):
        expected = outcome(reference_untwist, cycle, target)
        assert outcome(engine_untwist, cycle, target) == expected
        if isinstance(expected, tuple):
            # the heap pops each center in max_multiplicity_orbit order
            steps, _, _, trace = expected
            assert [s.center_id for s in steps] == [
                max_multiplicity_orbit(c).id for c in trace[:-1]
            ]
            # one walk, one counter: image ids run on from past the input's
            # x<k> ids, never restarting from the orbits left at a step
            past = max((int(o.id[1:]) for o in trace[0].orbits), default=0)
            assert [s.image_orbit_id for s in steps] == [
                f"x{past + k}" for k in range(1, len(steps) + 1)
            ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=10**9))
def test_engine_matches_reference_on_chains(length, seed):
    cycle, _ = random_chain(length, seed)
    assert_engine_matches_reference(cycle)


@st.composite
def pushed_words(draw):
    """-omega pushed through phi3/phi6 links, each at a fresh center or
    again at an existing orbit (every orbit is some link's image)."""
    cycle = CycleClass(GAMMA, 1)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        at = draw(st.none() | st.integers(min_value=0, max_value=9))
        if at is None or not cycle.orbits:
            center = None
            pushed = draw(st.sampled_from([phi3_push, phi6_push]))
        else:
            orbit = cycle.orbits[at % len(cycle.orbits)]
            center = orbit.id
            pushed = phi3_push if orbit.degree == 3 else phi6_push
        try:
            cycle, _ = pushed(cycle, center)
        except DegenerateImage:
            pass
    return cycle


@settings(max_examples=150, deadline=None)
@given(pushed_words())
def test_engine_matches_reference_on_words_pushing_at_existing_orbits(cycle):
    assert_engine_matches_reference(cycle)


def test_engine_matches_reference_on_a_tie_between_x9_and_x10():
    # two degree-3 orbits of multiplicity 6: the tie breaks to x9, which
    # sorts after x10 as a plain string
    c = replay(
        CycleClass(GAMMA, 1),
        [
            Link(LinkKind.PHI3, "x1", GAMMA, "x2"),
            Link(LinkKind.PHI3, "x3", GAMMA_INV, "x9"),
            Link(LinkKind.PHI3, "x2", GAMMA, "x10"),
        ],
    )[-1]
    assert sorted((o.id, o.degree, o.multiplicity) for o in c.orbits) == [
        ("x10", 3, 6), ("x9", 3, 6)
    ]
    assert untwist(c, GAMMA).steps[0].center_id == "x9"
    assert_engine_matches_reference(c)


@pytest.mark.parametrize(
    "cycle,target,error",
    [
        (cyc(2, [(3, 2)]), None, InconsistentCycle),
        (cyc(10, [(3, 16), (3, 4), (3, 4), (3, 3)]), None, InconsistentCycle),
        (cyc(10, [(6, 12), (3, 3)]), GAMMA_INV, ParityContradiction),
    ],
)
def test_engine_raises_what_the_reference_raises(cycle, target, error):
    assert outcome(reference_untwist, cycle, target) is error
    assert outcome(engine_untwist, cycle, target) is error


def test_chain_and_untwist_build_constant_many_cycles(monkeypatch):
    # one walk per call: a word of length L must not freeze L cycles
    built = []
    post_init = CycleClass.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CycleClass, "__post_init__", counted)
    cycle, _ = random_chain(2000, seed=2)
    assert len(built) <= 2
    built.clear()
    fact = untwist(cycle, GAMMA)
    assert len(fact.steps) == 2000
    assert len(built) <= 2
