import hashlib
import importlib
import json
import math
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sbuntwist.cli import parse_cycle_document, render_cycle_document
from sbuntwist.cycles import (
    BrauerLabel,
    CycleClass,
    Orbit,
    arithmetic_genus,
    max_multiplicity_orbit,
    noether_check,
)
from sbuntwist.links import (
    DegenerateImage,
    Link,
    LinkKind,
    _Walk,
    phi3_push,
    phi6_push,
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
    return CycleClass(label, d, tuple(Orbit(f"x{i+1}", n, b) for i, (n, b) in enumerate(orbits)))


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
    # random.Random seeds with |seed|, so -7 would repeat seed 7's chain
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -7$"):
        random_chain(5, -7)


def test_random_chain_deterministic_per_seed():
    a = random_chain(6, seed=123)
    b = random_chain(6, seed=123)
    assert a == b
    c = random_chain(6, seed=124)
    assert c != a


@pytest.mark.parametrize(
    "length, seed, kinds, d",
    [
        (6, 0, "phi6 phi6 phi3 phi6 phi6 phi6", 6250),
        (11, 1, "phi3 phi3 phi6 phi3 phi6 phi6 phi6 phi6 phi3 phi3 phi6", 500000),
        (
            20,
            2026,
            "phi3 phi6 phi3 phi3 phi6 phi6 phi6 phi3 phi3 phi3 "
            "phi3 phi6 phi3 phi6 phi3 phi6 phi6 phi3 phi6 phi6",
            10**10,
        ),
    ],
    ids=["L6", "L11", "L20"],
)
def test_random_chain_draws_are_pinned(length, seed, kinds, d):
    # a change to the draw changes every word built from a seed
    cycle, chain = random_chain(length, seed)
    assert " ".join(link.kind.value for link in chain) == kinds
    assert cycle.d == d


@pytest.mark.parametrize("length", [0, 1, 7, 300])
@pytest.mark.parametrize("seed", [0, 1, 2026, 2**40 + 3])
def test_random_chain_draws_kinds_as_choice_does(length, seed):
    # the inlined draw gives the stream random.Random(seed).choice gives
    rng = random.Random(seed)
    kinds = [rng.choice((LinkKind.PHI3, LinkKind.PHI6)) for _ in range(length)]
    _, chain = random_chain(length, seed)
    assert [link.kind for link in chain] == kinds


WORDS_DIGEST = "sha256:053bfe0f921481ff98b1a877611180ff3002208ba276059745ce6a9dee48e860"
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_the_words_benchmark_digest_is_pinned(monkeypatch):
    # the words workload's output digest at seed 1: 400 words of length up
    # to 300, built by random_chain, round-tripped as documents and untwisted
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    words = workloads.Words(1)
    lines = [json.dumps(list(words.run(item).d_trace)) for item in words.items]
    assert "sha256:" + hashlib.sha256("\n".join(lines).encode()).hexdigest() == WORDS_DIGEST


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
        assert noether_check(c).self_intersection == 9
        assert arithmetic_genus(c) == 1
        rep = noether_check(c)
        assert rep.consistent and rep.e4 and rep.e5


# --- the termination lemma on every solution of the Noether relations ---

def noether_solutions(d):
    """Every datum of degree d that satisfies both Noether relations, as
    (degree, multiplicity) terms of degree 3k and multiplicity >= 1, listed
    by multiplicity, then degree, both descending."""
    found, terms = [], []

    def extend(s1, s2, b_top, n_top):
        # s1 = sum n b and s2 = sum n b^2 still to place by terms <= (b_top, n_top)
        if s1 == 0:
            if s2 == 0:
                found.append(tuple(terms))
            return
        for b in range(min(b_top, math.isqrt(s2 // 3)), 0, -1):
            if s2 > b * s1:
                return  # terms of multiplicity <= b have sum n b^2 <= b sum n b
            n_max = min(s1 // b, s2 // (b * b), n_top if b == b_top else s1)
            for n in range(n_max - n_max % 3, 2, -3):
                terms.append((n, b))
                extend(s1 - n * b, s2 - n * b * b, b, n)
                terms.pop()

    extend(9 * (d - 1), 9 * (d * d - 1), 9 * d * d, 9 * d * d)
    return found


def test_termination_lemma_on_every_noether_solution():
    # the lemma of the untwist docstring on every solution with
    # 2 <= d <= 22, at every orbit degree 3k, and untwist's outcome there
    outcomes = []
    for d in range(2, 23):
        for terms in noether_solutions(d):
            cycle = cyc(d, terms)
            assert noether_check(cycle).consistent
            assert terms[0][1] >= d + 1
            assert all(n in (3, 6) for n, b in terms if b >= d + 1)
            try:
                fact, word = untwist(cycle), "even"
            except ParityContradiction:
                fact, word = untwist(cycle, GAMMA_INV), "odd"
            except InconsistentCycle:
                fact, word = None, "inconsistent"
            if fact is not None:
                assert fact.terminal.is_anticanonical() and len(fact.steps) < d
                assert all(a > b for a, b in zip(fact.d_trace, fact.d_trace[1:]))
            outcomes.append((d, word))

    def tally(dmax):
        return Counter(word for d, word in outcomes if d <= dmax)

    assert tally(16) == {"inconsistent": 967, "even": 7, "odd": 5}
    assert tally(22) == {"inconsistent": 10910, "even": 9, "odd": 14}


# --- the engine against the stepwise reference ---

UNTWIST_ERRORS = (InconsistentCycle, ParityContradiction)

# the reference's own degree -> kind map, independent of links.KIND_BY_DEGREE
REFERENCE_KINDS = {3: LinkKind.PHI3, 6: LinkKind.PHI6}


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
            raise AssertionError("too many steps")
        center = max_multiplicity_orbit(current)
        if center is None:
            raise InconsistentCycle("no center")
        try:
            link = walk.step(REFERENCE_KINDS[center.degree], center.id)
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


def assert_orbits_pass_the_orbit_checks(cycles):
    # links._Walk.step and cli.parse_cycle_document build orbits with
    # tuple.__new__, skipping Orbit's checks; each must be one they accept
    for c in cycles:
        for o in c.orbits:
            assert type(o) is Orbit and Orbit(*o) == o, o


@pytest.mark.parametrize("length,seed", [(0, 1), (1, 2), (2, 3), (7, 4), (40, 5), (300, 6)])
def test_unvalidated_orbits_pass_the_orbit_checks(length, seed):
    cycle, chain = random_chain(length, seed)
    parsed, _ = parse_cycle_document(render_cycle_document(cycle))
    trajectory = replay(CycleClass(GAMMA, 1), chain)
    fact = untwist(parsed, GAMMA)
    assert_orbits_pass_the_orbit_checks([cycle, parsed, *trajectory, *fact.trace])


@settings(max_examples=60, deadline=None)
@given(pushed_words())
def test_pushed_orbits_pass_the_orbit_checks(cycle):
    assert_orbits_pass_the_orbit_checks([cycle])


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
