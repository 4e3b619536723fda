"""The three benchmark workloads: ``census``, ``classify`` and ``words``.

Each workload builds a fixed pool of items from the seed during set-up.
The timed run replays the whole pool in passes until the time is up, so
every pass does identical work; an item's latency is the fastest of its
passes.  Pools are stratified rather than drawn freely (equal shares per
prime or field, word lengths spread evenly on a log scale), so the mix of
cheap and expensive items is the same for every seed and only the concrete
points and words change.

``run`` calls the library only through public functions of its modules;
``check`` returns a message naming what is wrong, or None; ``summary`` is
the item's contribution to the output digest.
"""

from __future__ import annotations

import importlib
import json
import math
import random

gf = importlib.import_module("sbuntwist.gf")
plane = importlib.import_module("sbuntwist.plane")
verify = importlib.import_module("sbuntwist.verify")
cycles = importlib.import_module("sbuntwist.cycles")
untwist = importlib.import_module("sbuntwist.untwist")
cli = importlib.import_module("sbuntwist.cli")

GAMMA = cycles.BrauerLabel.GAMMA


class GateFailure(Exception):
    """A set-up check failed: the library computed something wrong."""


class Census:
    """Degree-6 closed points over F_{p^6}, one ``scan_closed_points``
    call (one sample) per item: criterion 5's shape."""

    PRIMES = (5, 7, 11, 13)
    PER_PRIME = 50
    # Collinear hits over F_p may only come from these two families; any
    # other case contradicts Galois transitivity of the orbit.
    ALLOWED_CASES = {
        plane.ConfigCase.ALL_SIX_ON_A_LINE.case_id,
        plane.ConfigCase.TWO_DISJOINT_TRIPLES.case_id,
    }

    def __init__(self, seed):
        rng = random.Random(seed)
        for p in self.PRIMES:
            gf.field(p, 6)
        self.items = [
            (p, rng.randrange(1 << 31)) for p in self.PRIMES for _ in range(self.PER_PRIME)
        ]
        rng.shuffle(self.items)

    def once(self):
        return None

    def run(self, item):
        p, s = item
        return verify.scan_closed_points(p, 1, s)

    def check(self, item, rep):
        if rep.samples != 1:
            return f"scan covered {rep.samples} samples, expected 1"
        bad = [case for case, _ in rep.case_breakdown if case not in self.ALLOWED_CASES]
        if bad:
            return f"collinear hit classified as case {bad[0]}, only cases 1 and 7 can occur"
        return None

    def summary(self, item, rep):
        return [rep.prime, item[1], rep.collinear_hits, rep.conic_hits, rep.case_breakdown]

    @staticmethod
    def describe(item):
        return f"p={item[0]} seed={item[1]}"


class Classify:
    """Random six-point configurations over prime fields, classified by
    their connecting lines: criterion 6's shape.  The nine-case witness
    table is built in set-up, as every CLI ``verify --mode table`` pays."""

    FIELDS = (7, 11)
    PER_FIELD = 1000
    LINE_TABLE = [1, 6, 10, 8, 11, 13, 11, 9, 7]

    def __init__(self, seed):
        self.fields = {q: gf.field(q, 1) for q in self.FIELDS}
        for q in self.FIELDS:
            counts = []
            for case_id in range(1, 10):
                witness = verify.case_witness(case_id, q)
                counts.append(None if witness is None else plane.classify_configuration(witness)[1])
            if counts != self.LINE_TABLE:
                raise GateFailure(
                    f"witness table over F_{q} gives line counts {counts}, expected {self.LINE_TABLE}"
                )
        rng = random.Random(seed)
        self.items = [
            (q, rng.randrange(1 << 31)) for q in self.FIELDS for _ in range(self.PER_FIELD)
        ]
        rng.shuffle(self.items)

    def once(self):
        return None

    def run(self, item):
        q, s = item
        points = plane.sample_configuration(self.fields[q], random.Random(s))
        return plane.classify_configuration(points)

    def check(self, item, result):
        case, count = result
        if case is plane.ConfigCase.GENERAL_POSITION:
            expected = 15
        else:
            expected = plane.EXPECTED_LINE_COUNTS[case]
        if count != expected:
            return f"case {case.case_id} with {count} connecting lines, expected {expected}"
        return None

    def summary(self, item, result):
        return [item[0], result[0].case_id, result[1]]

    @staticmethod
    def describe(item):
        return f"q={item[0]} seed={item[1]}"


def render_document(cycle):
    """Cycle to JSON text, as ``sbuntwist push`` writes it."""
    return json.dumps(cli.render_cycle_document(cycle))


def parse_document(text):
    """JSON text to a cycle, as ``sbuntwist untwist`` reads it."""
    return cli.parse_cycle_document(json.loads(text))


class Words:
    """Word round trips: build a word of L fresh links, write it as a CLI
    document, read it back and untwist it to -omega.  L is spread
    log-uniformly over 1..MAX_LENGTH, so the median item is a short word
    and the tail is a long one.  Each run also scans both link formulas
    against the plane oracle once (criteria 3 and 4)."""

    ITEMS = 400
    MAX_LENGTH = 300
    DMAX = 50

    def __init__(self, seed):
        # The lengths are the ITEMS quantiles of the log-uniform law, the
        # same for every seed; the seed picks each word's links and the order.
        rng = random.Random(seed)
        span = math.log(self.MAX_LENGTH + 1)
        self.items = [
            (int(math.exp(span * (i + 0.5) / self.ITEMS)), rng.randrange(1 << 31))
            for i in range(self.ITEMS)
        ]
        rng.shuffle(self.items)

    def once(self):
        for scan in (verify.scan_phi3, verify.scan_phi6):
            rep = scan(self.DMAX)
            if not rep.ok:
                return f"{rep.mode}: {rep.mismatches} mismatches, first {rep.first_mismatch}"
        return None

    def run(self, item):
        length, s = item
        cycle, _ = untwist.random_chain(length, s)
        parsed, _ = parse_document(render_document(cycle))
        return untwist.untwist(parsed, GAMMA)

    def check(self, item, fact):
        length = item[0]
        if len(fact.steps) != length:
            return f"untwisted in {len(fact.steps)} steps, built with {length}"
        if not fact.terminal.is_anticanonical() or fact.terminal.label is not GAMMA:
            return f"terminal {fact.terminal} is not -omega on gamma"
        trace = fact.d_trace
        if any(a <= b for a, b in zip(trace, trace[1:])):
            return f"d-trace {trace} does not strictly decrease"
        expected = untwist.Parity.EVEN if length % 2 == 0 else untwist.Parity.ODD
        if fact.parity is not expected:
            return f"parity {fact.parity.value} for a word of length {length}"
        return None

    def summary(self, item, fact):
        return list(fact.d_trace)

    @staticmethod
    def describe(item):
        return f"L={item[0]} seed={item[1]}"


WORKLOADS = {"census": Census, "classify": Classify, "words": Words}
