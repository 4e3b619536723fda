import dataclasses
import itertools
import math
import re
from fractions import Fraction

import pytest

from sbuntwist import verify
from sbuntwist.curves import quad_transform_push
from sbuntwist.gf import _is_prime
from sbuntwist.cli import main
from sbuntwist.plane import (
    ConfigCase,
    EXPECTED_LINE_COUNTS,
    UnclassifiableConfiguration,
    classify_configuration,
)
from sbuntwist.verify import (
    SEED_STRIDE,
    TAIL_BOUND,
    PositionScanReport,
    binomial_tail,
    case_witness,
    degree6_family_rates,
    scan_closed_points,
    scan_phi3,
    scan_phi6,
    scan_table,
)


def test_phi3_scan_is_clean():
    report = scan_phi3(dmax=25)
    assert report.ok
    assert report.checked == sum(
        min(3 * d // 2, 2 * d - 1) + 1 for d in range(1, 26)
    )


def test_phi6_scan_is_clean():
    report = scan_phi6(dmax=25)
    assert report.ok
    assert report.checked == sum(
        min(6 * d // 5, (5 * d - 1) // 4) + 1 for d in range(1, 26)
    )


def test_link_scan_reports_oracle_mismatches(monkeypatch):
    def off_by_one(curve, labels):
        image = quad_transform_push(curve, labels)
        return dataclasses.replace(image, line_degree=image.line_degree + 1)

    monkeypatch.setattr(verify, "quad_transform_push", off_by_one)
    report = scan_phi3(dmax=3)
    assert not report.ok
    assert report.mismatches == report.checked > 0
    assert report.first_mismatch.startswith("(d=1, b=0): link "), report.first_mismatch


@pytest.mark.parametrize("q", [q for q in range(5, 100) if _is_prime(q)])
@pytest.mark.parametrize("case_id", range(1, 10))
def test_every_case_has_a_witness_with_the_forced_line_count(case_id, q):
    case, count = classify_configuration(case_witness(case_id, q))
    assert case.case_id == case_id
    assert count == EXPECTED_LINE_COUNTS[case]


def _is_3_smooth(n):
    for r in (2, 3):
        while n and n % r == 0:
            n //= r
    return abs(n) == 1


def test_witness_minors_and_cross_products_are_3_smooth():
    # what makes each integer witness realize its case over every F_q,
    # q >= 5: no nonzero minor vanishes mod q, and no two points meet mod q
    for case_id, pts in verify._WITNESSES.items():
        assert len(pts) == 6
        for a, b, c in itertools.combinations(pts, 3):
            minor = (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
            assert minor == 0 or _is_3_smooth(minor), (case_id, a, b, c, minor)
        for a, b in itertools.combinations(pts, 2):
            g = math.gcd(
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            assert _is_3_smooth(g), (case_id, a, b, g)


def test_case_witness_rejects_ids_outside_1_to_9():
    for case_id in (0, 10):
        with pytest.raises(ValueError):
            case_witness(case_id, 7)


def test_witnesses_are_deterministic():
    assert case_witness(7, 7) == case_witness(7, 7)


def test_table_scan_is_clean():
    report = scan_table(7, random_samples=300, seed=2)
    assert report.ok
    assert report.unclassifiable == 0
    assert all(w.realized for w in report.witnesses)


def test_table_scan_fails_when_the_classifier_swaps_two_cases(monkeypatch):
    # cases 5 and 7 force the same 11 lines, so only the witnesses can
    # catch a classifier that swaps them; a missed witness is no pass
    swap = {
        ConfigCase.TWO_TRIPLES_SHARING_A_POINT: ConfigCase.TWO_DISJOINT_TRIPLES,
        ConfigCase.TWO_DISJOINT_TRIPLES: ConfigCase.TWO_TRIPLES_SHARING_A_POINT,
    }

    def swapped(pts):
        case, count = classify_configuration(pts)
        return swap.get(case, case), count

    monkeypatch.setattr(verify, "classify_configuration", swapped)
    report = scan_table(7, random_samples=50, seed=2)
    assert not report.ok
    assert [w.case_id for w in report.witnesses if not w.ok] == [5, 7]
    assert all(w.line_count == w.expected_count for w in report.witnesses)
    assert re.search(r"\bcase [57]\b", report.first_failure), report.first_failure
    assert report.first_failure.startswith("case 5 witness read as case 7")


def test_a_witness_that_fails_to_classify_is_unrealized(monkeypatch, capsys):
    # an UnclassifiableConfiguration on a witness is a reported miss, not
    # a traceback
    quadrilateral = case_witness(9, 7)

    def raising(pts):
        if tuple(pts) == quadrilateral:
            raise UnclassifiableConfiguration("forced")
        return classify_configuration(pts)

    monkeypatch.setattr(verify, "classify_configuration", raising)
    report = scan_table(7, random_samples=10, seed=1)
    assert [w.case_id for w in report.witnesses if not w.realized] == [9]
    assert report.count_mismatches == 1 and not report.ok
    assert report.first_failure == "case 9 witness read as unclassifiable with 0 lines, expected 7"
    assert main(["verify", "--mode", "table", "--prime", "7", "--samples", "10", "--seed", "1"]) == 1
    assert "first_failure: case 9 witness read as unclassifiable" in capsys.readouterr().out


def test_table_scan_names_the_first_failing_random_configuration(monkeypatch):
    witnesses = {case_witness(case_id, 7) for case_id in range(1, 10)}

    def miscounting(pts):
        case, count = classify_configuration(pts)
        return case, count + (tuple(pts) not in witnesses)

    monkeypatch.setattr(verify, "classify_configuration", miscounting)
    report = scan_table(7, random_samples=5, seed=1)
    assert report.count_mismatches == 5 and not report.ok
    assert re.fullmatch(
        r"random configuration 0: case \d with \d+ lines, expected \d+ \(line sizes \[.*\]\)",
        report.first_failure,
    ), report.first_failure


def test_table_scan_counts_unclassifiable_random_configurations(monkeypatch):
    witnesses = {case_witness(case_id, 7) for case_id in range(1, 10)}

    def raising(pts):
        if tuple(pts) not in witnesses:
            raise UnclassifiableConfiguration("forced")
        return classify_configuration(pts)

    monkeypatch.setattr(verify, "classify_configuration", raising)
    report = scan_table(7, random_samples=4, seed=1)
    assert all(w.ok for w in report.witnesses)
    assert report.unclassifiable == 4 and report.count_mismatches == 0 and not report.ok
    assert report.first_failure == "random configuration 0: forced"


def test_closed_point_scan_reports_structure():
    # violations over a finite field are confined to the two line families
    # a nontrivial Brauer class would forbid, plus rational conics; a line
    # or a line pair is a degenerate conic, so every violation is a conic hit
    report = scan_closed_points(5, samples=60, seed=0)
    assert report.samples == 60
    assert report.violating_samples == report.conic_hits
    for case_id, _ in report.case_breakdown:
        assert case_id in (
            ConfigCase.ALL_SIX_ON_A_LINE.case_id,
            ConfigCase.TWO_DISJOINT_TRIPLES.case_id,
        )


def test_closed_point_scan_builds_an_orbit_per_collinear_hit_only(monkeypatch):
    # a sampled point's degree comes from its coordinates, and its orbit is
    # built on first read of ClosedPoint.points: only classify_configuration
    # reads it, on collinear hits, so rejected draws and clean samples
    # build none
    from sbuntwist import plane

    built = []

    def counted(pt):
        built.append(pt)
        return orbit(pt)

    orbit = plane.frobenius_orbit
    monkeypatch.setattr(plane, "frobenius_orbit", counted)
    report = scan_closed_points(5, samples=200, seed=0)
    assert report.collinear_hits > 0
    assert len(built) == report.collinear_hits


def test_closed_point_scan_deterministic():
    a = scan_closed_points(7, samples=20, seed=5)
    b = scan_closed_points(7, samples=20, seed=5)
    assert a == b
    # sample i at seed s draws with seed s * SEED_STRIDE + i, so a longer
    # scan at seed 0 would end on seed 1's first point
    assert SEED_STRIDE == 1_000_000
    with pytest.raises(ValueError, match=r"^samples must be <= 1000000, got 1000001$"):
        scan_closed_points(7, samples=SEED_STRIDE + 1, seed=0)


def test_scans_refuse_negative_seeds_and_empty_scans():
    # random.Random seeds with |seed|, so -3 would repeat seed 3's draws,
    # and an empty scan would report ok with no checks
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        scan_closed_points(7, samples=1, seed=-1)
    with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
        scan_closed_points(7, samples=0, seed=1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        scan_table(7, random_samples=20, seed=-3)
    for samples in (-5, 0):
        with pytest.raises(ValueError, match=rf"^random_samples must be >= 1, got {samples}$"):
            scan_table(7, random_samples=samples, seed=1)
    for scan in (scan_phi3, scan_phi6):
        with pytest.raises(ValueError, match=r"^dmax must be >= 1, got 0$"):
            scan(0)


@pytest.mark.parametrize(
    "p, collinear, conic",
    [(5, 4.16, 23.8), (7, 2.08, 16.3), (11, 0.83, 9.9), (13, 0.60, 8.3)],
)
def test_degree6_family_rates_per_hundred_samples(p, collinear, conic):
    rates = degree6_family_rates(p)
    assert set(rates) == {"line", "pair", "smooth_conic", "general"}
    assert all(0 < r < 1 for r in rates.values())
    assert sum(rates.values()) == 1
    assert round(float(100 * (rates["line"] + rates["pair"])), 2) == collinear
    assert round(float(100 * (1 - rates["general"])), 1) == conic


def test_degree6_family_rates_exact_at_p5():
    # N6(P^2) = 40,689,980 degree-6 closed points over F_5: 79,980 on the 31
    # rational lines (2,580 each), 1,612,000 on the 310 conjugate line pairs
    # (5,200 each) and 7,998,000 on the 3,100 smooth conics (2,580 each)
    rates = degree6_family_rates(5)
    assert rates["line"] == Fraction(79_980, 40_689_980)
    assert rates["pair"] == Fraction(1_612_000, 40_689_980)
    assert rates["smooth_conic"] == Fraction(7_998_000, 40_689_980)


def test_binomial_tail():
    assert binomial_tail(5, 10, Fraction(1, 2)) == 1.0
    assert binomial_tail(0, 3, Fraction(1, 2)) == pytest.approx(2 / 8)
    assert binomial_tail(3, 3, Fraction(1, 2)) == pytest.approx(2 / 8)
    assert binomial_tail(-1, 10, Fraction(1, 2)) == 0.0
    assert binomial_tail(11, 10, Fraction(1, 2)) == 0.0
    # a family of rate 0 or 1 has only one possible count
    assert binomial_tail(0, 10, Fraction(0)) == 1.0
    assert binomial_tail(1, 10, Fraction(0)) == 0.0
    assert binomial_tail(10, 10, Fraction(1)) == 1.0
    assert binomial_tail(9, 10, Fraction(1)) == 0.0
    # the old criterion 5 demanded 0 conic hits in 100 samples at p = 5
    conic = 1 - degree6_family_rates(5)["general"]
    assert binomial_tail(0, 100, conic) < TAIL_BOUND
    assert binomial_tail(24, 100, conic) == 1.0


def _p5_report(collinear, conic, violating, cases):
    return PositionScanReport(5, 100, collinear, conic, violating, cases)


def test_census_failures():
    # criterion 5's census at p = 5, seed 1
    assert _p5_report(5, 25, 25, ((7, 5),)).failures == ()
    # the old demand of criterion 5 fails on the smooth-conic and the
    # general-position counts
    clean = _p5_report(0, 0, 0, ()).failures
    assert [f.split()[1] for f in clean] == ["smooth_conic", "general"]
    (stray,) = _p5_report(5, 25, 25, ((5, 1), (7, 4))).failures
    assert "case 5" in stray
    (uncovered,) = _p5_report(4, 24, 25, ((7, 4),)).failures
    assert "25 violating samples but 24 conic hits" in uncovered
