from fractions import Fraction

import pytest

from sbuntwist.plane import ConfigCase, EXPECTED_LINE_COUNTS, classify_configuration
from sbuntwist.verify import (
    TAIL_BOUND,
    PositionScanReport,
    binomial_tail,
    case_witness,
    census_failures,
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


@pytest.mark.parametrize("q", [7, 11])
@pytest.mark.parametrize("case_id", range(1, 10))
def test_every_case_has_a_witness_with_the_forced_line_count(case_id, q):
    pts = case_witness(case_id, q)
    assert pts is not None, f"case {case_id} not realized over F_{q}"
    case, count = classify_configuration(pts)
    assert case.case_id == case_id
    assert count == EXPECTED_LINE_COUNTS[case]


def test_witnesses_are_deterministic():
    assert case_witness(7, 7) == case_witness(7, 7)


def test_table_scan_is_clean():
    report = scan_table(7, random_samples=300, seed=2)
    assert report.ok
    assert report.unclassifiable == 0
    assert all(w.realized for w in report.witnesses)


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


def test_closed_point_scan_deterministic():
    a = scan_closed_points(7, samples=20, seed=5)
    b = scan_closed_points(7, samples=20, seed=5)
    assert a == b


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
    # the old criterion 5 demanded 0 conic hits in 100 samples at p = 5
    conic = 1 - degree6_family_rates(5)["general"]
    assert binomial_tail(0, 100, conic) < TAIL_BOUND
    assert binomial_tail(24, 100, conic) == 1.0


def _p5_report(collinear, conic, violating, cases):
    return PositionScanReport(5, 100, collinear, conic, violating, cases)


def test_census_failures():
    # criterion 5's census at p = 5, seed 1
    assert census_failures(_p5_report(5, 25, 25, ((7, 5),))) == []
    # the old demand of criterion 5 fails on the smooth-conic and the
    # general-position counts
    clean = census_failures(_p5_report(0, 0, 0, ()))
    assert [f.split()[1] for f in clean] == ["smooth_conic", "general"]
    (stray,) = census_failures(_p5_report(5, 25, 25, ((5, 1), (7, 4))))
    assert "case 5" in stray
    (uncovered,) = census_failures(_p5_report(4, 24, 25, ((7, 4),)))
    assert "25 violating samples but 24 conic hits" in uncovered
