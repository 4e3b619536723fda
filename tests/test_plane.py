import functools
import itertools
import math
import random

import pytest

from sbuntwist import plane
from sbuntwist.gf import field
from sbuntwist.plane import (
    ClosedPoint,
    ConfigCase,
    EXPECTED_LINE_COUNTS,
    ProjPoint,
    _CASE_BY_PROFILE,
    SamplingExhausted,
    classify_configuration,
    collinear,
    connecting_lines,
    frobenius_orbit,
    general_position_report,
    incident,
    line_through,
    on_common_conic,
    sample_closed_point,
    sample_configuration,
)

F7 = field(7, 1)


def pt(x, y, z, F=F7):
    return ProjPoint.of_ints(F, (x, y, z))


def frobenius_point(q):
    """The one-step reference: Frobenius on each coordinate.  It fixes 0 and
    1, so the image is already normalized."""
    F = q.field
    return ProjPoint(F, tuple(F.frobenius(c) for c in q.coords))


# --- points, lines, incidence ---

def test_point_normalization_is_canonical():
    assert pt(2, 4, 6) == pt(1, 2, 3)
    assert pt(0, 3, 5) == pt(0, 1, 4)  # 3^-1 = 5 mod 7, 5*5 = 25 = 4
    with pytest.raises(ValueError):
        pt(0, 0, 0)


def test_make_normalizes_a_list_with_leading_zeros():
    # the leading zeros are kept and the first nonzero coordinate becomes 1
    F = field(7, 2)
    c, d = (3, 5), (2, 1)
    assert ProjPoint.make(F, [F.zero, F.zero, c]).coords == (F.zero, F.zero, F.element(1))
    assert ProjPoint.make(F, [F.zero, c, d]).coords == (F.zero, F.element(1), F.mul(d, F.inv(c)))


def test_coordinate_triangle_not_collinear():
    assert not collinear(pt(0, 0, 1), pt(0, 1, 0), pt(1, 0, 0))


def test_three_points_on_a_coordinate_line():
    assert collinear(pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0))


def test_points_need_three_coordinates():
    one = F7.element(1)
    for coords in ((one, one), (one, one, one, one)):
        with pytest.raises(ValueError, match=r"^projective points need 3 homogeneous coordinates$"):
            ProjPoint.make(F7, coords)


def test_points_need_coordinates_in_the_field():
    F49 = field(7, 2)
    one = F49.element(1)
    for coords in (
        ((1, 0, 5), (2, 0, 0), (3, 0, 0)),  # 3-tuples are not elements of F_49
        ((1,), one, one),
        ((7, 0), one, one),  # != F.zero, so it would be inverted as nonzero
    ):
        with pytest.raises(ValueError, match=r"^coordinates must be elements of F_\{7\^2\}$"):
            ProjPoint.make(F49, coords)


def test_coincident_points_span_no_line():
    a = pt(1, 2, 3)
    for b in (a, pt(2, 4, 6)):
        with pytest.raises(ValueError, match=r"^two coincident points do not span a line$"):
            line_through(a, b)


def test_sampled_line_points_are_collinear():
    # parametrize the line through (1:0:1) and (0:1:3) over F_7
    a, b = pt(1, 0, 1), pt(0, 1, 3)
    line = line_through(a, b)
    rng = random.Random(5)
    F = F7
    for _ in range(10):
        s, t = rng.randrange(7), rng.randrange(1, 7)
        coords = tuple(
            F.add(F.mul(F.element(s), u), F.mul(F.element(t), v))
            for u, v in zip(a.coords, b.coords)
        )
        if all(c == F.zero for c in coords):
            continue
        q = ProjPoint.make(F, coords)
        assert incident(line, q)
        assert collinear(a, b, q)


def _cofactor_det(F, rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    mul, sub = F.mul, F.sub
    return F.add(
        sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
        mul(c, sub(mul(d, h), mul(e, g))),
    )


@pytest.mark.parametrize("p,m", [(7, 2), (13, 6)])
def test_collinear_agrees_with_the_cofactor_determinant(p, m):
    F = field(p, m)
    rng = random.Random(p + m)

    def coord():
        # zeros a third of the time, so pivots must be searched for
        return F.zero if rng.randrange(3) == 0 else F.random_element(rng)

    def point():
        while True:
            coords = (coord(), coord(), coord())
            if any(c != F.zero for c in coords):
                return ProjPoint.make(F, coords)

    hits = 0
    for trial in range(300):
        a, b = point(), point()
        if trial % 2:
            c = point()
        else:
            # on the line through a and b (or a itself when a == b)
            s, t = coord(), coord()
            combo = tuple(F.add(F.mul(s, u), F.mul(t, v)) for u, v in zip(a.coords, b.coords))
            if all(x == F.zero for x in combo):
                continue
            c = ProjPoint.make(F, combo)
        rows = [a.coords, b.coords, c.coords]
        expected = _cofactor_det(F, rows) == F.zero
        assert collinear(a, b, c) == expected
        assert plane._singular_over(F, rows) == expected
        hits += expected
    assert 0 < hits < 300


def _reference_minors(F, u, v):
    mul, sub = F.mul, F.sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def _reference_normalized(F, coords):
    """The first nonzero coordinate scaled to 1 by ``FiniteField`` ops
    alone, independent of ``plane._normalized``'s F_p path."""
    c = next(c for c in coords if c != F.zero)
    scale = F.inv(c)
    return tuple(F.mul(scale, x) for x in coords)


def _all_points(F):
    """The p^2 + p + 1 points of P^2(F_p), each once."""
    return list(dict.fromkeys(pt(*t, F=F) for t in itertools.product(range(F.p), repeat=3) if any(t)))


@pytest.mark.parametrize("p", [5, 7, 101])
def test_prime_field_cross_equals_the_reference_minors(p):
    # ``_line_key``, the F_p minors on ints, and ``line_through`` against
    # the ``FiniteField`` minors: every ordered pair of P^2(F_p) at p = 5
    # and 7, coincident ones included; 1,000 random pairs at p = 101
    F = field(p, 1)
    if p < 100:
        points = _all_points(F)
        assert len(points) == p * p + p + 1
        pairs = list(itertools.product(points, repeat=2))
    else:
        rng = random.Random(p)

        def point():
            while True:
                t = [rng.randrange(p) for _ in range(3)]
                if any(t):
                    return pt(*t, F=F)

        pairs = [(point(), point()) for _ in range(1000)]
    for a, b in pairs:
        u, v = ([x for (x,) in q.coords] for q in (a, b))
        if a == b:
            with pytest.raises(ValueError, match=r"^\(0 : 0 : 0\) is not a projective point$"):
                plane._line_key(p, u, v)
        else:
            key = _reference_normalized(F, _reference_minors(F, a.coords, b.coords))
            assert plane._line_key(p, u, v) == tuple(x for (x,) in key)
            assert line_through(a, b) == key


@pytest.mark.parametrize("p", [5, 7, 101])
def test_prime_field_normalized_equals_the_reference(p):
    # every nonzero triple of F_p^3 at p = 5 and 7; 1,000 random nonzero
    # triples at p = 101
    F = field(p, 1)
    if p < 100:
        triples = [t for t in itertools.product(range(p), repeat=3) if any(t)]
        assert len(triples) == p ** 3 - 1
    else:
        rng = random.Random(p)
        triples = []
        while len(triples) < 1000:
            t = tuple(rng.randrange(p) for _ in range(3))
            if any(t):
                triples.append(t)
    for t in triples:
        coords = tuple(F.element(x) for x in t)
        assert plane._normalized(F, coords) == _reference_normalized(F, coords)
    with pytest.raises(ValueError, match=r"^\(0 : 0 : 0\) is not a projective point$"):
        plane._normalized(F, (F.zero,) * 3)


def test_singular_over_an_extension_reads_dependence_over_it():
    # the last row is an F-combination of the other five, with the
    # coefficient 3 + 5x outside F_7, so the rows are dependent over F_{7^2}
    F = field(7, 2)
    rng = random.Random(72)
    rows = [[F.random_element(rng) for _ in range(6)] for _ in range(5)]
    coeffs = [F.random_element(rng) for _ in range(4)] + [(3, 5)]
    last = [
        functools.reduce(F.add, (F.mul(s, row[j]) for s, row in zip(coeffs, rows)))
        for j in range(6)
    ]
    assert plane._singular_over(F, rows + [last])
    # unit upper triangular: determinant 1, whatever lies above the diagonal
    unit = [
        [F.random_element(rng) if j > i else F.element(int(i == j)) for j in range(6)]
        for i in range(6)
    ]
    assert not plane._singular_over(F, unit)


def _laplace_det(rows, p):
    """Cofactor expansion along the first row, on ints mod p."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]], p)
        for j in range(len(rows))
    ) % p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 1000037, 4_294_967_311])
def test_prime_field_singular_agrees_with_cofactor_expansion(p):
    F = p
    rng = random.Random(p)

    def entry():
        # zeros a third of the time, so pivots must be searched for
        return 0 if rng.randrange(3) == 0 else rng.randrange(1, p)

    for n in range(1, 7):
        cases = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(25)]
        for _ in range(4):
            a = [[entry() for _ in range(n)] for _ in range(n)]
            i, j = rng.randrange(n), rng.randrange(n)
            others = a[:i] + a[i + 1 :]
            # row i a random combination of the others (the zero row if n = 1)
            combo = [0] * n
            for r in others:
                s = rng.randrange(p)
                combo = [(x + s * y) % p for x, y in zip(combo, r)]
            deficient = [a[:i] + [combo] + a[i + 1 :], [r[:j] + [0] + r[j + 1 :] for r in a]]
            if others:
                deficient.append(a[:i] + [rng.choice(others)] + a[i + 1 :])
            for rows in deficient:
                assert _laplace_det(rows, p) == 0
            cases += deficient
        # toward the packed rows' entry bound (2p)^(n-1) p: entries p - 1
        # and p - 2 leave no zero lead in column 0, so every row is updated
        # and every entry grows from the largest residues
        for _ in range(10):
            cases.append([[p - 1 - rng.randrange(2) for _ in range(n)] for _ in range(n)])
        for rows in cases:
            assert plane._singular(F, rows) == (_laplace_det(rows, p) == 0), rows

    # a zero pivot must be swapped for a lower row: at every column of the
    # anti-diagonal identity, and mid-elimination below (row 1 becomes
    # (0, 0, 1) after column 0)
    for n in range(2, 7):
        assert not plane._singular(F, [[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    assert not plane._singular(F, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert plane._singular(F, [[0, 1, 0], [0, 1, 1], [0, 2, 3]])


def test_conic_detects_points_on_x0x1_equals_x2sq():
    # points (1 : t^2 : t) satisfy x*y = z^2
    pts = [pt(1, t * t % 7, t) for t in range(6)]
    assert len(set(pts)) == 6
    assert on_common_conic(pts)


def test_conic_rejects_verified_general_position_points():
    # rejection-sampled over F_7: in general position and off every conic
    pts = [pt(0, 0, 1), pt(0, 1, 0), pt(1, 0, 0), pt(1, 1, 1), pt(1, 2, 3), pt(1, 3, 4)]
    assert not on_common_conic(pts)
    case, _ = classify_configuration(pts)
    assert case is ConfigCase.GENERAL_POSITION


def test_degenerate_conics_count():
    # three points on y=0 and three on x=0 lie on the degenerate conic xy=0
    pts = [pt(1, 0, 1), pt(2, 0, 1), pt(3, 0, 1), pt(0, 1, 1), pt(0, 2, 1), pt(0, 3, 1)]
    assert on_common_conic(pts)


def test_conic_with_a_collinear_triple_is_determinant_only():
    # with 3 points on a line L, a conic through all 6 must split off L,
    # so the verdict hinges on the other 3: collinear -> yes, generic -> no
    on_line = [pt(1, 0, 1), pt(2, 0, 1), pt(3, 0, 1)]
    assert on_common_conic(on_line + [pt(1, 1, 1), pt(2, 1, 1), pt(3, 1, 1)])
    assert not on_common_conic(on_line + [pt(1, 1, 1), pt(2, 3, 1), pt(0, 1, 0)])


def test_conic_test_needs_six_points():
    pts = [pt(1, t * t % 7, t) for t in range(7)]
    for n in (5, 7):
        with pytest.raises(ValueError, match=rf"^need exactly 6 points, got {n}$"):
            on_common_conic(pts[:n])


def test_incidence_tests_require_one_coordinate_field():
    F49 = field(7, 2)
    on_conic = [pt(1, t * t % 7, t, F=F49) for t in range(5)]
    a, b = on_conic[0], pt(1, 1, 1)
    line49 = line_through(a, on_conic[1])
    line7 = line_through(b, pt(1, 2, 3))
    for call in (
        lambda: on_common_conic(on_conic + [b]),
        lambda: collinear(a, on_conic[1], b),
        lambda: classify_configuration(on_conic + [b]),
        lambda: line_through(a, b),
        lambda: line_through(b, a),
        lambda: incident(line49, b),
        lambda: incident(line7, a),
    ):
        with pytest.raises(ValueError, match="share a coordinate field"):
            call()
    for short_or_long in (line7[:2], line7 + ((1,),)):
        with pytest.raises(ValueError, match=rf"^lines need 3 dual coordinates, got {len(short_or_long)}$"):
            incident(short_or_long, b)


# --- Frobenius orbits and closed points ---

def test_frobenius_point_on_prime_field_is_identity():
    assert frobenius_point(pt(1, 2, 3)) == pt(1, 2, 3)


@pytest.mark.parametrize("p,degree", [(5, 3), (5, 6), (7, 3), (7, 6), (11, 3), (13, 6)])
def test_sample_closed_point_orbit_size(p, degree):
    cp = sample_closed_point(p, degree, seed=42)
    assert cp.degree == degree
    assert len(set(cp.points)) == degree
    imgs = {frobenius_point(q) for q in cp.points}
    assert imgs == set(cp.points)


def subfield_element(F, d, rng):
    """An element of F_{p^d} inside F_{p^m} of degree exactly d: the sum of
    the sigma^d-conjugates of a random element, redrawn until a smaller
    subfield does not hold it."""
    while True:
        a = F.random_element(rng)
        conj = [a]
        while len(conj) < F.m // d:
            b = conj[-1]
            for _ in range(d):
                b = F.frobenius(b)
            conj.append(b)
        s = F.zero
        for b in conj:
            s = F.add(s, b)
        images = [s]
        for _ in range(d):
            images.append(F.frobenius(images[-1]))
        if images[d] == s and s not in images[1:d]:
            return s


@pytest.mark.parametrize("p", [5, 7])
def test_frobenius_orbit_matches_the_one_step_reference(p):
    # points of P^2(F_{p^6}) with coordinates in F_p, F_{p^2}, F_{p^3} (the
    # fields fixed by sigma, sigma^2, sigma^3) and F_{p^6} have orbits of
    # size 1, 2, 3 and 6; mixing F_{p^2} and F_{p^3} also gives size 6
    F = field(p, 6)
    rng = random.Random(p)
    for _ in range(4):
        b = {d: subfield_element(F, d, rng) for d in (1, 2, 3, 6)}
        cases = [
            ((F.element(1), b[1], F.element(2)), 1),
            ((F.element(1), b[2], F.zero), 2),
            ((F.zero, F.element(1), b[2]), 2),
            ((F.element(1), b[3], b[1]), 3),
            ((F.element(1), b[6], F.zero), 6),
            ((F.element(1), b[2], b[3]), 6),
        ]
        for coords, size in cases:
            start = ProjPoint.make(F, coords)
            orbit = frobenius_orbit(start)
            assert len(orbit) == size
            assert orbit[0] == start
            for i, q in enumerate(orbit):
                assert frobenius_point(q) == orbit[(i + 1) % size]


def test_sampling_is_deterministic():
    a = sample_closed_point(5, 3, seed=7)
    b = sample_closed_point(5, 3, seed=7)
    assert a == b
    assert sample_closed_point(5, 3, seed=8) != a
    # random.Random seeds with |seed|, so -3 would repeat seed 3's point
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        sample_closed_point(5, 6, seed=-3)


def test_closed_point_requires_orbit_order():
    # built from another point of the same orbit, a closed point lists the
    # same orbit rotated to start there
    pts = sample_closed_point(7, 6, seed=3).points
    assert ClosedPoint(pts[2]).points == pts[2:] + pts[:2]


def test_sampling_exhausted_is_raised_for_zero_budget(monkeypatch):
    monkeypatch.setattr(plane, "SAMPLING_ATTEMPTS", 0)
    with pytest.raises(SamplingExhausted):
        sample_closed_point(5, 6, seed=1)


# --- general position of closed points ---

def test_degree3_collinear_orbits_lie_on_rational_lines():
    # a degree-3 point on the rational line z = 0: guaranteed collinear
    F = field(5, 3)
    alpha = (0, 1, 0)
    collinear_pt = ProjPoint.make(F, (F.element(1), alpha, F.zero))
    orbit = frobenius_orbit(collinear_pt)
    assert len(orbit) == 3
    assert collinear(*orbit)
    # and the connecting line is Frobenius-stable, hence rational
    line = line_through(orbit[0], orbit[1])
    frob_line = tuple(F.frobenius(c) for c in line)
    assert frob_line == line


def test_degree3_collinearity_happens_only_on_stable_lines():
    # sampled degree-3 orbits: if the triple is collinear, its line is
    # fixed by Frobenius (the orbit sits on a line of the base plane)
    for seed in range(120):
        cp = sample_closed_point(5, 3, seed=seed)
        a, b, c = cp.points
        if collinear(a, b, c):
            line = line_through(a, b)
            F = a.field
            assert tuple(F.frobenius(x) for x in line) == line


def test_degree6_negative_controls():
    # hand-built non-orbit sets: 3 collinear and 6 on a conic
    pts = [pt(1, 0, 1), pt(2, 0, 1), pt(3, 0, 1), pt(0, 0, 1), pt(1, 2, 1), pt(1, 3, 1)]
    assert collinear(*pts[:3])
    conic_pts = [pt(1, t * t % 7, t) for t in range(6)]
    assert on_common_conic(conic_pts)


def _collinear_triples_by_brute_force(points):
    return tuple(
        (i, j, k)
        for i in range(6)
        for j in range(i + 1, 6)
        for k in range(j + 1, 6)
        if collinear(points[i], points[j], points[k])
    )


def _sampled_orbits_and_controls():
    from test_acceptance import _family_controls

    orbits = []
    for p, count in ((5, 100), (7, 100), (11, 100), (13, 100), (17, 50), (19, 50)):
        orbits += [sample_closed_point(p, 6, seed=500 + i) for i in range(count)]
        orbits += _family_controls(p).values()
    return orbits


def test_one_triple_report_equals_the_twenty_triple_scan():
    # and the descent conic verdict equals the 6x6 determinant over F_{p^6}
    from test_acceptance import _family_controls

    with_hits = 0
    conic_hits = {}
    for cp in _sampled_orbits_and_controls():
        rep = general_position_report(cp)
        expected = _collinear_triples_by_brute_force(cp.points)
        assert rep.no_three_collinear == (not expected)
        with_hits += bool(expected)
        on_conic = on_common_conic(cp.points)
        assert rep.off_conic == (not on_conic)
        p = cp.point.field.p
        conic_hits[p] = conic_hits.get(p, 0) + on_conic
    # the line controls hit all 20 triples, the line-pair controls 2
    assert with_hits > 8
    # the line and line-pair controls lie on degenerate conics
    assert sorted(conic_hits) == [5, 7, 11, 13, 17, 19] and all(conic_hits.values())
    for p in (5, 7, 11, 13, 17, 19):
        controls = _family_controls(p)
        line = controls[(False, False, 1)].points
        assert len(_collinear_triples_by_brute_force(line)) == 20
        # a conjugate pair of lines over F_{p^2} carries the even and the
        # odd orbit points, and no other triple is collinear
        pair = controls[(False, False, 7)].points
        assert _collinear_triples_by_brute_force(pair) == ((0, 2, 4), (1, 3, 5))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 1_000_037])
def test_theta_lies_in_f_p2_but_not_in_f_p(p):
    F = field(p, 6)
    theta = plane._quadratic_element(F)
    assert F.frobenius(F.frobenius(theta)) == theta
    assert F.frobenius(theta) != theta


def test_theta_product_is_mul_by_theta():
    # every element of F_{5^6}, and seeded elements of larger fields
    for p in (5, 7, 11, 13, 1_000_037):
        F = field(p, 6)
        theta, table = plane._quadratic_element(F), plane._theta_table(F)
        rng = random.Random(p)
        elements = (
            itertools.product(range(p), repeat=6)
            if p == 5
            else [F.random_element(rng) for _ in range(500)]
        )
        for a in elements:
            assert F.times(table, a) == F.mul(theta, a), (p, a)


def test_degree6_families_at_q5_exhaustively():
    # PGL(3, F_q) is transitive on rational lines, smooth conics and
    # conjugate line pairs, so one of each covers its family: every
    # degree-6 point of the line z = 0 and of the conic y^2 = x z, and
    # every degree-6 point with a triple on the line z = alpha y
    q = 5
    F = field(q, 6)
    one = F.element(1)
    degree6, off_f_q2 = [], []
    alpha = None
    for t in itertools.product(range(q), repeat=6):
        conj = F.conjugates(t)
        if len(set(conj)) == 6 and t == min(conj):
            degree6.append(t)
        if t != conj[2] and t == min(conj[::2]):
            off_f_q2.append(t)  # one t per sigma^2-orbit outside F_{q^2}
        if alpha is None and t == conj[2] != conj[1]:
            alpha = t
    families = {
        "line": [(one, t, F.zero) for t in degree6],
        "smooth_conic": [(one, t, F.mul(t, t)) for t in degree6],
        "pair": [(one, t, F.mul(alpha, t)) for t in off_f_q2],
    }
    # N6(P^1) and (q^6 - q^2) / 3, the inputs of degree6_family_rates
    assert (q**6 - q**3 - q**2 + q) // 6 == 2580 and (q**6 - q**2) // 3 == 5200
    assert {name: len(coords) for name, coords in families.items()} == {
        "line": 2580,
        "smooth_conic": 2580,
        "pair": 5200,
    }
    expected = {"line": (False, False), "smooth_conic": (True, False), "pair": (False, False)}
    for name, family in families.items():
        for coords in family:
            cp = ClosedPoint(ProjPoint.make(F, coords))
            rep = general_position_report(cp)
            verdict = (rep.no_three_collinear, rep.off_conic)
            assert cp.degree == 6 and verdict == expected[name], (name, coords)


def test_general_position_report_runs_one_triple_and_one_conic_test(monkeypatch):
    # both verdicts are computed on every orbit, collinear or not: two 6x6
    # descent determinants over F_p and no collinear call
    calls = []
    real_collinear, real_singular = plane.collinear, plane._singular

    def counted_collinear(*points):
        calls.append("collinear")
        return real_collinear(*points)

    def counted_singular(F, rows):
        calls.append(len(rows))
        return real_singular(F, rows)

    monkeypatch.setattr(plane, "collinear", counted_collinear)
    monkeypatch.setattr(plane, "_singular", counted_singular)
    verdicts = set()
    for cp in _sampled_orbits_and_controls():
        calls.clear()
        rep = general_position_report(cp)
        verdicts.add((rep.no_three_collinear, rep.off_conic))
        assert calls == [6, 6]
    # collinear, on-conic-only and general orbits all went through
    assert {(False, False), (True, False), (True, True)} <= verdicts


def test_general_position_report_field_call_budget(monkeypatch):
    # both 6x6 descent determinants run on ints mod p: the six Veronese
    # products and the three packed products by theta are the report's only
    # FiniteField calls, and collinear is not called
    from collections import Counter

    from sbuntwist.gf import FiniteField

    orbits = _sampled_orbits_and_controls()
    for F in {cp.point.field for cp in orbits}:
        plane._theta_table(F)  # theta's table is built per field on first use
    scope = ["report"]
    calls = Counter()

    def counted(name, real):
        def method(self, *args):
            calls["collinear" if "collinear" in scope else scope[-1], name] += 1
            return real(self, *args)

        return method

    def scoped(label, real):
        def wrapper(*args):
            scope.append(label(*args))
            try:
                return real(*args)
            finally:
                scope.pop()

        return wrapper

    for name, attr in vars(FiniteField).items():
        if callable(attr) and not name.startswith("__"):
            monkeypatch.setattr(FiniteField, name, counted(name, attr))
    monkeypatch.setattr(plane, "collinear", scoped(lambda *pts: "collinear", plane.collinear))
    monkeypatch.setattr(plane, "_singular", scoped(lambda F, rows: f"det{len(rows)}", plane._singular))
    verdicts = set()
    for cp in orbits:
        calls.clear()
        rep = general_position_report(cp)
        verdicts.add((rep.no_three_collinear, rep.off_conic))
        assert calls == {("report", "mul"): 6, ("report", "times"): 3}
    assert {(False, False), (True, False), (True, True)} <= verdicts


def test_general_position_report_needs_degree_6():
    with pytest.raises(ValueError, match="degree-6"):
        general_position_report(sample_closed_point(5, 3, seed=1))


def test_general_position_report_needs_coordinates_in_f_p6():
    # (1 : a^(1 + p^6) : 0) over F_{p^12} has degree 6, but the descent
    # argument needs the orbit degree to equal the field degree
    p = 5
    F = field(p, 12)
    a = (0, 1) + (0,) * 10
    conj = a
    for _ in range(6):
        conj = F.frobenius(conj)
    cp = ClosedPoint(ProjPoint.make(F, (F.element(1), F.mul(a, conj), F.zero)))
    assert cp.degree == 6
    with pytest.raises(ValueError, match=r"F_\{p\^6\}"):
        general_position_report(cp)


def test_degree6_violations_are_only_the_brauer_excluded_cases():
    # over a finite field the transitivity arguments still bite: any
    # collinear triple inside a degree-6 orbit forces the all-on-a-line or
    # the disjoint-triples profile, never the other seven cases
    found = 0
    for seed in range(250):
        cp = sample_closed_point(5, 6, seed=seed)
        rep = general_position_report(cp)
        if not rep.no_three_collinear:
            found += 1
            case, _ = classify_configuration(cp.points)
            assert case in (
                ConfigCase.ALL_SIX_ON_A_LINE,
                ConfigCase.TWO_DISJOINT_TRIPLES,
            )
    assert found > 0  # the excluded-by-Brauer-class families do occur


# --- configuration classification ---

def test_classify_all_six_on_a_line():
    pts = [pt(t, 0, 1) for t in range(5)] + [pt(1, 0, 0)]
    case, count = classify_configuration(pts)
    assert case is ConfigCase.ALL_SIX_ON_A_LINE and count == 1


def test_classify_five_on_a_line():
    pts = [pt(t, 0, 1) for t in range(5)] + [pt(0, 1, 1)]
    case, count = classify_configuration(pts)
    assert case is ConfigCase.FIVE_ON_A_LINE and count == 6


def test_classify_general_position():
    pts = [pt(0, 0, 1), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 1), pt(1, 2, 3), pt(1, 4, 5)]
    case, count = classify_configuration(pts)
    assert case is ConfigCase.GENERAL_POSITION and count == 15


def test_classify_quadrilateral_by_hand():
    # four lines y=0, x=0, x+y=1, y=2x+3 over F_7; vertices checked by hand
    F = F7

    def meet(l1, l2):
        a1, b1, c1 = l1
        a2, b2, c2 = l2
        return ProjPoint.of_ints(
            F, (b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1)
        )

    lines = [(0, 1, 0), (1, 0, 0), (1, 1, -1), (2, -1, 3)]
    pts = [meet(lines[i], lines[j]) for i in range(4) for j in range(i + 1, 4)]
    assert len(set(pts)) == 6
    case, count = classify_configuration(pts)
    assert case is ConfigCase.QUADRILATERAL and count == 7


def test_classifier_requires_six_distinct_points():
    with pytest.raises(ValueError, match=r"^two coincident points do not span a line$"):
        classify_configuration([pt(0, 0, 1)] * 6)
    with pytest.raises(ValueError):
        classify_configuration([pt(t, 0, 1) for t in range(5)])


def test_connecting_lines_of_a_triangle():
    tri = [pt(0, 0, 1), pt(1, 0, 1), pt(0, 1, 1)]
    assert len(connecting_lines(tri)) == 3


def _reference_grouping(points):
    """The pairs grouped by a line key built from ``FiniteField`` ops alone,
    independent of ``plane._line_key``."""
    F = points[0].field
    members = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        key = _reference_normalized(F, _reference_minors(F, points[i].coords, points[j].coords))
        members.setdefault(key, set()).update((i, j))
    return {frozenset(m) for m in members.values()}


def test_prime_field_connecting_lines_equal_the_reference_grouping():
    from sbuntwist.verify import case_witness

    primes = [q for q in range(5, 100) if all(q % d for d in range(2, q))]
    assert len(primes) == 23
    configs = [case_witness(case_id, q) for q in primes for case_id in range(1, 10)]
    for q in (5, 7, 11, 13):
        rng = random.Random(q)
        configs += [sample_configuration(field(q, 1), rng) for _ in range(2000)]
    for points in configs:
        lines = connecting_lines(points)
        assert len(lines) == len(set(lines))
        assert set(lines) == _reference_grouping(points)
    assert connecting_lines([]) == [] and connecting_lines([pt(1, 2, 3)]) == []


def test_each_case_has_exactly_one_profile():
    assert sorted(c.case_id for c in _CASE_BY_PROFILE.values()) == list(range(10))


@pytest.mark.parametrize("profile", sorted(_CASE_BY_PROFILE))
def test_profile_table_agrees_with_the_line_counts(profile):
    # the 15 pairs split among the lines: a line through s points takes
    # C(s, 2) pairs and counts once
    sizes, covered = profile
    assert covered <= 6 and all(covered >= s for s in sizes)
    expected = 15 - sum(math.comb(s, 2) - 1 for s in sizes)
    assert EXPECTED_LINE_COUNTS[_CASE_BY_PROFILE[profile]] == expected


def test_random_configurations_always_classify():
    F = field(11, 1)
    rng = random.Random(123)
    seen = set()
    for _ in range(400):
        pts = sample_configuration(F, rng)
        case, count = classify_configuration(pts)
        seen.add(case)
        assert count == EXPECTED_LINE_COUNTS[case]
    assert ConfigCase.GENERAL_POSITION in seen


def _case_by_definition(points):
    # independent route: dedupe lines by their member sets (via collinear()
    # only) and apply the case definitions directly
    lines = set()
    for i in range(6):
        for j in range(i + 1, 6):
            members = frozenset(
                k
                for k in range(6)
                if k in (i, j) or collinear(points[i], points[j], points[k])
            )
            lines.add(members)
    sizes = sorted(map(len, lines), reverse=True)
    triples = [m for m in lines if len(m) == 3]
    if sizes[0] == 6:
        case = ConfigCase.ALL_SIX_ON_A_LINE
    elif sizes[0] == 5:
        case = ConfigCase.FIVE_ON_A_LINE
    elif sizes[0] == 4:
        case = ConfigCase.FOUR_AND_A_TRIPLE if triples else ConfigCase.FOUR_ON_A_LINE
    elif sizes[0] == 2:
        case = ConfigCase.GENERAL_POSITION
    elif len(triples) == 1:
        case = ConfigCase.ONE_TRIPLE
    elif len(triples) == 2:
        covered = len(triples[0] | triples[1])
        case = (
            ConfigCase.TWO_TRIPLES_SHARING_A_POINT
            if covered == 5
            else ConfigCase.TWO_DISJOINT_TRIPLES
        )
    elif len(triples) == 3:
        case = ConfigCase.TRIPLE_TRIANGLE
    else:
        case = ConfigCase.QUADRILATERAL
    return case, len(lines)


def test_classifier_agrees_with_definition_based_route():
    F = field(7, 1)
    rng = random.Random(2024)
    # random points are almost always generic, so also force the special
    # cases through every constructed witness
    from sbuntwist.verify import case_witness

    configs = [sample_configuration(F, rng) for _ in range(250)]
    configs += [case_witness(case_id, 7) for case_id in range(1, 10)]
    configs += [case_witness(case_id, 11) for case_id in range(1, 10)]
    for pts in configs:
        assert pts is not None
        assert classify_configuration(pts) == _case_by_definition(pts)


def _case_counts_by_closed_form(q):
    """The number of six-point sets of P^2(F_q) in each case, by case id
    (Hirschfeld, Projective Geometries over Finite Fields, 2nd ed.; case 0
    counts the six-arcs)."""
    C = math.comb
    N = q * q + q + 1
    return [
        N * (N - 1) * q**2 * (q - 1) ** 2 * (q - 2) * (q - 3) * (q * q - 9 * q + 21) // 720,
        N * C(q + 1, 6),
        N * C(q + 1, 5) * q**2,
        N * C(q * q, 2) * C(q, 4),
        N * C(q * q, 2) * C(q, 3),
        N * C(q + 1, 2) * C(q, 2) ** 2 * (q - 2) * (q - 3),
        N * C(q + 1, 3) * q**2 * (q - 1) * (q - 2) * (q - 3) * (q - 4) // 6,
        C(N, 2) * C(q, 3) ** 2,
        N * (N - 1) * q**2 * (q - 1) ** 2 * (q - 2) // 6,
        N * (N - 1) * q**2 * (q - 1) ** 2 // 24,
    ]


@pytest.mark.parametrize("q", [5, 7])
def test_six_point_case_counts_exhaustively(q):
    # PGL(3, F_q) is transitive on ordered non-collinear triples, of which
    # there are N(N - 1)q^2.  A six-set of case c holds 20 - t_c of them
    # unordered, t_c the sum of C(k, 3) over its lines through k >= 3
    # points, so the m_c completions of the fixed coordinate triangle by
    # three of the other N - 3 points give count_c = N(N-1)q^2 m_c /
    # (6 (20 - t_c)).  Case 1 (t_1 = 20) has no non-collinear triple and
    # rests on its closed form N C(q + 1, 6) alone.
    F = field(q, 1)
    N = q * q + q + 1
    triangle = [pt(1, 0, 0, F), pt(0, 1, 0, F), pt(0, 0, 1, F)]
    points = set(_all_points(F))
    others = sorted(points - set(triangle), key=lambda p: p.coords)
    assert len(points) == N and len(others) == N - 3
    tally = [0] * 10
    for extra in itertools.combinations(others, 3):
        case, count = classify_configuration(triangle + list(extra))
        assert count == case.line_count
        tally[case.case_id] += 1
    assert sum(tally) == math.comb(N - 3, 3) == {5: 3276, 7: 24804}[q] and tally[1] == 0
    counts = []
    for m, tc in zip(tally, [0, 20, 10, 4, 5, 2, 1, 2, 3, 4]):
        if tc == 20:
            counts.append(N * math.comb(q + 1, 6))
        else:
            count, rest = divmod(N * (N - 1) * q**2 * m, 6 * (20 - tc))
            assert rest == 0, (m, tc)
            counts.append(count)
    expected = _case_counts_by_closed_form(q)
    assert expected == {
        5: [3100, 31, 4650, 46500, 93000, 279000, 62000, 46500, 186000, 15500],
        7: [1094856, 1596, 156408, 2346120, 2346120, 14076720, 9384480, 1955100, 4692240, 234612],
    }[q]
    # the ten cases partition the six-sets, at every order q
    for r in (5, 7, 9, 11, 13, 25, 199):
        assert sum(_case_counts_by_closed_form(r)) == math.comb(r * r + r + 1, 6)
    assert counts == expected
