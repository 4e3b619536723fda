import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sbuntwist.gf import (
    FiniteField, _fold, _is_irreducible, _is_prime, _least_irreducible, _mulmod, field,
)

PARAMS = [(5, 1), (7, 1), (7, 2), (5, 3), (7, 3), (5, 6), (13, 2), (11, 3)]
# m (p - 1)^2 reaches 2^64 for the last two: a slot of a fixed 64 bits in
# the conjugate table would carry into its neighbour there
LARGE_P = [(1_000_037, 6), (4_294_967_311, 2), (4_294_967_311, 3)]
# the conjugate table's loop runs m - 1 times; PARAMS has no m = 4 or 5
MIDDLE_M = [(5, 4), (7, 5)]


def elements_of(F, count, seed=0):
    rng = random.Random(seed)
    return [F.random_element(rng) for _ in range(count)]


def power(F, a, e):
    """a^e for e >= 0 by square-and-multiply: the reference route that
    inv and frobenius are checked against.  Every product must come back
    reduced, so a mul that stops reducing fails here rather than squaring
    ever larger ints."""

    def mul(x, y):
        z = F.mul(x, y)
        assert all(c in range(F.p) for c in z), (x, y, z)
        return z

    result, acc = F.element(1), a
    while e:
        if e & 1:
            result = mul(result, acc)
        acc = mul(acc, acc)
        e >>= 1
    return result


def test_rejects_bad_characteristic():
    for p in (2, 3, 4, 9, 1):
        with pytest.raises(ValueError):
            FiniteField(p, 2)


def test_rejects_extension_degree_zero():
    with pytest.raises(ValueError, match=r"^extension degree must be >= 1, got 0$"):
        FiniteField(7, 0)


def test_field_interning():
    assert field(7, 3) is field(7, 3)
    assert field(7, 3) == FiniteField(7, 3)


def test_field_repr():
    assert repr(field(7, 2)) == "FiniteField(7, 2)"


def test_canonical_modulus_is_stable():
    # lexicographically least monic irreducibles, top coefficients first
    assert field(7, 1).modulus == (0, 1)
    assert field(7, 3).modulus == (2, 0, 0, 1)  # x^3 + 2 has no cube root of -2
    assert field(5, 2).modulus == (2, 0, 1)  # x^2 + 2; -2 = 3 is a non-square mod 5


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (5, 3, (1, 1, 0, 1)),
        (5, 6, (2, 1, 0, 0, 0, 0, 1)),
        (7, 6, (2, 0, 0, 0, 0, 0, 1)),
        (11, 6, (2, 1, 0, 0, 0, 0, 1)),
        (13, 6, (2, 0, 0, 0, 0, 0, 1)),
    ],
)
def test_canonical_moduli_frozen_values(p, m, modulus):
    # irreducibility and lexicographic minimality of each tuple were
    # confirmed against an independent computer-algebra factorizer
    assert field(p, m).modulus == modulus


def _monic(p, m):
    """Every monic polynomial of degree m over F_p, ascending coefficients."""
    return [[(k // p**i) % p for i in range(m)] + [1] for k in range(p**m)]


def _remainder(g, f, p):
    """Schoolbook long division of f by the monic g: the remainder, with
    len(g) - 1 coefficients."""
    r = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = r[top]
        for i, gi in enumerate(g):
            r[top - len(g) + 1 + i] = (r[top - len(g) + 1 + i] - c * gi) % p
    return r[:len(g) - 1]


def _divides(g, f, p):
    return not any(_remainder(g, f, p))


def _product(a, b, p):
    """The schoolbook product of a and b over F_p, unreduced."""
    product = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            product[i + j] = (product[i + j] + ai * bj) % p
    return product


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rabin_test_agrees_with_trial_division(p, m):
    # a reducible polynomial of degree m has a monic factor of degree <= m/2
    divisors = [g for k in range(1, m // 2 + 1) for g in _monic(p, k)]
    for f in _monic(p, m):
        expected = not any(_divides(g, f, p) for g in divisors)
        assert _is_irreducible(f, p) == expected, f


def test_is_prime_agrees_with_a_sieve():
    n = 2000
    sieve = [False, False] + [True] * (n - 2)
    for k in range(2, n):
        if sieve[k]:
            for j in range(k * k, n, k):
                sieve[j] = False
    assert [k for k in range(-3, n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("p", [p for p in range(5, 60) if _is_prime(p) and p % 3 == 2])
@pytest.mark.parametrize("m", [3, 6])
def test_least_irreducible_equals_the_unskipped_search(p, m):
    # for p = 2 mod 3 no binomial x^m + c is irreducible and the search
    # starts past them; an unskipped scan from k = 0 must agree
    expected = None
    for k in range(p**m):
        coeffs = [(k // p**i) % p for i in range(m)] + [1]
        if _is_irreducible(coeffs, p):
            expected = tuple(coeffs)
            break
    assert _least_irreducible(p, m) == expected


@pytest.mark.parametrize("p,m", PARAMS)
def test_field_axioms_on_samples(p, m):
    F = field(p, m)
    xs = elements_of(F, 8, seed=p * m)
    for a in xs:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.element(1)) == a
        assert F.add(a, F.sub(F.zero, a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.element(1)
    for a in xs[:4]:
        for b in xs[:4]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in xs[:3]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


def constants_and_samples(F):
    """0, 1, 2 and p - 1 in F_p, the all-(p - 1) element and 20 seeded
    elements: a constant times any element takes mul's scaling route, and
    every other pair its polynomial product; add and sub have one route."""
    p, m = F.p, F.m
    constants = [F.zero, F.element(1), F.element(2), F.element(p - 1)]
    return constants + [(p - 1,) * m] + elements_of(F, 20, seed=p + m)


@pytest.mark.parametrize("p,m", PARAMS + LARGE_P)
def test_add_and_sub_are_coordinatewise(p, m):
    F = field(p, m)
    xs = constants_and_samples(F)
    for a in xs:
        for b in xs:
            assert F.add(a, b) == tuple((x + y) % p for x, y in zip(a, b)), (a, b)
            assert F.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b)), (a, b)


@pytest.mark.parametrize("p,m", PARAMS + LARGE_P)
def test_mul_is_the_product_reduced_by_long_division(p, m):
    F = field(p, m)
    xs = constants_and_samples(F)
    for a in xs:
        for b in xs:
            assert F.mul(a, b) == tuple(_remainder(F.modulus, _product(a, b, p), p)), (a, b)


@pytest.mark.parametrize("p", [5, 7, 1_000_037])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mulmod_on_reducible_moduli_is_long_division(p, m):
    # the kernel runs on any monic f, as _least_irreducible tries them:
    # x^m, (x + 1)^m, the last candidate (every lower coefficient p - 1)
    # and x^m + x^(m-1), whose all-(p - 1) square fills a slot of all w
    # bits at (7, 2), so a slot one bit narrower carries there
    top, x_top = (p - 1,) * m, (0,) * (m - 1) + (1,)
    rng = random.Random(p + m)
    xs = [top, x_top] + [tuple(rng.randrange(p) for _ in range(m)) for _ in range(5)]
    moduli = [(0,) * m + (1,), tuple(math.comb(m, i) % p for i in range(m + 1)), top + (1,),
              x_top + (1,)]
    for f in moduli:
        fold = _fold(f, p)
        w, mask, rows = fold
        # rows[k - m] packs x^k mod f
        for k, row in enumerate(rows, m):
            reduced = _remainder(f, (0,) * k + (1,), p)
            assert [row >> i * w & mask for i in range(m)] == reduced, (f, k)
        for a in xs:
            for b in xs:
                expected = tuple(_remainder(f, _product(a, b, p), p))
                assert _mulmod(a, b, fold, p) == expected, (f, a, b)


@pytest.mark.parametrize("p,m", PARAMS)
def test_frobenius_is_an_automorphism_of_order_m(p, m):
    F = field(p, m)
    for a in elements_of(F, 5, seed=1):
        b = F.random_element(random.Random(2))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        # x^(p^m) = x
        cur = a
        for _ in range(m):
            cur = F.frobenius(cur)
        assert cur == a


@pytest.mark.parametrize("p,m", PARAMS)
def test_inverse_and_frobenius_agree_with_the_pow_route(p, m):
    # reference route: a^(q - 2) = a^-1 and a^p = frobenius(a)
    F = field(p, m)
    xs = [a for a in elements_of(F, 40, seed=7 * p + m) if a != F.zero]
    assert xs
    for a in xs:
        assert F.inv(a) == power(F, a, p**m - 2)
        assert F.frobenius(a) == power(F, a, p)


def one_step_frobenius(F):
    """The one-step matrix reference: row i is x^(i p), so x -> x^p sends a
    to sum_i a_i row_i."""
    x = tuple(int(j == 1) for j in range(F.m))  # for m = 1, x = 0 mod x
    xp = power(F, x, F.p)
    rows = [power(F, xp, i) for i in range(F.m)]

    def step(a):
        return tuple(
            sum(ai * row[j] for ai, row in zip(a, rows)) % F.p for j in range(F.m)
        )

    return step


@pytest.mark.parametrize("p,m", PARAMS + MIDDLE_M + LARGE_P)
def test_conjugates_are_the_iterated_frobenius(p, m):
    F = field(p, m)
    step = one_step_frobenius(F)
    top = (p - 1,) * m
    # the elements of F_p, zero included, are their own conjugates
    constants = [F.zero, F.element(1), F.element(2), F.element(p - 1)]
    for a in constants + [top] + elements_of(F, 20, seed=p + m):
        conj = F.conjugates(a)
        assert len(conj) == m
        cur = a
        for k in range(m):
            assert conj[k] == cur
            cur = step(cur)
        assert cur == a
        assert F.frobenius(a) == conj[1 % m]


@pytest.mark.parametrize("p,m", [(p, m) for p in (5, 7, 13) for m in (1, 2, 3, 4, 6)] + LARGE_P)
def test_degree_is_the_conjugate_orbit_size(p, m):
    # the trace to F_{p^k}, the sum of every k-th conjugate, lies in
    # F_{p^k}, so for each k | m the traces meet the subfields, where
    # degree must stop at a divisor below m
    F = field(p, m)
    top = (p - 1,) * m
    seen = set()
    for a in [F.zero, F.element(1), F.element(p - 1), top] + elements_of(F, 30, seed=p + m):
        for k in (k for k in range(1, m + 1) if m % k == 0):
            t = tuple(sum(c) % p for c in zip(*F.conjugates(a)[::k]))
            size = len(set(F.conjugates(t)))
            assert F.degree(t) == size, (a, k, t)
            seen.add(size)
    # every subfield's own elements were met
    assert seen == {k for k in range(1, m + 1) if m % k == 0}


@pytest.mark.parametrize("p,m", PARAMS + MIDDLE_M + LARGE_P)
def test_regular_rows_are_mul_by_the_basis(p, m):
    # row i is c x^i reduced by long division: regular and mul's fold
    # rows share _times_x, so mul cannot referee regular
    F = field(p, m)
    top = (p - 1,) * m
    for c in [F.zero, F.element(1), F.element(p - 1), top] + elements_of(F, 20, seed=p + m):
        rows = [tuple(_remainder(F.modulus, (0,) * i + c, p)) for i in range(m)]
        assert F.regular(c) == rows, c


@pytest.mark.parametrize("p,m", PARAMS + LARGE_P)
def test_times_is_mul_by_the_tabled_element(p, m):
    F = field(p, m)
    top = (p - 1,) * m
    for c in [F.zero, F.element(1), top] + elements_of(F, 5, seed=p):
        table = F.multiplier(c)
        for a in [F.zero, F.element(p - 1), top] + elements_of(F, 20, seed=p + m):
            assert F.times(table, a) == F.mul(c, a), (c, a)


@pytest.mark.parametrize("p,m", PARAMS + LARGE_P)
def test_random_element_draws_as_randrange_does(p, m):
    # one getrandbits of p's bit length per try, retried while >= p, is
    # how random.Random.randrange(p) draws, so a twin-seeded generator
    # stays in step with it draw for draw
    F = field(p, m)
    rng, twin = random.Random(p * m), random.Random(p * m)
    for _ in range(200):
        assert F.random_element(rng) == tuple(twin.randrange(p) for _ in range(m))
    assert rng.random() == twin.random()


def test_frobenius_fixes_exactly_the_prime_field():
    F = field(5, 3)
    fixed = []
    rng = random.Random(0)
    for _ in range(200):
        a = F.random_element(rng)
        if F.frobenius(a) == a:
            fixed.append(a)
    for a in fixed:
        assert all(c == 0 for c in a[1:])  # constants only


@given(st.sampled_from(PARAMS), st.data())
@settings(max_examples=60, deadline=None)
def test_pow_matches_repeated_multiplication(params, data):
    p, m = params
    F = field(p, m)
    a = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    e = data.draw(st.integers(min_value=0, max_value=12))
    direct = F.element(1)
    for _ in range(e):
        direct = F.mul(direct, a)
    assert power(F, a, e) == direct


@pytest.mark.parametrize(
    "p,m", [(5, 3), (7, 2), (7, 1), (13, 1), (1_000_037, 1), (5, 6)] + LARGE_P
)
def test_inverse_times_the_element_is_one(p, m):
    # every nonzero element of the small fields; of the large, the constants
    # below 100, which Euclid inverts in its final scale alone, and 20
    # seeded elements
    F = field(p, m)
    if p**m < 1000:
        xs = itertools.product(range(p), repeat=m)
    else:
        xs = [F.element(c) for c in range(1, min(p, 100))] + elements_of(F, 20, seed=p + m)
    for a in xs:
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.element(1), a


def test_inverse_of_zero_raises():
    # zero lies in F_p, for which Euclid returns None, so inv must raise first
    for F in (field(7, 1), field(7, 2), field(5, 6)):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


def test_multiplicative_order_divides_group_order():
    F = field(5, 3)
    rng = random.Random(3)
    for _ in range(5):
        a = F.random_element(rng)
        if a == F.zero:
            continue
        assert power(F, a, 5**3 - 1) == F.element(1)
