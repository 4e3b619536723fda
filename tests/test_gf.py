import random

import pytest
from hypothesis import given, settings, strategies as st

from sbuntwist.gf import FiniteField, _is_irreducible, _is_prime, _least_irreducible, field

PARAMS = [(5, 1), (7, 1), (7, 2), (5, 3), (7, 3), (5, 6), (13, 2), (11, 3)]


def elements_of(F, count, seed=0):
    rng = random.Random(seed)
    return [F.random_element(rng) for _ in range(count)]


def power(F, a, e):
    """a^e for e >= 0 by square-and-multiply: the reference route that
    inv and frobenius are checked against."""
    result, acc = F.one, a
    while e:
        if e & 1:
            result = F.mul(result, acc)
        acc = F.mul(acc, acc)
        e >>= 1
    return result


def test_rejects_bad_characteristic():
    for p in (2, 3, 4, 9, 1):
        with pytest.raises(ValueError):
            FiniteField(p, 2)


def test_field_interning():
    assert field(7, 3) is field(7, 3)
    assert field(7, 3) == FiniteField(7, 3)


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


def _divides(g, f, p):
    """Schoolbook long division by the monic g; True iff the remainder is 0."""
    r = list(f)
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = r[top]
        for i, gi in enumerate(g):
            r[top - len(g) + 1 + i] = (r[top - len(g) + 1 + i] - c * gi) % p
    return not any(r)


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
        assert F.mul(a, F.one) == a
        assert F.add(a, F.sub(F.zero, a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    for a in xs[:4]:
        for b in xs[:4]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in xs[:3]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


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
    direct = F.one
    for _ in range(e):
        direct = F.mul(direct, a)
    assert power(F, a, e) == direct


def test_inverse_of_zero_raises():
    F = field(7, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_multiplicative_order_divides_group_order():
    F = field(5, 3)
    rng = random.Random(3)
    for _ in range(5):
        a = F.random_element(rng)
        if a == F.zero:
            continue
        assert power(F, a, 5**3 - 1) == F.one
