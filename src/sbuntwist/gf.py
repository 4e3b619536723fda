"""Exact arithmetic in small prime-power fields F_{p^m}, char p not 2 or 3.

Elements are coefficient tuples of length m (ascending powers) reduced
modulo a canonical irreducible: the lexicographically least monic
irreducible of degree m over F_p, comparing coefficient vectors from the
top degree down.  Canonical moduli make field towers reproducible across
runs and machines.

One extended Euclidean loop over F_p[x] serves field inversion against the
modulus and the coprimality condition of Rabin's irreducibility test
(gcd(h, f) is constant iff h is invertible modulo f); scalar inverses are
pow(c, p - 2, p).  Frobenius x -> x^p is F_p-linear, so it is applied as
a multiplication by the m x m matrix over F_p whose row i is x^(i p) mod
the modulus, built once per field.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

Element = tuple[int, ...]


# --- dense polynomial helpers over F_p (ascending coefficients) ---


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)

def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # f monic
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df and r:
        lead = r[-1]
        shift = len(r) - 1 - df
        if lead:
            for i, fi in enumerate(f):
                r[shift + i] = (r[shift + i] - lead * fi) % p
        r.pop()
    return _ptrim(r)


def _psubmul(a: Sequence[int], b: Sequence[int], c: int, shift: int, p: int) -> list[int]:
    """a - c * x^shift * b over F_p."""
    out = list(a) + [0] * (len(b) + shift - len(a))
    for i, bi in enumerate(b):
        out[shift + i] = (out[shift + i] - c * bi) % p
    return _ptrim(out)


def _ppowmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), f, p)
        acc = _pmod(_pmul(acc, acc, p), f, p)
        e >>= 1
    return result


def _pinv(a: Sequence[int], f: Sequence[int], p: int) -> list[int] | None:
    """The inverse of a modulo f over F_p, or None when gcd(a, f) is not a
    constant.  Extended Euclid: each step cancels the leading term of the
    larger remainder with a shifted multiple of the smaller."""
    # invariant for both pairs: s * a == r modulo f
    r0, s0 = list(f), []
    r1, s1 = _ptrim(list(a)), [1]
    while len(r1) > 1:
        if len(r0) < len(r1):
            r0, s0, r1, s1 = r1, s1, r0, s0
            continue
        c = r0[-1] * pow(r1[-1], p - 2, p) % p
        shift = len(r0) - len(r1)
        r0 = _psubmul(r0, r1, c, shift, p)
        s0 = _psubmul(s0, s1, c, shift, p)
    if not r1:
        return None
    scale = pow(r1[0], p - 2, p)
    return [(x * scale) % p for x in s1]


def _pad(coeffs: Sequence[int], m: int) -> tuple[int, ...]:
    return tuple(coeffs) + (0,) * (m - len(coeffs))


def _prime_factors(n: int) -> list[int]:
    out, k = [], 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_p."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    if _ppowmod(x, p**m, f, p) != x:
        return False
    for r in _prime_factors(m):
        # gcd(x^(p^(m/r)) - x, f) must be constant
        h = _psubmul(_ppowmod(x, p ** (m // r), f, p), [1], 1, 1, p)
        if _pinv(h, f, p) is None:
            return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, ordering coefficient vectors
    (a_{m-1}, ..., a_0) lexicographically.

    The first p candidates are the binomials x^m + c.  One is irreducible
    only if every prime factor of m divides p - 1 (Lidl and Niederreiter,
    Finite Fields, Thm 3.75), so otherwise the search skips them.
    """
    skip = any((p - 1) % r for r in _prime_factors(m))
    for k in range(p if skip else 0, p**m):
        coeffs = [0] * m
        kk = k
        for i in range(m):  # a_0 varies fastest
            coeffs[i] = kk % p
            kk //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {m} over F_{p}")


class FiniteField:
    """F_{p^m} with elements as coefficient tuples of length m."""

    __slots__ = ("p", "m", "modulus", "zero", "one", "_xpow", "_frob")

    def __init__(self, p: int, m: int):
        if not _is_prime(p) or p in (2, 3):
            raise ValueError(f"characteristic must be a prime other than 2 and 3, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.modulus = _least_irreducible(p, m)
        self.zero: Element = (0,) * m
        self.one: Element = (1,) + (0,) * (m - 1)
        # reductions of x^k for k = m .. 2m-2, used by mul
        self._xpow = tuple(
            _pad(_ppowmod([0, 1], k, self.modulus, p), m) for k in range(m, 2 * m - 1)
        )
        # row i is x^(i p) mod the modulus: the matrix of x -> x^p
        self._frob = tuple(
            _pad(_ppowmod([0, 1], i * p, self.modulus, p), m) for i in range(m)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.m})"

    def element(self, value: int) -> Element:
        return (value % self.p,) + (0,) * (self.m - 1)

    def add(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a: Element, b: Element) -> Element:
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = list(conv[:m])
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                red = self._xpow[k - m]
                for i in range(m):
                    if red[i]:
                        out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise ZeroDivisionError("inversion of 0")
        # the modulus is irreducible, so every nonzero a is invertible
        return _pad(_pinv(a, self.modulus, self.p), self.m)

    def frobenius(self, a: Element) -> Element:
        """x -> x^p, the canonical generator of the Galois group."""
        out = [0] * self.m
        for ai, row in zip(a, self._frob):
            if ai:
                for j, rj in enumerate(row):
                    out[j] += ai * rj
        p = self.p
        return tuple(c % p for c in out)

    def random_element(self, rng: random.Random) -> Element:
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.m))


@lru_cache(maxsize=None)
def field(p: int, m: int) -> FiniteField:
    """Interned field instances; equal parameters share one object."""
    return FiniteField(p, m)
