"""Exact arithmetic in small prime-power fields F_{p^m}, char p not 2 or 3.

Elements are coefficient tuples of length m (ascending powers) reduced
modulo a canonical irreducible: the lexicographically least monic
irreducible of degree m over F_p, comparing coefficient vectors from the
top degree down.  Canonical moduli make field towers reproducible across
runs and machines.  One routine, ``_mulmod``, multiplies and reduces for
``mul`` and field construction (Rabin's test and the Frobenius table) by
Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
Algebra, Sec. 8.4): each operand packed into one int, one product of the
two ints, and its m - 1 top slots folded onto the m low ones through the
packed rows x^k mod f, k = m .. 2m - 2, of ``_fold``.  A field builds
its fold once; ``_ppowmod`` takes its fold from the caller, so Rabin's test
builds one per candidate modulus and the field's construction reuses its own.

An element lies in the prime subfield F_p when every coefficient after the
first is 0; for m = 1 every element does.  Such an element c acts on the
F_p-basis coordinate-wise (Lidl and Niederreiter, Finite Fields, Sec. 2.1),
and Frobenius fixes it.  So ``mul`` by c scales the other operand
coefficient by coefficient mod p, with no polynomial product, and
``conjugates`` of c is c repeated m times, with no packed product.

One extended Euclidean loop over F_p[x] serves field inversion against the
modulus and the coprimality condition of Rabin's irreducibility test
(gcd(h, f) is constant iff h is invertible modulo f).  Each of its steps
is one division in place, with one scalar inverse pow(c, p - 2, p).

F_p-linear maps run on packed tables.  Row i of a table is one int that
packs the coefficients of the images of x^i in slots of
w = (m (p-1)^2).bit_length() bits.  Then sum_i a_i row_i holds the images
of a in its slots, each a sum of at most m products of residues, so no
carry crosses a slot, and ``_slots`` reads them (``_mulmod`` reads its own
product the same way, in the fold's wider slots).  Each power
sigma^k: x -> x^(p^k) of Frobenius is F_p-linear, so one table built with
the field serves ``conjugates``, ``frobenius`` and ``degree``: row i packs
sigma^k(x^i) = sigma^k(x)^i for k = 1 .. m-1, sigma^k's m slots in block
k - 1.  ``degree`` reads only the blocks of the divisors of m, and leaves
each at its first slot that differs from a.
Products by a fixed c are F_p-linear too: ``regular(c)`` lists c x^i, each
``_times_x`` of the one before, the step that also builds ``_fold``'s rows;
``multiplier(c)`` packs that list, on demand and
never with the field, and ``times`` reads c a from it.

One rejection loop, ``_residues``, draws residues mod p: each is a
``getrandbits`` of p's bit length, drawn again while >= p, which is how
``random.Random.randrange(p)`` draws.  ``random_element`` is m of them;
``plane._random_point`` takes the 3m of a coordinate triple in one call,
and ``plane.sample_configuration`` the 3m of every point a configuration
still misses in one call per round.
"""

from __future__ import annotations

import itertools
import operator
import random
from functools import lru_cache
from typing import Sequence

Element = tuple[int, ...]
# (w, mask, rows) from ``_fold``
Fold = tuple[int, int, tuple[int, ...]]


# --- dense polynomial helpers over F_p (ascending coefficients) ---


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _times_x(r: Sequence[int], f: Sequence[int], p: int) -> Element:
    """x r modulo the monic f of degree m over F_p, for r of length m: the
    coefficients move up one place, and the top one, c, comes back as
    c x^m = -c (f_0 + ... + f_{m-1} x^{m-1})."""
    c = r[-1]
    return tuple([(d - c * fi) % p for d, fi in zip((0, *r[:-1]), f)])


def _fold(f: Sequence[int], p: int) -> Fold:
    """(w, mask, rows), the fold of ``_mulmod`` for the monic f of degree m
    over F_p: the slot width w, the mask of one slot, and rows[k - m]
    packing the coefficients of x^k mod f for k = m .. 2m - 2, each
    ``_times_x`` of the one before.

    The product of two packed reduced operands has 2m - 1 slots, each a sum
    of at most m products of residues.  The fold adds m - 1 of them, each
    times a residue, onto a low slot, so every slot stays at most
    m (p-1)^2 (1 + (m-1)(p-1)) < 2^w and no carry crosses a slot."""
    m = len(f) - 1
    w = (m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))).bit_length()
    rows, r, shifts = [], (0,) * (m - 1) + (1,), range(0, m * w, w)
    for _ in range(m - 1):
        r = _times_x(r, f, p)
        rows.append(sum(map(operator.lshift, r, shifts)))
    return w, (1 << w) - 1, tuple(rows)


def _mulmod(a: Sequence[int], b: Sequence[int], fold: Fold, p: int) -> Element:
    """a b modulo the monic f of degree m over F_p, for a and b of length m
    and fold = ``_fold(f, p)`` (Kronecker substitution): a and b packed into
    w-bit slots, one product of the two ints, each high slot k times row k
    (x^k mod f) added onto the low m slots, and those m slots read mod p."""
    w, mask, rows = fold
    packed_a = packed_b = 0
    for d in reversed(a):
        packed_a = packed_a << w | d
    for d in reversed(b):
        packed_b = packed_b << w | d
    high = packed_a * packed_b
    top = len(a) * w
    low = high & ((1 << top) - 1)
    high >>= top
    for row in rows:
        low += (high & mask) * row
        high >>= w
    out = []
    for _ in a:
        out.append((low & mask) % p)
        low >>= w
    return tuple(out)


def _ppowmod(base: Element, e: int, fold: Fold, p: int) -> Element:
    """base^e modulo the monic f over F_p, for base reduced modulo f and
    fold = ``_fold(f, p)`` from the caller, by square and multiply."""
    result = (1,) + (0,) * (len(base) - 1)
    while e:
        if e & 1:
            result = _mulmod(result, base, fold, p)
        base = _mulmod(base, base, fold, p)
        e >>= 1
    return result


def _pinv(a: Sequence[int], f: Sequence[int], p: int) -> Element | None:
    """The inverse of a modulo f over F_p, as deg f coefficients, or None
    when gcd(a, f) is not a constant.  Extended Euclid: each step divides
    the larger remainder by the smaller in place, inverting the divisor's
    leading coefficient once."""
    # invariant for both pairs: s * a == r modulo f
    r0, s0 = list(f), []
    r1, s1 = _ptrim(list(a)), [1]
    while len(r1) > 1:
        # r0 <- r0 mod r1, s0 <- s0 - (r0 div r1) s1; each pop drops the term c cancels
        top = len(r0) - len(r1)
        s0 += [0] * (top + len(s1) - len(s0))
        body, scale = r1[:-1], pow(r1[-1], p - 2, p)
        for shift in range(top, -1, -1):
            c = r0.pop() * scale % p
            if c:
                for i, ri in enumerate(body, shift):
                    r0[i] = (r0[i] - c * ri) % p
                for i, si in enumerate(s1, shift):
                    s0[i] = (s0[i] - c * si) % p
        r0, s0, r1, s1 = r1, s1, _ptrim(r0), _ptrim(s0)
    if not r1:
        return None
    scale = pow(r1[0], p - 2, p)
    return tuple([x * scale % p for x in s1]) + (0,) * (len(f) - 1 - len(s1))


def _residues(rng: random.Random, p: int, n: int) -> list[int]:
    """n residues mod p drawn as n ``rng.randrange(p)`` calls draw them,
    without their call layers: one ``getrandbits`` of p's bit length per
    try, a try >= p dropped and drawn again.  The one residue-drawing loop:
    ``random_element``, ``plane._random_point`` and
    ``plane.sample_configuration`` all draw through it."""
    k, draw = p.bit_length(), rng.getrandbits
    out: list[int] = []
    while len(out) < n:
        x = draw(k)
        if x < p:
            out.append(x)
    return out


def _slots(table: Sequence[int], a: Element, p: int, mask: int, shifts: range) -> list[int]:
    """The slots at shifts of the packed product sum_i a_i table_i, each
    reduced mod p.  Row i of a table packs the images of x^i under F_p-linear
    maps, so the slots hold the coefficients of the images of a."""
    packed = sum(map(operator.mul, a, table))
    return [(packed >> s & mask) % p for s in shifts]


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
    x, fold = (0, 1) + (0,) * (m - 2), _fold(f, p)
    if _ppowmod(x, p**m, fold, p) != x:
        return False
    for r in _prime_factors(m):
        # gcd(x^(p^(m/r)) - x, f) must be constant
        h = list(_ppowmod(x, p ** (m // r), fold, p))
        h[1] = (h[1] - 1) % p
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

    __slots__ = ("p", "m", "modulus", "zero", "_fold", "_conj", "_shifts", "_mask")

    def __init__(self, p: int, m: int):
        if not _is_prime(p) or p in (2, 3):
            raise ValueError(f"characteristic must be a prime other than 2 and 3, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.p, self.m = p, m
        self.modulus = _least_irreducible(p, m)
        self.zero: Element = (0,) * m
        w = (m * (p - 1) ** 2).bit_length()
        # slots for the m - 1 conjugates, and at least the one image of ``times``
        self._shifts = range(0, w * m * max(m - 1, 1), w)
        self._mask = (1 << w) - 1
        # row i packs sigma^k(x^i) = sigma^k(x)^i, with sigma^k(x) = sigma^(k-1)(x)^p
        x = (0, 1, *self.zero)[:m]
        self._fold = fold = _fold(self.modulus, p)
        rows = [[] for _ in range(m)]
        for _ in range(m - 1):
            x, power = _ppowmod(x, p, fold, p), (1, *self.zero[1:])
            for row in rows:
                row.append(power)
                power = _mulmod(power, x, fold, p)
        self._conj = tuple(map(self._pack, rows))

    def _pack(self, images: Sequence[Sequence[int]]) -> int:
        """One table row: the coefficients of the images, in consecutive slots."""
        return sum(d << s for d, s in zip(itertools.chain(*images), self._shifts))

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
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a: Element, b: Element) -> Element:
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def mul(self, a: Element, b: Element) -> Element:
        """a b.  When a or b lies in F_p, the other is scaled coefficient
        by coefficient, with no product of polynomials; otherwise one
        packed product by ``_mulmod`` on the field's fold."""
        p = self.p
        if not any(a[1:]):
            c = a[0]
            return tuple([c * y % p for y in b])
        if not any(b[1:]):
            c = b[0]
            return tuple([c * x % p for x in a])
        return _mulmod(a, b, self._fold, p)

    def inv(self, a: Element) -> Element:
        """1 / a, by extended Euclid against the modulus.  An element c of
        F_p takes no division step: its inverse is the final scale c^(p-2)."""
        if a == self.zero:
            raise ZeroDivisionError("inversion of 0")
        # the modulus is irreducible, so every nonzero a is invertible
        return _pinv(a, self.modulus, self.p)

    def conjugates(self, a: Element) -> tuple[Element, ...]:
        """(a, a^p, ..., a^(p^(m-1))), every Galois conjugate of a, read
        from the slots of one packed product.  Frobenius fixes F_p, so an
        element of F_p is its own conjugates without the product."""
        if not any(a[1:]):
            return (a,) * self.m
        digits = iter(_slots(self._conj, a, self.p, self._mask, self._shifts))
        return (a,) + tuple(zip(*[digits] * self.m))

    def degree(self, a: Element) -> int:
        """The size of a's conjugate orbit: its degree over F_p, the least
        k | m with sigma^k(a) = a (Lidl and Niederreiter, Finite Fields,
        Sec. 2.1).  One packed product with the conjugate table, as in
        ``conjugates``; then for each divisor k of m in ascending order the
        slots of sigma^k(a) are read until one differs from a.  Frobenius
        moves every element outside F_p, so k = 1 is not read, and an
        element of F_p has degree 1 without the product."""
        if not any(a[1:]):
            return 1
        m, p, mask = self.m, self.p, self._mask
        w = mask.bit_length()
        packed = sum(map(operator.mul, a, self._conj))
        for k in range(2, m):
            if m % k:
                continue
            block = packed >> (k - 1) * m * w
            for d in a:
                if (block & mask) % p != d:
                    break
                block >>= w
            else:
                return k
        return m

    def frobenius(self, a: Element) -> Element:
        """x -> x^p, the canonical generator of the Galois group."""
        return self.conjugates(a)[1 % self.m]

    def regular(self, c: Element) -> list[Element]:
        """c, c x, ..., c x^(m-1), the rows of the regular representation of
        c.  Each row is ``_times_x`` of the one before: one shift and one
        multiple of the modulus, no packed product."""
        f, p = self.modulus, self.p
        rows = [c]
        for _ in range(self.m - 1):
            rows.append(_times_x(rows[-1], f, p))
        return rows

    def multiplier(self, c: Element) -> tuple[int, ...]:
        """The packed table of x -> c x for ``times``: row i holds c x^i."""
        return tuple(self._pack([v]) for v in self.regular(c))

    def times(self, table: tuple[int, ...], a: Element) -> Element:
        """c a, for the table of c from ``multiplier``: one packed product
        in place of a dense ``mul``."""
        return tuple(_slots(table, a, self.p, self._mask, self._shifts[:self.m]))

    def basis(self) -> list[Element]:
        """1, x, ..., x^(m-1), the F_p-basis the coefficient tuples are in."""
        m = self.m
        return [(0,) * i + (1,) + (0,) * (m - 1 - i) for i in range(m)]

    def random_element(self, rng: random.Random) -> Element:
        """The m coefficients, drawn by ``_residues``, the one residue loop."""
        return tuple(_residues(rng, self.p, self.m))


@lru_cache(maxsize=None)
def field(p: int, m: int) -> FiniteField:
    """Interned field instances; equal parameters share one object."""
    return FiniteField(p, m)
