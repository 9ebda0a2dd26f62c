"""Exact Laurent polynomials in one variable q over arbitrary-precision integers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import add, sub
from typing import Iterator, Sequence


@dataclass(init=False, unsafe_hash=True)
class LaurentPoly:
    """
    A Laurent polynomial with integer coefficients, stored as a valuation
    ``min_deg`` and a dense coefficient tuple: ``coeffs[i]`` is the coefficient
    of ``q**(min_deg + i)``.  Canonical form: the first and last coefficients
    are nonzero; the zero polynomial is ``min_deg == 0`` with an empty tuple.

    >>> LaurentPoly(-1, (1, 2, 1, 1))
    LaurentPoly('q^-1 + 2 + q + q^2')
    >>> LaurentPoly(0, (0, 1)) == LaurentPoly(1, (1,))
    True
    >>> LaurentPoly.monomial(-1) * LaurentPoly(0, (1, 2, 1, 1))
    LaurentPoly('q^-1 + 2 + q + q^2')
    """

    min_deg: int
    coeffs: tuple[int, ...]

    def __init__(self, min_deg: int = 0, coeffs: Sequence[int] = ()):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            min_deg += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.min_deg = 0
            self.coeffs = ()
        else:
            self.min_deg = min_deg
            # a list is copied once, and a tuple not at all, when nothing is trimmed
            self.coeffs = tuple(coeffs if hi - lo == len(coeffs) else coeffs[lo:hi])

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> LaurentPoly:
        """The monomial ``coeff * q**exp``."""
        return cls(exp, (coeff,))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def top_deg(self) -> int:
        """Degree of the highest term (garbage -1 for the zero polynomial)."""
        return self.min_deg + len(self.coeffs) - 1

    def coefficient(self, exp: int) -> int:
        i = exp - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_deg + i, c

    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if c) == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = (self, other) if self.min_deg <= other.min_deg else (other, self)
        lo = b.min_deg - a.min_deg
        hi = lo + len(b.coeffs)
        out = list(a.coeffs)
        out += [0] * (hi - len(out))
        out[lo:hi] = map(add, out[lo:hi], b.coeffs)
        return LaurentPoly(a.min_deg, out)

    def __neg__(self) -> LaurentPoly:
        # tuple() of a list is made at its final size; of a generator it is
        # resized, and the resized tuples pile up in CPython's tuple free lists
        return LaurentPoly(self.min_deg, tuple([-c for c in self.coeffs]))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        # self's coefficients, padded below to start at the lower valuation
        gap = self.min_deg - other.min_deg
        out = [0] * gap
        out += self.coeffs
        lo = max(-gap, 0)
        hi = lo + len(other.coeffs)
        out += [0] * (hi - len(out))
        out[lo:hi] = map(sub, out[lo:hi], other.coeffs)
        return LaurentPoly(min(self.min_deg, other.min_deg), out)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.min_deg, [other * c for c in self.coeffs])
        # schoolbook; a zero factor leaves out empty or all zeros
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LaurentPoly(self.min_deg + other.min_deg, out)

    __rmul__ = __mul__

    def times_qint(self, n: int) -> LaurentPoly:
        """
        Multiply by the q-integer [n]_q = 1 + q + ... + q^(n-1), through
        ``times_qint_add``.

        >>> LaurentPoly(-1, (1, -2)).times_qint(3)
        LaurentPoly('q^-1 - 1 - q - 2q^2')
        """
        if n == 1:
            return self
        low, out = times_qint_add(self.coeffs, n)
        return LaurentPoly(self.min_deg + low, out)

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by q**k."""
        if self.is_zero():
            return self
        return LaurentPoly(self.min_deg + k, self.coeffs)

    def mirror(self, d: int) -> LaurentPoly:
        """The mirror q**d * p(1/q): coefficients reversed around degree d."""
        if self.is_zero():
            return self
        return LaurentPoly(d - self.top_deg, tuple(reversed(self.coeffs)))

    def eval_at_one(self) -> int:
        """Specialize q = 1 (the sum of all coefficients)."""
        return sum(self.coeffs)

    def div_exact(self, other: LaurentPoly) -> LaurentPoly:
        """
        Exact quotient self / other in Z[q, 1/q].

        Raises ValueError when other is zero or does not divide exactly.
        """
        if other.is_zero():
            raise ValueError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        shift = self.min_deg - other.min_deg
        rem = list(self.coeffs)
        den = other.coeffs
        if len(rem) < len(den):
            raise ValueError("not exactly divisible")
        out = [0] * (len(rem) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            lead = rem[k + len(den) - 1]
            c, r = divmod(lead, den[-1])
            if r:
                raise ValueError("not exactly divisible")
            out[k] = c
            if c:
                for j, b in enumerate(den):
                    rem[k + j] -= c * b
        if any(rem[: len(den) - 1]):
            raise ValueError("not exactly divisible")
        return LaurentPoly(shift, out)

    # -- presentation ------------------------------------------------------

    def text(self) -> str:
        """Canonical text form, terms ascending: e.g. 'q^-1 + 2 + q + q^2'."""
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self.terms():
            mono = "" if exp == 0 else ("q" if exp == 1 else f"q^{exp}")
            mag = abs(c)
            if not mono:
                body = str(mag)
            else:
                body = mono if mag == 1 else f"{mag}{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        # the first term drops its "+ ", and "- " becomes a bare minus
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"min_deg": self.min_deg, "coeffs": list(self.coeffs)}

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.text()}')"


ZERO = LaurentPoly()
ONE = LaurentPoly(0, (1,))
Q = LaurentPoly.monomial(1)


def times_qint_add(p: Sequence[int], n: int, e: Sequence[int] = (), k: int = 0,
                   sign: int = 1) -> tuple[int, list[int]]:
    """
    The product by the q-integer [n]_q, with an addend: p [n]_q + sign q^k e
    for coefficient sequences p and e read from degree 0, n >= 0 and sign
    +1 or -1, as (low, out), out[i] the coefficient of q^(low + i), trimmed
    at both ends; the zero polynomial is (0, []).  [1] copies p, [2] adds p
    to itself shifted by one place, and a wider [n] is a running sum of
    width n, coefficient j being S[j] - S[j-n] with S the prefix sums of p.
    The terms are chained as iterators, each padded with zeros to the whole
    span, so the one list built is the result.

    >>> times_qint_add([1, 2], 3, [5], -1, -1)
    (-1, [-5, 1, 3, 3, 2])
    """
    if n < 0:
        raise ValueError("times_qint needs n >= 0")
    size = len(p) + n - 1 if p and n else 0  # the span of p [n] from q^0
    lo, hi = (min(k, 0), max(size, k + len(e))) if e else (0, size)
    # each term below runs over q^lo .. q^(hi-1)
    if not size:
        terms = repeat(0, hi - lo)
    elif n <= 2:
        terms = chain(repeat(0, -lo), p, repeat(0, hi - len(p)))
        if n == 2:
            terms = map(add, terms, chain(repeat(0, 1 - lo), p, repeat(0, hi - 1 - len(p))))
    else:
        sums = [0] * (n - lo)
        sums += accumulate(p)
        sums += [sums[-1]] * (hi - len(p))
        terms = map(sub, islice(sums, n, None), sums)
    if e:
        terms = map(add if sign > 0 else sub, terms,
                    chain(repeat(0, k - lo), e, repeat(0, hi - k - len(e))))
    out = list(terms)
    while out and not out[-1]:
        out.pop()
    if not out:
        return 0, out
    i = 0
    while not out[i]:
        i += 1
    return (lo + i, out[i:]) if i else (lo, out)


# -- polynomial gcd ---------------------------------------------------------

def _trimmed(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _content(p: Sequence[int]) -> int:
    """Nonnegative gcd of the coefficients (0 for no nonzero coefficient)."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return g


def _primitive(p: Sequence[int]) -> list[int]:
    c = _content(p)
    if c == 0:
        return []
    return [x // c for x in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) = lc(b)**(deg a - deg b + 1) * a  mod  b, for deg a >= deg b."""
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    scalings = len(a) - len(b) + 1
    while rem and len(rem) - 1 >= db:
        lead = rem[-1]
        rem = [lb * c for c in rem]
        k = len(rem) - 1 - db
        for j, bc in enumerate(b):
            rem[k + j] -= lead * bc
        rem = _trimmed(rem)
        scalings -= 1
    if scalings > 0:
        rem = [lb**scalings * c for c in rem]
    return rem


def _prs_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Gcd in Z[q] of two dense coefficient lists, primitive PRS."""
    A = _trimmed(list(a))
    B = _trimmed(list(b))
    if not A:
        return _positive_lead(B)
    if not B:
        return _positive_lead(A)
    c = math.gcd(_content(A), _content(B))
    A, B = _primitive(A), _primitive(B)
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _pseudo_rem(A, B)
        A, B = B, _primitive(R)
    return [c * x for x in _positive_lead(A)]


def _positive_lead(p: list[int]) -> list[int]:
    if p and p[-1] < 0:
        return [-x for x in p]
    return p


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """
    Canonical gcd of two Laurent polynomials: the gcd of the polynomial parts
    (monomial factors stripped), normalized to min_deg 0 and positive leading
    coefficient.  Monomials are units in Z[q, 1/q] so they never enter.
    """
    return LaurentPoly(0, _prs_gcd(a.coeffs, b.coeffs))


@dataclass(frozen=True)
class LaurentFraction:
    """
    A quotient of Laurent polynomials, normalized so the denominator has
    min_deg 0 and a positive lowest coefficient; the one fraction type, which
    every route to a deformed rational returns.  The projective infinity is
    the single admissible zero-denominator value 1/0.  Full cancellation of
    common polynomial factors is done by :meth:`reduced`.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            if num == ONE:
                return
            raise ZeroDivisionError("only the canonical infinity 1/0 may have a zero denominator")
        if den.min_deg:
            num = num.shifted(-den.min_deg)
            den = den.shifted(-den.min_deg)
        if den.coeffs[0] < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def infinity(cls) -> LaurentFraction:
        return cls(ONE, ZERO)

    def is_infinity(self) -> bool:
        return self.den.is_zero()

    def reduced(self) -> LaurentFraction:
        """Cancel the polynomial gcd and the integer content gcd."""
        if self.is_infinity():
            return self
        if self.num.is_zero():
            return LaurentFraction(ZERO, ONE)
        g = laurent_gcd(self.num, self.den)
        num, den = self.num, self.den
        if not g.is_monomial() or g.coefficient(0) != 1:
            num = num.div_exact(g)
            den = den.div_exact(g)
        c = math.gcd(_content(num.coeffs), _content(den.coeffs))
        if c > 1:
            num = LaurentPoly(num.min_deg, tuple([x // c for x in num.coeffs]))
            den = LaurentPoly(den.min_deg, tuple([x // c for x in den.coeffs]))
        return LaurentFraction(num, den)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"
