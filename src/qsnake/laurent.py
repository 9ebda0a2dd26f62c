"""Exact Laurent polynomials in one variable q over arbitrary-precision integers."""

from __future__ import annotations

import math
from operator import add
from typing import Iterator, Sequence


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

    __slots__ = ("min_deg", "coeffs")

    def __init__(self, min_deg: int = 0, coeffs: Sequence[int] = ()):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            min_deg += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        _set_min_deg(self, min_deg if lo < hi else 0)
        # a list is copied once, and a tuple not at all, when nothing is trimmed
        _set_coeffs(self, tuple(coeffs if hi - lo == len(coeffs) else coeffs[lo:hi]))

    def __setattr__(self, name, value=None):
        # __init__ sets each slot by its own setter; the other records share this
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self.min_deg == other.min_deg and self.coeffs == other.coeffs
                if other.__class__ is LaurentPoly else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.min_deg, self.coeffs))

    def __reduce__(self):
        return LaurentPoly, (self.min_deg, self.coeffs)

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

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_deg + i, c

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
        return self + -other

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


_set_min_deg, _set_coeffs = LaurentPoly.min_deg.__set__, LaurentPoly.coeffs.__set__
ZERO = LaurentPoly()
ONE = LaurentPoly(0, (1,))


# -- polynomial gcd ---------------------------------------------------------

def _primitive(p: Sequence[int]) -> list[int]:
    c = math.gcd(*p)
    return [x // c for x in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """
    A pseudo-remainder of a by b, for deg a >= deg b: lc(b)^k a mod b, k
    the number of leading terms cancelled.  The gcd keeps only its primitive
    part, which does not depend on k.
    """
    lb, rem = b[-1], list(a)
    while len(rem) >= len(b):
        lead = rem.pop()
        k = len(rem) - len(b) + 1
        rem = [lb * c for c in rem]
        for j, bc in enumerate(b[:-1]):
            rem[k + j] -= lead * bc
        while rem and not rem[-1]:
            rem.pop()
    return rem


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """
    Canonical gcd of two Laurent polynomials, by the primitive PRS on their
    coefficients: min_deg 0, a positive leading coefficient, and the gcd of
    all the coefficients as its content.  Monomials are units in Z[q, 1/q],
    so they never enter; the gcd of two zeros is zero.

    >>> laurent_gcd(LaurentPoly(-1, (2, 2)), LaurentPoly(3, (-4, 0, 4)))
    LaurentPoly('2 + 2q')
    """
    c = math.gcd(*a.coeffs, *b.coeffs)
    if not c:
        return ZERO
    A, B = sorted((_primitive(a.coeffs), _primitive(b.coeffs)), key=len, reverse=True)
    while B:
        A, B = B, _primitive(_pseudo_rem(A, B))
    return LaurentPoly(0, [c * x for x in A] if A[-1] > 0 else [-c * x for x in A])


class LaurentFraction:
    """
    A quotient of Laurent polynomials, normalized so the denominator has
    min_deg 0 and a positive lowest coefficient; the one fraction type, which
    every route to a deformed rational returns.  The projective infinity is
    the single admissible zero-denominator value 1/0.
    """

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero() and num != ONE:
            raise ZeroDivisionError("only the canonical infinity 1/0 may have a zero denominator")
        if den.min_deg:
            num, den = num.shifted(-den.min_deg), den.shifted(-den.min_deg)
        if den.coeffs and den.coeffs[0] < 0:  # the infinity 1/0 is left as it is
            num, den = -num, -den
        vars(self).update(num=num, den=den)

    __setattr__ = __delattr__ = LaurentPoly.__setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is LaurentFraction else NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"LaurentFraction(num={self.num!r}, den={self.den!r})"

    @classmethod
    def infinity(cls) -> LaurentFraction:
        return cls(ONE, ZERO)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"
