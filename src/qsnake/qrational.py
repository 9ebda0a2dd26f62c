"""q-deformed rationals by four independent routes, plus continued-fraction utilities.

A rational r/s >= 1 with continued fraction [a1, ..., ak] deforms into a
reduced fraction of monic polynomials with positive integer coefficients.
The four routes implemented here are:

* ``q_cf_eval``      -- bottom-up evaluation of the deformed nested fraction,
* ``q_matrix_eval``  -- 2x2 matrix products of the deformed generators,
* ``q_continuant``   -- tridiagonal determinant (numerator only),
* ``q_map_general``  -- the recurrences [x+1] = q[x] + 1, [-1/x] = -1/(q[x]).

``all_routes`` runs all four on one continued fraction and compares them.

The nested-fraction and recurrence routes need no gcd: each step sends
(num, den) to M (num, den) for a matrix M whose determinant is a monomial,
a unit of Z[q, 1/q].  The nested step is [[ [a]_{q^{+-1}}, q^{+-a} ], [1, 0]];
the recurrence steps are [[q^a, [a]], [0, 1]], [[0, -1], [q, 0]] and
[[1, -[m]], [0, q^m]].  A common factor of the new pair divides det M times
the old pair, so the pair stays coprime from its start ([a], 1) or ([n], 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import ONE, Q, ZERO, LaurentFraction, LaurentPoly

CF = tuple[int, ...]


# -- continued fractions -----------------------------------------------------

def cf_expand(r: int, s: int) -> CF:
    """
    Canonical regular continued fraction of r/s >= 1 with coprime r, s.

    The Euclidean algorithm yields [a1, ..., ak] with ak >= 2 unless k == 1.
    """
    if s < 1 or r < s:
        raise ValueError(f"need r >= s >= 1, got {r}/{s}")
    if math.gcd(r, s) != 1:
        raise ValueError(f"{r}/{s} is not in lowest terms")
    out = []
    while s:
        out.append(r // s)
        r, s = s, r % s
    return tuple(out)


def cf_value(cf: CF) -> Fraction:
    """The rational value of a continued fraction."""
    val = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        val = a + 1 / val
    return val


def _parity_form(cf: CF, want_odd: bool) -> CF:
    if len(cf) % 2 == (1 if want_odd else 0):
        return cf
    if cf[-1] >= 2:
        return cf[:-1] + (cf[-1] - 1, 1)
    if len(cf) >= 2:
        return cf[:-2] + (cf[-2] + 1,)
    # the integer 1: the even form [0, 1] keeps the value with a leading zero
    return (0, 1)


def cf_even_form(cf: CF) -> CF:
    """Equivalent expansion of even length, via [.., ak] = [.., ak - 1, 1]."""
    return _parity_form(cf, want_odd=False)


def cf_odd_form(cf: CF) -> CF:
    """Equivalent expansion of odd length."""
    return _parity_form(cf, want_odd=True)


def q_int(n: int, inverted: bool = False) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(n-1); with q -> 1/q when inverted."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if n == 0:
        return ZERO
    p = LaurentPoly(0, (1,) * n)
    return p.subs_q_inv() if inverted else p


# -- the deformed fraction -----------------------------------------------------

@dataclass(frozen=True)
class QRational:
    """Reduced numerator/denominator pair of a deformed rational."""

    num: LaurentPoly
    den: LaurentPoly

    def at_one(self) -> tuple[int, int]:
        return self.num.eval_at_one(), self.den.eval_at_one()

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# -- matrix route ------------------------------------------------------------

@dataclass(frozen=True)
class QMatrix:
    """2x2 matrix of Laurent polynomials (row major a, b, c, d)."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    def __mul__(self, o: QMatrix) -> QMatrix:
        return QMatrix(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                       self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> QMatrix:
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def r_power(cls, n: int) -> QMatrix:
        """n-th power of the deformed upper generator [[q, 1], [0, 1]]."""
        return cls(LaurentPoly.monomial(n), q_int(n), ZERO, ONE)

    @classmethod
    def l_power(cls, n: int) -> QMatrix:
        """n-th power of the deformed lower generator [[q, 0], [q, 1]]."""
        qn = LaurentPoly.monomial(n)
        return cls(qn, ZERO, Q * q_int(n), ONE)


def cf_matrix_word(cf: CF) -> QMatrix:
    """Product R^a1 L^a2 R^a3 ... over the coefficients (R on odd positions)."""
    m = QMatrix.identity()
    for i, a in enumerate(cf):
        m = m * (QMatrix.r_power(a) if i % 2 == 0 else QMatrix.l_power(a))
    return m


def q_matrix_eval(cf: CF) -> QRational:
    """
    Matrix route.  For even length the first column of the word is
    (q*num, q*den); for odd length the second column is (num, den) directly.
    """
    m = cf_matrix_word(cf)
    if len(cf) % 2 == 0:
        return QRational(m.a.div_exact(Q), m.c.div_exact(Q))
    return QRational(m.b, m.d)


# -- nested-fraction route -----------------------------------------------------

def q_cf_eval(cf: CF) -> QRational:
    """
    Evaluate the deformed nested fraction bottom-up in the fraction field.

    Odd positions contribute [a]_q with numerator prefactor q^a over the tail;
    even positions contribute [a]_{1/q} with prefactor q^-a.  The result is
    reduced by construction (see the module docstring).
    """
    k = len(cf)
    num, den = _level_bracket(cf[-1], k), ONE
    for i in range(k - 1, 0, -1):
        a, odd = cf[i - 1], (i % 2 == 1)
        prefactor = LaurentPoly.monomial(a if odd else -a)
        num, den = _level_bracket(a, i) * num + prefactor * den, num
    return canonical_fraction(LaurentFraction(num, den))


def _level_bracket(a: int, position: int) -> LaurentPoly:
    return q_int(a, inverted=(position % 2 == 0))


def canonical_fraction(frac: LaurentFraction) -> QRational:
    """The min-degree normalization under which the routes are compared."""
    num, den = frac.num, frac.den
    shift = min(num.min_deg, den.min_deg) if not num.is_zero() else den.min_deg
    return QRational(num.shifted(-shift), den.shifted(-shift))


# -- continuant route ----------------------------------------------------------

def continuant_det(cf: CF) -> LaurentPoly:
    """
    Determinant of the tridiagonal matrix with diagonal [a1]_q, [a2]_{1/q}, ...
    superdiagonal -1 and subdiagonal q^a1, q^-a2, q^a3, ....  Expanding along
    the last row gives the three-term recurrence used here.
    """
    prev2, prev = ONE, _level_bracket(cf[0], 1)
    for i in range(2, len(cf) + 1):
        a_prev = cf[i - 2]
        sub = LaurentPoly.monomial(a_prev if (i - 1) % 2 == 1 else -a_prev)
        prev2, prev = prev, _level_bracket(cf[i - 1], i) * prev + sub * prev2
    return prev


def q_continuant(cf: CF) -> LaurentPoly:
    """
    The numerator polynomial via the continuant.  The raw determinant equals
    the numerator up to a power of q; normalizing its lowest term to degree 0
    recovers the monic positive numerator exactly.
    """
    det = continuant_det(cf)
    return det.shifted(-det.min_deg)


# -- recurrence route ----------------------------------------------------------

def q_map_general(x) -> LaurentFraction:
    """
    The equivariant deformation of an arbitrary rational (or infinity),
    computed from [0] = 0 with the two recurrences

        [x + 1] = q [x] + 1        [-1/x] = -1 / (q [x]).

    Infinity is represented by the canonical fraction 1/0.  Termination
    follows from the Euclidean descent of denominators.  The result is
    reduced by construction (see the module docstring).
    """
    if x == math.inf:
        return LaurentFraction.infinity()
    x = Fraction(x)
    # Descend to an integer with one step per floor a of x, then undo the
    # steps innermost first.  A loop, so deep continued fractions cannot
    # exhaust the interpreter's recursion limit.
    steps = []
    while x.denominator != 1:
        a = x.numerator // x.denominator
        steps.append(a)
        # a > 0: x - a in (0, 1); a == 0: -1/x < -1; a < 0: x - a in (0, 1)
        x = -1 / x if a == 0 else x - a
    n = x.numerator
    if n >= 0:
        val = LaurentFraction.from_poly(q_int(n))
    else:
        # [-m] = -q^-m [m]
        val = LaurentFraction.from_poly(LaurentPoly.monomial(n, -1) * q_int(-n))
    for a in reversed(steps):
        if a > 0:
            # [x] = q^a [x - a] + [a]
            val = val.scaled(LaurentPoly.monomial(a)) + LaurentFraction.from_poly(q_int(a))
        elif a == 0:
            # x in (0, 1): [x] = -1/(q [-1/x])
            val = -(val.scaled(Q).reciprocal())
        else:
            # x < 0 with m = -a: [x] = ([x + m] - [m]) / q^m
            unshift = val - LaurentFraction.from_poly(q_int(-a))
            val = LaurentFraction(unshift.num, unshift.den * LaurentPoly.monomial(-a))
    return val


# -- the public map ------------------------------------------------------------

def q_rational(r: int, s: int) -> QRational:
    """The deformation of r/s >= 1, computed by the matrix route (authoritative)."""
    return q_matrix_eval(cf_expand(r, s))


@dataclass(frozen=True)
class RouteTable:
    """
    Every route to one deformed rational: the full fractions keyed by route
    name (``matrix``, ``nested-fraction``, ``recurrence-map``), the
    continuant numerator, and whether they all agree exactly.
    """

    fractions: dict[str, QRational]
    continuant: LaurentPoly
    agree: bool


def all_routes(cf: CF) -> RouteTable:
    """Compute [r/s]_q by every route from the continued fraction of r/s and compare."""
    matrix = q_matrix_eval(cf)
    fractions = {
        "matrix": matrix,
        "nested-fraction": q_cf_eval(cf),
        "recurrence-map": canonical_fraction(q_map_general(cf_value(cf))),
    }
    continuant = q_continuant(cf)
    agree = (all(v == matrix for v in fractions.values())
             and continuant == matrix.num)
    return RouteTable(fractions, continuant, agree)


# -- Fibonacci family ----------------------------------------------------------

def fibonacci_polys(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """
    The pair (numerator-family, denominator-family) polynomial of index n for
    the deformed ratios of consecutive Fibonacci numbers: the deformation of
    F(n+1)/F(n) equals numerator-family(n+1) / denominator-family(n).

    Both families satisfy p(n+2) = [3]_q p(n) - q^2 p(n-2); they are mirrors
    of each other: numerator(n) = q^(n-2) * denominator(n)(1/q) for n >= 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ONE, ONE
    den_seeds = [ONE, ONE, q_int(2), q_int(3)]
    # mirror-consistent seed at index 1 is q^-1; index 1 is reported as 1
    num_seeds = [LaurentPoly.monomial(-1), ONE, q_int(2), q_int(3)]
    den = _fib_family(n, den_seeds)
    num = ONE if n == 1 else _fib_family(n, num_seeds)
    return num, den


def _fib_family(n: int, seeds: list[LaurentPoly]) -> LaurentPoly:
    if n <= 4:
        return seeds[n - 1]
    three = q_int(3)
    qsq = LaurentPoly.monomial(2)
    vals = list(seeds)
    for k in range(5, n + 1):
        vals.append(three * vals[k - 3] - qsq * vals[k - 5])
    return vals[n - 1]


def fibonacci_number(n: int) -> int:
    """Classical Fibonacci numbers with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
