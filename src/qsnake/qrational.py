"""q-deformed rationals by four independent routes, plus continued-fraction utilities.

A rational r/s >= 1 with continued fraction [a1, ..., ak] deforms into a
reduced fraction of monic polynomials with positive integer coefficients.
The four routes implemented here are:

* ``q_cf_eval``      -- bottom-up evaluation of the deformed nested fraction,
* ``q_matrix_eval``  -- 2x2 matrix products of the deformed generators,
* ``q_continuant``   -- tridiagonal determinant (numerator only),
* ``q_map_general``  -- the recurrences [x+1] = q[x] + 1, [-1/x] = -1/(q[x]).

``all_routes`` runs all four on one continued fraction and compares them.

Every route but the continuant is a recurrence on the pair (num, den) and
applies exactly the steps listed here, each a matrix M whose determinant is
a monomial, a unit of Z[q, 1/q].  The matrix route multiplies its word on
the right by R^n = [[q^n, [n]], [0, 1]] or L^n = [[q^n, 0], [q[n], 1]],
updating the two columns.  The nested step sends (num, den) to M (num, den)
with M = [[ [a]_{q^{+-1}}, q^{+-a} ], [1, 0]]; the recurrence steps are
[[q^a, [a]], [0, 1]], [[0, -1], [q, 0]] and [[1, -[m]], [0, q^m]].  No route
needs a gcd: a common factor of the new pair divides det M times the old
pair, so the pair stays coprime from its start ([a], 1) or ([n], 1), and the
columns of a word of determinant q^(a1 + ... + ak) are coprime.  Each route
returns a ``LaurentFraction``, whose constructor fixes the remaining unit:
the denominator has min_deg 0 and a positive lowest coefficient.

The matrix route runs its own arithmetic: it evaluates the word at
q = 2^B, each entry one int whose B-bit slots are its coefficients, so a
product by [n]_q is a few shift-adds of ints.  Every other product by
[n]_q, on the other routes and in the Fibonacci families, goes through
``LaurentPoly.times_qint``, with [n]_{1/q} = q^(1-n) [n]_q as a shift.  So
the matrix route agreeing with the others compares two kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import ONE, ZERO, LaurentFraction, LaurentPoly

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
    num, den = cf[-1], 1
    for a in reversed(cf[:-1]):
        num, den = a * num + den, num
    return Fraction(num, den)


def cf_even_form(cf: CF) -> CF:
    """Equivalent expansion of even length, via [.., ak] = [.., ak - 1, 1]."""
    if len(cf) % 2 == 0:
        return cf
    if cf[-1] >= 2:
        return cf[:-1] + (cf[-1] - 1, 1)
    if len(cf) >= 2:
        return cf[:-2] + (cf[-2] + 1,)
    # the integer 1: the even form [0, 1] keeps the value with a leading zero
    return (0, 1)


def q_int(n: int) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if n == 0:
        return ZERO
    return LaurentPoly(0, (1,) * n)


# -- matrix route ------------------------------------------------------------

@dataclass(frozen=True)
class QMatrix:
    """2x2 matrix of Laurent polynomials (row major a, b, c, d)."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly


# Slot widths, in bytes, that memoryview.cast reads as unsigned ints.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def cf_matrix_word(cf: CF) -> QMatrix:
    """
    Product R^a1 L^a2 R^a3 ... over the coefficients (R on odd positions) of
    the deformed generators R = [[q, 1], [0, 1]] and L = [[q, 0], [q, 1]].
    Right multiplication by R^n = [[q^n, [n]], [0, 1]] or by
    L^n = [[q^n, 0], [q[n], 1]] is applied as an update of the two columns.

    The entries are tracked as ints, the word evaluated at q = 2^B
    (Kronecker substitution): a product by q^k is a shift by kB bits.  Every
    coefficient of every prefix is nonnegative and at most the largest
    entry at q = 1, because the updates only add, so slots of
    ``_slot_bytes`` of that bound never carry.
    """
    a, b, c, d = 1, 0, 0, 1
    for i, n in enumerate(cf):
        if n < 0:
            raise ValueError(f"the word needs quotients >= 0, got {n}")
        if i % 2 == 0:
            b, d = a * n + b, c * n + d
        else:
            a, c = a + b * n, c + d * n
    width = _slot_bytes(max(a, b, c, d))
    bits = 8 * width
    a, b, c, d = 1, 0, 0, 1
    for i, n in enumerate(cf):
        if i % 2 == 0:
            a, b = a << n * bits, _times_qint(a, n, bits) + b
            c, d = c << n * bits, _times_qint(c, n, bits) + d
        else:
            a = (a << n * bits) + (_times_qint(b, n, bits) << bits)
            c = (c << n * bits) + (_times_qint(d, n, bits) << bits)
    return QMatrix(*[_unpack(x, width) for x in (a, b, c, d)])


def _slot_bytes(bound: int) -> int:
    """
    Bytes per slot for coefficients in 0..bound: the whole bytes of bound,
    rounded up to 1, 2, 4 or 8 when that is at most 8.
    """
    width = (bound.bit_length() + 7) // 8
    return next((w for w in _SLOT_FORMATS if w >= width), width)


def _times_qint(x: int, n: int, bits: int) -> int:
    """x [n]_q at q = 2^bits, by doubling: x[2m] = x[m] + q^m x[m], x[m+1] = q x[m] + x."""
    if n == 0:
        return 0
    acc, shift = x, bits  # acc = x[m], shift = m bits
    for bit in bin(n)[3:]:
        acc += acc << shift
        shift *= 2
        if bit == "1":
            acc = (acc << bits) + x
            shift += bits
    return acc


def _unpack(x: int, width: int) -> LaurentPoly:
    """The polynomial whose coefficients are the width-byte slots of x."""
    if not x:
        return ZERO
    bits = 8 * width
    low = ((x & -x).bit_length() - 1) // bits  # the zero slots at the bottom
    x >>= low * bits
    size = -(-x.bit_length() // bits) * width
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        raw = x.to_bytes(size, "little")
        from_bytes = int.from_bytes
        return LaurentPoly(low, [from_bytes(raw[i:i + width], "little")
                                 for i in range(0, size, width)])
    # cast reads the host's byte order, so the bytes are written in it
    from sys import byteorder
    coeffs = memoryview(x.to_bytes(size, byteorder)).cast(fmt).tolist()
    if byteorder == "big":
        coeffs.reverse()
    return LaurentPoly(low, coeffs)


def q_matrix_eval(cf: CF) -> LaurentFraction:
    """
    Matrix route.  For even length the first column of the word is
    (q*num, q*den), whose common q the fraction's normalization drops; for
    odd length the second column is (num, den) directly.
    """
    m = cf_matrix_word(cf)
    if len(cf) % 2 == 0:
        return LaurentFraction(m.a, m.c)
    return LaurentFraction(m.b, m.d)


# -- nested-fraction route -----------------------------------------------------

def q_cf_eval(cf: CF) -> LaurentFraction:
    """
    Evaluate the deformed nested fraction bottom-up in the fraction field.

    Odd positions contribute [a]_q with numerator prefactor q^a over the tail;
    even positions contribute [a]_{1/q} with prefactor q^-a.  The result is
    reduced by construction (see the module docstring).
    """
    k, a = len(cf), cf[-1]
    num, den = (q_int(a).shifted(1 - a) if k % 2 == 0 else q_int(a)), ONE
    for i in range(k - 1, 0, -1):
        a = cf[i - 1]
        # an even position has [a]_{1/q} = q^(1-a) [a]_q and prefactor q^-a
        shift, pre = (0, a) if i % 2 == 1 else (1 - a, -a)
        num, den = num.times_qint(a).shifted(shift) + den.shifted(pre), num
    return LaurentFraction(num, den)


# -- continuant route ----------------------------------------------------------

def continuant_det(cf: CF) -> LaurentPoly:
    """
    Determinant of the tridiagonal matrix with diagonal [a1]_q, [a2]_{1/q}, ...
    superdiagonal -1 and subdiagonal q^a1, q^-a2, q^a3, ....  Expanding along
    the last row gives the three-term recurrence used here.
    """
    prev2, prev = ONE, q_int(cf[0])
    for i in range(2, len(cf) + 1):
        a, a_prev = cf[i - 1], cf[i - 2]
        # an even position has [a]_{1/q} = q^(1-a) [a]_q and subdiagonal q^a_prev
        shift, sub_exp = (0, -a_prev) if i % 2 == 1 else (1 - a, a_prev)
        prev2, prev = prev, prev.times_qint(a).shifted(shift) + prev2.shifted(sub_exp)
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
    # Descend on x = p/d to an integer with one step per floor a of x, then
    # undo the steps innermost first.  Each step has determinant 1, so the
    # pair stays coprime with d > 0.  A loop, so deep continued fractions
    # cannot exhaust the interpreter's recursion limit.
    p, d = x.numerator, x.denominator
    steps = []
    while d != 1:
        a = p // d
        steps.append(a)
        # a > 0: x - a in (0, 1); a == 0: -1/x < -1; a < 0: x - a in (0, 1)
        if a == 0:
            p, d = -d, p
        else:
            p -= a * d
    # The ascent holds num = sn N and den = sd D with the signs sn, sd apart,
    # so that no step negates a polynomial.  [-m] = -q^-m [m]
    sn, sd = (1 if p >= 0 else -1), 1
    N, D = q_int(abs(p)).shifted(min(p, 0)), ONE
    for a in reversed(steps):
        if a > 0:
            # [x] = q^a [x - a] + [a]
            term = D.times_qint(a)
            N = N.shifted(a) + term if sn == sd else N.shifted(a) - term
        elif a == 0:
            # x in (0, 1): [x] = -1/(q [-1/x])
            N, D, sn, sd = D, N.shifted(1), -sd, sn
        else:
            # x < 0 with m = -a: [x] = ([x + m] - [m]) / q^m
            term = D.times_qint(-a)
            N = N - term if sn == sd else N + term
            D = D.shifted(-a)
    # the fraction wants a positive lowest denominator coefficient: settle
    # the signs here, so that it negates nothing more
    if sd * D.coeffs[0] < 0:
        sn, sd = -sn, -sd
    return LaurentFraction(N if sn > 0 else -N, D if sd > 0 else -D)


# -- the public map ------------------------------------------------------------

def q_rational(r: int, s: int) -> LaurentFraction:
    """The deformation of r/s >= 1, computed by the matrix route (authoritative)."""
    return q_matrix_eval(cf_expand(r, s))


@dataclass(frozen=True)
class RouteTable:
    """
    Every route to one deformed rational: the full fractions keyed by route
    name (``matrix``, ``nested-fraction``, ``recurrence-map``), the
    continuant numerator, and whether they all agree exactly.
    """

    fractions: dict[str, LaurentFraction]
    continuant: LaurentPoly
    agree: bool


def all_routes(cf: CF) -> RouteTable:
    """Compute [r/s]_q by every route from the continued fraction of r/s and compare."""
    matrix = q_matrix_eval(cf)
    fractions = {
        "matrix": matrix,
        "nested-fraction": q_cf_eval(cf),
        "recurrence-map": q_map_general(cf_value(cf)),
    }
    continuant = q_continuant(cf)
    agree = (all(v == matrix for v in fractions.values())
             and continuant == matrix.num)
    return RouteTable(fractions, continuant, agree)


# -- Fibonacci family ----------------------------------------------------------

def fibonacci_families(n: int) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """
    The numerator and denominator families of the deformed ratios of
    consecutive Fibonacci numbers at every index 0 .. n, from one run of
    each: the deformation of F(k+1)/F(k) is nums[k+1] / dens[k].

    Both families satisfy p(k+2) = [3]_q p(k) - q^2 p(k-2); they are mirrors
    of each other: nums[k] = q^(k-2) * dens[k](1/q) for k >= 2.
    """
    den = _fib_family(n, [ONE, ONE, q_int(2), q_int(3)])
    # mirror-consistent seed at index 1 is q^-1; index 1 is reported as 1
    num = _fib_family(n, [LaurentPoly.monomial(-1), ONE, q_int(2), q_int(3)])
    return [ONE, ONE] + num[1:], [ONE] + den


def _fib_family(n: int, seeds: list[LaurentPoly]) -> list[LaurentPoly]:
    """A family at indices 1 .. n: its seeds, then the recurrence."""
    vals = list(seeds)
    for k in range(5, n + 1):
        vals.append(vals[k - 3].times_qint(3) - vals[k - 5].shifted(2))
    return vals[:n]


def fibonacci_number(n: int) -> int:
    """Classical Fibonacci numbers with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
