"""q-deformed rationals by four routes, plus continued-fraction utilities.

A rational r/s >= 1 with continued fraction [a1, ..., ak] deforms into a
reduced fraction of monic polynomials with positive integer coefficients.
The four routes implemented here are:

* ``q_cf_eval``      -- bottom-up evaluation of the deformed nested fraction,
* ``q_matrix_eval``  -- 2x2 matrix products of the deformed generators,
* ``q_continuant``   -- tridiagonal determinant (numerator only),
* ``q_map_general``  -- the recurrences [x+1] = q[x] + 1, [-1/x] = -1/(q[x]).

``all_routes`` runs them on one continued fraction and compares them.  The
nested fraction is the matrix column with its two entries swapped at each
step (``q_cf_eval`` gives the proof), so the table computes its
nested-fraction entry as the matrix column and compares the three
computations that differ: the matrix column, the continuant and the
recurrence route.

The matrix and recurrence routes are recurrences on the pair (num, den),
each step a matrix M whose determinant is a monomial, a unit of
Z[q, 1/q].  The matrix route builds only the column of its word that it
reads: it applies R^n = [[q^n, [n]], [0, 1]] or L^n = [[q^n, 0], [q[n], 1]]
to a unit column, from the last quotient to the first.  The recurrence
steps are [[q^a, [a]], [0, 1]], [[0, -1], [q, 0]] and
[[1, -[m]], [0, q^m]].  No route needs a gcd: a common factor of the new
pair divides det M times the old pair, so the pair stays coprime from its
start: ([n], 1) on the recurrence route and a unit column on the matrix
route.  Each route returns a ``LaurentFraction``, whose constructor fixes
the remaining unit: the denominator has min_deg 0 and a positive lowest
coefficient.

Every route evaluates its polynomials at q = 2^B, each one int whose B-bit
slots are its coefficients (Kronecker substitution), so a product by q^k
is a shift by kB bits and ``_unpack`` or ``_slots`` reads the slots back
once, at the end.  Every coefficient on every route is a sum of
nonnegative terms, so it is at most its polynomial's value at q = 1; a
bound on those values sets the slot width (``_slot_bytes``), so no slot
ever carries.  The matrix column, from the last quotient to the first, and
the continuant, from the first to the last, take their one product by
[n]_q per quotient as a few shift-adds (``_times_qint``), and a q = 1 pass
over the same recurrence bounds their coefficients.  The matrix column
leaves the power q^n of each L step pending beside its first entry, so
that entry is shifted once per R step, not once per step.  No step may
shift below q^0: the continuant keeps each term's power of q as an int
beside it.  The recurrence route takes its products by [m]_q as one
multiplication by the packed q-integer (``_times_qint_mul``), and its
argument p/d bounds its coefficients by max(|p|, d), with no q = 1 pass
(see ``q_map_general``).  No step of the recurrence route subtracts: the
value at each step has the sign of that step's x, so the route keeps the
magnitudes N and D with their valuations beside them, puts the one sign on
the numerator at the end, and runs no ``LaurentPoly`` arithmetic at all.

The routes share a slot read, not a result: each computes its own ints,
and ``_slots`` keeps its last two reads.  The continuant's int equals the
matrix numerator's up to a power of q, and the recurrence route's two ints
equal the matrix column's, so the five reads of ``all_routes`` make two.
Against a fault in one product kernel the independent evidence is the
route on the other: the recurrence route against the matrix column and the
continuant, which also run in opposite directions.  The Fibonacci families
run on the ring's own operations: one family, the denominators, and its
mirror.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from struct import iter_unpack
from sys import byteorder
from typing import NamedTuple

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


def q_int(n: int) -> LaurentPoly:
    """The q-integer 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    if n == 0:
        return ZERO
    return LaurentPoly(0, (1,) * n)


# -- matrix route ------------------------------------------------------------

# Slot widths, in bytes, that memoryview.cast reads as unsigned ints.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def cf_matrix_column(cf: CF) -> tuple[LaurentPoly, LaurentPoly]:
    """
    The column of the word R^a1 L^a2 R^a3 ... (R on odd positions) of the
    deformed generators R = [[q, 1], [0, 1]] and L = [[q, 0], [q, 1]] that
    the matrix route reads: the first for even length, the second for odd.
    The generator powers are applied to the unit column e1 or e2 from the
    last quotient to the first, as R^n (x, y) = (q^n x + [n] y, y) and
    L^n (x, y) = (q^n x, q[n] x + y), one product by [n] per quotient.

    The entries are tracked as ints, the column evaluated at q = 2^B
    (Kronecker substitution): a product by q^k is a shift by kB bits.  At
    q = 1 each generator power is entrywise at least the identity and no
    entry is negative, so every suffix column G_j ... G_k e is entrywise at
    most the whole word's column; and every coefficient is nonnegative, so
    at most its polynomial's value at q = 1.  Slots of ``_slot_bytes`` of
    the largest entry of the column at q = 1 therefore never carry.

    The first entry is kept as x q^sx, its power of q pending: an L step
    adds q[n] x to y and sets sx = n, with no shift of x, and the R step
    after it shifts x once, by sx + n slots, before it adds [n] y.  The
    steps alternate, so sx is 0 at every L step and at the end, after the
    R step at i = 0.
    """
    x0, y0 = (0, 1) if len(cf) % 2 else (1, 0)
    x, y = x0, y0
    for i in reversed(range(len(cf))):
        n = cf[i]
        if n < 0:
            raise ValueError(f"the word needs quotients >= 0, got {n}")
        if i % 2 == 0:
            x += n * y
        else:
            y += n * x
    width = _slot_bytes(max(x, y))
    bits = 8 * width
    x, sx, y = x0, 0, y0  # the first entry is x q^sx
    for i in reversed(range(len(cf))):
        n = cf[i]
        if i % 2 == 0:
            x, sx = (x << (sx + n) * bits) + _times_qint(y, n, bits), 0
        else:
            # the steps alternate, so the R step before this one left sx = 0
            y += _times_qint(x, n, bits) << bits
            sx = n
    return _unpack(x, width), _unpack(y, width)


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


def _times_qint_mul(x: int, n: int, bits: int) -> int:
    """
    x [n]_q at q = 2^bits, by one multiplication: the packed [n]_q, n slots
    of 1, is built from a byte pattern, and [1] is x itself.
    """
    if n == 1:
        return x
    return x * int.from_bytes((b"\x01" + bytes(bits // 8 - 1)) * n, "little")


def _unpack(x: int, width: int) -> LaurentPoly:
    """
    The polynomial whose coefficients are the width-byte slots of x.  The
    zero slots at the bottom become the valuation, and ``_slots`` reads the
    rest.  They are counted by a one-slot mask test each, which reads only
    the slots it passes, and x is shifted down only when it has one: a
    packed int has none or one on ``compute``'s words, and ``x & -x`` or a shift by
    0 would cost a full-width pass each.  Each caller builds its own
    polynomial around the tuple it gets, with its own valuation.
    """
    if not x:
        return ZERO
    bits = 8 * width
    low, mask = 0, (1 << bits) - 1
    while not x & mask:
        low += 1
        mask <<= bits
    return LaurentPoly(low, _slots(x >> low * bits if low else x, width))


@lru_cache(maxsize=2)
def _slots(x: int, width: int) -> tuple[int, ...]:
    """
    The width-byte slots of x >= 0, lowest first, up to its top nonzero one.
    The three computations of one ``all_routes`` call pack its two
    polynomials at one width, the continuant's up to a power of q that
    ``_unpack`` strips, and read them in turn: the matrix column both, the
    recurrence route both and the continuant the numerator, so with the
    last two reads kept its five reads make two; no more are kept, so that
    a single route does not hold an earlier call's polynomials.  The key is
    the packed int itself, so a route that computed a different int reads
    it afresh.
    """
    size = -(-x.bit_length() // (8 * width)) * width
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        # one bytes object per slot, read by int.from_bytes; the format names
        # one slot, so its size does not grow with the slot count
        slots = iter_unpack(f"{width}s", x.to_bytes(size, "little"))
        return tuple(map(int.from_bytes, map(itemgetter(0), slots), repeat("little")))
    # cast reads the host's byte order, so the bytes are written in it
    coeffs = memoryview(x.to_bytes(size, byteorder)).cast(fmt).tolist()
    if byteorder == "big":
        coeffs.reverse()
    return tuple(coeffs)


def q_matrix_eval(cf: CF) -> LaurentFraction:
    """
    Matrix route.  For even length the first column of the word is
    (q*num, q*den), whose common q the fraction's normalization drops; for
    odd length the second column is (num, den) directly.
    """
    return LaurentFraction(*cf_matrix_column(cf))


# -- nested-fraction route -----------------------------------------------------

def q_cf_eval(cf: CF) -> LaurentFraction:
    """
    The deformed nested fraction, evaluated bottom-up from 1/0.

    Odd positions contribute [a]_q with numerator prefactor q^a over the tail;
    even positions contribute [a]_{1/q} = q^(1-a) [a]_q with prefactor q^-a.
    From the last quotient to the first, at the 0-based index i with quotient
    n, the pair (u, v) takes ([n] u + q^n v, u) when i is even and
    (q[n] u + v, q^n u) when i is odd: at odd i, an even position, the step
    times q^n, a common power of q that the fraction's normalization drops.

    That is the matrix column of ``cf_matrix_column`` with its two entries
    swapped at each step.  The column (x, y) takes (q^n x + [n] y, y) when i
    is even and (q^n x, q[n] x + y) when i is odd.  If (u, v) = (y, x)
    before an even step, both give the same pair after it, now with
    (u, v) = (x, y); if (u, v) = (x, y) before an odd step, the nested pair
    after it is the column swapped.  Each step swaps the pairing, and the
    start matches it: (1, 0) is e1 before the odd last index of an even
    length and e2, swapped, before the even last index of an odd length.
    After i = 0 the pairing is the identity, so the nested pair is the
    column, ints and slot width alike, and the nested fraction is computed
    as the column.
    """
    return LaurentFraction(*cf_matrix_column(cf))


# -- continuant route ----------------------------------------------------------

def continuant_det(cf: CF) -> LaurentPoly:
    """
    Determinant of the tridiagonal matrix with diagonal [a1]_q, [a2]_{1/q}, ...
    superdiagonal -1 and subdiagonal q^a1, q^-a2, q^a3, ....  Expanding along
    the last row gives the three-term recurrence

        D_i = [a_i] D_(i-1) + q^-a_(i-1) D_(i-2)               (i odd)
        D_i = q^(1-a_i) [a_i] D_(i-1) + q^a_(i-1) D_(i-2)      (i even)

    from D_-1 = 0 and D_0 = 1.  Each D_i is kept as q^c_i P_i, with c_i an
    int and P_i a polynomial packed as in ``cf_matrix_column``: c_i is the
    lower of the two terms' exponents, so neither term is shifted below
    q^0, and the determinant comes out exact.  Every coefficient is
    nonnegative, and at q = 1 the recurrence is K_i = a_i K_(i-1) + K_(i-2),
    so max(K_(i-1), K_i) never falls: the last pair at q = 1 bounds every
    coefficient on the way.  One product by [a_i] per quotient.
    """
    k2, k1 = 0, 1
    for n in cf:
        if n < 0:
            raise ValueError(f"the continuant needs quotients >= 0, got {n}")
        k2, k1 = k1, n * k1 + k2
    width = _slot_bytes(max(k2, k1))
    bits = 8 * width
    p2, c2, p1, c1 = 0, 0, 1, 0
    for i, (a_prev, a) in enumerate(zip((0, *cf), cf)):
        # the two terms' exponents; position i + 1 is odd for even i
        e1, e2 = (c1, c2 - a_prev) if i % 2 == 0 else (c1 + 1 - a, c2 + a_prev)
        # shift only the higher term: an int shifted by 0 is still copied
        term, tail = _times_qint(p1, a, bits), p2
        if e1 > e2:
            term <<= (e1 - e2) * bits
        elif e2 > e1:
            tail <<= (e2 - e1) * bits
        p2, c2, p1, c1 = p1, c1, term + tail, min(e1, e2)
    return _unpack(p1, width).shifted(c1)


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

    The ascent runs on packed ints at q = 2^B, as the matrix column does,
    with slots of ``_slot_bytes(max(|p|, d))`` for the argument p/d in
    lowest terms, and no slot ever carries.  The descent never raises
    max(|p|, d): a step x - a keeps d and leaves |p| < d, and an inversion
    takes (p, d) with |p| < d to a pair of d and |p|.  At q = 1 the ascent
    runs the same steps, unimodular maps of integer pairs, from the coprime
    pair (p, 1) where the descent ends, so at each step it holds that
    step's |p| and d exactly, in lowest terms.  Every coefficient is
    nonnegative (each step adds), so each is at most its polynomial's value
    at q = 1, at most max(|p|, d) of that step, and so at most the
    argument's.
    """
    if x == math.inf:
        return LaurentFraction.infinity()
    x = Fraction(x)
    # Descend on x = p/d to an integer with one step per integer part a of x,
    # rounded toward zero, then undo the steps innermost first.  Each step
    # has determinant 1, so the pair stays coprime with d > 0.  Rounding
    # toward zero follows the regular continued fraction, at most two steps
    # per quotient; rounding down would walk each quotient at an odd
    # position past the first one unit at a time (6000 steps for
    # [1; 1, 3000]), each step of the ascent a pass over the polynomials.  A
    # loop, so deep continued fractions cannot exhaust the interpreter's
    # recursion limit.
    p, d = x.numerator, x.denominator
    width = _slot_bytes(max(abs(p), d))
    bits = 8 * width
    steps = []
    while d != 1:
        a = p // d if p > 0 else -(-p // d)
        steps.append(a)
        # a != 0: x - a in (-1, 1); a == 0: -1/x, whose denominator |p| < d
        if a == 0:
            p, d = (-d, p) if p > 0 else (d, -p)
        else:
            p -= a * d
    # Every step adds.  The descent takes a > 0 only at x > 0, leaving
    # x - a >= 0, and a < 0 only at x < 0, leaving x + m <= 0; a = 0 sends x
    # to -1/x, of the other sign.  So the value held at each step has the
    # sign of that step's x, and the ascent holds its magnitude, |num| =
    # q^vn N and den = q^vd D, N and D packed ints whose lowest slots are
    # nonzero.  Each nonzero step is one int expression, [m] D plus a shift
    # of N, in which only the higher term is shifted; its lowest and top
    # slots are sums of positive terms, so nothing needs trimming.  The
    # sign of x goes on the numerator at the end.
    # |[-m]| = q^-m [m]
    N, vn, D, vd = _times_qint_mul(1, abs(p), bits), min(p, 0), 1, 0
    for a in reversed(steps):
        if a == 0:
            # x in (-1, 1): [x] = -1/(q [-1/x])
            N, vn, D, vd = D, vd, N, vn + 1
            continue
        # a > 0: [x] = q^a [x - a] + [a], so |num| = q^vd ([a] D + q^k N)
        # with k = vn + a - vd.  a < 0, x < 0 with m = -a: [x] = ([x + m] -
        # [m]) / q^m, both terms at most 0, so |num| = q^vd ([m] D + q^k N)
        # with k = vn - vd, and den = q^m den.
        m, k = (a, vn + a - vd) if a > 0 else (-a, vn - vd)
        term = _times_qint_mul(D, m, bits)
        # an int shifted by 0 is still copied
        if k > 0:
            N = term + (N << k * bits)
        elif k < 0:
            N = (term << -k * bits) + N
        else:
            N += term
        vn = vd + min(k, 0)
        if a < 0:
            vd += m
    # D's lowest slot is nonzero, so the fraction's normalization moves
    # nothing more.  N and D are the matrix column's ints for the same
    # value, so inside all_routes both reads hit its cached slot reads.
    num, den = _slots(N, width), _slots(D, width)
    return LaurentFraction(LaurentPoly(vn - vd, num if x > 0 else [-c for c in num]),
                           LaurentPoly(0, den))


# -- the public map ------------------------------------------------------------

def q_rational(r: int, s: int) -> LaurentFraction:
    """The deformation of r/s >= 1, computed by the matrix route (authoritative)."""
    return q_matrix_eval(cf_expand(r, s))


class RouteTable(NamedTuple):
    """
    Every route to one deformed rational: the full fractions keyed by route
    name (``matrix``, ``nested-fraction``, ``recurrence-map``), the
    continuant numerator, and whether they all agree exactly.
    """

    fractions: dict[str, LaurentFraction]
    continuant: LaurentPoly
    agree: bool


def all_routes(cf: CF) -> RouteTable:
    """
    Compute [r/s]_q by every route from the continued fraction of r/s and
    compare.  The nested fraction is the matrix column (see ``q_cf_eval``),
    so one computation fills both entries.
    """
    matrix = q_matrix_eval(cf)
    fractions = {
        "matrix": matrix,
        "nested-fraction": matrix,
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
    consecutive Fibonacci numbers at every index 0 .. n: the deformation of
    F(k+1)/F(k) is nums[k+1] / dens[k].

    The denominators satisfy p(k) = [3]_q p(k-2) - q^2 p(k-4) from the
    seeds 1, 1, [2]_q, [3]_q at k = 1 .. 4.  The numerators are their
    mirrors, nums[k] = q^(k-2) dens[k](1/q) for k >= 2: from [1/x]_q =
    1/[x]_(1/q) and [x+1]_q = q [x]_q + 1 (Morier-Genoud and Ovsienko,
    q-deformed rationals and q-continued fractions, 2020), the numerator of
    [F(k)/F(k-1)]_q is the denominator of [F(k+1)/F(k)]_q mirrored.
    """
    if n < 0:
        raise ValueError("fibonacci_families needs n >= 0")
    dens = [ONE, ONE, ONE, q_int(2), q_int(3)]
    for k in range(5, n + 1):
        a, b = dens[k - 2], dens[k - 4]
        dens.append(a + a.shifted(1) + (a - b).shifted(2))
    del dens[n + 1:]
    return [ONE, ONE][:n + 1] + [dens[k].mirror(k - 2) for k in range(2, n + 1)], dens


def fibonacci_number(n: int) -> int:
    """Classical Fibonacci numbers with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
