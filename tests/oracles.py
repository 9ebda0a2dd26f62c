"""Brute-force references the tests check qsnake against.

Each works from a definition and shares no pass with the engine: the
statistic by enumerating every matching, the determinant by cofactor
expansion over every permutation, the arrows round every face.  A plain
module, not conftest fixtures, so that ``python tests/test_acceptance.py``
runs without pytest.  It imports only public qsnake names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Sequence

from qsnake.kasteleyn import KasteleynMatrix
from qsnake.laurent import ONE, ZERO, LaurentFraction, LaurentPoly, laurent_gcd
from qsnake.matching import enumerate_matchings, matching_weight_exp
from qsnake.qrational import q_int
from qsnake.snake import Box, Edge, SnakeGraph, box_edges, sign_sequence, snake_graph

Entries = tuple[tuple[LaurentPoly, ...], ...]


# -- Laurent polynomials and 2x2 matrices ------------------------------------

def poly_from_json(obj: dict) -> LaurentPoly:
    """The polynomial of a ``LaurentPoly.to_json`` blob."""
    return LaurentPoly(int(obj["min_deg"]), tuple([int(c) for c in obj["coeffs"]]))


@dataclass(frozen=True)
class QMatrix:
    """2x2 matrix of Laurent polynomials (row major a, b, c, d)."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly


def qmatrix_det(m: QMatrix) -> LaurentPoly:
    """ad - bc, by the schoolbook product."""
    return m.a * m.d - m.b * m.c


def reduced(f: LaurentFraction) -> LaurentFraction:
    """
    f in lowest terms: numerator and denominator divided by their gcd,
    which carries the common integer content too.  0/d becomes 0/1, and the
    infinity 1/0 stays itself (its gcd is 1).
    """
    g = laurent_gcd(f.num, f.den)
    return LaurentFraction(f.num.div_exact(g), f.den.div_exact(g))


# -- the list kernel and the Fibonacci families ------------------------------

def times_qint_add(p: Sequence[int], n: int, e: Sequence[int] = (),
                   k: int = 0) -> tuple[int, list[int]]:
    """
    The product by the q-integer [n]_q, with an addend: p [n]_q + q^k e for
    coefficient sequences p and e read from degree 0 and n >= 0, as (low,
    out), out[i] the coefficient of q^(low + i), trimmed at both ends; the
    zero polynomial is (0, []).  The one list built is the result, laid out
    over the whole span and filled by slices: [1] is a copy of p, [2] that
    copy plus itself shifted by one place, and a wider [n] a running sum of
    width n, coefficient j being S[j] - S[j-n] with S the prefix sums of p,
    so the prefix sums with one slice subtracted.  The addend is one slice
    added; a caller that subtracts passes e negated.  Each slice read is a
    copy, so no list is read while it is being assigned.  The reference
    kernel of ``list_recurrence_reference`` and of the two families below.
    """
    if n < 0:
        raise ValueError("times_qint_add needs n >= 0")
    m = len(p)
    size = m + n - 1 if m and n else 0  # the span of p [n] from q^0
    lo = k if e and k < 0 else 0
    hi = k + len(e) if e and k + len(e) > size else size
    # out[i] is the coefficient of q^(lo + i), so q^0 sits at index -lo
    out = [0] * -lo
    if not size:
        out += [0] * hi
    elif n <= 2:
        out += p
        if n == 2:
            # p[j] + p[j - 1] under q^1 .. q^(m - 1), then p[m - 1] alone
            out[1 - lo:m - lo] = map(add, out[1 - lo:m - lo], p)
            out.append(p[-1])
        out += [0] * (hi - size)
    else:
        sums = list(accumulate(p))
        out += sums
        out += [sums[-1]] * (n - 1)
        out += [0] * (hi - size)
        # S[j - n] runs over S[0] .. S[m - 2], under q^n .. q^(size - 1)
        out[n - lo:size - lo] = map(sub, out[n - lo:size - lo], sums)
    if e:
        out[k - lo:k + len(e) - lo] = map(add, out[k - lo:k + len(e) - lo], e)
    while out and not out[-1]:
        out.pop()
    if not out:
        return 0, out
    i = 0
    while not out[i]:
        i += 1
    return (lo + i, out[i:]) if i else (lo, out)


def fibonacci_families_reference(n: int) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """
    The Fibonacci families as two independent runs of p(k) = [3]_q p(k-2)
    - q^2 p(k-4) on ``times_qint_add``, one per seed list: a reference for
    ``fibonacci_families``, which runs the denominators alone and mirrors
    them.  The numerators' mirror-consistent seed at index 1 is q^-1, which
    is reported as 1; both families hold the indices 0 .. n.
    """
    den = _fib_family(n, [ONE, ONE, q_int(2), q_int(3)])
    num = _fib_family(n, [LaurentPoly.monomial(-1), ONE, q_int(2), q_int(3)])
    return ([ONE, ONE] + num[1:])[:n + 1], [ONE] + den


def _fib_family(n: int, seeds: list[LaurentPoly]) -> list[LaurentPoly]:
    """A family at indices 1 .. n: its seeds, then the recurrence."""
    vals = list(seeds)
    for k in range(5, n + 1):
        a, b = vals[k - 3], vals[k - 5]
        low, out = times_qint_add(a.coeffs, 3, [-c for c in b.coeffs], b.min_deg + 2 - a.min_deg)
        vals.append(LaurentPoly(a.min_deg + low, out))
    return vals[:n]


# -- continued fractions -----------------------------------------------------

def cf_odd_form(cf: tuple[int, ...]) -> tuple[int, ...]:
    """Equivalent expansion of odd length, via [.., ak] = [.., ak - 1, 1]."""
    if len(cf) % 2 == 1:
        return cf
    if cf[-1] >= 2:
        return cf[:-1] + (cf[-1] - 1, 1)
    return cf[:-2] + (cf[-2] + 1,)


# -- snakes and matchings ----------------------------------------------------

def box_path(cf: tuple[int, ...]) -> tuple[Box, ...]:
    """
    Lattice cells of the snake, starting at (0, 0), read off the sign
    sequence in one walk: a reference for ``SnakeGraph.boxes``, which
    derives them from the exponents alone.

    Box i carries the alternating base sign s_i = '-' for odd i (1-based);
    box i+1 is glued to its right when the next sequence sign equals s_i,
    above it when opposite.  Only the first (sum - 1) signs matter, so
    equivalent parity forms of the same rational build the same snake.
    """
    signs = sign_sequence(cf)
    if len(signs) == 1:
        return ()
    boxes = [(0, 0)]
    for i in range(1, len(signs) - 1):
        x, y = boxes[-1]
        base = "-" if i % 2 == 1 else "+"
        boxes.append((x + 1, y) if signs[i] == base else (x, y + 1))
    return tuple(boxes)


def denominator_snake(cf: tuple[int, ...]) -> SnakeGraph:
    """
    The snake of the tail [a2, ..., ak], a reference for the tail-snake
    statement: q^n' times its statistic, n' the tail's scalar exponent, is
    the denominator mirrored.  ``denominator_via_matchings`` reads the
    whole snake's boxes from the cut on instead, this snake's exponents
    negated.
    """
    if len(cf) < 2:
        raise ValueError("denominator snake needs at least two coefficients")
    return snake_graph(cf[1:])


def matching_stat(g: SnakeGraph) -> LaurentPoly:
    """The statistic by exhaustive enumeration."""
    acc: dict[int, int] = {}
    for m in enumerate_matchings(g):
        k = matching_weight_exp(g, m)
        acc[k] = acc.get(k, 0) + 1
    if not acc:
        return ZERO
    lo, hi = min(acc), max(acc)
    return LaurentPoly(lo, [acc.get(e, 0) for e in range(lo, hi + 1)])


def face_arrow_counts(g: SnakeGraph) -> list[int]:
    """Black -> white arrow count around each unit box (must all be odd)."""
    counts = []
    for box in g.boxes:
        n = 0
        for e in box_edges(box).values():
            tail, head = g.arrow(e)
            if g.is_black(tail):
                n += 1
        counts.append(n)
    return counts


def colored_edges(g: SnakeGraph) -> dict[Edge, int]:
    """The weighted (non-unit) edges and their exponents."""
    return {e: k for e, k in g.weight_exp.items() if k != 0}


# -- Kasteleyn matrices ------------------------------------------------------

def kasteleyn_to_json(m: KasteleynMatrix) -> dict:
    """The matrix as the ``kasteleyn`` command prints it, dense zeros included."""
    return {
        "size": len(m),
        "black": [list(v) for v in m.black_order],
        "white": [list(v) for v in m.white_order],
        "entries": [[e.to_json() for e in row] for row in m.dense_rows()],
    }


def det_expansion(m: KasteleynMatrix | Entries) -> LaurentPoly:
    """Cofactor expansion; fine for sizes up to ~8 on sparse matrices."""
    entries = tuple(m.dense_rows()) if isinstance(m, KasteleynMatrix) else m

    def expand(row: int, cols: tuple[int, ...]) -> LaurentPoly:
        if not cols:
            return ONE
        total = ZERO
        for pos, j in enumerate(cols):
            e = entries[row][j]
            if e.is_zero():
                continue
            sub = expand(row + 1, cols[:pos] + cols[pos + 1:])
            term = e * sub
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return expand(0, tuple(range(len(entries))))


def permutation_term_signs(m: KasteleynMatrix | Entries) -> list[int]:
    """
    Signs of all nonzero permutation terms of the determinant.  Each snake
    Kasteleyn term is a signed monomial; the Kasteleyn property makes all the
    signs agree, which is what the |det| = statistic identity rests on.
    """
    entries = tuple(m.dense_rows()) if isinstance(m, KasteleynMatrix) else m
    n = len(entries)
    signs: list[int] = []

    def walk(row: int, cols: tuple[int, ...], coeff_sign: int, inversions: int):
        if row == n:
            signs.append(coeff_sign * (1 if inversions % 2 == 0 else -1))
            return
        for pos, j in enumerate(cols):
            e = entries[row][j]
            if e.is_zero():
                continue
            c = e.coeffs[0]
            walk(row + 1, cols[:pos] + cols[pos + 1:],
                 coeff_sign * (1 if c > 0 else -1), inversions + pos)

    walk(0, tuple(range(n)), 1, 0)
    return signs
