"""Brute-force references the tests check qsnake against.

Each works from a definition and shares no pass with the engine: the
statistic by enumerating every matching, the determinant by cofactor
expansion over every permutation, the arrows round every face.  A plain
module, not conftest fixtures, so that ``python tests/test_acceptance.py``
runs without pytest.  It imports only public qsnake names.
"""

from __future__ import annotations

from dataclasses import dataclass

from qsnake.kasteleyn import KasteleynMatrix
from qsnake.laurent import ONE, ZERO, LaurentFraction, LaurentPoly, laurent_gcd
from qsnake.matching import enumerate_matchings, matching_weight_exp
from qsnake.snake import Box, Edge, SnakeGraph, box_edges, sign_sequence

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
