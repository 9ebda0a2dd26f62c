"""Kasteleyn matrices of oriented snake graphs and their exact determinants.

With vertices numbered by first appearance along the box path the matrix is
banded (entries vanish for |i - j| >= 3) and its determinant, up to one
overall sign, equals the weighted matching statistic of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import ONE, ZERO, LaurentPoly
from .matching import matching_stat_dp, scalar_exponent
from .qrational import CF, cf_expand, q_matrix_eval
from .snake import SnakeGraph, snake_graph

Entries = tuple[tuple[LaurentPoly, ...], ...]


def number_vertices(g: SnakeGraph) -> tuple[list, list]:
    """
    Black and white vertex orders: sweep boxes along the path, visiting
    SW, SE, NW, NE corners inside each box, numbering each color by first
    appearance.  This keeps the matrix 4-diagonal.
    """
    black, white, seen = [], [], set()

    def visit(v):
        if v not in seen:
            seen.add(v)
            (black if g.is_black(v) else white).append(v)

    if not g.boxes:
        for v in g.vertices:
            visit(v)
        return black, white
    for x, y in g.boxes:
        for v in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
            visit(v)
    return black, white


@dataclass(frozen=True)
class KasteleynMatrix:
    """Signed weighted adjacency between numbered black and white vertices."""

    entries: Entries
    black_order: tuple
    white_order: tuple

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "black": [list(v) for v in self.black_order],
            "white": [list(v) for v in self.white_order],
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }


def kasteleyn_matrix(g: SnakeGraph) -> KasteleynMatrix:
    """
    Entry (i, j) is +weight for an edge oriented from black i to white j,
    -weight for one oriented white j to black i, 0 when not adjacent.
    """
    black, white = number_vertices(g)
    row_of = {v: i for i, v in enumerate(black)}
    col_of = {v: j for j, v in enumerate(white)}
    n = len(black)
    rows = [[ZERO] * n for _ in range(n)]
    for e in g.edges:
        u, v = e
        b, w = (u, v) if g.is_black(u) else (v, u)
        tail, _ = g.arrow(e)
        rows[row_of[b]][col_of[w]] = LaurentPoly.monomial(g.weight_exp[e],
                                                          1 if tail == b else -1)
    return KasteleynMatrix(tuple([tuple(r) for r in rows]),
                           tuple(black), tuple(white))


# -- exact determinants ------------------------------------------------------

def bandwidth_ok(m: KasteleynMatrix | Entries) -> bool:
    """Nonzero entries confined to |i - j| <= 2, as under the path numbering."""
    entries = m.entries if isinstance(m, KasteleynMatrix) else m
    return all(e.is_zero() or abs(i - j) <= 2
               for i, row in enumerate(entries) for j, e in enumerate(row))


def leading_minors(m: KasteleynMatrix | Entries) -> list[LaurentPoly]:
    """
    Division-free Laplace expansion along the rows of a bandwidth-2 matrix,
    returning every leading principal minor: entry k is the k x k one.

    Row i can only use columns i-2 .. i+2, so before it every column left of
    i-2 is taken and exactly two of i-2 .. i+1 are.  The partial expansions
    are keyed by those two, as bits 0..3 of a mask; columns outside the
    matrix count as taken.  Choosing column i-2+k skips the free columns
    below it, each an inversion.  Raises ValueError on a wider band.
    """
    entries = m.entries if isinstance(m, KasteleynMatrix) else m
    if not bandwidth_ok(entries):
        raise ValueError("det_exact needs nonzero entries only at |i - j| <= 2")
    n = len(entries)
    partial = {0b0011: ONE}
    minors = [ONE]
    for i, row in enumerate(entries):
        step: dict[int, LaurentPoly] = {}
        for used, value in partial.items():
            for k in range(5):
                j = i - 2 + k
                if used >> k & 1 or j >= n or row[j].is_zero():
                    continue
                taken = used | 1 << k
                if not taken & 1:
                    continue  # column i-2 would stay free for good
                term = value * row[j]
                if (~used & ((1 << k) - 1)).bit_count() % 2:
                    term = -term
                key = taken >> 1
                step[key] = step[key] + term if key in step else term
        partial = step
        minors.append(partial.get(0b0011, ZERO))  # minor of rows, columns 0 .. i
    return minors


def det_exact(m: KasteleynMatrix | Entries) -> LaurentPoly:
    """The determinant of a bandwidth-2 matrix: its last leading minor."""
    return leading_minors(m)[-1]


def det_expansion(m: KasteleynMatrix | Entries) -> LaurentPoly:
    """Cofactor-expansion oracle; fine for sizes up to ~8 on sparse matrices."""
    entries = m.entries if isinstance(m, KasteleynMatrix) else m

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
    entries = m.entries if isinstance(m, KasteleynMatrix) else m
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


# -- verification ------------------------------------------------------------

@dataclass(frozen=True)
class KasteleynReport:
    matrix: KasteleynMatrix
    det: LaurentPoly
    statistic: LaurentPoly
    sign: int
    scalar: int
    numerator: LaurentPoly
    det_matches_statistic: bool
    scaled_matches_numerator: bool

    @property
    def ok(self) -> bool:
        return self.det_matches_statistic and self.scaled_matches_numerator


def verify_kasteleyn(r: int, s: int) -> KasteleynReport:
    """Build the snake of r/s, its statistic and numerator, and report on them."""
    cf = cf_expand(r, s)
    g = snake_graph(cf)
    return kasteleyn_report(cf, g, matching_stat_dp(g), q_matrix_eval(cf).num)


def kasteleyn_report(cf: CF, g: SnakeGraph, stat: LaurentPoly,
                     num: LaurentPoly) -> KasteleynReport:
    """
    For the snake g of the continued fraction cf, with matching statistic
    stat and the numerator num of its deformation: |det| must equal the
    statistic, q^n times the statistic the numerator.
    """
    mat = kasteleyn_matrix(g)
    det = det_exact(mat)
    sign = 1 if det == stat else (-1 if -det == stat else 0)
    n = scalar_exponent(cf)
    return KasteleynReport(matrix=mat, det=det, statistic=stat, sign=sign,
                           scalar=n, numerator=num,
                           det_matches_statistic=sign != 0,
                           scaled_matches_numerator=stat.shifted(n) == num)


# -- the Fibonacci strip -------------------------------------------------------

def fibonacci_kasteleyn(n: int) -> LaurentPoly:
    """
    Kasteleyn determinant of the vertical strip of n - 1 boxes, the snake of
    n ones, signed so its lowest coefficient is positive.  It equals the
    strip's matching statistic, so its value at q = 1 is F(n+1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    det = det_exact(kasteleyn_matrix(snake_graph((1,) * n)))
    return det if det.coeffs[0] > 0 else -det


def fibonacci_kasteleyn_numerator(n: int) -> LaurentPoly:
    """
    The strip determinant normalized so its lowest term is the constant;
    equals the numerator-family polynomial of index n+1.
    """
    det = fibonacci_kasteleyn(n)
    return det.shifted(-det.min_deg)
