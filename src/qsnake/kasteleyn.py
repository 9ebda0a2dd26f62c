"""Kasteleyn matrices of oriented snake graphs and their exact determinants.

With vertices numbered by first appearance along the box path the matrix is
banded (entries vanish for |i - j| >= 3) and its determinant, up to one
overall sign, equals the weighted matching statistic of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import ONE, Q, ZERO, LaurentPoly
from .matching import matching_stat_dp, scalar_exponent
from .qrational import cf_expand, q_rational
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
        weight = g.weight(e)
        rows[row_of[b]][col_of[w]] = weight if tail == b else -weight
    return KasteleynMatrix(tuple(tuple(r) for r in rows),
                           tuple(black), tuple(white))


# -- exact determinants ------------------------------------------------------

def det_exact(m: KasteleynMatrix | Entries) -> LaurentPoly:
    """
    Fraction-free Bareiss determinant over the Laurent ring.  Each row first
    sheds its monomial factor q^min, keeping every intermediate entry an
    honest polynomial so all divisions stay exact.
    """
    entries = m.entries if isinstance(m, KasteleynMatrix) else m
    n = len(entries)
    if n == 0:
        return ONE
    shift = 0
    rows = []
    for row in entries:
        degs = [e.min_deg for e in row if not e.is_zero()]
        if not degs:
            return ZERO
        k = min(degs)
        shift += k
        rows.append([e.shifted(-k) for e in row])
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not rows[i][k].is_zero()), None)
            if pivot_row is None:
                return ZERO
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        piv = rows[k][k]
        for i in range(k + 1, n):
            low = rows[i][k]
            for j in range(k + 1, n):
                a, b = rows[i][j], rows[k][j]
                if a.is_zero() and (low.is_zero() or b.is_zero()):
                    continue
                rows[i][j] = (piv * a - low * b).div_exact(prev)
            rows[i][k] = ZERO
        prev = piv
    det = rows[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det.shifted(shift)


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
    r: int
    s: int
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
    g = snake_graph(cf_expand(r, s))
    return kasteleyn_report(r, s, g, matching_stat_dp(g), q_rational(r, s).num)


def kasteleyn_report(r: int, s: int, g: SnakeGraph, stat: LaurentPoly,
                     num: LaurentPoly) -> KasteleynReport:
    """
    For the snake g of r/s with matching statistic stat and the numerator
    num of [r/s]_q: |det| must equal the statistic, q^n times the statistic
    the numerator.
    """
    mat = kasteleyn_matrix(g)
    det = det_exact(mat)
    sign = 1 if det == stat else (-1 if -det == stat else 0)
    n = scalar_exponent(cf_expand(r, s))
    scaled = LaurentPoly.monomial(n) * stat
    return KasteleynReport(r=r, s=s, matrix=mat, det=det, statistic=stat,
                           sign=sign, scalar=n, numerator=num,
                           det_matches_statistic=sign != 0,
                           scaled_matches_numerator=scaled == num)


def bandwidth_ok(m: KasteleynMatrix) -> bool:
    """Nonzero entries confined to |i - j| <= 2 under the path numbering."""
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if abs(i - j) >= 3 and not e.is_zero():
                return False
    return True


# -- the Fibonacci band family -------------------------------------------------

def fibonacci_band_matrix(n: int, numerator_variant: bool = False) -> Entries:
    """
    The n x n tridiagonal band whose determinant counts the weighted matchings
    of the vertical strip of n - 1 boxes.  Odd rows are (1, 1, 1); even rows
    are (-q, 1, -1/q), or (-q^2, q, -1) for the numerator-family variant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if numerator_variant:
        sub, diag_even, sup = -(Q * Q), Q, -ONE
    else:
        sub, diag_even, sup = -Q, ONE, -LaurentPoly.monomial(-1)
    rows = []
    for i in range(1, n + 1):
        row = [ZERO] * n
        even = i % 2 == 0
        if i > 1:
            row[i - 2] = sub if even else ONE
        row[i - 1] = diag_even if even else ONE
        if i < n:
            row[i] = sup if even else ONE
        rows.append(tuple(row))
    return tuple(rows)


def _band_det(entries: Entries) -> LaurentPoly:
    """Three-term recurrence along a tridiagonal band."""
    n = len(entries)
    prev2, prev = ONE, entries[0][0]
    for i in range(1, n):
        term = entries[i][i] * prev - entries[i][i - 1] * entries[i - 1][i] * prev2
        prev2, prev = prev, term
    return prev


def fibonacci_kasteleyn(n: int) -> LaurentPoly:
    """
    Determinant of the weighted Fibonacci band; equals the matching statistic
    of the vertical (n-1)-box snake, so its value at q = 1 is F(n+1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return _band_det(fibonacci_band_matrix(n))


def fibonacci_kasteleyn_numerator(n: int) -> LaurentPoly:
    """
    Determinant of the numerator-family variant, normalized so its lowest
    term is the constant; equals the numerator-family polynomial of index n+1.
    """
    det = _band_det(fibonacci_band_matrix(n, numerator_variant=True))
    return det.shifted(-det.min_deg)
