"""Kasteleyn matrices of oriented snake graphs and their exact determinants.

With vertices numbered by first appearance along the box path the matrix is
banded: entry (i, j) vanishes for |i - j| >= 3.  Every nonzero entry of a
snake's matrix is a signed monomial +-q^k, so ``KasteleynMatrix`` stores only
the band, each row's nonzero entries as (column offset, sign, exponent), in
memory linear in the box count.  The determinant is a Laplace expansion along
that band which applies each entry as a shift by its exponent and folds its
sign into the inversion parity, so it multiplies no polynomials.  Up to one
overall sign it equals the weighted matching statistic of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .laurent import ONE, ZERO, LaurentPoly
from .matching import matching_stat_dp, scalar_exponent
from .qrational import CF, cf_expand, q_matrix_eval
from .snake import SnakeGraph, snake_graph

Entries = tuple[tuple[LaurentPoly, ...], ...]
# Row i of a band: its nonzero entries as (k, sign, w), the entry at column
# i - 2 + k.  For a signed monomial w is the exponent: the entry is sign * q^w.
# Only a general entry of a dense matrix (see band_rows) is kept whole, as
# (k, 1, entry).
Band = tuple[tuple[tuple[int, int, int | LaurentPoly], ...], ...]


def number_vertices(g: SnakeGraph) -> tuple[list, list]:
    """
    Black and white vertex orders: sweep boxes along the path, visiting
    SW, SE, NW, NE corners inside each box, numbering each color by first
    appearance.  This keeps the matrix 4-diagonal.
    """
    if g.boxes:
        corners = dict.fromkeys([v for x, y in g.boxes
                                 for v in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))])
    else:
        corners = g.vertices
    black = [v for v in corners if g.is_black(v)]
    white = [v for v in corners if not g.is_black(v)]
    return black, white


@dataclass(frozen=True)
class KasteleynMatrix:
    """
    Signed weighted adjacency between numbered black and white vertices,
    stored as its band: ``band[i]`` lists row i's nonzero entries as
    (column offset k, sign, exponent), the entry sign * q^exponent at column
    i - 2 + k.
    """

    band: Band
    black_order: tuple
    white_order: tuple

    @property
    def size(self) -> int:
        return len(self.band)

    def dense_rows(self) -> Iterator[tuple[LaurentPoly, ...]]:
        """The dense matrix one row at a time, ``ZERO`` off the band."""
        n = self.size
        for i, band_row in enumerate(self.band):
            row = [ZERO] * n
            for k, sign, exp in band_row:
                row[i - 2 + k] = LaurentPoly.monomial(exp, sign)
            yield tuple(row)

    @property
    def entries(self) -> Entries:
        """The dense n x n matrix of ``LaurentPoly``, built on each access."""
        return tuple(list(self.dense_rows()))

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
    -weight for one oriented white j to black i, 0 when not adjacent.  One
    pass over the edges; raises ValueError if an edge falls outside the band.
    """
    black, white = number_vertices(g)
    row_of = {v: i for i, v in enumerate(black)}
    col_of = {v: j for j, v in enumerate(white)}
    rows: list[list] = [[] for _ in black]
    for e, exp in g.weight_exp.items():
        tail, head = g.arrow(e)
        if g.is_black(tail):
            i, j, sign = row_of[tail], col_of[head], 1
        else:
            i, j, sign = row_of[head], col_of[tail], -1
        if abs(i - j) > 2:
            raise ValueError(f"edge {e} is entry ({i}, {j}), outside the band |i - j| <= 2")
        rows[i].append((j - i + 2, sign, exp))
    return KasteleynMatrix(tuple([tuple(row) for row in rows]),
                           tuple(black), tuple(white))


# -- exact determinants ------------------------------------------------------

def bandwidth_ok(m: KasteleynMatrix | Entries) -> bool:
    """Nonzero entries confined to |i - j| <= 2, as under the path numbering."""
    entries = m.entries if isinstance(m, KasteleynMatrix) else m
    return all(e.is_zero() or abs(i - j) <= 2
               for i, row in enumerate(entries) for j, e in enumerate(row))


def band_rows(entries: Entries) -> Band:
    """
    The band of a dense square matrix: an entry +-q^k as (offset, sign, k),
    any other nonzero entry whole, as (offset, 1, entry).  Raises ValueError
    on a nonzero entry at |i - j| >= 3.
    """
    if not bandwidth_ok(entries):
        raise ValueError("det_exact needs nonzero entries only at |i - j| <= 2")
    n = len(entries)
    rows = []
    for i, row in enumerate(entries):
        band_row = []
        for j in range(max(i - 2, 0), min(i + 3, n)):
            e = row[j]
            if e.coeffs in ((1,), (-1,)):
                band_row.append((j - i + 2, e.coeffs[0], e.min_deg))
            elif not e.is_zero():
                band_row.append((j - i + 2, 1, e))
        rows.append(tuple(band_row))
    return tuple(rows)


# _INVERSION_SIGN[used][k] is -1 when, with the offsets in the mask `used`
# taken, choosing offset k skips an odd number of free columns below it
_INVERSION_SIGN = tuple([tuple([-1 if (~used & ((1 << k) - 1)).bit_count() % 2 else 1
                                for k in range(5)]) for used in range(16)])


def _minors(m: KasteleynMatrix | Entries) -> Iterator[LaurentPoly]:
    """
    Division-free Laplace expansion along the band rows, yielding every
    leading principal minor in turn, from the 0 x 0 one.

    Row i can only use columns i-2 .. i+2, so before it every column left of
    i-2 is taken and exactly two of i-2 .. i+1 are.  The partial expansions
    are keyed by those two, as bits 0..3 of a mask; columns outside the
    matrix count as taken.  Choosing column i-2+k skips the free columns
    below it, each an inversion.  A monomial entry sign * q^w is applied as
    a shift by w, with its sign folded into the inversion sign so the term
    is negated at most once; only a general entry of a dense matrix is
    multiplied.  A dense matrix goes through ``band_rows``, so raises
    ValueError on a wider band.
    """
    rows = m.band if isinstance(m, KasteleynMatrix) else band_rows(m)
    partial = {0b0011: ONE}
    yield ONE
    for row in rows:
        step: dict[int, LaurentPoly] = {}
        for used, value in partial.items():
            inversion_sign = _INVERSION_SIGN[used]
            for k, sign, w in row:
                taken = used | 1 << k
                if taken == used or not taken & 1:
                    continue  # column i-2+k is taken, or i-2 would stay free for good
                if type(w) is not int:
                    term = value * w
                else:
                    term = value.shifted(w) if w else value
                if sign != inversion_sign[k]:
                    term = -term
                key = taken >> 1
                step[key] = step[key] + term if key in step else term
        partial = step
        yield partial.get(0b0011, ZERO)  # minor of rows, columns 0 .. i


def leading_minors(m: KasteleynMatrix | Entries) -> list[LaurentPoly]:
    """Every leading principal minor of a bandwidth-2 matrix: entry k is the k x k one."""
    return list(_minors(m))


def det_exact(m: KasteleynMatrix | Entries) -> LaurentPoly:
    """
    The determinant of a bandwidth-2 matrix: its last leading minor, with
    only the current minors held, so memory stays linear in the size.
    """
    for minor in _minors(m):
        pass
    return minor


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
