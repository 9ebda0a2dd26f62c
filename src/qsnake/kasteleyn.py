"""Kasteleyn matrices of oriented snake graphs and their exact determinants.

With vertices numbered by first appearance along the box path the matrix is
banded: entry (i, j) vanishes for |i - j| >= 3.  Every nonzero entry of a
snake's matrix is a signed monomial +-q^k, so ``KasteleynMatrix`` stores only
the band, each row's nonzero entries as (column offset, sign, exponent), in
memory linear in the box count.  The determinant is a Laplace expansion along
that band which applies each entry as a shift by its exponent and folds its
sign into the inversion parity, so it multiplies no polynomials.  It equals
(-1)^sum(cf) times the weighted matching statistic (observed, not proved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .laurent import ONE, ZERO, LaurentPoly
from .matching import matching_stat_dp, scalar_exponent
from .qrational import CF, cf_expand, q_matrix_eval
from .snake import SnakeGraph, snake_graph

# Row i of a band: its nonzero entries as (k, sign, exponent), the entry
# sign * q^exponent at column i - 2 + k.
Band = tuple[tuple[tuple[int, int, int], ...], ...]


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

    def __len__(self) -> int:
        """The size n of the n x n matrix, its row count."""
        return len(self.band)

    def dense_rows(self) -> Iterator[tuple[LaurentPoly, ...]]:
        """The dense matrix one row at a time, ``ZERO`` off the band."""
        n = len(self.band)
        for i, band_row in enumerate(self.band):
            row = [ZERO] * n
            for k, sign, exp in band_row:
                row[i - 2 + k] = LaurentPoly.monomial(exp, sign)
            yield tuple(row)


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

# _INVERSION_SIGN[used][k] is -1 when, with the offsets in the mask `used`
# taken, choosing offset k skips an odd number of free columns below it
_INVERSION_SIGN = tuple([tuple([-1 if (~used & ((1 << k) - 1)).bit_count() % 2 else 1
                                for k in range(5)]) for used in range(16)])


def _minors(m: KasteleynMatrix) -> Iterator[LaurentPoly]:
    """
    Division-free Laplace expansion along the band rows, yielding every
    leading principal minor in turn, from the 0 x 0 one.

    Row i can only use columns i-2 .. i+2, so before it every column left of
    i-2 is taken and exactly two of i-2 .. i+1 are.  The partial expansions
    are keyed by those two, as bits 0..3 of a mask; columns outside the
    matrix count as taken.  Choosing column i-2+k skips the free columns
    below it, each an inversion.  An entry sign * q^w is applied as a shift
    by w, with its sign folded into the inversion sign so the term is
    negated at most once: the expansion multiplies no polynomials.
    """
    partial = {0b0011: ONE}
    yield ONE
    for row in m.band:
        step: dict[int, LaurentPoly] = {}
        for used, value in partial.items():
            inversion_sign = _INVERSION_SIGN[used]
            for k, sign, w in row:
                taken = used | 1 << k
                if taken == used or not taken & 1:
                    continue  # column i-2+k is taken, or i-2 would stay free for good
                term = value.shifted(w) if w else value
                if sign != inversion_sign[k]:
                    term = -term
                key = taken >> 1
                step[key] = step[key] + term if key in step else term
        partial = step
        yield partial.get(0b0011, ZERO)  # minor of rows, columns 0 .. i


def leading_minors(m: KasteleynMatrix) -> list[LaurentPoly]:
    """Every leading principal minor of the matrix: entry k is the k x k one."""
    return list(_minors(m))


def det_exact(m: KasteleynMatrix) -> LaurentPoly:
    """
    The determinant of the matrix: its last leading minor, with only the
    current minors held, so memory stays linear in the size.
    """
    for minor in _minors(m):
        pass
    return minor


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
    stat and the numerator num of its deformation: det must equal
    (-1)^sum(cf) times the statistic, q^n times the statistic the numerator.
    """
    mat = kasteleyn_matrix(g)
    det = det_exact(mat)
    sign = 1 if det == stat else (-1 if -det == stat else 0)
    n = scalar_exponent(cf)
    return KasteleynReport(matrix=mat, det=det, statistic=stat, sign=sign,
                           scalar=n, numerator=num,
                           det_matches_statistic=sign == (-1) ** sum(cf),
                           scaled_matches_numerator=stat.shifted(n) == num)
