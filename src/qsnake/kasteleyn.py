"""Kasteleyn matrices of oriented snake graphs and their exact determinants.

With vertices numbered by first appearance along the box path the matrix is
banded: entry (i, j) vanishes for |i - j| >= 3.  Every nonzero entry of a
snake's matrix is a signed monomial +-q^k, so ``KasteleynMatrix`` stores only
the band, each row's nonzero entries as (column offset, sign, exponent), in
memory linear in the box count.  The determinant is a Laplace expansion along
that band which applies each entry as a shift by its exponent and folds its
sign into the inversion parity, so it multiplies no polynomials.  It equals
``kasteleyn_sign`` times the matching statistic (proved in its docstring).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .laurent import ONE, ZERO, LaurentPoly
from .matching import matching_stat_dp, scalar_exponent, snake_fraction
from .qrational import cf_expand, q_matrix_eval
from .snake import SnakeGraph, snake_graph

# Row i of a band: its nonzero entries as (k, sign, exponent), the entry
# sign * q^exponent at column i - 2 + k.
Band = tuple[tuple[tuple[int, int, int], ...], ...]


def number_vertices(g: SnakeGraph) -> tuple[list, list]:
    """
    Black and white vertex orders: the path-order vertices
    (``SnakeGraph.corners``) split by color.  Each box adds one of each
    color, so this keeps the matrix 4-diagonal.
    """
    black = [v for v in g.corners if g.is_black(v)]
    white = [v for v in g.corners if not g.is_black(v)]
    return black, white


class KasteleynMatrix:
    """
    Signed weighted adjacency between numbered black and white vertices,
    stored as its band: ``band[i]`` lists row i's nonzero entries as
    (column offset k, sign, exponent), the entry sign * q^exponent at column
    i - 2 + k.
    """

    def __init__(self, band: Band, black_order: tuple, white_order: tuple):
        vars(self).update(band=band, black_order=black_order, white_order=white_order)

    __setattr__ = __delattr__ = LaurentPoly.__setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is KasteleynMatrix else NotImplemented

    def __hash__(self) -> int:
        return hash((self.band, self.black_order, self.white_order))

    def __repr__(self) -> str:
        return "KasteleynMatrix(%s)" % ", ".join([f"{k}={v!r}" for k, v in vars(self).items()])

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
    Entry (i, j) is +q^k for an edge of weight q^k != 1 between black i and
    white j, -1 for one of weight 1 (``SnakeGraph.arrow``), 0 when not
    adjacent.  One pass over the edges; raises ValueError if an edge falls
    outside the band.
    """
    black, white = number_vertices(g)
    row_of = {v: i for i, v in enumerate(black)}
    col_of = {v: j for j, v in enumerate(white)}
    rows: list[list] = [[] for _ in black]
    for (u, v), exp in g.weight_exp.items():
        i, j = (row_of[u], col_of[v]) if g.is_black(u) else (row_of[v], col_of[u])
        if abs(i - j) > 2:
            raise ValueError(f"edge {(u, v)} is entry ({i}, {j}), outside the band |i - j| <= 2")
        rows[i].append((j - i + 2, 1 if exp else -1, exp))
    return KasteleynMatrix(tuple([tuple(row) for row in rows]),
                           tuple(black), tuple(white))


# -- exact determinants ------------------------------------------------------

# _INVERSION_SIGN[used][k] is -1 when, with the offsets in the mask `used`
# taken, choosing offset k skips an odd number of free columns below it
_INVERSION_SIGN = tuple([tuple([-1 if (~used & ((1 << k) - 1)).bit_count() % 2 else 1
                                for k in range(5)]) for used in range(16)])


def leading_minors(m: KasteleynMatrix) -> Iterator[LaurentPoly]:
    """
    Division-free Laplace expansion along the band rows, yielding every
    leading principal minor in turn: item k is the k x k one.

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


def det_exact(m: KasteleynMatrix) -> LaurentPoly:
    """
    The determinant of the matrix: its last leading minor, with only the
    current minors held, so memory stays linear in the size.
    """
    for minor in leading_minors(m):
        pass
    return minor


# -- verification ------------------------------------------------------------

class KasteleynReport(NamedTuple):
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
    """The snake of r/s, its statistic, numerator and Kasteleyn matrix: det
    must be kasteleyn_sign(g) stat, and the numerator the matrix route's."""
    cf = cf_expand(r, s)
    g = snake_graph(cf)
    stat = matching_stat_dp(g)
    expected = q_matrix_eval(cf).num
    mat = kasteleyn_matrix(g)
    det = det_exact(mat)
    sign = 1 if det == stat else (-1 if -det == stat else 0)
    return KasteleynReport(matrix=mat, det=det, statistic=stat, sign=sign,
                           scalar=scalar_exponent(g), numerator=expected,
                           det_matches_statistic=sign == kasteleyn_sign(g),
                           scaled_matches_numerator=snake_fraction(g, stat)[0] == expected)


def kasteleyn_sign(g: SnakeGraph) -> int:
    """
    det / statistic, (-1)^(boxes + 1): + exactly when the box count is odd.

    Proof: a term of det is a perfect matching, with its permutation's sign,
    an entry sign per edge and its weight, so it is enough that all terms
    have one sign.  The entries round a box are one + (its weighted edge)
    and three -.  Two matchings differ on disjoint cycles, each bounding m
    consecutive boxes, 2m + 2 edges and no vertex inside, so trading one's
    edges changes the entry signs by (-1)^m, the boxes' product with each
    inner side counted twice, and the permutation by an (m + 1)-cycle,
    (-1)^m too.  That sign is the term of the matching of the walk's first
    edge and each box's side between the two corners it adds (north if
    glued above, east if right): unweighted, entries -1, black i to white i.
    """
    return (-1) ** (len(g.exps) + 1)
