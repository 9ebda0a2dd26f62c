import math
import random

import pytest

import qsnake.kasteleyn
from qsnake.kasteleyn import (KasteleynMatrix, det_exact, kasteleyn_matrix,
                              leading_minors, number_vertices, verify_kasteleyn)
from qsnake.laurent import LaurentPoly, ONE, ZERO
from qsnake.matching import matching_stat_dp
from qsnake.qrational import cf_expand, fibonacci_families, fibonacci_number, q_int
from qsnake.snake import SnakeGraph, snake_graph

from oracles import box_edges, corner_numbering, det_expansion, permutation_term_signs


def lp(min_deg, *coeffs):
    return LaurentPoly(min_deg, coeffs)


M = LaurentPoly.monomial
SWEEP = [(r, s) for r in range(2, 21) for s in range(1, r) if math.gcd(r, s) == 1]

# the worked 7x7 matrix for 13/3 as printed, rows by black vertices
PRINTED_13_3 = [
    ["q", -1, 0, 0, 0, 0, 0],
    [-1, -1, "q", -1, 0, 0, 0],
    [0, "q", 0, -1, 0, 0, 0],
    [0, 0, -1, -1, -1, 0, 0],
    [0, 0, 0, "q", -1, "1/q", 0],
    [0, 0, 0, 0, "1/q", 0, -1],
    [0, 0, 0, 0, -1, -1, -1],
]

# its 3-diagonal conjugate with the same determinant
THREE_DIAG_13_3 = [
    ["q", -1, 0, 0, 0, 0, 0],
    [-1, "-[2]", "q", 0, 0, 0, 0],
    [0, "q", 0, -1, 0, 0, 0],
    [0, 0, -1, -1, -1, 0, 0],
    [0, 0, 0, "q", "-[2]inv", "1/q", 0],
    [0, 0, 0, 0, "1/q", 0, -1],
    [0, 0, 0, 0, 0, -1, -1],
]

DET_13_3 = lp(-2, 1, 2, 3, 3, 2, 1, 1)


def _entry(x):
    if x == "q":
        return M(1)
    if x == "1/q":
        return M(-1)
    if x == "-[2]":
        return -q_int(2)
    if x == "-[2]inv":
        return -q_int(2).shifted(-1)
    return LaurentPoly(0, (x,)) if x else ZERO


def _parse(rows):
    return tuple(tuple(_entry(x) for x in row) for row in rows)


def test_numbering_sizes():
    for cf, expect in [((2,), 2), ((4, 3), 7)]:
        black, white = number_vertices(snake_graph(cf))
        assert len(black) == len(white) == expect
    # a Fibonacci-type strip with n - 1 boxes gives an n x n matrix
    g = snake_graph(cf_expand(fibonacci_number(9), fibonacci_number(8)))
    assert len(kasteleyn_matrix(g)) == len(g.boxes) + 1 == 8


def test_walk_numbering_matches_the_corner_sweep():
    # the walk's path-order vertices split by color against the sweep of
    # every box's four corners, on the boxless [1] too; the sorted vertices
    # are the edges' ends, and each vertex is one tuple, which the corners
    # and the edge keys share
    for cf in [(1,)] + [cf_expand(r, s) for r, s in _coprime(200)]:
        g = snake_graph(cf)
        assert number_vertices(g) == corner_numbering(g), cf
        assert g.vertices == tuple(sorted({v for e in g.weight_exp for v in e})), cf
        ids = {id(v) for e in g.weight_exp for v in e}
        assert len(ids) == 2 * len(g.exps) + 2, cf
        assert ids == {id(v) for v in g.corners}, cf


def test_face_condition_read_from_the_band():
    # Kasteleyn's condition on every bounded face: of each box's four edges,
    # found in the band through the vertex orders alone, one is +q^k and
    # three are -1, so the signs round the face multiply to -1
    face = [(-1, 0), (-1, 0), (-1, 0), (1, 1)]
    for r, s in _coprime(150):
        g = snake_graph(cf_expand(r, s))
        mat = kasteleyn_matrix(g)
        row_of = {v: i for i, v in enumerate(mat.black_order)}
        col_of = {v: j for j, v in enumerate(mat.white_order)}
        entry = {(i, i - 2 + k): (sign, int(exp != 0))
                 for i, row in enumerate(mat.band) for k, sign, exp in row}
        for box in g.boxes:
            entries = sorted([entry[row_of[u], col_of[v]] if u in row_of
                              else entry[row_of[v], col_of[u]]
                              for u, v in box_edges(box).values()])
            assert entries == face, (r, s, box)


def test_matrix_13_3_matches_printed_up_to_permutation():
    mat = kasteleyn_matrix(snake_graph((4, 3)))
    printed = _parse(PRINTED_13_3)
    # the path numbering differs from the printed one by the row swap (6 7)
    # and the column swaps (1 2)(3 4); |det| is unchanged
    row_perm = [0, 1, 2, 3, 4, 6, 5]
    col_perm = [1, 0, 3, 2, 4, 5, 6]
    entries = tuple(mat.dense_rows())
    for i in range(7):
        for j in range(7):
            assert entries[i][j] == printed[row_perm[i]][col_perm[j]], (i, j)


def test_nonzero_count():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        mat = kasteleyn_matrix(g)
        nonzero = sum(1 for row in mat.dense_rows() for e in row if not e.is_zero())
        assert nonzero == 3 * len(g.boxes) + 1


def test_det_13_3_golden():
    mat = kasteleyn_matrix(snake_graph((4, 3)))
    det = det_exact(mat)
    assert det == DET_13_3 or -det == DET_13_3
    assert det_expansion(_parse(PRINTED_13_3)) == DET_13_3


def test_three_diagonal_conjugate_same_det():
    printed = det_expansion(_parse(PRINTED_13_3))
    conjugate = det_expansion(_parse(THREE_DIAG_13_3))
    assert conjugate == printed == DET_13_3


def test_det_trivial_and_single_box():
    assert det_exact(KasteleynMatrix((((2, 1, 1),),), ((0, 0),), ((1, 0),))) == M(1)
    mat = kasteleyn_matrix(snake_graph((2,)))
    det = det_exact(mat)
    assert det == lp(0, 1, 1) or -det == lp(0, 1, 1)


def test_bareiss_equals_expansion():
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        if sum(cf) > 8:
            continue
        mat = kasteleyn_matrix(snake_graph(cf))
        assert det_exact(mat) == det_expansion(mat), (r, s)
    assert det_expansion(_parse(THREE_DIAG_13_3)) == DET_13_3


def test_leading_minors_are_prefix_snake_statistics(_cut):
    # under the path numbering the leading (b+1) x (b+1) block is the
    # Kasteleyn matrix of the snake's first b boxes, the snake of the cf cut
    # to sum b + 1
    for r in range(2, 31):
        for s in range(1, r):
            if math.gcd(r, s) != 1:
                continue
            cf = cf_expand(r, s)
            minors = list(leading_minors(kasteleyn_matrix(snake_graph(cf))))
            assert len(minors) == sum(cf) + 1
            for b in range(1, sum(cf)):
                stat = matching_stat_dp(snake_graph(_cut(cf, b + 1)))
                assert minors[b + 1] in (stat, -stat), (r, s, b)


def _random_band(rng, n):
    """An n x n band of random signed monomials, each in-range offset present w.p. 0.7."""
    band = tuple(tuple((k, rng.choice((1, -1)), rng.randint(-2, 2))
                       for k in range(5)
                       if 0 <= i - 2 + k < n and rng.random() < 0.7)
                 for i in range(n))
    return KasteleynMatrix(band, (), ())


def test_leading_minors_of_random_bands(monkeypatch):
    rng = random.Random(7)
    mats = [_random_band(rng, rng.randint(1, 7)) for _ in range(200)]
    minors = [list(leading_minors(mat)) for mat in mats]
    for mat, mat_minors in zip(mats, minors):
        entries = tuple(mat.dense_rows())
        assert len(mat_minors) == len(mat) + 1
        for k, minor in enumerate(mat_minors):
            block = tuple(row[:k] for row in entries[:k])
            assert minor == det_expansion(block), (mat.band, k)
        assert det_exact(mat) == mat_minors[-1]
    assert list(leading_minors(KasteleynMatrix((), (), ()))) == [ONE]

    def refuse(self, other):
        raise AssertionError("the band expansion multiplied two polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    assert [list(leading_minors(mat)) for mat in mats] == minors


def _coprime(max_r):
    return [(r, s) for r in range(2, max_r + 1) for s in range(1, r) if math.gcd(r, s) == 1]


def test_band_equals_dense_matrix():
    # the dense view of the band against the matrix built here entry by entry
    # from the numbering, the orientation and the weights
    for r, s in _coprime(40):
        g = snake_graph(cf_expand(r, s))
        black, white = number_vertices(g)
        dense = [[ZERO] * len(white) for _ in black]
        for e in g.weight_exp:
            tail, head = g.arrow(e)
            if g.is_black(tail):
                i, j, sign = black.index(tail), white.index(head), 1
            else:
                i, j, sign = black.index(head), white.index(tail), -1
            dense[i][j] = M(g.weight_exp[e], sign)
        mat = kasteleyn_matrix(g)
        assert tuple(mat.dense_rows()) == tuple(tuple(row) for row in dense), (r, s)
        assert len(mat) == len(black)
        assert sum(len(row) for row in mat.band) == len(g.weight_exp)


def test_band_sign_is_the_arrow_orientation():
    # the matrix signs an entry by its weight alone, +1 on a weighted edge
    # and -1 on any other; that must be the canonical orientation: + exactly
    # on an edge whose arrow runs black -> white, for every edge of every
    # snake with r <= 100
    for r, s in _coprime(100):
        g = snake_graph(cf_expand(r, s))
        mat = kasteleyn_matrix(g)
        row_of = {v: i for i, v in enumerate(mat.black_order)}
        col_of = {v: j for j, v in enumerate(mat.white_order)}
        signs = {(i, i - 2 + k): sign for i, row in enumerate(mat.band) for k, sign, _ in row}
        assert len(signs) == len(g.weight_exp), (r, s)
        for e in g.weight_exp:
            tail, head = g.arrow(e)
            if g.is_black(tail):
                assert signs[row_of[tail], col_of[head]] == 1, (r, s, e)
            else:
                assert signs[row_of[head], col_of[tail]] == -1, (r, s, e)


def test_determinant_multiplies_no_polynomials(monkeypatch):
    # each entry +-q^k is applied as a shift by k and a sign
    cases = []
    for r, s in _coprime(30):
        cases.append(((r, s), verify_kasteleyn(r, s)))
    strip = _strip_dets(40)

    def refuse(self, other):
        raise AssertionError("the Kasteleyn determinant multiplied two polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    for pair, before in cases:
        assert verify_kasteleyn(*pair) == before, pair
    assert _strip_dets(40) == strip


def test_large_strip_builds_no_dense_matrix(monkeypatch):
    # (4001, 1) is a 4000-box strip: its dense matrix would hold 4001^2 entries
    def refuse(self):
        raise AssertionError("the dense view was built")

    monkeypatch.setattr(KasteleynMatrix, "dense_rows", refuse)
    rep = verify_kasteleyn(4001, 1)
    assert rep.ok and len(rep.matrix) == 4001
    assert rep.det.eval_at_one() in (4001, -4001)


def test_det_sign_is_exact(monkeypatch):
    # det = (-1)^sum(cf) * stat, so + exactly when the box count is odd; a
    # determinant negated on even box counts keeps |det| = stat and fails
    pairs = _coprime(40)
    for r, s in pairs:
        cf = cf_expand(r, s)
        rep = verify_kasteleyn(r, s)
        assert rep.det_matches_statistic and rep.sign == (-1) ** sum(cf), (r, s)
    real = qsnake.kasteleyn.det_exact

    def even_negated(m):
        det = real(m)
        return -det if (len(m) - 1) % 2 == 0 else det

    monkeypatch.setattr(qsnake.kasteleyn, "det_exact", even_negated)
    for r, s in pairs:
        rep = verify_kasteleyn(r, s)
        even = (sum(cf_expand(r, s)) - 1) % 2 == 0
        assert rep.det_matches_statistic != even, (r, s)
        assert rep.scaled_matches_numerator, (r, s)


def test_matrix_refuses_an_edge_outside_the_band():
    # boxes that loop back to the first column: the last box's edges join
    # vertices numbered far apart along the path.  No exponent word builds
    # that shape, so it is planted as the instance's derived boxes
    wide = SnakeGraph((1, 1, 1, 1))
    vars(wide)["boxes"] = ((0, 0), (1, 0), (1, 1), (0, 1))
    with pytest.raises(ValueError, match="outside the band"):
        kasteleyn_matrix(wide)


def test_permutation_terms_single_sign():
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        if sum(cf) - 1 > 10:
            continue
        mat = kasteleyn_matrix(snake_graph(cf))
        signs = permutation_term_signs(mat)
        assert len(signs) == r
        assert len(set(signs)) == 1, (r, s)


def test_verify_kasteleyn_reports():
    rep = verify_kasteleyn(13, 3)
    assert rep.ok and rep.scalar == 2
    assert M(2) * rep.statistic == rep.numerator
    rep = verify_kasteleyn(5, 2)
    assert rep.ok and rep.scalar == 1
    for r in range(2, 11):
        assert verify_kasteleyn(r, 1).ok
    assert verify_kasteleyn(1001, 3).ok


def test_verify_sweep():
    for r, s in SWEEP:
        rep = verify_kasteleyn(r, s)
        assert rep.ok, (r, s)
        assert rep.sign in (1, -1)


def _strip_dets(n):
    """
    Entry k (k = 0 .. n) is the Kasteleyn determinant of the snake of k ones,
    signed so its lowest coefficient is positive, read as the fibonacci
    command reads it: the snake of k ones is the first k - 1 boxes of the
    strip of n ones, and its matrix the leading k x k block of the strip's.
    """
    minors = list(leading_minors(kasteleyn_matrix(snake_graph((1,) * n))))
    return [m if m.coeffs[0] > 0 else -m for m in minors]


def test_fibonacci_kasteleyn_matches_strip_statistic():
    dets = _strip_dets(14)
    for n in range(2, 15):
        r, s = fibonacci_number(n + 1), fibonacci_number(n)
        strip = snake_graph(cf_expand(r, s))
        stat = matching_stat_dp(strip)
        assert dets[n] == stat, n


def test_fibonacci_kasteleyn_at_one():
    dets = _strip_dets(20)
    assert dets[2].eval_at_one() == 2
    for n in range(2, 21):
        assert dets[n].eval_at_one() == fibonacci_number(n + 1), n


def test_fibonacci_numerator_variant():
    # each determinant normalized so its lowest term is the constant
    nums = [det.shifted(-det.min_deg) for det in _strip_dets(20)]
    assert nums[5] == lp(0, 1, 2, 2, 2, 1)
    assert nums[7] == lp(0, 1, 3, 4, 5, 4, 3, 1)
    expected = fibonacci_families(21)[0]
    for n in range(2, 21):
        assert nums[n] == expected[n + 1], n
