import math

import pytest

from qsnake.kasteleyn import (bandwidth_ok, det_exact,
                              det_expansion, fibonacci_band_matrix,
                              fibonacci_kasteleyn,
                              fibonacci_kasteleyn_numerator, kasteleyn_matrix,
                              number_vertices, permutation_term_signs,
                              verify_kasteleyn)
from qsnake.laurent import LaurentPoly, ONE, ZERO
from qsnake.matching import matching_stat_dp
from qsnake.qrational import cf_expand, fibonacci_number, fibonacci_polys, q_int
from qsnake.snake import snake_graph


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
        return -q_int(2, inverted=True)
    return LaurentPoly(0, (x,)) if x else LaurentPoly.zero()


def _parse(rows):
    return tuple(tuple(_entry(x) for x in row) for row in rows)


def test_numbering_sizes():
    for cf, expect in [((2,), 2), ((4, 3), 7)]:
        black, white = number_vertices(snake_graph(cf))
        assert len(black) == len(white) == expect
    # a Fibonacci-type strip with n - 1 boxes gives an n x n matrix
    g = snake_graph(cf_expand(fibonacci_number(9), fibonacci_number(8)))
    assert kasteleyn_matrix(g).size == len(g.boxes) + 1 == 8


def test_matrix_13_3_matches_printed_up_to_permutation():
    mat = kasteleyn_matrix(snake_graph((4, 3)))
    printed = _parse(PRINTED_13_3)
    # the path numbering differs from the printed one by the row swap (6 7)
    # and the column swaps (1 2)(3 4); |det| is unchanged
    row_perm = [0, 1, 2, 3, 4, 6, 5]
    col_perm = [1, 0, 3, 2, 4, 5, 6]
    for i in range(7):
        for j in range(7):
            assert mat.entries[i][j] == printed[row_perm[i]][col_perm[j]], (i, j)


def test_nonzero_count():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        mat = kasteleyn_matrix(g)
        nonzero = sum(1 for row in mat.entries for e in row if not e.is_zero())
        assert nonzero == 3 * len(g.boxes) + 1


def test_det_13_3_golden():
    mat = kasteleyn_matrix(snake_graph((4, 3)))
    det = det_exact(mat)
    assert det == DET_13_3 or -det == DET_13_3
    assert det_exact(_parse(PRINTED_13_3)) == DET_13_3


def test_three_diagonal_conjugate_same_det():
    printed = det_exact(_parse(PRINTED_13_3))
    conjugate = det_exact(_parse(THREE_DIAG_13_3))
    assert conjugate == printed == DET_13_3


def test_det_trivial_and_single_box():
    assert det_exact(((M(1),),)) == M(1)
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


def test_bandwidth():
    for r, s in SWEEP:
        mat = kasteleyn_matrix(snake_graph(cf_expand(r, s)))
        assert bandwidth_ok(mat), (r, s)


def test_det_refuses_a_wider_band():
    # the 4x4 identity plus one entry at |i - j| = 3
    rows = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    rows[0][3] = ONE
    wide = tuple(tuple(row) for row in rows)
    assert not bandwidth_ok(wide)
    with pytest.raises(ValueError):
        det_exact(wide)


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


def test_fibonacci_band_matrix_small():
    rows = fibonacci_band_matrix(3)
    assert rows[0] == (ONE, ONE, LaurentPoly.zero())
    assert rows[1] == (-M(1), ONE, -M(-1))
    assert rows[2] == (LaurentPoly.zero(), ONE, ONE)
    assert det_expansion(fibonacci_band_matrix(4)).eval_at_one() == 5


def test_fibonacci_kasteleyn_matches_strip_statistic():
    for n in range(2, 15):
        r, s = fibonacci_number(n + 1), fibonacci_number(n)
        strip = snake_graph(cf_expand(r, s))
        stat = matching_stat_dp(strip)
        assert fibonacci_kasteleyn(n) == stat, n
        assert det_exact(fibonacci_band_matrix(n)) == stat, n


def test_fibonacci_kasteleyn_at_one():
    assert fibonacci_kasteleyn(2).eval_at_one() == 2
    for n in range(2, 21):
        assert fibonacci_kasteleyn(n).eval_at_one() == fibonacci_number(n + 1), n


def test_fibonacci_numerator_variant():
    assert fibonacci_kasteleyn_numerator(5) == lp(0, 1, 2, 2, 2, 1)
    assert fibonacci_kasteleyn_numerator(7) == lp(0, 1, 3, 4, 5, 4, 3, 1)
    for n in range(2, 21):
        expected = fibonacci_polys(n + 1)[0]
        assert fibonacci_kasteleyn_numerator(n) == expected, n
