import math
from fractions import Fraction

import pytest

from qsnake import laurent
from qsnake.laurent import LaurentPoly, ONE, ZERO
from qsnake.qrational import (all_routes, cf_even_form, cf_expand,
                              cf_matrix_word, cf_odd_form, cf_value,
                              continuant_det, fibonacci_number,
                              fibonacci_polys, q_cf_eval, q_continuant,
                              q_int, q_map_general, q_matrix_eval, q_rational)
from qsnake.verify import check_pair


def lp(min_deg, *coeffs):
    return LaurentPoly(min_deg, coeffs)


def poly(*coeffs):
    return LaurentPoly(0, coeffs)


# fractions printed in the worked examples, keyed by (r, s)
GOLDEN = {
    (5, 2): (poly(1, 2, 1, 1), poly(1, 1)),
    (7, 4): (poly(1, 1, 2, 2, 1), poly(1, 1, 1, 1)),
    (29, 12): (poly(1, 3, 5, 6, 6, 5, 2, 1), poly(1, 2, 3, 3, 2, 1)),
    (5, 3): (poly(1, 1, 2, 1), poly(1, 1, 1)),
    (8, 5): (poly(1, 2, 2, 2, 1), poly(1, 2, 1, 1)),
    (13, 8): (poly(1, 2, 3, 3, 3, 1), poly(1, 2, 2, 2, 1)),
    (21, 13): (poly(1, 3, 4, 5, 4, 3, 1), poly(1, 3, 3, 3, 2, 1)),
    (13, 3): (poly(1, 2, 3, 3, 2, 1, 1), poly(1, 1, 1)),
}

SWEEP = [(r, s) for r in range(1, 61) for s in range(1, r + 1) if math.gcd(r, s) == 1]


def test_cf_expand():
    assert cf_expand(5, 2) == (2, 2)
    assert cf_expand(13, 3) == (4, 3)
    assert cf_expand(7, 1) == (7,)
    assert cf_expand(7, 4) == (1, 1, 3)
    assert cf_expand(179, 74) == (2, 2, 2, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        cf_expand(4, 2)
    with pytest.raises(ValueError):
        cf_expand(2, 3)
    with pytest.raises(ValueError):
        cf_expand(3, 0)


def test_parity_forms():
    assert cf_even_form((2, 2)) == (2, 2)
    assert cf_odd_form((2, 2, 2, 2)) == (2, 2, 2, 1, 1)
    assert cf_even_form((1, 1, 3)) == (1, 1, 2, 1)
    assert cf_even_form((7,)) == (6, 1)
    assert cf_even_form((1,)) == (0, 1)
    assert cf_odd_form((1, 1, 2, 1)) == (1, 1, 3)
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        assert cf_value(cf_even_form(cf)) == Fraction(r, s)
        if cf_odd_form(cf)[0] >= 1:
            assert cf_value(cf_odd_form(cf)) == Fraction(r, s)


def test_q_int():
    assert q_int(3) == poly(1, 1, 1)
    assert q_int(1) == ONE
    assert q_int(0) == ZERO
    assert q_int(2, inverted=True) == lp(-1, 1, 1)


def test_q_cf_eval_golden():
    assert q_cf_eval((2, 2)) == q_rational(5, 2)
    got = q_cf_eval((1, 1, 2, 1))
    assert (got.num, got.den) == GOLDEN[(7, 4)]
    single = q_cf_eval((6,))
    assert (single.num, single.den) == (q_int(6), ONE)


def test_q_matrix_eval_golden():
    for (r, s), (num, den) in GOLDEN.items():
        got = q_matrix_eval(cf_expand(r, s))
        assert got.num == num, f"{r}/{s} numerator"
        assert got.den == den, f"{r}/{s} denominator"
    one = q_matrix_eval((1,))
    assert (one.num, one.den) == (ONE, ONE)


def test_q_continuant_golden():
    assert q_continuant((2, 2)) == GOLDEN[(5, 2)][0]
    assert q_continuant((4, 3)) == GOLDEN[(13, 3)][0]
    assert q_continuant((5,)) == q_int(5)


def test_q_rational_golden_and_verify():
    for (r, s), (num, den) in GOLDEN.items():
        got = q_rational(r, s)
        assert (got.num, got.den) == (num, den)
        assert all_routes(cf_expand(r, s)).agree
    triv = q_rational(1, 1)
    assert (triv.num, triv.den) == (ONE, ONE)


def test_four_route_agreement_sweep():
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        ref = q_matrix_eval(cf)
        assert q_cf_eval(cf) == ref, (r, s)
        assert q_continuant(cf) == ref.num, (r, s)
        assert q_map_general(Fraction(r, s)) == ref, (r, s)
        # the normalization the routes are compared under
        assert ref.num.min_deg == ref.den.min_deg == 0, (r, s)
        assert ref.num.coeffs[0] == ref.den.coeffs[0] == 1, (r, s)


def test_classical_specialization_and_positivity():
    for r, s in SWEEP:
        qr = q_rational(r, s)
        assert qr.num.eval_at_one() == r
        assert qr.den.eval_at_one() == s
        assert qr.num.min_deg == 0 and qr.den.min_deg == 0
        assert all(c > 0 for c in qr.num.coeffs)
        assert all(c > 0 for c in qr.den.coeffs)
        assert qr.num.coeffs[-1] == 1 and qr.den.coeffs[-1] == 1


def test_parity_independence():
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        even, odd = cf_even_form(cf), cf_odd_form(cf)
        assert q_matrix_eval(even) == q_matrix_eval(odd), (r, s)
        assert q_cf_eval(even) == q_cf_eval(odd), (r, s)


def test_word_determinant_is_monomial():
    for cf in [(2, 2), (1, 1, 3), (4, 3), (2, 2, 2, 2), (7,)]:
        det = cf_matrix_word(cf).det()
        assert det == LaurentPoly.monomial(sum(cf)), cf


def test_denominator_from_truncated_word():
    # dropping the leading generator power exposes the denominator in the
    # word's remaining column (bottom-left over q for even length, bottom-right
    # for odd length)
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        if len(cf) < 2:
            continue
        tail = cf_matrix_word_offset(cf)
        qr = q_rational(r, s)
        assert tail == qr.den, (r, s)
        assert tail.eval_at_one() == s


def cf_matrix_word_offset(cf):
    # R^0 is the identity, so this is the word without its leading power
    m = cf_matrix_word((0,) + cf[1:])
    if len(cf) % 2 == 0:
        return m.c.div_exact(LaurentPoly.monomial(1))
    return m.d


def test_q_map_general_values():
    zero = q_map_general(0)
    assert zero.num == ZERO and zero.den == ONE
    half52 = q_map_general(Fraction(5, 2))
    assert (half52.num, half52.den) == GOLDEN[(5, 2)]
    # [-1/2] by hand from the recurrences:
    #   [-2] = -q^-2 (1 + q),  [1/2] = -1/(q [-2]) = q/(1+q),
    #   [-1/2] = ([1/2] - 1)/q = -1/(q + q^2) = -q^-1 / (1 + q)
    neg_half = q_map_general(Fraction(-1, 2))
    assert neg_half.num == lp(-1, -1)
    assert neg_half.den == poly(1, 1)
    assert q_map_general(math.inf).is_infinity()
    assert q_map_general(4).num == q_int(4)
    minus_two = q_map_general(-2)
    assert minus_two.num == lp(-2, -1, -1) and minus_two.den == ONE


def test_deep_routes_agree():
    # 1000 Euclidean steps: deeper than the recursion limit, so the recurrence
    # map must loop, and of degree about 1000, where a gcd on a route would
    # take minutes
    cf = cf_expand(fibonacci_number(1001), fibonacci_number(1000))
    assert cf == (1,) * 998 + (2,)
    assert all_routes(cf).agree


def test_routes_call_no_gcd(monkeypatch):
    # every route is reduced by construction, so a gcd on its path is waste
    def no_gcd(a, b):
        raise AssertionError(f"laurent_gcd({a}, {b}) on the route path")

    monkeypatch.setattr(laurent, "laurent_gcd", no_gcd)
    pairs = [(fibonacci_number(201), fibonacci_number(200)),
             (64, 1), (64, 63), (29, 12), (61, 27)]
    for r, s in pairs:
        assert all_routes(cf_expand(r, s)).agree, (r, s)
    assert check_pair((13, 3)).ok


def test_fibonacci_polys():
    num5, den4 = fibonacci_polys(5)[0], fibonacci_polys(4)[1]
    assert num5 == poly(1, 1, 2, 1)
    assert den4 == poly(1, 1, 1)
    num7, den6 = fibonacci_polys(7)[0], fibonacci_polys(6)[1]
    assert num7 == poly(1, 2, 3, 3, 3, 1)
    assert den6 == poly(1, 2, 2, 2, 1)
    assert fibonacci_polys(1) == (ONE, ONE)
    for n in range(1, 21):
        num, den = fibonacci_polys(n + 1)[0], fibonacci_polys(n)[1]
        qr = q_rational(fibonacci_number(n + 1), fibonacci_number(n))
        assert num == qr.num, n
        assert den == qr.den, n
    for n in range(2, 21):
        num, den = fibonacci_polys(n)
        assert num == den.mirror(n - 2), n


def test_continuant_shift_matches_paperless_scalar():
    # the raw tridiagonal determinant sits at q^-n times the numerator, where
    # n is the matching-statistic scalar (checked against scalar_exponent in
    # the matching tests); here we pin that it is always a pure shift
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        det = continuant_det(cf)
        assert det.shifted(-det.min_deg) == q_rational(r, s).num
