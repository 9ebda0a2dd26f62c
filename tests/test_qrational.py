import math
from fractions import Fraction

import pytest

from qsnake import laurent
from qsnake.laurent import LaurentFraction, LaurentPoly, ONE, ZERO
from qsnake.qrational import (_slot_bytes, all_routes, cf_even_form, cf_expand,
                              cf_matrix_word, cf_value, continuant_det,
                              fibonacci_families, fibonacci_number, q_cf_eval,
                              q_continuant, q_int, q_map_general, q_matrix_eval,
                              q_rational)
from qsnake.verify import check_pair

from oracles import cf_odd_form, qmatrix_det


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
    assert q_int(2).shifted(-1) == lp(-1, 1, 1)


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
        det = qmatrix_det(cf_matrix_word(cf))
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


def test_routes_multiply_no_polynomials(monkeypatch):
    # every product on a route is by a q-integer: shift-adds of packed ints on
    # the matrix route, the running sum of times_qint on the others; the
    # schoolbook product is left to general operands
    pairs = [(13, 3), (29, 12), (64, 1), (64, 63),
             (fibonacci_number(201), fibonacci_number(200))]
    words = [cf_expand(r, s) for r, s in pairs] + [(30, 1, 17, 2, 25, 3, 30, 12)]
    values = [Fraction(-7, 3), Fraction(5, 12), 0]
    routes = [all_routes(cf) for cf in words]
    maps = [q_map_general(x) for x in values]
    fibonacci = fibonacci_families(40)

    def refuse(self, other):
        raise AssertionError("a route multiplied two polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    assert [all_routes(cf) for cf in words] == routes
    assert all(table.agree for table in routes)
    assert [q_map_general(x) for x in values] == maps
    assert fibonacci_families(40) == fibonacci


def test_recurrence_route_matches_reference(recurrence_reference):
    # each pair as r/s, s/r and their negatives, so that the descent takes
    # every kind of step and the ascent meets every pair of signs
    for r, s in SWEEP:
        for x in (Fraction(r, s), Fraction(s, r), Fraction(-r, s), Fraction(-s, r)):
            assert q_map_general(x) == recurrence_reference(x), x
    for x in (0, -1, math.inf):
        assert q_map_general(x) == recurrence_reference(x), x


def test_recurrence_route_runs_no_fraction_arithmetic(monkeypatch):
    # past converting its argument, the route descends on an int pair and
    # ascends with its signs apart: its only negations fold the signs into
    # the fraction at the end
    values = [0, 7, -5, Fraction(1, 2), Fraction(-3, 2), Fraction(3, 4), Fraction(-17, 4),
              Fraction(-7, 3), Fraction(5, 12),
              cf_value(cf_expand(fibonacci_number(81), fibonacci_number(80))),
              -cf_value((1, 4, 2) * 20 + (3,))]
    before = [q_map_general(x) for x in values]
    negations, made = [], []
    neg, new = LaurentPoly.__neg__, Fraction.__new__

    def counting_neg(self):
        negations.append(self)
        return neg(self)

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("the recurrence route ran Fraction arithmetic")

    monkeypatch.setattr(LaurentPoly, "__neg__", counting_neg)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                 "__mod__", "__rmod__", "__divmod__", "__neg__", "__pow__", "__floor__"):
        monkeypatch.setattr(Fraction, name, refuse)
    for x, want in zip(values, before):
        negations.clear()
        made.clear()
        assert q_map_general(x) == want, x
        assert len(negations) <= 2 and len(made) <= 1, (x, len(negations), len(made))


def test_fibonacci_polys():
    nums, dens = fibonacci_families(21)
    assert nums[5] == poly(1, 1, 2, 1)
    assert dens[4] == poly(1, 1, 1)
    assert nums[7] == poly(1, 2, 3, 3, 3, 1)
    assert dens[6] == poly(1, 2, 2, 2, 1)
    assert (nums[1], dens[1]) == (ONE, ONE)
    # a shorter run gives the same families, cut at its index
    for n in range(1, 22):
        assert fibonacci_families(n) == (nums[:n + 1], dens[:n + 1]), n
    for n in range(1, 21):
        qr = q_rational(fibonacci_number(n + 1), fibonacci_number(n))
        assert nums[n + 1] == qr.num, n
        assert dens[n] == qr.den, n
    for n in range(2, 21):
        assert nums[n] == dens[n].mirror(n - 2), n


def test_continuant_shift_matches_paperless_scalar():
    # the raw tridiagonal determinant sits at q^-n times the numerator, where
    # n is the matching-statistic scalar (checked against scalar_exponent in
    # the matching tests); here we pin that it is always a pure shift
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        det = continuant_det(cf)
        assert det.shifted(-det.min_deg) == q_rational(r, s).num


# -- the packed matrix word ----------------------------------------------------

def test_matrix_word_matches_reference(matrix_word_reference):
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        for word in (cf, cf_even_form(cf), cf_odd_form(cf), (0,) + cf[1:]):
            assert cf_matrix_word(word) == matrix_word_reference(word), word
    for word in [(2, 0, 3), (0,), (0, 0), (5, 0), (0, 4, 0, 0, 2)]:
        assert cf_matrix_word(word) == matrix_word_reference(word), word
    # R^0 is the identity and R^a L^0 R^b = R^(a + b)
    assert cf_matrix_word((0,)) == cf_matrix_word(())
    assert cf_matrix_word((2, 0, 3)) == cf_matrix_word((5,))


def test_matrix_word_refuses_negative_quotients():
    for word in [(-1,), (3, -2), (2, 1, -1), (1, -5, 4)]:
        with pytest.raises(ValueError, match="quotients >= 0"):
            cf_matrix_word(word)


def test_matrix_word_uses_no_polynomial_arithmetic(monkeypatch):
    # the route keeps to its own kernel, so agreeing with the other routes,
    # which run times_qint and __add__, is evidence about both
    words = [cf_expand(r, s) for r, s in SWEEP[::7]] + [
        (1,) * 200 + (2,), (30, 1, 17, 2, 25, 3, 30, 12), (2, 0, 3), (0,), (10**4,)]
    before = [cf_matrix_word(cf) for cf in words]

    def refuse(*args):
        raise AssertionError("the matrix route ran LaurentPoly arithmetic")

    for name in ("times_qint", "__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    assert [cf_matrix_word(cf) for cf in words] == before


def _near_golden(r):
    """The s >= 1 nearest r/phi and coprime to r: its quotients are mostly 1."""
    s = max(1, (math.isqrt(5 * r * r) - r) // 2)
    while math.gcd(r, s) != 1:
        s += 1
    return s


def test_slot_widths_at_byte_edges():
    assert [_slot_bytes(m) for m in (1, 255, 256, 65535, 65536, 2**24 - 1, 2**24)] == \
        [1, 1, 2, 2, 4, 4, 4]
    assert [_slot_bytes(m) for m in (2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**72 - 1, 2**72)] == \
        [4, 8, 8, 9, 9, 10]


def test_matrix_route_at_slot_edges(matrix_word_reference):
    # the largest entry at q = 1 is r, which sets the slot width; s = 1 and
    # s = r - 1 have a quotient sum of r, so past 65536 a pair with quotients
    # near 1 stands in for them
    pairs = [(r, s) for r in (255, 256, 65535, 65536) for s in (1, r - 1)]
    pairs += [(r, _near_golden(r)) for r in (255, 256, 65535, 65536, 2**32 - 1,
                                             2**32 + 1, 2**64 - 1, 2**64 + 1)]
    # a Fibonacci word's coefficients come within 4 bits of its q = 1 value,
    # so a slot a byte too narrow carries on the words whose largest
    # coefficient crosses 2^8, 2^16, 2^32 or 2^64
    words = [(1,) * k + (2,) for k in range(1, 110)]
    crossed = set()
    for cf in [cf_expand(r, s) for r, s in pairs] + words:
        ref = matrix_word_reference(cf)
        assert cf_matrix_word(cf) == ref, cf
        num, den = (ref.a, ref.c) if len(cf) % 2 == 0 else (ref.b, ref.d)
        assert q_matrix_eval(cf) == LaurentFraction(num, den), cf
        crossed.add(max(max(p.coeffs, default=0) for p in (ref.a, ref.b, ref.c, ref.d))
                    .bit_length())
    assert {8, 9, 16, 17, 32, 33, 64, 65} <= crossed
