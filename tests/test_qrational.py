import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsnake import laurent, qrational
from qsnake.laurent import LaurentFraction, LaurentPoly, ONE, ZERO
from qsnake.qrational import (_slot_bytes, _unpack, all_routes, cf_expand, cf_matrix_column, cf_value, continuant_det,
                              fibonacci_families, fibonacci_number, q_cf_eval,
                              q_continuant, q_int, q_map_general, q_matrix_eval,
                              q_rational)
from qsnake.verify import check_pair

from oracles import cf_even_form, cf_odd_form, fibonacci_families_reference, qmatrix_det


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


def test_word_determinant_is_monomial(matrix_word_reference):
    for cf in [(2, 2), (1, 1, 3), (4, 3), (2, 2, 2, 2), (7,)]:
        det = qmatrix_det(matrix_word_reference(cf))
        assert det == LaurentPoly.monomial(sum(cf)), cf


def test_denominator_from_truncated_word():
    # dropping the leading generator power exposes the denominator in the
    # bottom entry of the word's column (over q for even length)
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        if len(cf) < 2:
            continue
        # R^0 is the identity, so this is the word without its leading power
        _, tail = cf_matrix_column((0,) + cf[1:])
        if len(cf) % 2 == 0:
            tail = tail.div_exact(LaurentPoly.monomial(1))
        qr = q_rational(r, s)
        assert tail == qr.den, (r, s)
        assert tail.eval_at_one() == s


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
    assert q_map_general(math.inf) == LaurentFraction.infinity()
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
    # the matrix, nested and continuant routes, one int multiplication by the
    # packed q-integer on the recurrence route; the schoolbook product is left
    # to general operands
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


def test_recurrence_route_matches_reference(recurrence_reference, list_recurrence_reference):
    # each pair as r/s, s/r and their negatives, so that the descent takes
    # every kind of step from either sign
    for r, s in SWEEP:
        for x in (Fraction(r, s), Fraction(s, r), Fraction(-r, s), Fraction(-s, r)):
            want = recurrence_reference(x)
            assert q_map_general(x) == want == list_recurrence_reference(x), x
    for x in (0, -1, 5, -7, math.inf):
        want = recurrence_reference(x)
        assert q_map_general(x) == want == list_recurrence_reference(x), x


def test_recurrence_route_runs_no_fraction_arithmetic(monkeypatch):
    # past converting its argument, the route descends on an int pair and
    # ascends on packed ints of nonnegative slots, putting the sign of its
    # argument on the numerator's coefficients at the end, so the fraction
    # it builds negates no polynomial
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
        assert not negations and len(made) <= 1, (x, len(negations), len(made))


# words whose quotients rounded down would take thousands of steps, each as
# r/s, -r/s and s/r, so that the ascent meets every kind of step
DEEP_WORDS = [(1, 1, 3000), (1,) * 100 + (3000,), (2, 3000, 5, 1, 4000, 2), (7, 1, 1, 9)]
DEEP_VALUES = [v for cf in DEEP_WORDS for v in (cf_value(cf), -cf_value(cf), 1 / cf_value(cf))]


def test_recurrence_route_matches_list_reference_at_full_size(list_recurrence_reference):
    # quotients of 3000 and 4000, which the schoolbook reference takes
    # seconds a value to multiply by
    for x in DEEP_VALUES:
        assert q_map_general(x) == list_recurrence_reference(x), x


def test_recurrence_route_takes_two_steps_per_quotient(monkeypatch):
    # the descent follows the regular continued fraction; rounding each
    # integer part down instead walks [1; 1, 3000] in 6000 unit steps, each
    # a packed product by [a] in the ascent, and the start [p] is one more
    before = [q_map_general(x) for x in DEEP_VALUES]
    kernel, calls = qrational._times_qint_mul, []

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(qrational, "_times_qint_mul", counting)
    for i, (x, want) in enumerate(zip(DEEP_VALUES, before)):
        calls.clear()
        assert q_map_general(x) == want, x
        assert 0 < len(calls) <= 2 * len(DEEP_WORDS[i // 3]) + 1, (x, len(calls))


def test_recurrence_route_uses_no_polynomial_arithmetic(monkeypatch):
    # the route ascends on packed ints, one int expression per nonzero step,
    # so it shares no arithmetic with the matching DP or det_exact
    before = [q_map_general(x) for x in DEEP_VALUES]

    def refuse(*args):
        raise AssertionError("the recurrence route ran LaurentPoly arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    assert [q_map_general(x) for x in DEEP_VALUES] == before


# the shapes of DEEP_WORDS with quotients up to 300, so that the schoolbook
# reference stays cheap, each as r/s or s/r, of either sign
DEEP_SHAPES = st.one_of(
    st.builds(lambda n: (1, 1, n), st.integers(1, 300)),
    st.builds(lambda k, n: (1,) * k + (n,), st.integers(1, 100), st.integers(1, 300)),
    st.builds(lambda n, m: (2, n, 5, 1, m, 2), st.integers(1, 300), st.integers(1, 300)),
    st.just((7, 1, 1, 9)))
DEEP_SHAPED_VALUES = st.builds(
    lambda cf, sign, inverted: sign / cf_value(cf) if inverted else sign * cf_value(cf),
    DEEP_SHAPES, st.sampled_from((1, -1)), st.booleans())

# rationals of either sign, rationals inside (-1, 1), whose first step is
# an inversion, and the deep shapes
ASCENT_INPUTS = (st.fractions(min_value=-30, max_value=30, max_denominator=200)
                 | st.fractions(min_value=-1, max_value=1, max_denominator=10**4)
                 .filter(lambda x: abs(x) < 1)
                 | DEEP_SHAPED_VALUES)


@settings(derandomize=True, database=None, deadline=None)
@given(ASCENT_INPUTS)
def test_recurrence_route_only_adds(recurrence_reference, list_recurrence_reference, x):
    # every step of the ascent adds, so every slot of every int it builds is
    # at most max(|p|, d) of x = p/d, the bound that sets its slot width:
    # the operand and result of each product by [m]_q and the two ints read
    # at the end, each int of the ascent a term of one of those
    bound = max(abs(x.numerator), x.denominator)
    product, read, seen = qrational._times_qint_mul, qrational._slots.__wrapped__, []

    def products(y, n, bits):
        out = product(y, n, bits)
        seen.extend([(y, bits), (out, bits)])
        return out

    def reads(y, width):
        seen.append((y, 8 * width))
        return read(y, width)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(qrational, "_times_qint_mul", products)
        m.setattr(qrational, "_slots", reads)
        got = q_map_general(x)
    for y, bits in seen:
        assert bits == 8 * _slot_bytes(bound), (x, bits)
        assert max(read(y, bits // 8), default=0) <= bound, (x, y)
    assert got == recurrence_reference(x) == list_recurrence_reference(x), x


def test_fibonacci_polys():
    nums, dens = fibonacci_families(21)
    assert nums[5] == poly(1, 1, 2, 1)
    assert dens[4] == poly(1, 1, 1)
    assert nums[7] == poly(1, 2, 3, 3, 3, 1)
    assert dens[6] == poly(1, 2, 2, 2, 1)
    assert (nums[1], dens[1]) == (ONE, ONE)


def test_fibonacci_families_match_two_family_reference():
    # the numerators are mirrors of the denominators by definition, so the
    # evidence is a reference that runs both families on the list kernel;
    # a run of it to n is its run to 301 cut at n, which the first indices
    # check directly
    nums, dens = fibonacci_families_reference(301)
    for n in range(22):
        assert fibonacci_families_reference(n) == (nums[:n + 1], dens[:n + 1]), n
    for n in range(302):
        want = fibonacci_families_reference(n) if n < 22 else (nums[:n + 1], dens[:n + 1])
        assert fibonacci_families(n) == want, n
    # and every row against the matrix route
    nums, dens = fibonacci_families(301)
    for k in range(1, 301):
        qr = q_rational(fibonacci_number(k + 1), fibonacci_number(k))
        assert (nums[k + 1], dens[k]) == (qr.num, qr.den), k


def test_fibonacci_families_hold_every_index_0_to_n():
    assert fibonacci_families(0) == ([ONE], [ONE])
    assert fibonacci_families(1) == ([ONE, ONE], [ONE, ONE])


def test_fibonacci_families_refuse_negative_n():
    for n in (-1, -2, -302):
        with pytest.raises(ValueError, match="n >= 0"):
            fibonacci_families(n)


def test_continuant_shift_matches_paperless_scalar():
    # the raw tridiagonal determinant sits at q^-n times the numerator, where
    # n is the matching-statistic scalar (checked against scalar_exponent in
    # the matching tests); here we pin that it is always a pure shift
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        det = continuant_det(cf)
        assert det.shifted(-det.min_deg) == q_rational(r, s).num


# -- the packed matrix column --------------------------------------------------

def test_matrix_word_matches_reference(matrix_column_reference):
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        for word in (cf, cf_even_form(cf), cf_odd_form(cf), (0,) + cf[1:]):
            assert cf_matrix_column(word) == matrix_column_reference(word), word
    for word in [(2, 0, 3), (0,), (0, 0), (5, 0), (0, 4, 0, 0, 2)]:
        assert cf_matrix_column(word) == matrix_column_reference(word), word
    # R^0 is the identity and R^a L^0 R^b = R^(a + b)
    assert cf_matrix_column((0,)) == (ZERO, ONE)
    assert cf_matrix_column((0, 0)) == cf_matrix_column(()) == (ONE, ZERO)
    assert cf_matrix_column((2, 0, 3)) == cf_matrix_column((5,))


def test_matrix_word_refuses_negative_quotients():
    for word in [(-1,), (3, -2), (2, 1, -1), (1, -5, 4)]:
        with pytest.raises(ValueError, match="quotients >= 0"):
            cf_matrix_column(word)


def test_matrix_word_uses_no_polynomial_arithmetic(monkeypatch):
    # the route keeps to the shift-add kernel, so agreeing with the
    # recurrence route, which multiplies by the packed q-integer
    # (_times_qint_mul), is evidence about both
    words = [cf_expand(r, s) for r, s in SWEEP[::7]] + [
        (1,) * 200 + (2,), (30, 1, 17, 2, 25, 3, 30, 12), (2, 0, 3), (0,), (10**4,)]
    before = [cf_matrix_column(cf) for cf in words]

    def refuse(*args):
        raise AssertionError("the matrix route ran LaurentPoly arithmetic")

    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    assert [cf_matrix_column(cf) for cf in words] == before


def test_matrix_route_takes_one_qint_product_per_quotient(monkeypatch):
    # only the column the route reads is built: one packed product by [n]
    # per quotient, zero quotients included, not one per column
    kernel, calls = qrational._times_qint, []

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(qrational, "_times_qint", counting)
    for cf in [(4, 3), (1, 1, 3), (7,), (2, 2, 2, 2), (30, 1, 17, 2, 25),
               (2, 0, 3), (0,), (0, 0), (3, 0, 1, 2), (0, 4, 0, 0, 2), (1,) * 40 + (2,)]:
        calls.clear()
        q_matrix_eval(cf)
        assert calls == list(reversed(cf)), cf


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


# The largest entry at q = 1 is r, which sets the slot width; s = 1 and
# s = r - 1 have a quotient sum of r, so past 65536 a pair with quotients
# near 1 stands in for them.  A Fibonacci word's coefficients come within 4
# bits of its q = 1 value, so a slot a byte too narrow carries on the words
# whose largest coefficient crosses 2^8, 2^16, 2^32 or 2^64.
SLOT_EDGE_PAIRS = [(r, s) for r in (255, 256, 65535, 65536) for s in (1, r - 1)] + [
    (r, _near_golden(r)) for r in (255, 256, 65535, 65536, 2**32 - 1, 2**32 + 1,
                                   2**64 - 1, 2**64 + 1)]
SLOT_EDGE_WORDS = [cf_expand(r, s) for r, s in SLOT_EDGE_PAIRS] + [
    (1,) * k + (2,) for k in range(1, 110)]
CROSSED_BITS = {8, 9, 16, 17, 32, 33, 64, 65}


def _column_at_one(word):
    """The matrix route's column of word at q = 1, in plain int arithmetic."""
    x, y = (0, 1) if len(word) % 2 else (1, 0)
    for i in reversed(range(len(word))):
        if i % 2 == 0:
            x += word[i] * y
        else:
            y += word[i] * x
    return x, y


def _compute_big_words(count=24, seed=27):
    """
    Seeded words of the benchmark's compute-big shape: length 20-60 and
    quotients 1-30, with one to three zeros inside, so that two L steps or
    two R steps meet, kept when the column's slots are 10-27 bytes wide.
    """
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        size = rng.randint(20, 60)
        word = [rng.randint(1, 30) for _ in range(size)]
        for i in rng.sample(range(1, size - 1), rng.randint(1, 3)):
            word[i] = 0
        if 10 <= _slot_bytes(max(_column_at_one(word))) <= 27:
            words.append(tuple(word))
    return words


COMPUTE_BIG_WORDS = _compute_big_words()


def test_matrix_route_at_slot_edges(matrix_column_reference):
    crossed = set()
    for cf in SLOT_EDGE_WORDS + COMPUTE_BIG_WORDS:
        ref = matrix_column_reference(cf)
        assert cf_matrix_column(cf) == ref, cf
        assert q_matrix_eval(cf) == LaurentFraction(*ref), cf
        crossed.add(max(max(p.coeffs, default=0) for p in ref).bit_length())
    assert CROSSED_BITS <= crossed


# -- the packed nested fraction and continuant ---------------------------------

ZERO_QUOTIENT_WORDS = [(2, 0, 3), (0,), (0, 0), (3, 0, 1, 2), (0, 4, 0, 0, 2)]


def test_nested_and_continuant_match_references(nested_reference, continuant_reference):
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        for word in (cf, cf_even_form(cf), cf_odd_form(cf)):
            assert q_cf_eval(word) == nested_reference(word), word
            # the table's entry, computed as the matrix column, is the nested fraction
            assert all_routes(word).fractions["nested-fraction"] == nested_reference(word), word
            assert continuant_det(word) == continuant_reference(word), word
    for word in ZERO_QUOTIENT_WORDS:
        assert q_cf_eval(word) == nested_reference(word), word
        assert continuant_det(word) == continuant_reference(word), word
    # the empty word: the nested fraction starts from 1/0, the continuant from 1
    assert q_cf_eval(()) == LaurentFraction.infinity()
    assert continuant_det(()) == ONE


def test_nested_and_continuant_refuse_negative_quotients():
    for word in [(-1,), (3, -2), (2, 1, -1), (1, -5, 4)]:
        with pytest.raises(ValueError, match="quotients >= 0"):
            q_cf_eval(word)
        with pytest.raises(ValueError, match="quotients >= 0"):
            continuant_det(word)


def test_nested_and_continuant_at_slot_edges(nested_reference, continuant_reference):
    crossed = set()
    for cf in SLOT_EDGE_WORDS:
        assert q_cf_eval(cf) == nested_reference(cf), cf
        det = continuant_reference(cf)
        assert continuant_det(cf) == det, cf
        crossed.add(max(det.coeffs).bit_length())
    assert CROSSED_BITS <= crossed


def test_recurrence_route_at_slot_edges(list_recurrence_reference):
    # the slot-edge words as r/s, s/r and their negatives, r at 2^8, 2^16,
    # 2^32 and 2^64 +- 1: the route's width is set by max(|p|, d) = r, and
    # the largest coefficients cross each byte edge
    crossed = set()
    for cf in SLOT_EDGE_WORDS:
        v = cf_value(cf)
        for x in (v, 1 / v, -v, -1 / v):
            want = list_recurrence_reference(x)
            assert q_map_general(x) == want, x
            crossed.add(max(abs(c) for c in want.num.coeffs + want.den.coeffs).bit_length())
    assert CROSSED_BITS <= crossed


def test_nested_and_continuant_use_no_polynomial_arithmetic(monkeypatch):
    # both routes keep to the packed kernel, as the matrix route does
    words = [cf_expand(r, s) for r, s in SWEEP[::7]] + ZERO_QUOTIENT_WORDS + [
        (1,) * 200 + (2,), (30, 1, 17, 2, 25, 3, 30, 12), (10**4,)]
    before = [(q_cf_eval(cf), continuant_det(cf), q_continuant(cf)) for cf in words]

    def refuse(*args):
        raise AssertionError("a packed route ran LaurentPoly arithmetic")

    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    assert [(q_cf_eval(cf), continuant_det(cf), q_continuant(cf)) for cf in words] == before


def test_nested_and_continuant_take_one_qint_product_per_quotient(monkeypatch):
    # the nested fraction runs from the last quotient to the first, the
    # continuant from the first to the last; zero quotients take theirs too
    kernel, calls = qrational._times_qint, []

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(qrational, "_times_qint", counting)
    for cf in [(4, 3), (1, 1, 3), (7,), (2, 2, 2, 2), (30, 1, 17, 2, 25),
               (1,) * 40 + (2,)] + ZERO_QUOTIENT_WORDS:
        calls.clear()
        q_cf_eval(cf)
        assert calls == list(reversed(cf)), cf
        calls.clear()
        continuant_det(cf)
        assert calls == list(cf), cf


def test_routes_compare_two_kernels(monkeypatch):
    # the matrix column and the continuant take their products by [n]_q as
    # the shift-adds of _times_qint, the recurrence route as one
    # multiplication each (_times_qint_mul) and not the shift-adds, so a
    # fault in either product kernel, or in the matrix column that fills
    # two entries of the table, turns the table's verdict
    words = [cf_expand(r, s) for r, s in [(13, 3), (29, 12), (61, 27), (179, 74)]]
    assert all(all_routes(cf).agree for cf in words)
    shift_adds, product, calls = qrational._times_qint, qrational._times_qint_mul, []

    def counting(*args):
        calls.append(args[1])
        return product(*args)

    def refuse(*args):
        raise AssertionError("the recurrence route ran another product kernel")

    with monkeypatch.context() as m:
        m.setattr(qrational, "_times_qint_mul", counting)
        for cf in words:
            calls.clear()
            all_routes(cf)
            in_table = len(calls)
            calls.clear()
            with monkeypatch.context() as alone:
                alone.setattr(qrational, "_times_qint", refuse)
                q_map_general(cf_value(cf))
            assert in_table == len(calls) > 0, cf

    def drop_top_slot(kernel):
        def fault(x, n, bits):
            acc = kernel(x, n, bits)
            return acc % (1 << max(acc.bit_length() - 1, 0) // bits * bits)
        return fault

    column = qrational.cf_matrix_column

    def bump_entry(j):
        # q^(top + 1) added to one entry of the column
        def fault(cf):
            entries = list(column(cf))
            entries[j] += LaurentPoly.monomial(entries[j].top_deg + 1)
            return tuple(entries)
        return fault

    for name, fault in [("_times_qint", drop_top_slot(shift_adds)),
                        ("_times_qint_mul", drop_top_slot(product)),
                        ("cf_matrix_column", bump_entry(0)),
                        ("cf_matrix_column", bump_entry(1))]:
        with monkeypatch.context() as m:
            m.setattr(qrational, name, fault)
            assert not any(all_routes(cf).agree for cf in words), name


def test_all_routes_reads_each_polynomial_once(monkeypatch):
    # the three computations of one all_routes call, the matrix column, the
    # recurrence route and the continuant, compute its numerator and
    # denominator up to a power of q at one slot width, so their five slot
    # reads make one per distinct polynomial, the recurrence route's two
    # among the hits, and the routes share the coefficient tuples; the
    # nested-fraction entry is the matrix column itself, and the call takes
    # one packed shift-add product by [n] per quotient on each of the matrix
    # column and the continuant; the cache is cleared before each call, and
    # rebuilt around a counting reader
    reads, calls, uncached = [], [], qrational._slots.__wrapped__

    def counting(x, width):
        reads.append(x)
        return uncached(x, width)

    kernel, products = qrational._times_qint, []

    def counting_products(*args):
        products.append(args[1])
        return kernel(*args)

    cached = functools.lru_cache(**qrational._slots.cache_parameters())(counting)

    def calling(x, width):
        calls.append(x)
        return cached(x, width)

    monkeypatch.setattr(qrational, "_slots", calling)
    monkeypatch.setattr(qrational, "_times_qint", counting_products)
    rng = random.Random(11)
    deep = [tuple(rng.randint(1, 4) for _ in range(rng.randint(40, 80))) for _ in range(40)]
    pairs = [cf_expand(r, s) for r in range(1, 100) for s in range(1, r + 1)
             if math.gcd(r, s) == 1]
    words = {form(cf) for cf in pairs for form in (lambda cf: cf, cf_even_form, cf_odd_form)}
    for cf in sorted(words) + deep:
        cached.cache_clear()
        reads.clear()
        calls.clear()
        products.clear()
        table = all_routes(cf)
        matrix, recurrence = table.fractions["matrix"], table.fractions["recurrence-map"]
        assert table.agree and len(reads) == (1 if cf_value(cf) == 1 else 2), cf
        assert len(calls) == 5, cf
        assert len(products) == 2 * len(cf), cf
        assert table.fractions["nested-fraction"] is matrix, cf
        assert matrix.num.coeffs is table.continuant.coeffs, cf
        assert recurrence.num.coeffs is matrix.num.coeffs, cf
        assert recurrence.den.coeffs is matrix.den.coeffs, cf


def test_unpack_round_trips_every_width(monkeypatch):
    # a full slot must not spill into its neighbours, and the zero slots at
    # the bottom, none to three of them, become the valuation, one inside a
    # zero coefficient; _slots reads the int without them, so that ints
    # equal up to a power of q share one read
    reads, uncached = [], qrational._slots.__wrapped__

    def counting(x, width):
        reads.append(x)
        return uncached(x, width)

    monkeypatch.setattr(qrational, "_slots", counting)
    for width in range(1, 41):
        bits = 8 * width
        full = (1 << bits) - 1
        coeffs = (full, 0, 1, full)
        top = sum(c << bits * i for i, c in enumerate(coeffs))
        for low in range(4):
            reads.clear()
            assert _unpack(top << low * bits, width) == LaurentPoly(low, coeffs), (width, low)
            assert reads == [top], (width, low)
        assert _unpack(0, width) == ZERO, width
