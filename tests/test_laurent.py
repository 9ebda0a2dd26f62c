import itertools
import json

import pytest

from qsnake.laurent import LaurentFraction, LaurentPoly, ONE, ZERO, laurent_gcd

from oracles import poly_from_json, reduced, times_qint_add

# a large prime: gcd cases whose coefficients vanish or collide modulo it
P = 2**61 - 1


def lp(min_deg, *coeffs):
    return LaurentPoly(min_deg, coeffs)


Q = lp(1, 1)

# a small pool of polynomials for exhaustive ring-axiom sweeps
POOL = [
    ZERO, ONE, Q, lp(-1, 1), lp(0, 1, 1), lp(0, -2, 0, 3),
    lp(-2, 1, 0, -1), lp(1, 2, 1), lp(-1, 1, 2, 1, 1),
]


def test_addition_examples():
    assert lp(0, 1, 1) + lp(1, 1, 1) == lp(0, 1, 2, 1)
    p = lp(-1, 3, 0, 2)
    assert p + ZERO == p
    assert lp(-1, 1, 1) + lp(-1, -1) == ONE  # cancellation retrims min_deg


def test_multiplication_examples():
    assert lp(0, 1, 1) * lp(0, 1, 1) == lp(0, 1, 2, 1)
    # the monomial shift relating a matching statistic and a numerator
    assert LaurentPoly.monomial(-1) * lp(0, 1, 2, 1, 1) == lp(-1, 1, 2, 1, 1)
    p = lp(2, 5, -1)
    assert p * ONE == p
    assert p * ZERO == ZERO


def test_times_qint_edges():
    p = (3, 0, -1)
    with pytest.raises(ValueError):
        times_qint_add(p, -1)
    assert times_qint_add(p, 0) == (0, [])
    assert times_qint_add(p, 1) == (0, [3, 0, -1])
    assert times_qint_add((), 4) == (0, [])
    assert times_qint_add(p, 2) == (0, [3, 3, -1, -1])
    # an addend that cancels the product to zero
    assert times_qint_add(p, 1, [-c for c in p], 0) == (0, [])
    # an addend below the product: (1 + 2q)[3] - 5q^-1
    assert times_qint_add([1, 2], 3, [-5], -1) == (-1, [-5, 1, 3, 3, 2])


def test_ring_axioms_exhaustive():
    for a, b in itertools.product(POOL, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(POOL, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degree_multiplicativity():
    for a, b in itertools.product(POOL, repeat=2):
        if a.is_zero() or b.is_zero():
            continue
        p = a * b
        assert p.min_deg == a.min_deg + b.min_deg
        assert p.top_deg == a.top_deg + b.top_deg


def schoolbook(a, b):
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return LaurentPoly(a.min_deg + b.min_deg, out)


def test_monomial_multiplication_is_schoolbook():
    for c, k, p in itertools.product((1, -1, 7), (-3, 0, 2), POOL):
        m = LaurentPoly.monomial(k, c)
        assert m * p == p * m == schoolbook(m, p)
    for p in POOL:
        assert 7 * p == p * 7 == schoolbook(lp(0, 7), p)
        assert -1 * p == -p
        assert 0 * p == ZERO


def test_eval_at_one_is_ring_hom():
    assert lp(0, 1, 2, 1, 1).eval_at_one() == 5
    assert lp(0, 1, 1, 1).eval_at_one() == 3
    assert ZERO.eval_at_one() == 0
    for a, b in itertools.product(POOL, repeat=2):
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


def test_mirror():
    assert lp(0, 1, 2).mirror(1) == lp(0, 2, 1)
    # a palindromic polynomial is its own mirror at its degree
    assert lp(0, 1, 1, 1).mirror(2) == lp(0, 1, 1, 1)
    assert ZERO.mirror(5) == ZERO
    for a in POOL:
        for d in range(-2, 4):
            if a.is_zero() or (a.min_deg >= 0 and a.top_deg <= d):
                assert a.mirror(d).mirror(d) == a


def test_div_exact():
    assert lp(0, 1, 2, 1).div_exact(lp(0, 1, 1)) == lp(0, 1, 1)
    assert lp(3, 1).div_exact(lp(1, 1)) == lp(2, 1)
    r52 = lp(0, 1, 2, 1, 1)
    assert (Q * r52).div_exact(Q) == r52
    with pytest.raises(ValueError):
        lp(0, 1, 1, 1).div_exact(lp(0, 1, 1))
    with pytest.raises(ValueError):
        ONE.div_exact(ZERO)
    for a, b in itertools.product(POOL, repeat=2):
        if b.is_zero():
            continue
        assert (a * b).div_exact(b) == a


def test_pow_and_shift():
    assert lp(0, 1, 1).shifted(-2) == lp(-2, 1, 1)


def test_canonical_form_and_equality():
    assert LaurentPoly(3, (0, 0)) == ZERO
    assert LaurentPoly(-2, (0, 1, 0)) == lp(-1, 1)
    assert hash(lp(0, 1, 1)) == hash(LaurentPoly(-1, (0, 1, 1, 0)))


def test_text_form():
    assert lp(-1, 1, 2, 1, 1).text() == "q^-1 + 2 + q + q^2"
    assert lp(0, -1, 0, 3).text() == "-1 + 3q^2"
    assert ZERO.text() == "0"
    assert lp(1, -2).text() == "-2q"


def test_json_round_trip():
    for a in POOL:
        blob = json.dumps(a.to_json())
        assert poly_from_json(json.loads(blob)) == a


def test_gcd():
    a, b, g = lp(0, 1, 1), lp(0, 1, 2), lp(0, 1, 1, 1)
    assert laurent_gcd(a * g, b * g) == g
    assert laurent_gcd(a, b) == ONE
    # monomial factors are units and never appear in the gcd
    assert laurent_gcd(a.shifted(-3) * 2, a.shifted(5) * 4) == 2 * a
    assert laurent_gcd(ZERO, a) == a
    assert laurent_gcd(ZERO, ZERO) == ZERO
    # negative leading coefficients, and a gcd that is content only
    assert laurent_gcd(-a * g, b * g.shifted(2) * -3) == g
    assert laurent_gcd(-a, ZERO) == a
    assert laurent_gcd(lp(0, 2, 2), lp(0, 4)) == lp(0, 2)
    assert laurent_gcd(lp(0, -6, 0, -6), lp(-1, 4, 4)) == lp(0, 2)
    for p, r, s in itertools.product(POOL[3:], repeat=3):
        g = laurent_gcd(p * r, p * s)
        if p.is_zero() or (r.is_zero() and s.is_zero()):
            continue
        (p * r).div_exact(g)
        (p * s).div_exact(g)
        g.div_exact(laurent_gcd(p, ONE))  # p's polynomial part divides g
        assert not g.is_zero()


def test_gcd_falls_back_when_p_divides_both_leads():
    a, b = lp(0, 1, P), lp(0, 3, P)  # P*q + 1, P*q + 3
    assert laurent_gcd(a, b) == ONE
    # the images of (q + 2)(P*q + 1) and (q + 5)(P*q + 1) are coprime, yet
    # P*q + 1 divides both
    x, y = lp(0, 2, 1) * a, lp(0, 5, 1) * a
    assert laurent_gcd(x, y) == a


def test_gcd_unlucky_prime_still_coprime():
    # q + 1 and q + 1 + P are coprime over Z but equal modulo P
    a, b = lp(0, 1, 1), lp(0, 1 + P, 1)
    assert laurent_gcd(a, b) == ONE


def test_fraction_normalization():
    f = LaurentFraction(ONE, lp(1, -1, -1))  # 1 / (-q - q^2)
    assert f.den == lp(0, 1, 1)
    assert f.num == lp(-1, -1)
    g = reduced(LaurentFraction(lp(0, 1, 2, 1), lp(0, 1, 1)))
    assert g.num == lp(0, 1, 1) and g.den == ONE
    # the common content cancels too, and 0/d is 0/1
    assert reduced(LaurentFraction(lp(0, 2, 2), lp(0, -4, -4, 0))) == LaurentFraction(lp(0, -1), lp(0, 2))
    assert reduced(LaurentFraction(ZERO, lp(3, 5, -7))) == LaurentFraction(ZERO, ONE)


def test_fraction_infinity():
    inf = LaurentFraction.infinity()
    assert inf.num == ONE and inf.den == ZERO
    assert reduced(inf) == inf
    with pytest.raises(ZeroDivisionError):
        LaurentFraction(lp(0, 2), ZERO)
