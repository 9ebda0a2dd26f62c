"""Property tests past the hand-picked sweeps: random pairs up to r = 1000,
with the matching and Kasteleyn identities, random rationals of either
sign for the recurrence map, and the gcd against the primitive PRS."""

import math

from hypothesis import Phase, given, settings, strategies as st

from qsnake.kasteleyn import det_exact, kasteleyn_matrix
from qsnake.laurent import (ONE, Q, ZERO, LaurentFraction, LaurentPoly, _prs_gcd,
                            laurent_gcd)
from qsnake.matching import matching_stat_dp, scalar_exponent
from qsnake.qrational import all_routes, cf_expand, cf_matrix_word, q_map_general
from qsnake.snake import snake_graph

# reproducible and writes no example database
REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None)

coprime_pairs = (st.integers(2, 1000)
                 .flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r - 1)))
                 .filter(lambda p: math.gcd(*p) == 1))

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=200)

# signed, non-monic, with some coefficients that vanish or collide modulo
# the prime P
P = 2**61 - 1
coefficients = st.integers(-50, 50) | st.sampled_from([P, -P, 2 * P, P + 1])
laurent_polys = st.builds(LaurentPoly, st.integers(-3, 3),
                          st.lists(coefficients, min_size=1, max_size=6))


# no shrinking: a failing pair is reported as found, without minutes of search
@settings(REPRODUCIBLE, phases=(Phase.explicit, Phase.generate))
@given(coprime_pairs)
def test_routes_and_matchings_agree(pair):
    cf = cf_expand(*pair)
    table = all_routes(cf)
    assert table.agree
    # a monomial determinant is a Bezout certificate: the matrix pair, and so
    # every route that agrees with it, is in lowest terms
    assert cf_matrix_word(cf).det() == Q ** sum(cf)
    g = snake_graph(cf)
    stat = matching_stat_dp(g)
    assert Q ** scalar_exponent(cf) * stat == table.fractions["matrix"].num
    det = det_exact(kasteleyn_matrix(g))
    assert det in (stat, -stat)


@REPRODUCIBLE
@given(rationals)
def test_translation_recurrence(x):
    # [x + 1] = q[x] + 1
    fx = q_map_general(x)
    shifted = LaurentFraction(fx.num.shifted(1) + fx.den, fx.den)
    assert q_map_general(x + 1) == shifted.reduced()


@REPRODUCIBLE
@given(rationals.filter(lambda x: x != 0))
def test_inversion_recurrence(x):
    # [-1/x] = -1/(q[x])
    fx = q_map_general(x)
    assert q_map_general(-1 / x) == LaurentFraction(-fx.den, fx.num.shifted(1)).reduced()


@REPRODUCIBLE
@given(laurent_polys, laurent_polys, laurent_polys)
def test_gcd_equals_prs(a, b, g):
    for x, y in ((a, b), (a * g, b * g)):
        assert laurent_gcd(x, y) == LaurentPoly(0, _prs_gcd(x.coeffs, y.coeffs))


def test_infinity_is_one_over_zero():
    assert q_map_general(math.inf) == LaurentFraction(ONE, ZERO)
