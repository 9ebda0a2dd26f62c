"""Property tests past the hand-picked sweeps: random pairs up to r = 1000 and
random rationals of either sign for the recurrence map."""

import math

from hypothesis import given, settings, strategies as st

from qsnake.laurent import ONE, Q, ZERO, LaurentFraction
from qsnake.matching import matching_stat_dp, scalar_exponent
from qsnake.qrational import all_routes, cf_expand, q_map_general
from qsnake.snake import snake_graph

# reproducible and writes no example database
REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None)

coprime_pairs = (st.integers(2, 1000)
                 .flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r - 1)))
                 .filter(lambda p: math.gcd(*p) == 1))

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=200)


@REPRODUCIBLE
@given(coprime_pairs)
def test_routes_and_matchings_agree(pair):
    cf = cf_expand(*pair)
    table = all_routes(cf)
    assert table.agree
    stat = matching_stat_dp(snake_graph(cf))
    assert Q ** scalar_exponent(cf) * stat == table.fractions["matrix"].num


@REPRODUCIBLE
@given(rationals)
def test_translation_recurrence(x):
    # [x + 1] = q[x] + 1
    shifted = q_map_general(x).scaled(Q) + LaurentFraction.from_poly(ONE)
    assert q_map_general(x + 1) == shifted.reduced()


@REPRODUCIBLE
@given(rationals.filter(lambda x: x != 0))
def test_inversion_recurrence(x):
    # [-1/x] = -1/(q[x])
    assert q_map_general(-1 / x) == (-q_map_general(x).scaled(Q).reciprocal()).reduced()


def test_infinity_is_one_over_zero():
    assert q_map_general(math.inf) == LaurentFraction(ONE, ZERO)
