"""The package's eight record types keep the meaning they had as dataclasses:
field equality and hashing, the normalized fraction, fields that refuse to
change, a pickle round trip and the ``Name(field=value, ...)`` repr."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qsnake.kasteleyn import kasteleyn_matrix, verify_kasteleyn
from qsnake.laurent import LaurentFraction, LaurentPoly
from qsnake.matching import case_recurrences_check
from qsnake.qrational import all_routes, cf_expand
from qsnake.snake import snake_graph
from qsnake.verify import check_pair

# reproducible and writes no example database
REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None)

# small ranges, so that distinct arguments often build the same polynomial
raw_polys = st.tuples(st.integers(-2, 2), st.lists(st.integers(-2, 2), max_size=4))
nonzero_polys = st.builds(LaurentPoly, st.integers(-3, 3),
                          st.lists(st.integers(-3, 3), min_size=1, max_size=4)
                          .filter(any))
coprime_pairs = (st.integers(2, 40)
                 .flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r - 1)))
                 .filter(lambda p: math.gcd(*p) == 1))


@REPRODUCIBLE
@given(raw_polys, raw_polys)
def test_polynomials_are_equal_exactly_when_their_fields_are(x, y):
    a, b = LaurentPoly(*x), LaurentPoly(*y)
    assert (a == b) == ((a.min_deg, a.coeffs) == (b.min_deg, b.coeffs))
    assert (a != b) == (not a == b)
    assert a != (a.min_deg, a.coeffs)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and list({a: 1, b: 2}.values()) == [2]


@REPRODUCIBLE
@given(nonzero_polys, nonzero_polys, st.integers(-4, 4), st.sampled_from((1, -1)))
def test_fractions_drop_a_common_power_of_q_and_the_sign(num, den, k, sign):
    f = LaurentFraction(num, den)
    g = LaurentFraction((num * sign).shifted(k), (den * sign).shifted(k))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f.den.min_deg == 0 and f.den.coeffs[0] > 0
    assert f.num * den == num * f.den
    assert f != (f.num, f.den)


def test_infinity_is_kept_as_given():
    inf = LaurentFraction.infinity()
    assert (inf.num, inf.den) == (LaurentPoly(0, (1,)), LaurentPoly())
    assert inf == LaurentFraction(LaurentPoly(0, (1,)), LaurentPoly())
    with pytest.raises(ZeroDivisionError):
        LaurentFraction(LaurentPoly(1, (1,)), LaurentPoly())


def records(pair):
    """One record of each of the eight types, from the pair r/s, with its field names."""
    cf = cf_expand(*pair)
    routes = all_routes(cf)
    g = snake_graph(cf)
    found = [(routes.fractions["matrix"].num, ("min_deg", "coeffs")),
             (routes.fractions["matrix"], ("num", "den")),
             (g, ("exps",)),
             (kasteleyn_matrix(g), ("band", "black_order", "white_order"))]
    found += [(x, type(x)._fields) for x in (
        routes, case_recurrences_check(cf, g),
        verify_kasteleyn(*pair), check_pair(pair))]
    return found


def test_records_cover_the_eight_types():
    assert sorted(type(x).__name__ for x, _ in records((13, 3))) == [
        "CaseReport", "KasteleynMatrix", "KasteleynReport", "LaurentFraction",
        "LaurentPoly", "PairResult", "RouteTable", "SnakeGraph"]


@REPRODUCIBLE
@given(coprime_pairs)
def test_records_refuse_changes_and_round_trip_through_pickle(pair):
    for record, fields in records(pair):
        before = [getattr(record, name) for name in fields]
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in fields] == before
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        assert [getattr(copy, name) for name in fields] == before
        if not isinstance(record, LaurentPoly):
            shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, before))
            assert repr(record) == f"{type(record).__name__}({shown})"
