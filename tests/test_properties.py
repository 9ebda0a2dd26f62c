"""Property tests past the hand-picked sweeps: random pairs up to r = 1000,
with the matching and Kasteleyn identities, random rationals of either
sign for the recurrence map, the gcd as a normalized greatest common
divisor, the running-sum product, addition and subtraction, packed matrix
word and integer-pair recurrence map against their references, and the
streaming JSON writer against json.dumps."""

import io
import json
import math

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from qsnake import cli
from qsnake.kasteleyn import det_exact, kasteleyn_matrix
from qsnake.laurent import ONE, ZERO, LaurentFraction, LaurentPoly, laurent_gcd
from qsnake.matching import matching_stat_dp, scalar_exponent
from qsnake.qrational import (all_routes, cf_expand, cf_matrix_column, cf_value, q_int,
                              q_map_general)
from qsnake.snake import snake_graph

from oracles import qmatrix_det, reduced, times_qint_add

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
def test_routes_and_matchings_agree(matrix_word_reference, pair):
    cf = cf_expand(*pair)
    table = all_routes(cf)
    assert table.agree
    # a monomial determinant is a Bezout certificate: the matrix pair, and so
    # every route that agrees with it, is in lowest terms
    assert qmatrix_det(matrix_word_reference(cf)) == LaurentPoly.monomial(sum(cf))
    g = snake_graph(cf)
    stat = matching_stat_dp(g)
    assert LaurentPoly.monomial(scalar_exponent(cf)) * stat == table.fractions["matrix"].num
    det = det_exact(kasteleyn_matrix(g))
    assert det in (stat, -stat)


@REPRODUCIBLE
@given(rationals)
def test_translation_recurrence(x):
    # [x + 1] = q[x] + 1
    fx = q_map_general(x)
    shifted = LaurentFraction(fx.num.shifted(1) + fx.den, fx.den)
    assert q_map_general(x + 1) == reduced(shifted)


@REPRODUCIBLE
@given(rationals.filter(lambda x: x != 0))
def test_inversion_recurrence(x):
    # [-1/x] = -1/(q[x])
    fx = q_map_general(x)
    assert q_map_general(-1 / x) == reduced(LaurentFraction(-fx.den, fx.num.shifted(1)))


# the values of words of up to 80 quotients after an integer part of either
# sign, as deep as the routes-deep inputs, with the integers and zero
deep_rationals = st.builds(lambda head, tail: cf_value((head, *tail)),
                           st.integers(-30, 30), st.lists(st.integers(1, 30), max_size=80))


@REPRODUCIBLE
@given(rationals | deep_rationals | st.integers(-30, 30))
def test_recurrence_route_matches_reference_on_random_rationals(recurrence_reference, x):
    assert q_map_general(x) == recurrence_reference(x)
    assert q_map_general(-x) == recurrence_reference(-x)


@REPRODUCIBLE
@given(laurent_polys, laurent_polys, laurent_polys)
def test_gcd_is_normalized(a, b, g):
    # min_deg 0 and a positive leading coefficient, zero only for two zeros
    for x, y in ((a, b), (a * g, b * g)):
        d = laurent_gcd(x, y)
        assert d.is_zero() == (x.is_zero() and y.is_zero())
        assert d.is_zero() or (d.min_deg == 0 and d.coeffs[-1] > 0)
    if a.is_zero() or b.is_zero() or g.is_zero():
        return
    # a common divisor: div_exact raises unless the division is exact
    d = laurent_gcd(a, b)
    assert a.div_exact(d) * d == a and b.div_exact(d) * d == b
    # and the greatest: every common factor divides it
    dg = laurent_gcd(a * g, b * g)
    assert dg.div_exact(g) * g == dg


def test_infinity_is_one_over_zero():
    assert q_map_general(math.inf) == LaurentFraction(ONE, ZERO)


@settings(REPRODUCIBLE, phases=(Phase.explicit, Phase.generate))
@given(laurent_polys | st.just(ZERO), st.integers(-50, 50), st.integers(-5, 5),
       st.integers(0, 50), laurent_polys | st.just(ZERO), st.integers(-12, 12))
# the addend below, inside and above the span of p [m] for every m < 8, a
# zero p, a zero addend, and an addend that cancels p [2] to zero
@example(LaurentPoly(0, (1, 2, 3)), 1, 0, 5, LaurentPoly(0, (7, -1)), -4)
@example(LaurentPoly(0, (1, 2, 3)), 1, 0, 5, LaurentPoly(0, (7, -1)), 1)
@example(LaurentPoly(0, (1, 2, 3)), 1, 0, 5, LaurentPoly(0, (7, -1)), 10)
@example(ZERO, 1, 0, 5, LaurentPoly(1, (3, 0, 4)), 2)
@example(LaurentPoly(-1, (4, -2)), 3, 2, 5, ZERO, 0)
@example(LaurentPoly(0, (1, 2)), 1, 3, 2, LaurentPoly(0, (1, 3, 2)), 3)
# the slices of the kernel at their edges: a one-coefficient p, whose [2]
# has nothing to add shifted and whose running sum nothing to subtract; a p
# longer than every m, so the subtracted slice reaches the prefix sums; an
# addend past both ends of p [m]; and one that cancels the top of p [1]
@example(LaurentPoly(3, (5,)), -2, 1, 4, LaurentPoly(0, (1, 1)), 0)
@example(LaurentPoly(0, tuple(range(1, 11))), 1, 0, 3, LaurentPoly(0, (1, 2)), 4)
@example(LaurentPoly(0, (1, 2)), 1, 0, 2, LaurentPoly(0, (1,) * 12), -3)
@example(LaurentPoly(0, (1, 2, 3)), 1, 0, 1, LaurentPoly(0, (3,)), 2)
def test_times_qint_is_schoolbook(p, c, k, n, e, j):
    a = (c * p).shifted(k)
    low, out = times_qint_add(a.coeffs, n)
    assert LaurentPoly(a.min_deg + low, out) == a * q_int(n)
    # with an addend q^j f, f = e or -e, so that -e checks the subtraction:
    # [0], [1] and [2] take their own paths, [3] and wider the running sum
    for m in range(8):
        for f in (e, -e):
            low, out = times_qint_add(a.coeffs, m, f.coeffs, f.min_deg + j - a.min_deg)
            assert LaurentPoly(a.min_deg + low, out) == a * q_int(m) + f.shifted(j), (m, f)
            # trimmed at both ends, and zero as (0, [])
            assert out[:1] != [0] and out[-1:] != [0] and (out or low == 0), (m, f)


# words of quotients 0..1000, runs of small ones among them, cut where the
# quotient sum would pass WORD_BUDGET: the reference's cost grows with the
# sum times the length
WORD_BUDGET = 3000


def _within_budget(word):
    out, total = [], 0
    for a in word:
        total += a
        if total > WORD_BUDGET:
            break
        out.append(a)
    return tuple(out)


words = st.lists(st.integers(0, 1000) | st.integers(0, 3), max_size=60).map(_within_budget)


@settings(REPRODUCIBLE, phases=(Phase.explicit, Phase.generate))
@given(words)
def test_matrix_word_matches_reference_on_random_words(matrix_column_reference, word):
    assert cf_matrix_column(word) == matrix_column_reference(word)


def exponent_dict(p):
    return dict(p.terms())


def dict_sum(x, y, sign=1):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def is_canonical(p):
    if p.is_zero():
        return p.min_deg == 0 and p.coeffs == ()
    return p.coeffs[0] != 0 and p.coeffs[-1] != 0


@settings(REPRODUCIBLE, phases=(Phase.explicit, Phase.generate))
@given(laurent_polys.filter(lambda p: not p.is_zero()), laurent_polys | st.just(ZERO),
       st.integers(-10, 10))
def test_add_and_sub_match_exponent_dicts(p, r, k):
    r = r.shifted(k)
    lowest = LaurentPoly.monomial(p.min_deg, p.coeffs[0])
    highest = LaurentPoly.monomial(p.top_deg, p.coeffs[-1])
    # a two-term polynomial whose span holds p's with room on both sides
    wide = LaurentPoly(p.min_deg - 2, [1] + [0] * (len(p.coeffs) + 2) + [1])
    gapped = r.shifted(p.top_deg + 2 - r.min_deg)
    pairs = [(p, r), (p, gapped), (p, wide), (p, -p), (p, -lowest), (p, -highest),
             (p, r - lowest - highest)]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        for sign, got in ((1, a + b), (-1, a - b)):
            assert is_canonical(got), (a, b, sign)
            assert exponent_dict(got) == dict_sum(exponent_dict(a), exponent_dict(b), sign), \
                (a, b, sign)
    assert p + (-p) == ZERO and (p + (-p)).min_deg == 0 and (p - p).coeffs == ()


@settings(REPRODUCIBLE, phases=(Phase.explicit, Phase.generate))
@given(laurent_polys | st.just(ZERO), laurent_polys | st.just(ZERO), st.integers(-10, 10))
def test_sub_matches_exponent_dicts(a, b, k):
    # b shifted below, level with and above a, and ZERO on either side; the
    # difference is checked term by term against exponent dicts, not against
    # x + (-y), which is how __sub__ computes it
    b = b.shifted(k)
    for x, y in ((a, b), (b, a), (a, ZERO), (ZERO, b), (ZERO, ZERO)):
        got = x - y
        assert exponent_dict(got) == dict_sum(exponent_dict(x), exponent_dict(y), -1), (x, y)
        assert is_canonical(got), (x, y)


class Stream(list):
    """Items the writer is given as a generator."""


def _blob(tree):
    """The blob the writer gets: each Stream as a generator of its items."""
    if type(tree) is Stream:
        return (item for item in tree)
    if type(tree) is dict:
        return {k: _blob(v) for k, v in tree.items()}
    return tree


def _plain(tree):
    """The blob as json.dumps takes it: lists, and polynomials as their to_json()."""
    if type(tree) is dict:
        return {k: _plain(v) for k, v in tree.items()}
    if type(tree) in (list, tuple, Stream):
        return [_plain(v) for v in tree]
    return tree.to_json() if type(tree) is LaurentPoly else tree


json_ints = st.integers() | st.integers(-2**200, 2**200)
json_polys = st.builds(LaurentPoly, st.integers(-3, 3), st.lists(json_ints, max_size=6))
json_keys = st.text(max_size=4)


def _nest(kids):
    # the writer reads a list's kind off its first item: all ints, all
    # polynomials, or neither
    neither = kids.filter(lambda v: type(v) not in (int, LaurentPoly))
    return (st.lists(json_ints, max_size=7) | st.lists(json_polys, max_size=7)
            | st.lists(neither, max_size=7) | st.dictionaries(json_keys, kids, max_size=4))


json_values = st.recursive(json_ints | st.text() | st.booleans() | st.none() | json_polys,
                           _nest, max_leaves=20)
# an iterator is read as the blob or as a dict's value outside every list and iterator
json_blobs = st.recursive(json_values | st.lists(json_values, max_size=7).map(Stream),
                          lambda kids: st.dictionaries(json_keys, kids, max_size=4),
                          max_leaves=8)


@REPRODUCIBLE
@given(json_blobs)
# JSON_CHUNK is 3: lists of ints, of lists and of dicts cut into chunks,
# empty and long iterators, a polynomial of more than JSON_CHUNK
# coefficients rendered at one indent and reused at another, and rows of
# polynomials, nearly all zero, as an iterator and as a chunked list
@example({"a": list(range(-3, 4)), "b": [[1], [], [2, 3], [4]],
          "c": [{"x": 1}, {}, {"y": [1, 2]}, {"z\n\"": None}]})
@example(Stream([]))
@example({"r": Stream([{"e": [[0, 1]], "w": -1}] * 5), "s": Stream([]), "t": True})
@example({"p": LaurentPoly(-2, (1, 0, -3, 10**30)),
          "q": {"p": LaurentPoly(-2, (1, 0, -3, 10**30)), "z": ZERO},
          "rows": Stream([(ZERO, LaurentPoly(1, (-1,)), ZERO), [ZERO] * 5]),
          "row": [ZERO, ZERO, LaurentPoly(1, (-1,)), ZERO, ZERO]})
def test_json_writer_is_json_dumps(tree):
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "JSON_CHUNK", 3)
        cli._write_json(_blob(tree), out)
    assert out.getvalue() == json.dumps(_plain(tree), indent=2) + "\n"
