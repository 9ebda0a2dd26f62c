import math
import tracemalloc

import pytest

from qsnake import matching
from qsnake.laurent import LaurentPoly, ONE
from qsnake.kasteleyn import kasteleyn_sign
from qsnake.matching import (CaseReport, case_recurrences_check, denominator_cut,
                             denominator_via_matchings,
                             enumerate_matchings, matching_stat_dp,
                             matching_weight_exp,
                             numerator_via_matchings, prefix_statistics,
                             scalar_exponent, snake_fraction)
from qsnake.qrational import cf_expand, fibonacci_number, q_matrix_eval, q_rational
from qsnake.snake import SnakeGraph, snake_graph

from oracles import (cf_even_form, cf_odd_form, denominator_snake, matching_stat,
                     scalar_exponent_reference)


def lp(min_deg, *coeffs):
    return LaurentPoly(min_deg, coeffs)


SWEEP = [(r, s) for r in range(2, 41) for s in range(1, r) if math.gcd(r, s) == 1]
SWEEP_60 = [(r, s) for r in range(2, 61) for s in range(1, r) if math.gcd(r, s) == 1]


def test_enumerate_single_box():
    g = snake_graph((2,))
    ms = enumerate_matchings(g)
    assert len(ms) == 2
    assert ms == sorted(ms)
    exps = sorted(matching_weight_exp(g, m) for m in ms)
    assert exps == [0, 1]  # north+south, then west+east carrying the q


def test_enumerate_counts():
    assert len(enumerate_matchings(snake_graph((2, 2)))) == 5
    assert len(enumerate_matchings(snake_graph((4, 3)))) == 13


def test_matching_stat_golden():
    assert matching_stat(snake_graph((2, 2))) == lp(-1, 1, 2, 1, 1)
    assert matching_stat(snake_graph((1, 1, 2, 1))) == lp(-1, 1, 1, 2, 2, 1)
    # the q^-2 coefficient is 3: the 29/12 snake has 29 matchings, so the
    # coefficients must sum to 29, and q^3 times this is the 29/12 numerator
    assert matching_stat(snake_graph((2, 2, 2, 2))) == lp(-3, 1, 3, 5, 6, 6, 5, 2, 1)


def test_dp_equals_oracle_golden():
    for cf in [(2, 2), (1, 1, 2, 1), (2, 2, 2, 2), (7,), (4, 3), (1,), (2,)]:
        g = snake_graph(cf)
        assert matching_stat_dp(g) == matching_stat(g), cf


def test_dp_equals_oracle_sweep():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        if len(g.boxes) <= 14:
            assert matching_stat_dp(g) == matching_stat(g), (r, s)


def test_dp_multiplies_no_polynomials(monkeypatch):
    # each weight q^k is applied as a shift by its exponent k
    def refuse(self, other):
        raise AssertionError("matching_stat_dp multiplied two polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    words = [(1,)] + [cf_expand(r, s) for r in range(2, 31) for s in range(1, r)
                      if math.gcd(r, s) == 1]
    for cf in words:
        g = snake_graph(cf)
        assert matching_stat_dp(g) == matching_stat(g), cf


def test_dp_reads_one_exponent_per_box(monkeypatch):
    # the DP reads the boxes and their exponents, never the weight map
    words = [(1,)] + [cf_expand(r, s) for r in range(2, 61) for s in range(1, r)
                      if math.gcd(r, s) == 1]
    recorded = [(matching_stat_dp(snake_graph(cf)), list(prefix_statistics(snake_graph(cf))))
                for cf in words]

    def refuse(self):
        raise AssertionError("the DP read the weight map")

    monkeypatch.setattr(SnakeGraph, "weight_exp", property(refuse))
    for cf, (stat, stats) in zip(words, recorded):
        g = snake_graph(cf)
        assert (matching_stat_dp(g), list(prefix_statistics(g))) == (stat, stats), cf


def test_enumeration_box_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(matching, "MAX_ENUMERATION_BOXES", 3)
    assert len(enumerate_matchings(snake_graph((4,)))) == 4  # 3 boxes
    with pytest.raises(ValueError, match="at most 3 boxes, got 4"):
        enumerate_matchings(snake_graph((5,)))


def test_enumeration_bound_builds_no_box(monkeypatch):
    # the bound is read off the exponent word, so a refused snake derives
    # none of its box tuples
    def refuse(self):
        raise AssertionError("the boxes were built")

    monkeypatch.setattr(SnakeGraph, "boxes", property(refuse))
    with pytest.raises(ValueError, match=f"at most {matching.MAX_ENUMERATION_BOXES} "
                                         f"boxes, got 601"):
        enumerate_matchings(snake_graph((602,)))  # the 601-box strip


def test_enumeration_resumes_its_scan(monkeypatch):
    # the scan for the lowest uncovered vertex resumes after the vertex the
    # level above matched, so each matching costs membership checks linear,
    # not quadratic, in the boxes
    checks = 0

    class CountingSet(set):
        def __contains__(self, item):
            nonlocal checks
            checks += 1
            return super().__contains__(item)

    monkeypatch.setattr(matching, "set", CountingSet, raising=False)
    g = snake_graph((201,))
    count = len(enumerate_matchings(g))
    assert count == 201
    assert checks <= 4 * count * (len(g.boxes) + 1), checks


def test_prefix_statistics_are_prefix_snake_statistics(_cut):
    # entry m is the statistic of the snake of the cf cut to sum m, built
    # from its own continued fraction: this cross-checks snake construction
    # across continued fractions
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        stats = list(prefix_statistics(snake_graph(cf)))
        assert len(stats) == sum(cf) + 1
        assert stats[0] == stats[1] == ONE
        for m in range(1, sum(cf) + 1):
            assert stats[m] == matching_stat_dp(snake_graph(_cut(cf, m))), (r, s, m)


def test_dp_holds_only_the_current_statistics():
    # the 4000-box staircase of 4001/1: keeping every prefix statistic, as
    # list(prefix_statistics(g)) does, peaks near 62 MiB for a result of a few KiB
    g = snake_graph((4001,))
    tracemalloc.start()
    try:
        stat = matching_stat_dp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stat.eval_at_one() == 4001
    assert peak < 2 * 2**20, f"peak {peak} bytes"


def test_dp_fibonacci_long_strip():
    r, s = fibonacci_number(21), fibonacci_number(20)
    g = snake_graph(cf_expand(r, s))
    assert len(g.boxes) == sum(cf_expand(r, s)) - 1 == 19
    stat = matching_stat_dp(g)
    assert stat.eval_at_one() == 10946 == r
    assert stat == matching_stat(g)  # oracle still feasible at this size


def test_scalar_exponent():
    for cf, n in [((2, 2), 1), ((2, 2, 2, 2), 3), ((4, 3), 2), ((7,), 0), ((1,), 0),
                  ((1, 1, 3), 1)]:
        assert scalar_exponent(snake_graph(cf)) == scalar_exponent_reference(cf) == n, cf


def test_snake_rules_match_the_even_form():
    # n is the count of 1/q boxes, the cut the first of them (past the last
    # box for an integer) and the Kasteleyn sign (-1)^(boxes + 1): each read
    # off the exponents, against its continued-fraction reference, in every
    # form of every coprime pair with r <= 300 and of the integer 1
    words = [(1,)] + [cf_expand(r, s) for r in range(2, 301)
                      for s in range(1, r) if math.gcd(r, s) == 1]
    assert len(words) == 27398
    for cf in words:
        for form in (cf, cf_even_form(cf), cf_odd_form(cf)):
            g = snake_graph(form)
            assert scalar_exponent(g) == scalar_exponent_reference(form), form
            assert denominator_cut(g) == cf_even_form(form)[0], form
            assert kasteleyn_sign(g) == (-1) ** sum(form), form


def test_snake_fraction_of_every_short_word():
    # every exponent word of 1 to 12 boxes starting with +1, its continued
    # fraction read off its runs of equal exponents (the last run one longer,
    # for the last sign, which builds no box): the snake alone gives the
    # numerator and the denominator of the matrix route
    count = 0
    for boxes in range(1, 13):
        for bits in range(2 ** (boxes - 1)):
            exps = (1,) + tuple([-1 if bits >> i & 1 else 1 for i in range(boxes - 1)])
            runs = [1]
            for before, e in zip(exps, exps[1:]):
                if e == before:
                    runs[-1] += 1
                else:
                    runs.append(1)
            cf = tuple(runs[:-1]) + (runs[-1] + 1,)
            g = SnakeGraph(exps)
            assert snake_graph(cf) == g, exps
            fraction = q_matrix_eval(cf)
            assert snake_fraction(g, matching_stat_dp(g)) == (fraction.num, fraction.den), cf
            count += 1
    assert count == 2 ** 12 - 1


def test_numerator_via_matchings():
    assert numerator_via_matchings(5, 2) == lp(0, 1, 2, 1, 1)
    assert numerator_via_matchings(29, 12) == lp(0, 1, 3, 5, 6, 6, 5, 2, 1)
    # one box with a single q on the border: statistic 1 + q by enumeration
    g = snake_graph((2,))
    assert matching_stat(g) == lp(0, 1, 1)
    assert numerator_via_matchings(2, 1) == lp(0, 1, 1)
    assert numerator_via_matchings(1, 1) == ONE


def test_theorem_sweep():
    for r, s in SWEEP:
        assert numerator_via_matchings(r, s) == q_rational(r, s).num, (r, s)


def test_classical_counts_sweep():
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        g = snake_graph(cf)
        assert matching_stat_dp(g).eval_at_one() == r
        if len(cf) > 1:
            assert matching_stat_dp(denominator_snake(cf)).eval_at_one() == s


def test_denominator_via_matchings():
    assert denominator_via_matchings(5, 2) == lp(0, 1, 1)
    assert denominator_via_matchings(13, 3) == lp(0, 1, 1, 1)
    assert denominator_via_matchings(7, 1) == ONE
    # the denominator itself, on every coprime pair with r <= 200 and the
    # integers
    pairs = [(r, s) for r in range(2, 201) for s in range(1, r) if math.gcd(r, s) == 1]
    for r, s in pairs + [(n, 1) for n in range(1, 60)]:
        den = denominator_via_matchings(r, s)
        assert den == q_rational(r, s).den and den.eval_at_one() == s, (r, s)


def test_tail_snake_is_the_mirror_of_the_denominator():
    # the tail-snake statement: q^n' times the statistic of the snake of
    # [a2, ..., ak] is the coefficient reversal of the denominator, which
    # is the denominator itself exactly when that is palindromic
    palindromic = equal = 0
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        if len(cf) < 2:
            continue
        tail_snake = denominator_snake(cf)
        tail = matching_stat_dp(tail_snake).shifted(scalar_exponent(tail_snake))
        den = q_rational(r, s).den
        assert tail == den.mirror(den.top_deg), (r, s)
        # n + n' is the degree of the denominator
        n = scalar_exponent(snake_graph(cf))
        assert n + scalar_exponent(tail_snake) == den.top_deg == sum(cf[1:]) - 1
        if tail == den:
            equal += 1
        if den == den.mirror(den.top_deg):
            palindromic += 1
    assert equal == palindromic  # equality happens exactly at palindromes
    assert 0 < equal < len(SWEEP)  # and mirror-only cases do occur


def cases_check(cf):
    return case_recurrences_check(cf, snake_graph(cf))


def test_case_recurrences_examples(monkeypatch):
    rep = cases_check((2, 2))
    assert rep.applicable and rep.case == 1 and rep.holds
    assert rep.whole == lp(-1, 1, 2, 1, 1)
    with monkeypatch.context() as m:
        # the whole snake's statistic one too high
        real = prefix_statistics
        m.setattr(matching, "prefix_statistics",
                  lambda g: [*list(real(g))[:-1], list(real(g))[-1] + ONE])
        assert not cases_check((2, 2)).holds
    rep = cases_check((4, 3))
    assert rep.case == 1 and rep.holds
    # the odd form of 13/3 builds the same snake, and is canonicalized
    rep = cases_check((4, 2, 1))
    assert rep.cf == (4, 3) and rep.case == 1 and rep.holds
    rep = cases_check((1, 1, 3))
    assert rep.case == 2 and rep.holds
    rep = cases_check((3,))
    assert rep.case == 2 and rep.holds
    rep = cases_check((2,))
    assert not rep.applicable


def test_case_reports_match_separately_built_snakes():
    # each CaseReport field against the shorter and truncated snakes built
    # from their own continued fractions
    for r, s in SWEEP_60:
        cf = cf_expand(r, s)
        rep = cases_check(cf)
        if sum(cf) < 3:
            whole = matching_stat_dp(snake_graph(cf))
            assert rep == CaseReport(cf=cf, applicable=False, whole=whole), (r, s)
            continue
        if len(cf) >= 2 and cf[-1] == 1:
            cf = cf[:-2] + (cf[-2] + 1,)
        k = len(cf)
        shorter_cf = cf[:-1] + (cf[-1] - 1,)
        if shorter_cf[-1] == 0:
            shorter_cf = shorter_cf[:-1]
        whole = matching_stat_dp(snake_graph(cf))
        shorter = matching_stat_dp(snake_graph(shorter_cf))
        truncated = matching_stat_dp(snake_graph(cf[:-1])) if k > 1 else ONE
        factor_exp = (1 - cf[-1]) if k % 2 == 0 else (cf[-1] - 1)
        assert rep == CaseReport(
            cf=cf, applicable=True, case=1 if k % 2 == 0 else 2,
            holds=whole == shorter + truncated.shifted(factor_exp), whole=whole,
            shorter=shorter, truncated=truncated, factor_exp=factor_exp), (r, s)


def test_case_recurrences_sweep():
    for r, s in SWEEP:
        rep = cases_check(cf_expand(r, s))
        assert not rep.applicable or rep.holds, (r, s)


def test_statistic_value_count():
    # number of matchings equals the numerator count at q = 1
    for r, s in SWEEP[:60]:
        g = snake_graph(cf_expand(r, s))
        if len(g.boxes) <= 12:
            assert len(enumerate_matchings(g)) == r
