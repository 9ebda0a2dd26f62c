"""Weighted perfect matchings of snake graphs and the statistic they generate.

The generating function M(G) = sum over perfect matchings of the product of
edge weights is computed two ways: an exhaustive backtracking enumeration
(the oracle, fine up to ~20 boxes) and a linear two-term sweep along the box
path.  Scaling by the power q^n, with n read off the even-length continued
fraction, recovers the numerator polynomial of the deformed rational.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import ONE, LaurentPoly
from .qrational import cf_even_form, cf_expand
from .snake import (RIGHT, UP, Edge, SnakeGraph, box_edges, denominator_snake,
                    snake_graph)

Matching = tuple[Edge, ...]

# Largest snake enumerate_matchings accepts.  The backtracking recurses once
# per matched pair, d + 1 levels for d boxes, so far larger snakes overflow
# the recursion limit; the 600-box strip 601/1 already takes seconds.
MAX_ENUMERATION_BOXES = 600


def enumerate_matchings(g: SnakeGraph) -> list[Matching]:
    """
    All perfect matchings as sorted edge tuples, in the deterministic order
    produced by always matching the lowest uncovered vertex.

    Raises ValueError for snakes of more than MAX_ENUMERATION_BOXES boxes.
    """
    if len(g.boxes) > MAX_ENUMERATION_BOXES:
        raise ValueError(f"matching enumeration is limited to snakes of at most "
                         f"{MAX_ENUMERATION_BOXES} boxes, got {len(g.boxes)}")
    vertices = g.vertices
    adjacency = g.adjacency
    covered: set = set()
    chosen: list[Edge] = []
    found: list[Matching] = []

    def extend():
        free = next((v for v in vertices if v not in covered), None)
        if free is None:
            found.append(tuple(sorted(chosen)))
            return
        for w in adjacency[free]:
            if w in covered:
                continue
            covered.add(free)
            covered.add(w)
            chosen.append(tuple(sorted((free, w))))
            extend()
            chosen.pop()
            covered.discard(free)
            covered.discard(w)

    extend()
    return found


def matching_weight_exp(g: SnakeGraph, m: Matching) -> int:
    """Exponent of the weight monomial of one matching."""
    return sum(g.weight_exp[e] for e in m)


def matching_stat(g: SnakeGraph) -> LaurentPoly:
    """The statistic by exhaustive enumeration (the brute-force oracle)."""
    acc: dict[int, int] = {}
    for m in enumerate_matchings(g):
        k = matching_weight_exp(g, m)
        acc[k] = acc.get(k, 0) + 1
    if not acc:
        return LaurentPoly.zero()
    lo, hi = min(acc), max(acc)
    return LaurentPoly(lo, [acc.get(e, 0) for e in range(lo, hi + 1)])


def matching_stat_dp(g: SnakeGraph) -> LaurentPoly:
    """
    The statistic in one linear pass.  State after box i: the statistic of the
    prefix graph, and the statistic of the prefix with the two vertices where
    box i+1 attaches removed (on that reduced graph the last ladder step is
    forced, contributing the opposite side edge's weight on turns).
    """
    boxes = g.boxes
    if not boxes:
        return g.weight(g.edges[0])
    w = g.weight
    sides0 = box_edges(boxes[0])
    prefix = w(sides0["W"]) * w(sides0["E"]) + w(sides0["N"]) * w(sides0["S"])
    if len(boxes) == 1:
        return prefix
    dirs = [RIGHT if boxes[i][0] > boxes[i - 1][0] else UP
            for i in range(1, len(boxes))]
    reduced = w(sides0["W"]) if dirs[0] == RIGHT else w(sides0["S"])
    for i in range(1, len(boxes)):
        sides = box_edges(boxes[i])
        if dirs[i - 1] == RIGHT:
            far, side_a, side_b = sides["E"], sides["N"], sides["S"]
        else:
            far, side_a, side_b = sides["N"], sides["W"], sides["E"]
        prefix, prev_prefix = (w(far) * prefix + w(side_a) * w(side_b) * reduced,
                               prefix)
        if i < len(boxes) - 1:
            if dirs[i] == dirs[i - 1]:
                reduced = prev_prefix
            elif dirs[i - 1] == RIGHT:  # turning up: south edge forced
                reduced = w(sides["S"]) * reduced
            else:  # turning right: west edge forced
                reduced = w(sides["W"]) * reduced
    return prefix


def scalar_exponent(cf: tuple[int, ...]) -> int:
    """Sum of the even-position coefficients of the even-length form, minus 1."""
    even = cf_even_form(cf)
    return sum(even[1::2]) - 1


def numerator_via_matchings(r: int, s: int) -> LaurentPoly:
    """q^n times the statistic of the snake of r/s; equals the numerator."""
    cf = cf_expand(r, s)
    return matching_stat_dp(snake_graph(cf)).shifted(scalar_exponent(cf))


def denominator_via_matchings(r: int, s: int) -> LaurentPoly:
    """
    The denominator candidate q^n' times the statistic of the tail snake.

    At q = 1 this always counts s.  As a polynomial it is the mirror
    (coefficient reversal) of the denominator, hence equal to it exactly
    whenever the denominator is palindromic; see the package README.
    """
    cf = cf_expand(r, s)
    if len(cf) == 1:
        return ONE
    return matching_stat_dp(denominator_snake(cf)).shifted(scalar_exponent(cf[1:]))


@dataclass(frozen=True)
class CaseReport:
    """Outcome of checking the one-box-removal recurrence on a snake."""

    cf: tuple[int, ...]
    applicable: bool
    case: int | None = None
    holds: bool | None = None
    whole: LaurentPoly | None = None
    shorter: LaurentPoly | None = None
    truncated: LaurentPoly | None = None
    factor_exp: int | None = None


def case_recurrences_check(cf: tuple[int, ...], whole: LaurentPoly) -> CaseReport:
    """
    Verify the applicable removal recurrence: the given statistic whole of
    the snake of cf (either parity form, both build the same snake) against
    the statistics of the shorter and truncated snakes, each computed
    independently.  With k coefficients and canonical a_k >= 2:

      k even:  M([a1..ak]) = M([a1..ak - 1]) + q^(1-ak) * M([a1..a(k-1)])
      k odd:   M([a1..ak]) = M([a1..ak - 1]) + q^(ak-1) * M([a1..a(k-1)])

    where the truncated word for k = 1 is the empty snake with statistic 1.
    """
    if sum(cf) < 3:
        return CaseReport(cf=cf, applicable=False)
    if len(cf) >= 2 and cf[-1] == 1:  # recurrence needs the canonical a_k >= 2
        cf = cf[:-2] + (cf[-2] + 1,)
    k = len(cf)
    shorter_cf = cf[:-1] + (cf[-1] - 1,)
    if shorter_cf[-1] == 0:
        shorter_cf = shorter_cf[:-1]
    shorter = matching_stat_dp(snake_graph(shorter_cf))
    truncated = (matching_stat_dp(snake_graph(cf[:-1])) if k > 1 else ONE)
    factor_exp = (1 - cf[-1]) if k % 2 == 0 else (cf[-1] - 1)
    rhs = shorter + truncated.shifted(factor_exp)
    return CaseReport(cf=cf, applicable=True, case=1 if k % 2 == 0 else 2,
                      holds=(whole == rhs), whole=whole, shorter=shorter,
                      truncated=truncated, factor_exp=factor_exp)
