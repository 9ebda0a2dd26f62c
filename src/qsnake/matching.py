"""Weighted perfect matchings of snake graphs and the statistic they generate.

The generating function M(G) = sum over perfect matchings of the product of
edge weights is computed by a linear two-term sweep along the box path; the
``matchings`` command lists the matchings themselves, by an exhaustive
backtracking enumeration.  Scaling by the power q^n, with n read off the
even-length continued fraction, recovers the numerator polynomial of the
deformed rational, and the same power times the statistic of the snake's
boxes from the cut on recovers its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .laurent import ONE, LaurentPoly
from .qrational import cf_even_form, cf_expand
from .snake import Edge, SnakeGraph, Vertex, snake_graph

Matching = tuple[Edge, ...]

# Largest snake enumerate_matchings accepts.  The backtracking recurses once
# per matched pair, d + 1 levels for d boxes, so larger snakes overflow the
# recursion limit: called from the top of the `matchings` command, with the
# bound lifted, the strip of 980 boxes ran and that of 1000 boxes raised
# RecursionError, and a caller deeper in the stack overflows sooner, so the
# bound keeps about 380 levels to spare.  The 600-box strip 601/1 took
# 2.3-2.5 s and 31 MiB, and MAX_MATCHING_EDGES stops `matchings` at 631
# boxes anyway.
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
    adjacency: dict[Vertex, list[Vertex]] = {}
    for a, b in g.weight_exp:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    vertices = sorted(adjacency)
    for v in vertices:
        adjacency[v].sort()
    covered: set = set()
    chosen: list[Edge] = []
    found: list[Matching] = []

    def extend(start: int):
        # every vertex before start is covered: the level above matched the
        # lowest uncovered vertex, at start - 1
        i = start
        while i < len(vertices) and vertices[i] in covered:
            i += 1
        if i == len(vertices):
            found.append(tuple(sorted(chosen)))
            return
        free = vertices[i]
        for w in adjacency[free]:
            if w in covered:
                continue
            covered.add(free)
            covered.add(w)
            chosen.append(tuple(sorted((free, w))))
            extend(i + 1)
            chosen.pop()
            covered.discard(free)
            covered.discard(w)

    extend(0)
    return found


def matching_weight_exp(g: SnakeGraph, m: Matching) -> int:
    """Exponent of the weight monomial of one matching."""
    return sum(g.weight_exp[e] for e in m)


def prefix_statistics(g: SnakeGraph) -> list[LaurentPoly]:
    """
    The statistic of every prefix in one linear pass: entry m (m = 0 ..
    sum(cf)) is that of the first m - 1 boxes, the snake of cf cut to sum m;
    entries 0 (empty) and 1 (the lone unweighted edge) are 1.
    """
    return list(_prefix_statistics(g))


def _prefix_statistics(g: SnakeGraph) -> Iterator[LaurentPoly]:
    """
    Yield the prefix statistics in turn, holding only the last two.  State
    after each box: the statistic of the prefix graph, and that of the
    prefix with the two vertices where the next box attaches removed.  A
    box adds its weighted edge's matchings on that reduced graph; a box
    glued the same way as the one before (their exponents differ) reduces
    to the prefix before it, one that turns forces the previous box's
    weighted edge.  Weights stay exponents: each q^k is a shift by k.
    """
    prev = last = reduced = ONE
    yield prev  # the empty snake
    yield last  # the lone unweighted edge
    e_before = 0
    for e in g.exps:
        reduced = prev if e != e_before else reduced.shifted(e_before)
        prev, last = last, last + reduced.shifted(e)
        yield last
        e_before = e


def matching_stat_dp(g: SnakeGraph) -> LaurentPoly:
    """
    The statistic in one linear pass: the last of the prefix statistics,
    with only the current ones held, so memory stays linear in the boxes.
    """
    for stat in _prefix_statistics(g):
        pass
    return stat


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
    q^n times the statistic of the snake of r/s = [a1..ak] from box a on,
    n as for the numerator and a = cf_even_form(cf)[0]: the denominator.

    For k = 1 the cut is past the last box and n = 0.  For k >= 2, a = a1;
    [x + 1]_q = q [x]_q + 1 and [1/x]_q = 1/[x]_(1/q) (Morier-Genoud and
    Ovsienko, 2020) give [r/s]_q = [a1]_q + q^a1 / [t]_(1/q), t = [a2..ak].
    With [t]_q = P/Q reduced, that is ([a1]_q P(1/q) + q^a1 Q(1/q)) / P(1/q),
    reduced too (a common factor divides q^a1 Q(1/q)), so the denominator
    is P(1/q) times a unit.  The snake of t is the boxes from the cut on
    with every exponent negated, which takes M(q) to M(1/q), and by the
    theorem for t, P = q^n' M(snake of t) with n' = scalar_exponent(t).  So
    the denominator is q^j M(boxes from the cut on), its coefficients all
    positive, with j = deg P - n' = sum(t) - 1 - n' (Morier-Genoud and
    Ovsienko), which is n: the even forms give n + n' = sum(t) - 1.
    """
    cf = cf_expand(r, s)
    tail = matching_stat_dp(SnakeGraph(snake_graph(cf).exps[cf_even_form(cf)[0]:]))
    return tail.shifted(scalar_exponent(cf))


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


def case_recurrences_check(cf: tuple[int, ...], stats: list[LaurentPoly]) -> CaseReport:
    """
    Verify the applicable removal recurrence on the snake of cf (either
    parity form, both build the same snake) from its prefix statistics
    stats: the shorter and truncated snakes are prefixes of the whole one.
    With k coefficients and canonical a_k >= 2:

      k even:  M([a1..ak]) = M([a1..ak - 1]) + q^(1-ak) * M([a1..a(k-1)])
      k odd:   M([a1..ak]) = M([a1..ak - 1]) + q^(ak-1) * M([a1..a(k-1)])

    where the truncated word for k = 1 is the empty snake with statistic 1.
    """
    if sum(cf) < 3:
        return CaseReport(cf=cf, applicable=False)
    if len(cf) >= 2 and cf[-1] == 1:  # recurrence needs the canonical a_k >= 2
        cf = cf[:-2] + (cf[-2] + 1,)
    k = len(cf)
    whole, shorter = stats[-1], stats[-2]
    truncated = stats[sum(cf) - cf[-1]]
    factor_exp = (1 - cf[-1]) if k % 2 == 0 else (cf[-1] - 1)
    rhs = shorter + truncated.shifted(factor_exp)
    return CaseReport(cf=cf, applicable=True, case=1 if k % 2 == 0 else 2,
                      holds=(whole == rhs), whole=whole, shorter=shorter,
                      truncated=truncated, factor_exp=factor_exp)
