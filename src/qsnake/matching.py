"""Weighted perfect matchings of snake graphs and the statistic they generate.

The generating function M(G) = sum over perfect matchings of the product of
edge weights is computed by a linear two-term sweep along the box path; the
``matchings`` command lists the matchings themselves, by an exhaustive
backtracking enumeration.  ``snake_fraction`` scales it by q^n, n the
number of boxes weighted 1/q, to the numerator of the deformed rational,
and the statistic of the boxes from the first such box on to its
denominator.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .laurent import ONE, LaurentPoly
from .qrational import cf_expand
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
    if len(g.exps) > MAX_ENUMERATION_BOXES:
        raise ValueError(f"matching enumeration is limited to snakes of at most "
                         f"{MAX_ENUMERATION_BOXES} boxes, got {len(g.exps)}")
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


def prefix_statistics(g: SnakeGraph) -> Iterator[LaurentPoly]:
    """
    The statistic of every prefix, yielded in turn by one linear pass that
    holds the last two: item m (m = 0 .. sum(cf)) is that of the first m - 1
    boxes, the snake of cf cut to sum m; items 0 (empty) and 1 (the lone
    unweighted edge) are 1.  State after each box: the statistic of the
    prefix graph, and that of the prefix with the two vertices where the
    next box attaches removed.  A box adds its weighted edge's matchings on
    that reduced graph; a box glued the same way as the one before (their
    exponents differ) reduces to the prefix before it, one that turns forces
    the previous box's weighted edge.  Weights stay exponents: q^k shifts by k.
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
    for stat in prefix_statistics(g):
        pass
    return stat


def scalar_exponent(g: SnakeGraph) -> int:
    """n, the power of q that scales the statistic to the numerator: the boxes
    weighted 1/q, one per '+' sign but the last, which builds no box, so the
    sum of the even-length form's even-position quotients, minus 1."""
    return g.exps.count(-1)


def denominator_cut(g: SnakeGraph) -> int:
    """The first box of the denominator's suffix: the first box weighted 1/q,
    box a1 of [a1, ..., ak], or past the last box for an integer."""
    return g.exps.index(-1) if -1 in g.exps else len(g.exps)


def snake_fraction(g: SnakeGraph, stat: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """
    The numerator and denominator of the rational whose snake is g, from its
    statistic stat: q^n stat and q^n M(boxes from the cut on), n and the cut
    as above.  Two polynomials: a ``LaurentFraction`` would hide a wrong n.

    An integer has n = 0 and an empty suffix.  Else the cut is box a1, and
    [x + 1]_q = q [x]_q + 1, [1/x]_q = 1/[x]_(1/q) (Morier-Genoud and
    Ovsienko, 2020) give [r/s]_q = [a1]_q + q^a1 / [t]_(1/q), t = [a2..ak].
    With [t]_q = P/Q reduced, that is ([a1]_q P(1/q) + q^a1 Q(1/q)) / P(1/q),
    reduced too (a common factor divides q^a1 Q(1/q)), so the denominator is
    P(1/q) times a unit.  The snake of t is the suffix with every exponent
    negated, which takes M(q) to M(1/q), and by the theorem for t, P = q^n'
    M(snake of t), n' the suffix's q boxes.  So the denominator is q^j
    M(suffix), with j = deg P - n' = sum(t) - 1 - n' (Morier-Genoud and
    Ovsienko), the suffix's 1/q boxes: all n of g's, as none precede the cut.
    """
    n = scalar_exponent(g)
    tail = matching_stat_dp(SnakeGraph(g.exps[denominator_cut(g):]))
    return stat.shifted(n), tail.shifted(n)


def numerator_via_matchings(r: int, s: int) -> LaurentPoly:
    """The numerator of [r/s]_q from the snake of r/s (``snake_fraction``)."""
    return snake_fraction(g := snake_graph(cf_expand(r, s)), matching_stat_dp(g))[0]


def denominator_via_matchings(r: int, s: int) -> LaurentPoly:
    """The denominator of [r/s]_q from the snake of r/s (``snake_fraction``)."""
    return snake_fraction(g := snake_graph(cf_expand(r, s)), matching_stat_dp(g))[1]


class CaseReport(NamedTuple):
    """Outcome of checking the one-box-removal recurrence on a snake."""

    cf: tuple[int, ...]
    applicable: bool
    case: int | None = None
    holds: bool | None = None
    whole: LaurentPoly | None = None
    shorter: LaurentPoly | None = None
    truncated: LaurentPoly | None = None
    factor_exp: int | None = None


def case_recurrences_check(cf: tuple[int, ...], g: SnakeGraph) -> CaseReport:
    """
    The statistic ``whole`` of the snake g of cf (either parity form), and
    the applicable removal recurrence on it: the shorter and truncated
    snakes are prefixes, so one DP pass gives the three, and holds only
    them.  With k coefficients and canonical a_k >= 2:

      k even:  M([a1..ak]) = M([a1..ak - 1]) + q^(1-ak) * M([a1..a(k-1)])
      k odd:   M([a1..ak]) = M([a1..ak - 1]) + q^(ak-1) * M([a1..a(k-1)])

    where the truncated word for k = 1 is the empty snake with statistic 1.
    """
    if len(cf) >= 2 and cf[-1] == 1:  # recurrence needs the canonical a_k >= 2
        cf = cf[:-2] + (cf[-2] + 1,)
    m = sum(cf)
    stats = {i: x for i, x in enumerate(prefix_statistics(g)) if i in (m, m - 1, m - cf[-1])}
    whole = stats[m]
    if m < 3:
        return CaseReport(cf=cf, applicable=False, whole=whole)
    k = len(cf)
    shorter, truncated = stats[m - 1], stats[m - cf[-1]]
    factor_exp = (1 - cf[-1]) if k % 2 == 0 else (cf[-1] - 1)
    return CaseReport(cf=cf, applicable=True, case=1 if k % 2 == 0 else 2,
                      holds=whole == shorter + truncated.shifted(factor_exp), whole=whole,
                      shorter=shorter, truncated=truncated, factor_exp=factor_exp)
