"""Sweep harness checking every identity on every coprime pair up to a bound.

Per pair: the four computation routes agree, the scaled matching statistic
equals the numerator, the q = 1 counts give back r and s and the snake's
boxes from the cut on, scaled by the same q^n, give the denominator, the
Kasteleyn determinant is (-1)^sum(cf) times the statistic, and the one-box
removal recurrence holds.  Pairs are independent, so the sweep can fan out
over processes; either way one pass folds the results, in (r, s) order.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

from .kasteleyn import kasteleyn_report
from .matching import case_recurrences_check, matching_stat_dp, prefix_statistics, scalar_exponent
from .qrational import all_routes, cf_even_form, cf_expand
from .snake import SnakeGraph, snake_graph

CHECK_NAMES = ("routes", "theorem", "counts", "kasteleyn", "cases")


@dataclass(frozen=True)
class PairResult:
    r: int
    s: int
    passed: dict[str, bool]
    cases_applicable: bool

    @property
    def ok(self) -> bool:
        return all(self.passed.values())


def coprime_pairs(max_r: int) -> Iterator[tuple[int, int]]:
    return ((r, s) for r in range(2, max_r + 1)
            for s in range(1, r) if math.gcd(r, s) == 1)


def check_pair(pair: tuple[int, int]) -> PairResult:
    """
    Every check on one pair, from one continued fraction, one route table
    and one snake with its prefix statistics.  The Kasteleyn report gives
    both the theorem check and the kasteleyn check (det = (-1)^sum(cf) stat).
    """
    r, s = pair
    cf = cf_expand(r, s)
    routes = all_routes(cf)
    g = snake_graph(cf)
    stats = prefix_statistics(g)
    stat = stats[-1]
    kasteleyn = kasteleyn_report(cf, g, stat, routes.fractions["matrix"].num)

    # the snake's boxes from the cut on count s, and q^n times their
    # statistic is the denominator (proved in denominator_via_matchings)
    tail = matching_stat_dp(SnakeGraph(g.exps[cf_even_form(cf)[0]:]))
    counts_ok = (stat.eval_at_one() == r and tail.eval_at_one() == s
                 and tail.shifted(scalar_exponent(cf)) == routes.fractions["matrix"].den)

    case = case_recurrences_check(cf, stats)
    cases_ok = case.holds if case.applicable else True

    return PairResult(r=r, s=s, cases_applicable=case.applicable,
                      passed={"routes": routes.agree,
                              "theorem": kasteleyn.scaled_matches_numerator,
                              "counts": counts_ok,
                              "kasteleyn": kasteleyn.det_matches_statistic,
                              "cases": cases_ok})


def run_sweep(max_r: int, jobs: int = 1) -> Iterator[PairResult]:
    pairs = coprime_pairs(max_r)
    if jobs <= 1:
        yield from map(check_pair, pairs)
        return
    # only a pool needs this 2.5 MiB import; map submits all it is given, so give it slabs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while slab := list(islice(pairs, 8192)):
            yield from pool.map(check_pair, slab, chunksize=16)


def summarize(results: Iterable[PairResult]) -> tuple[str, bool]:
    """The summary text and whether every check passed, from one pass."""
    count, tally, bad = 0, Counter(), None
    for count, res in enumerate(results, 1):
        tally.update(name for name, ok in res.passed.items() if ok)
        tally["applicable"] += res.cases_applicable
        if bad is None and not res.ok:
            bad = res
    lines = [f"pairs checked: {count}"]
    for name in CHECK_NAMES:
        extra = f" (applicable {tally['applicable']})" if name == "cases" else ""
        lines.append(f"  {name:<10} {tally[name]}/{count}{extra}")
    if bad is None:
        lines.append("all checks passed")
    else:
        failed = [k for k, v in bad.passed.items() if not v]
        lines.append(f"FIRST FAILURE at {bad.r}/{bad.s}: {', '.join(failed)}")
    return "\n".join(lines), bad is None
