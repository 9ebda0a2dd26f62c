"""Sweep harness checking every identity on every coprime pair up to a bound.

Per pair: the four routes agree, the snake gives the numerator and the
denominator (``snake_fraction``), the q = 1 counts give back r and s, the
Kasteleyn determinant is ``kasteleyn_sign`` times the statistic, and the
one-box removal recurrence holds.  Pairs are independent, so the sweep can
fan out over processes; either way one pass folds the results in (r, s) order.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import islice
from typing import NamedTuple

from .kasteleyn import det_exact, kasteleyn_matrix, kasteleyn_sign
from .matching import case_recurrences_check, snake_fraction
from .qrational import all_routes, cf_expand
from .snake import snake_graph

CHECK_NAMES = ("routes", "theorem", "counts", "kasteleyn", "cases")


class PairResult(NamedTuple):
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
    Every check on one pair, each family one comparison, of one continued
    fraction, route table and snake: the case check's three prefix statistics
    (the whole snake's among them), the denominator suffix's, one determinant.
    """
    r, s = pair
    cf = cf_expand(r, s)
    routes = all_routes(cf)
    fraction = routes.fractions["matrix"]
    g = snake_graph(cf)
    case = case_recurrences_check(cf, g)
    stat = case.whole
    num, den = snake_fraction(g, stat)
    det = det_exact(kasteleyn_matrix(g))
    return PairResult(r=r, s=s, cases_applicable=case.applicable,
                      passed={"routes": routes.agree,
                              "theorem": num == fraction.num,
                              "counts": (stat.eval_at_one() == r and den.eval_at_one() == s
                                         and den == fraction.den),
                              "kasteleyn": det == (stat if kasteleyn_sign(g) == 1 else -stat),
                              "cases": not case.applicable or case.holds})


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
