"""Sweep harness checking every identity on every coprime pair up to a bound.

Per pair: the four computation routes agree, the scaled matching statistic
equals the numerator, the q = 1 counts give back r and s and the scaled
tail statistic is the mirror of the denominator, the Kasteleyn determinant
is (-1)^sum(cf) times the statistic, and the one-box removal recurrence
holds.  Pairs are independent, so the sweep can fan out over
processes; results are merged in (r, s) order either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kasteleyn import kasteleyn_report
from .matching import case_recurrences_check, matching_stat_dp, prefix_statistics, scalar_exponent
from .qrational import all_routes, cf_expand
from .snake import denominator_snake, snake_graph

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


def coprime_pairs(max_r: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(2, max_r + 1)
            for s in range(1, r) if math.gcd(r, s) == 1]


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

    # the tail snake counts s, and q^n' times its statistic is the mirror
    # of the denominator
    counts_ok = stat.eval_at_one() == r
    if len(cf) > 1:
        tail_stat, den = matching_stat_dp(denominator_snake(cf)), routes.fractions["matrix"].den
        counts_ok = (counts_ok and tail_stat.eval_at_one() == s
                     and tail_stat.shifted(scalar_exponent(cf[1:])) == den.mirror(den.top_deg))

    case = case_recurrences_check(cf, stats)
    cases_ok = case.holds if case.applicable else True

    return PairResult(r=r, s=s, cases_applicable=case.applicable,
                      passed={"routes": routes.agree,
                              "theorem": kasteleyn.scaled_matches_numerator,
                              "counts": counts_ok,
                              "kasteleyn": kasteleyn.det_matches_statistic,
                              "cases": cases_ok})


def run_sweep(max_r: int, jobs: int = 1) -> list[PairResult]:
    pairs = coprime_pairs(max_r)
    if jobs <= 1:
        return [check_pair(p) for p in pairs]
    # imported here: the multiprocessing machinery adds about 2.5 MiB to
    # every process that imports qsnake, and only a pool needs it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(check_pair, pairs, chunksize=16))


def summarize(results: list[PairResult]) -> str:
    lines = [f"pairs checked: {len(results)}"]
    for name in CHECK_NAMES:
        good = sum(1 for res in results if res.passed[name])
        extra = ""
        if name == "cases":
            extra = f" (applicable {sum(1 for res in results if res.cases_applicable)})"
        lines.append(f"  {name:<10} {good}/{len(results)}{extra}")
    bad = next((res for res in results if not res.ok), None)
    if bad is None:
        lines.append("all checks passed")
    else:
        failed = [k for k, v in bad.passed.items() if not v]
        lines.append(f"FIRST FAILURE at {bad.r}/{bad.s}: {', '.join(failed)}")
    return "\n".join(lines)
