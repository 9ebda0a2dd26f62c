"""The per-pair computation of the verify sweep: what it derives, and which
family each identity's failure lands in; and the sweep itself, a stream of
results folded in one pass into the summary and the exit code."""

import math
import random
import tracemalloc
from functools import cached_property

from qsnake import verify
from qsnake.cli import main
from qsnake.laurent import LaurentPoly
from qsnake.matching import prefix_statistics
from qsnake.qrational import _slot_bytes, cf_expand
from qsnake.snake import SnakeGraph, snake_graph
from qsnake.verify import CHECK_NAMES, PairResult, check_pair, run_sweep, summarize


def test_check_pair_derives_each_snake_and_statistic_once(count_calls):
    calls = count_calls(cf_expand, snake_graph, prefix_statistics)
    result = check_pair((13, 3))
    assert result.ok and result.cases_applicable
    # 13/3 = [4, 3]: one snake, whose prefixes hold the shorter [4, 2] and
    # truncated [4] snakes of the removal recurrence and whose boxes from
    # the cut on give the denominator; one pass of the DP body over the
    # whole snake, behind prefix_statistics, and one over that suffix,
    # behind matching_stat_dp
    assert calls["snake_graph"] == 1
    assert calls["prefix_statistics"] == 2
    # one expansion for the pair, which the denominator count reads too
    assert calls["cf_expand"] == 1


def _slot_edge_pairs(seed=21, per_side=16, max_boxes=200):
    """
    Seeded coprime pairs with r on both sides of each slot width edge, 2^8,
    2^16, 2^32 and 2^64, and at most max_boxes boxes, half of them with s
    near r/phi, whose quotients are mostly 1 and whose coefficients come
    within a few bits of r.
    """
    rng = random.Random(seed)
    pairs = []
    for edge in (2**8, 2**16, 2**32, 2**64):
        for lo, hi in ((edge - edge // 8, edge - 1), (edge, edge + edge // 8)):
            side = []
            while len(side) < per_side:
                r = rng.randint(lo, hi)
                s = (rng.randint(1, r - 1) if len(side) % 2 else
                     (math.isqrt(5 * r * r) - r) // 2 + rng.randint(0, 8))
                if math.gcd(r, s) == 1 and sum(cf_expand(r, s)) - 1 <= max_boxes:
                    side.append((r, s))
            pairs += side
    return pairs


def test_check_pair_passes_in_every_slot_width():
    # every coefficient is at most r, so r sets the width of the packed
    # slots, and `verify --max-r 1000` reaches only the 1- and 2-byte ones;
    # here every width class, 1, 2, 4 and 8 bytes and wider, is reached
    pairs = _slot_edge_pairs()
    for pair in pairs:
        result = check_pair(pair)
        assert result.ok, (pair, result.passed)
    assert {_slot_bytes(r) for r, _ in pairs} == {1, 2, 4, 8, 9}


def test_check_pair_reads_no_vertex_list(monkeypatch):
    # the per-pair path reads each snake's boxes and weight map only
    def refuse(self):
        raise AssertionError("the vertex list was built")

    monkeypatch.setattr(SnakeGraph, "vertices", property(refuse))
    for r in range(2, 31):
        for s in range(1, r):
            if math.gcd(r, s) == 1:
                assert check_pair((r, s)).ok, (r, s)


def test_check_pair_mirrors_nothing(monkeypatch):
    # the denominator is q^n times the statistic of the snake's boxes from
    # the cut on, with no coefficient reversal
    def refuse(self, d):
        raise AssertionError("a polynomial was mirrored")

    monkeypatch.setattr(LaurentPoly, "mirror", refuse)
    for r in range(2, 31):
        for s in range(1, r):
            if math.gcd(r, s) == 1:
                assert check_pair((r, s)).ok, (r, s)


def test_check_pair_builds_one_weight_map(monkeypatch):
    # the DP reads one exponent per box, so the only map built is the whole
    # snake's, once, for its Kasteleyn matrix
    built = []
    real = SnakeGraph.weight_exp.func

    def counting(self):
        built.append(self.boxes)
        return real(self)

    prop = cached_property(counting)
    prop.__set_name__(SnakeGraph, "weight_exp")
    monkeypatch.setattr(SnakeGraph, "weight_exp", prop)
    for pair in [(2, 1), (13, 3), (179, 74), (55, 34)]:
        built.clear()
        assert check_pair(pair).ok, pair
        assert built == [snake_graph(cf_expand(*pair)).boxes], pair


def test_check_pair_derives_the_boxes_of_one_snake(monkeypatch):
    # the DP reads the exponents alone, so only the whole snake's boxes are
    # derived, for its Kasteleyn matrix; the suffix snake's never are
    derived = []
    real = SnakeGraph.boxes.func

    def counting(self):
        derived.append(self.exps)
        return real(self)

    prop = cached_property(counting)
    prop.__set_name__(SnakeGraph, "boxes")
    monkeypatch.setattr(SnakeGraph, "boxes", prop)
    for r in range(2, 31):
        for s in range(1, r):
            if math.gcd(r, s) == 1:
                derived.clear()
                assert check_pair((r, s)).ok, (r, s)
                assert derived == [snake_graph(cf_expand(r, s)).exps], (r, s)


def test_theorem_fault_fails_only_the_theorem_family(monkeypatch):
    # the snake's numerator one power of q too high, its denominator right
    real = verify.snake_fraction

    def numerator_shifted(g, stat):
        num, den = real(g, stat)
        return num.shifted(1), den

    monkeypatch.setattr(verify, "snake_fraction", numerator_shifted)
    result = check_pair((13, 3))
    assert [name for name in CHECK_NAMES if not result.passed[name]] == ["theorem"]


def check_pair_failing_from_9_on(pair):
    """``check_pair`` with a planted fault: ``theorem`` fails on every pair
    whose r is a multiple of 9, and ``kasteleyn`` too when r is 18.  The first
    failing pair, 9/1, is the 22nd, past the pool's first chunk of 16.  At
    module level, so that the pool's workers unpickle it by name."""
    result = check_pair(pair)
    failed = {"theorem": False} if pair[0] % 9 == 0 else {}
    if pair[0] == 18:
        failed["kasteleyn"] = False
    return result._replace(passed={**result.passed, **failed})


def test_first_failure_exits_1_with_the_same_bytes_for_any_jobs(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_pair", check_pair_failing_from_9_on)
    outs = []
    for jobs in ("1", "2"):
        assert main(["verify", "--max-r", "20", "--jobs", jobs]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == (
        "pairs checked: 127\n"
        "  routes     127/127\n"
        "  theorem    115/127\n"
        "  counts     127/127\n"
        "  kasteleyn  121/127\n"
        "  cases      127/127 (applicable 126)\n"
        "FIRST FAILURE at 9/1: theorem\n")


def test_summarize_holds_no_result():
    # held, each of the 19,000 more results would cost about 336 B
    def peak(n):
        results = (PairResult(r=k, s=1, passed=dict.fromkeys(CHECK_NAMES, True),
                              cases_applicable=True) for k in range(2, n + 2))
        tracemalloc.start()
        try:
            summary, ok = summarize(results)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and summary.startswith(f"pairs checked: {n}\n")
        return top

    small, large = peak(1_000), peak(20_000)
    assert large - small < 64 * 1024, (small, large)


def test_serial_sweep_checks_each_pair_when_its_result_is_read(count_calls):
    calls = count_calls(check_pair)
    results = run_sweep(30)
    assert calls["check_pair"] == 0
    first = next(results)
    assert (first.r, first.s) == (2, 1) and calls["check_pair"] == 1


def test_pooled_sweep_draws_the_pairs_a_slab_at_a_time(monkeypatch):
    # the executor's map submits all it is given before its first result:
    # given the whole stream, it would draw all 304,191 pairs of --max-r 1000
    drawn = 0
    real = verify.coprime_pairs

    def counting(max_r):
        nonlocal drawn
        for pair in real(max_r):
            drawn += 1
            yield pair

    monkeypatch.setattr(verify, "coprime_pairs", counting)
    results = run_sweep(1000, jobs=2)
    first = next(results)
    results.close()
    assert (first.r, first.s) == (2, 1)
    assert drawn < 30_000, drawn
