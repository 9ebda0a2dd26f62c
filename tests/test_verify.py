"""The per-pair computation of the verify sweep: what it derives, and which
family each identity's failure lands in; and the sweep itself, a stream of
results folded in one pass into the summary and the exit code."""

import math
import tracemalloc
from dataclasses import replace
from functools import cached_property

import qsnake.kasteleyn
from qsnake import verify
from qsnake.cli import main
from qsnake.laurent import LaurentPoly
from qsnake.matching import _prefix_statistics
from qsnake.qrational import cf_expand
from qsnake.snake import SnakeGraph, snake_graph
from qsnake.verify import CHECK_NAMES, PairResult, check_pair, run_sweep, summarize


def test_check_pair_derives_each_snake_and_statistic_once(count_calls):
    calls = count_calls(cf_expand, snake_graph, _prefix_statistics)
    result = check_pair((13, 3))
    assert result.ok and result.cases_applicable
    # 13/3 = [4, 3]: one snake, whose prefixes hold the shorter [4, 2] and
    # truncated [4] snakes of the removal recurrence and whose boxes from
    # the cut on give the denominator; one pass of the DP body over the
    # whole snake, behind prefix_statistics, and one over that suffix,
    # behind matching_stat_dp
    assert calls["snake_graph"] == 1
    assert calls["_prefix_statistics"] == 2
    # one expansion for the pair, which the denominator count reads too
    assert calls["cf_expand"] == 1


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
    real = qsnake.kasteleyn.scalar_exponent
    monkeypatch.setattr(qsnake.kasteleyn, "scalar_exponent",
                        lambda cf: real(cf) + 1)
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
    return replace(result, passed={**result.passed, **failed})


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
