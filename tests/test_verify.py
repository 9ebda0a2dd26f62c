"""The per-pair computation of the verify sweep: what it derives, and which
family each identity's failure lands in."""

import math
from functools import cached_property

import qsnake.kasteleyn
from qsnake.matching import _prefix_statistics
from qsnake.qrational import cf_expand
from qsnake.snake import SnakeGraph, snake_graph
from qsnake.verify import CHECK_NAMES, check_pair


def test_check_pair_derives_each_snake_and_statistic_once(count_calls):
    calls = count_calls(cf_expand, snake_graph, _prefix_statistics)
    result = check_pair((13, 3))
    assert result.ok and result.cases_applicable
    # 13/3 = [4, 3]: the whole snake, whose prefixes hold the shorter [4, 2]
    # and truncated [4] snakes of the removal recurrence, and the tail [3]
    # for the denominator; each snake gets one pass of the DP body, behind
    # both prefix_statistics and matching_stat_dp
    assert calls["snake_graph"] == 2
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


def test_theorem_fault_fails_only_the_theorem_family(monkeypatch):
    real = qsnake.kasteleyn.scalar_exponent
    monkeypatch.setattr(qsnake.kasteleyn, "scalar_exponent",
                        lambda cf: real(cf) + 1)
    result = check_pair((13, 3))
    assert [name for name in CHECK_NAMES if not result.passed[name]] == ["theorem"]
