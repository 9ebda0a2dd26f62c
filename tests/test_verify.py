"""The per-pair computation of the verify sweep: what it derives, and which
family each identity's failure lands in."""

import sys
from collections import Counter

import qsnake.kasteleyn
from qsnake.matching import prefix_statistics
from qsnake.qrational import cf_expand
from qsnake.snake import snake_graph
from qsnake.verify import CHECK_NAMES, check_pair


def count_calls(monkeypatch, *functions):
    """Route every reference to each function, in every qsnake module,
    through a wrapper that counts its calls by name."""
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items()
               if name == "qsnake" or name.startswith("qsnake.")]
    for fn in functions:
        wrapper = counting(fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def test_check_pair_derives_each_snake_and_statistic_once(monkeypatch):
    calls = count_calls(monkeypatch, cf_expand, snake_graph, prefix_statistics)
    result = check_pair((13, 3))
    assert result.ok and result.cases_applicable
    # 13/3 = [4, 3]: the whole snake, whose prefixes hold the shorter [4, 2]
    # and truncated [4] snakes of the removal recurrence, and the tail [3]
    # for the denominator
    assert calls["snake_graph"] == 2
    assert calls["prefix_statistics"] == 2
    # one expansion for the pair, one inside denominator_via_matchings(r, s)
    assert calls["cf_expand"] == 2


def test_theorem_fault_fails_only_the_theorem_family(monkeypatch):
    real = qsnake.kasteleyn.scalar_exponent
    monkeypatch.setattr(qsnake.kasteleyn, "scalar_exponent",
                        lambda cf: real(cf) + 1)
    result = check_pair((13, 3))
    assert [name for name in CHECK_NAMES if not result.passed[name]] == ["theorem"]
