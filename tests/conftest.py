"""Fixtures shared by the test modules, which import nothing from each other."""

import sys
from collections import Counter

import pytest


@pytest.fixture
def _cut():
    """``_cut(cf, total)``: the prefix of cf whose sum is total, its last quotient shortened."""
    def cut(cf, total):
        out = []
        for a in cf:
            out.append(min(a, total - sum(out)))
            if sum(out) == total:
                return tuple(out)

    return cut


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` routes every reference to each function, in
    every qsnake module, through a wrapper that counts its calls by name, and
    returns the counter."""
    def count(*functions):
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

    return count
