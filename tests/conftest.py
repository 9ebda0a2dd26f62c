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



@pytest.fixture(scope="session")
def matrix_word_reference():
    """``matrix_word_reference(cf)``: the word R^a1 L^a2 R^a3 ... of cf as a
    column update in LaurentPoly arithmetic, right multiplication by
    R^n = [[q^n, [n]], [0, 1]] or L^n = [[q^n, 0], [q[n], 1]] through
    ``times_qint`` and ``__add__``: a reference for the matrix route, which
    packs its entries into ints and runs neither."""
    from qsnake.laurent import ONE, ZERO
    from qsnake.qrational import QMatrix

    def word(cf):
        a, b, c, d = ONE, ZERO, ZERO, ONE
        for i, n in enumerate(cf):
            if i % 2 == 0:
                a, b, c, d = a.shifted(n), a.times_qint(n) + b, c.shifted(n), c.times_qint(n) + d
            else:
                a = a.shifted(n) + b.times_qint(n).shifted(1)
                c = c.shifted(n) + d.times_qint(n).shifted(1)
        return QMatrix(a, b, c, d)

    return word
