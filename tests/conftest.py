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
def weight_map_reference():
    """``weight_map_reference(cf)``: the weight map of cf's snake built the
    way ``snake_graph`` once built it, every edge of every box set to 0 and
    then the exposed west and south borders weighted from the grid: a
    reference for ``SnakeGraph.weight_exp``, which sets one edge per box."""
    from qsnake.snake import box_edges, box_path

    def _grid_exponent(edge):
        (x, y), (x2, y2) = edge
        if x2 == x:  # vertical
            return 1 if (x + y) % 2 == 0 else -1
        if x == 0:  # horizontal edges leaving the first column carry no weight
            return 0
        return 1 if (x + y) % 2 == 1 else -1

    def weight_map(cf):
        boxes = box_path(cf)
        if not boxes:
            return {((0, 0), (1, 0)): 0}
        weights = dict.fromkeys(sorted({e for b in boxes for e in box_edges(b).values()}), 0)
        for i, box in enumerate(boxes):
            sides = box_edges(box)
            if i == 0 or boxes[i][1] == boxes[i - 1][1] + 1:  # west border exposed
                weights[sides["W"]] = _grid_exponent(sides["W"])
            if i == 0 or boxes[i][0] == boxes[i - 1][0] + 1:  # south border exposed
                weights[sides["S"]] = _grid_exponent(sides["S"])
        return weights

    return weight_map


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


@pytest.fixture(scope="session")
def recurrence_reference():
    """``recurrence_reference(x)``: the recurrence map of x with its descent
    in ``Fraction`` steps and its ascent on signed polynomials, a negation
    on every inversion and every a < 0 step: a reference for
    ``q_map_general``, which descends on an integer pair and keeps its
    signs apart."""
    import math
    from fractions import Fraction

    from qsnake.laurent import ONE, LaurentFraction
    from qsnake.qrational import q_int

    def q_map_general(x) -> LaurentFraction:
        if x == math.inf:
            return LaurentFraction.infinity()
        x = Fraction(x)
        # Descend to an integer with one step per floor a of x, then undo the
        # steps innermost first.  A loop, so deep continued fractions cannot
        # exhaust the interpreter's recursion limit.
        steps = []
        while x.denominator != 1:
            a = x.numerator // x.denominator
            steps.append(a)
            # a > 0: x - a in (0, 1); a == 0: -1/x < -1; a < 0: x - a in (0, 1)
            x = -1 / x if a == 0 else x - a
        n = x.numerator
        # [-m] = -q^-m [m]
        num, den = (q_int(n) if n >= 0 else -q_int(-n).shifted(n)), ONE
        for a in reversed(steps):
            if a > 0:
                # [x] = q^a [x - a] + [a]
                num = num.shifted(a) + den.times_qint(a)
            elif a == 0:
                # x in (0, 1): [x] = -1/(q [-1/x])
                num, den = -den, num.shifted(1)
            else:
                # x < 0 with m = -a: [x] = ([x + m] - [m]) / q^m, the
                # difference taken through negation, so that the reference
                # shares no subtraction with the route
                num, den = num + -den.times_qint(-a), den.shifted(-a)
        return LaurentFraction(num, den)

    return q_map_general
