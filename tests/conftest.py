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
    from qsnake.snake import box_edges
    from oracles import box_path

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
    R^n = [[q^n, [n]], [0, 1]] or L^n = [[q^n, 0], [q[n], 1]], the product
    p [n] taken as the exact quotient (q^n p - p) / (q - 1) by ``div_exact``:
    a reference for the matrix route, which packs the one column it reads
    into ints, and shares no code with either q-integer kernel.  Its
    property test runs quotients up to 1000, where the schoolbook product
    by ``q_int(n)`` would cost len(p) * n additions per step."""
    from qsnake.laurent import ONE, ZERO, LaurentPoly
    from oracles import QMatrix

    q_minus_one = LaurentPoly(0, (-1, 1))

    def times_qint(p, n):
        return (p.shifted(n) - p).div_exact(q_minus_one)

    def word(cf):
        a, b, c, d = ONE, ZERO, ZERO, ONE
        for i, n in enumerate(cf):
            if i % 2 == 0:
                a, b, c, d = a.shifted(n), times_qint(a, n) + b, c.shifted(n), times_qint(c, n) + d
            else:
                a = a.shifted(n) + times_qint(b, n).shifted(1)
                c = c.shifted(n) + times_qint(d, n).shifted(1)
        return QMatrix(a, b, c, d)

    return word


@pytest.fixture(scope="session")
def matrix_column_reference(matrix_word_reference):
    """``matrix_column_reference(cf)``: the column of
    ``matrix_word_reference(cf)`` that the matrix route reads, the first
    for even length and the second for odd."""
    def column(cf):
        m = matrix_word_reference(cf)
        return (m.a, m.c) if len(cf) % 2 == 0 else (m.b, m.d)

    return column


@pytest.fixture(scope="session")
def nested_reference():
    """``nested_reference(cf)``: the deformed nested fraction of cf evaluated
    bottom-up in LaurentPoly arithmetic, through the schoolbook product by
    ``q_int(a)``, ``__add__`` and shifts to negative exponents: a reference
    for ``q_cf_eval``, which packs its pair into ints and runs neither."""
    from qsnake.laurent import ONE, LaurentFraction
    from qsnake.qrational import q_int

    def nested(cf):
        k, a = len(cf), cf[-1]
        num, den = (q_int(a).shifted(1 - a) if k % 2 == 0 else q_int(a)), ONE
        for i in range(k - 1, 0, -1):
            a = cf[i - 1]
            # an even position has [a]_{1/q} = q^(1-a) [a]_q and prefactor q^-a
            shift, pre = (0, a) if i % 2 == 1 else (1 - a, -a)
            num, den = (num * q_int(a)).shifted(shift) + den.shifted(pre), num
        return LaurentFraction(num, den)

    return nested


@pytest.fixture(scope="session")
def continuant_reference():
    """``continuant_reference(cf)``: the tridiagonal determinant of cf by its
    three-term recurrence in LaurentPoly arithmetic, through the schoolbook
    product by ``q_int(a)``, ``__add__`` and shifts to negative exponents: a
    reference for ``continuant_det``, which packs its terms into ints and
    runs neither."""
    from qsnake.laurent import ONE
    from qsnake.qrational import q_int

    def continuant(cf):
        prev2, prev = ONE, q_int(cf[0])
        for i in range(2, len(cf) + 1):
            a, a_prev = cf[i - 1], cf[i - 2]
            # an even position has [a]_{1/q} = q^(1-a) [a]_q and subdiagonal q^a_prev
            shift, sub_exp = (0, -a_prev) if i % 2 == 1 else (1 - a, a_prev)
            prev2, prev = prev, (prev * q_int(a)).shifted(shift) + prev2.shifted(sub_exp)
        return prev

    return continuant


@pytest.fixture(scope="session")
def recurrence_reference():
    """``recurrence_reference(x)``: the recurrence map of x with its descent
    in ``Fraction`` steps and its ascent on signed polynomials by the
    schoolbook product by ``q_int``, a negation on every inversion and
    every a < 0 step: a reference for ``q_map_general``, which descends on
    an integer pair and ascends on packed ints of nonnegative slots, with
    one sign at the end.  The schoolbook product costs len(p) * n additions
    per step, so a quotient of a few thousand takes seconds; the words of
    such quotients are compared with ``list_recurrence_reference``."""
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
                num = num.shifted(a) + den * q_int(a)
            elif a == 0:
                # x in (0, 1): [x] = -1/(q [-1/x])
                num, den = -den, num.shifted(1)
            else:
                # x < 0 with m = -a: [x] = ([x + m] - [m]) / q^m, the
                # difference taken through negation, so that the reference
                # shares no subtraction with the route
                num, den = num + -(den * q_int(-a)), den.shifted(-a)
        return LaurentFraction(num, den)

    return q_map_general


@pytest.fixture(scope="session")
def list_recurrence_reference():
    """``list_recurrence_reference(x)``: the recurrence map of x with the
    route's own descent and its ascent on lists of nonnegative
    coefficients, one call of the list kernel ``oracles.times_qint_add`` per
    nonzero step, [a] D plus a shift of N, with the valuations beside the
    lists and one sign at the end: a second reference for
    ``q_map_general``, which ascends on packed ints and shares neither the
    list kernel nor the slot reads.  The kernel is linear in the length of
    its result, so the reference runs words of any quotient at full size."""
    import math
    from fractions import Fraction

    from qsnake.laurent import LaurentFraction, LaurentPoly
    from oracles import times_qint_add

    def q_map_general(x) -> LaurentFraction:
        if x == math.inf:
            return LaurentFraction.infinity()
        x = Fraction(x)
        # descend toward zero on the coprime pair (p, d), one step per
        # integer part, at most two per quotient
        p, d = x.numerator, x.denominator
        steps = []
        while d != 1:
            a = p // d if p > 0 else -(-p // d)
            steps.append(a)
            if a == 0:
                p, d = (-d, p) if p > 0 else (d, -p)
            else:
                p -= a * d
        # |num| = q^vn N and den = q^vd D, N and D trimmed lists of
        # nonnegative coefficients; |[-m]| = q^-m [m]
        N, vn, D, vd = [1] * abs(p), min(p, 0), [1], 0
        for a in reversed(steps):
            if a > 0:
                # [x] = q^a [x - a] + [a]: |num| = q^vd ([a] D + q^(vn + a - vd) N)
                low, N = times_qint_add(D, a, N, vn + a - vd)
                vn = vd + low
            elif a == 0:
                # x in (-1, 1): [x] = -1/(q [-1/x])
                N, vn, D, vd = D, vd, N, vn + 1
            else:
                # x < 0 with m = -a: [x] = ([x + m] - [m]) / q^m, both terms
                # at most 0: |num| = q^vd ([m] D + q^(vn - vd) N), den = q^m den
                low, N = times_qint_add(D, -a, N, vn - vd)
                vn, vd = vd + low, vd - a
        return LaurentFraction(LaurentPoly(vn - vd, N if x > 0 else [-c for c in N]),
                               LaurentPoly(0, D))

    return q_map_general
