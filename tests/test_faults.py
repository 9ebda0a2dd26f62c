"""A planted-fault matrix: which check family of ``check_pair`` catches
which fault.

Each row plants one fault, a ``monkeypatch`` of one function (or of the one
sign table) of the package, runs ``check_pair`` on every coprime pair with
r <= 30, and asserts the set of families that fail on some pair, not how
many pairs fail.  A family's claim to be independent evidence is a row in
which it fails alone: ``routes`` for the recurrence route's product by a
q-integer and for the continuant, ``counts`` for the snake's boxes from
the cut on, whose statistic gives the denominator, and for a wrong word,
which both halves read alike, ``kasteleyn`` for the walk's weighted sides,
the band and the determinant.  Every route reads its packed ints through the
one slot reader ``_slots``, so a fault there turns all of them alike and
only ``theorem`` and ``counts`` see it.  Add a row whenever a check or a
kernel is added.
"""

from functools import cached_property

import pytest

from qsnake import kasteleyn, matching, qrational, snake, verify
from qsnake.laurent import ONE, LaurentPoly
from qsnake.qrational import cf_expand, q_continuant
from qsnake.snake import SnakeGraph
from qsnake.verify import CHECK_NAMES, check_pair, coprime_pairs

PAIRS = list(coprime_pairs(30))


# -- the faults: each takes the function it replaces and returns the fault ---

def chained_shift_negated(_):
    # the DP with the shift of a box glued the same way as the one before
    # it negated
    def fault(g):
        prev = last = reduced = ONE
        yield prev
        yield last
        e_before = 0
        for e in g.exps:
            reduced = prev if e != e_before else reduced.shifted(-e_before)
            prev, last = last, last + reduced.shifted(e)
            yield last
            e_before = e
    return fault


def dp_reads(change):
    # the DP reads changed exponents; the Kasteleyn matrix reads the snake
    def make(dp):
        return lambda g: dp(SnakeGraph(tuple(change(list(g.exps)))))
    return make


def snake_built(change):
    # the snake itself is built with changed exponents
    def make(build):
        return lambda cf: SnakeGraph(tuple(change(list(build(cf).exps))))
    return make


def mirrored(exps):
    return [-e for e in exps]


def box_5_doubled(exps):
    exps[5:6] = [2 * e for e in exps[5:6]]
    return exps


def odd_boxes_negated(exps):
    return [-e if i % 2 else e for i, e in enumerate(exps)]


def last_box_negated(exps):
    exps[-1:] = [-e for e in exps[-1:]]
    return exps


def cut_one_box_late(cut):
    # the first box of the denominator's suffix of the snake one too far on
    return lambda g: cut(g) + 1


def one_more(scalar_exponent):
    # n, the power of q that scales both statistics, one too high
    return lambda g: scalar_exponent(g) + 1


def east_side_weighted(walk):
    # the walk weights a box glued right on its east side, not its south
    def fault(g):
        weights = walk.func(g)
        y_before = -1
        for (x, y), k in zip(g.boxes, g.exps):
            if y == y_before:
                weights[(x, y), (x + 1, y)] = 0
                weights[(x + 1, y), (x + 1, y + 1)] = k
            y_before = y
        return weights

    prop = cached_property(fault)
    prop.__set_name__(SnakeGraph, "weight_exp")
    return prop


def last_quotient_one_more(expand):
    # the word of another rational, its last quotient one too high
    def fault(r, s):
        *head, last = expand(r, s)
        return (*head, last + 1)
    return fault


def sign_1_flipped(signs):
    def fault(cf):
        out = list(signs(cf))
        out[1:2] = ["+" if c == "-" else "-" for c in out[1:2]]
        return tuple(out)
    return fault


def bottom_slot_bumped_once(kernel):
    # a fresh fault per pair: the first product by [n]_q, n >= 2, has its
    # bottom slot one too high
    bumped = []

    def fault(x, n, bits):
        acc = kernel(x, n, bits)
        if n >= 2 and not bumped:
            bumped.append(n)
            acc += 1
        return acc
    return fault


def top_slot_bumped(read):
    # a slot read of three or more slots returns its top slot one too high
    def fault(x, width):
        slots = read(x, width)
        return slots[:-1] + (slots[-1] + 1,) if len(slots) >= 3 else slots
    return fault


def extra_top_slot(kernel):
    def fault(x, n, bits):
        acc = kernel(x, n, bits)
        if n >= 3:
            acc += 1 << -(-acc.bit_length() // bits) * bits
        return acc
    return fault


def last_row_sign_flipped(build):
    def fault(g):
        m = build(g)
        *head, last = m.band
        *entries, (k, sign, exp) = last
        return kasteleyn.KasteleynMatrix((*head, (*entries, (k, -sign, exp))),
                                         m.black_order, m.white_order)
    return fault


def inversion_sign_flipped(table):
    rows = [list(row) for row in table]
    rows[3][3] = -rows[3][3]
    return tuple([tuple(row) for row in rows])


def top_term_added(j=None):
    # q^top added to the polynomial, or to entry j of the column, for words
    # of at least four quotients
    def bump(p):
        return p + LaurentPoly.monomial(p.top_deg)

    def make(route):
        def fault(cf):
            out = route(cf)
            if len(cf) < 4:
                return out
            if j is None:
                return bump(out)
            return tuple([bump(p) if i == j else p for i, p in enumerate(out)])
        return fault
    return make


FAULTS = [
    ("dp-chained-shift-negated", matching, "prefix_statistics", chained_shift_negated,
     {"theorem", "counts", "kasteleyn", "cases"}),
    ("dp-box-weights-mirrored", matching, "prefix_statistics", dp_reads(mirrored),
     {"theorem", "counts", "kasteleyn", "cases"}),
    ("dp-box-5-doubled", matching, "prefix_statistics", dp_reads(box_5_doubled),
     {"theorem", "counts", "kasteleyn", "cases"}),
    ("snake-odd-boxes-negated", verify, "snake_graph", snake_built(odd_boxes_negated),
     {"theorem", "counts", "cases"}),
    ("snake-last-box-negated", verify, "snake_graph", snake_built(last_box_negated),
     {"theorem", "counts", "cases"}),
    ("snake-sign-1-flipped", snake, "sign_sequence", sign_1_flipped,
     {"theorem", "counts", "cases"}),
    ("word-last-quotient-one-more", verify, "cf_expand", last_quotient_one_more,
     {"counts"}),
    ("tail-snake-mirrored", matching, "matching_stat_dp", dp_reads(mirrored),
     {"counts"}),
    ("tail-cut-one-box-late", matching, "denominator_cut", cut_one_box_late,
     {"counts"}),
    ("scalar-exponent-one-more", matching, "scalar_exponent", one_more,
     {"theorem", "counts"}),
    ("product-kernel-extra-top-slot", qrational, "_times_qint_mul", extra_top_slot,
     {"routes"}),
    ("product-kernel-bottom-slot-bumped-once", qrational, "_times_qint_mul",
     bottom_slot_bumped_once, {"routes"}),
    ("packed-kernel-extra-top-slot", qrational, "_times_qint", extra_top_slot,
     {"routes", "theorem", "counts"}),
    ("slot-read-top-slot-bumped", qrational, "_slots", top_slot_bumped,
     {"theorem", "counts"}),
    ("walk-weights-east-side", SnakeGraph, "weight_exp", east_side_weighted,
     {"kasteleyn"}),
    ("band-last-row-sign-flipped", verify, "kasteleyn_matrix", last_row_sign_flipped,
     {"kasteleyn"}),
    ("det-inversion-sign-flipped", kasteleyn, "_INVERSION_SIGN", inversion_sign_flipped,
     {"kasteleyn"}),
    ("continuant-top-term-added", qrational, "q_continuant", top_term_added(),
     {"routes"}),
    ("column-numerator-top-term-added", qrational, "cf_matrix_column",
     top_term_added(0), {"routes", "theorem"}),
    ("column-denominator-top-term-added", qrational, "cf_matrix_column",
     top_term_added(1), {"routes", "counts"}),
]


def failing_families(monkeypatch, module, name, make):
    """The families that fail on some pair, the fault planted afresh per pair."""
    original, failed = getattr(module, name), set()
    for pair in PAIRS:
        monkeypatch.setattr(module, name, make(original))
        result = check_pair(pair)
        failed.update(family for family in CHECK_NAMES if not result.passed[family])
    return failed


@pytest.mark.parametrize("fault, module, name, make, caught", FAULTS,
                         ids=[row[0] for row in FAULTS])
def test_fault_is_caught_by_its_families(monkeypatch, fault, module, name, make, caught):
    assert failing_families(monkeypatch, module, name, make) == caught, fault


def test_continuant_off_by_a_power_of_q_is_invisible(monkeypatch):
    # q_continuant normalizes the determinant's valuation to 0, so a
    # continuant_det off by a power of q gives the same numerator and no
    # family can see it: the continuant checks coefficients, not valuations
    words = [cf_expand(*pair) for pair in PAIRS]
    det, numerators = qrational.continuant_det, [q_continuant(cf) for cf in words]
    for j in (1, -3):
        def off_by_q_j(det):
            return lambda cf: det(cf).shifted(j)

        with monkeypatch.context() as m:
            assert failing_families(m, qrational, "continuant_det", off_by_q_j) == set(), j
            # the planted determinant is off, the numerator is not
            assert all(qrational.continuant_det(cf) == det(cf).shifted(j) for cf in words), j
            assert [q_continuant(cf) for cf in words] == numerators, j
