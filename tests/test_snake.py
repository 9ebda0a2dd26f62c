import dataclasses
import math

import pytest

from qsnake.qrational import cf_even_form, cf_expand
from qsnake.snake import SnakeGraph, box_edges, sign_sequence, snake_graph

from oracles import box_path, cf_odd_form, colored_edges, denominator_snake, face_arrow_counts

SWEEP = [(r, s) for r in range(2, 41) for s in range(1, r) if math.gcd(r, s) == 1]


def test_sign_sequences():
    assert sign_sequence((2, 2)) == ("-", "-", "+", "+")
    assert sign_sequence((1, 1, 2, 1)) == ("-", "+", "-", "-", "+")
    assert sign_sequence((2, 2, 2, 2)) == ("-", "-", "+", "+", "-", "-", "+", "+")


def test_box_paths_golden():
    assert box_path((2, 2)) == ((0, 0), (1, 0), (2, 0))
    assert box_path((1, 1, 2, 1)) == ((0, 0), (0, 1), (0, 2), (1, 2))
    assert box_path((1, 1, 3)) == ((0, 0), (0, 1), (0, 2), (1, 2))
    assert box_path((2, 2, 2, 2)) == (
        (0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (3, 2), (4, 2))
    # integer snakes are staircases; one run of equal signs alternates R/U
    assert box_path((7,)) == ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2))
    # the 11-box outline of the 179/74 example
    assert box_path((2, 2, 2, 1, 1, 2, 2)) == (
        (0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (3, 2), (4, 2), (5, 2),
        (6, 2), (6, 3), (6, 4))


def test_parity_forms_build_the_same_snake():
    for cf in [(2, 2), (1, 1, 3), (4, 3), (2, 2, 2, 2), (7,)]:
        even = cf[:-1] + (cf[-1] - 1, 1) if cf[-1] >= 2 else cf
        assert box_path(cf) == box_path(even)


def test_counts():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        d = len(g.boxes)
        assert d == sum(cf_expand(r, s)) - 1
        assert len(g.vertices) == 2 * d + 2
        assert len(g.weight_exp) == 3 * d + 1
        assert len(g.black_vertices) == d + 1
        assert len(g.white_vertices) == d + 1
        assert list(g.weight_exp) == sorted(g.weight_exp)


def test_weights_small_golden():
    g = snake_graph((2, 2))
    assert colored_edges(g) == {
        ((0, 0), (0, 1)): 1,
        ((1, 0), (2, 0)): 1,
        ((2, 0), (3, 0)): -1,
    }
    g = snake_graph((1, 1, 2, 1))
    assert colored_edges(g) == {
        ((0, 0), (0, 1)): 1,
        ((0, 1), (0, 2)): -1,
        ((0, 2), (0, 3)): 1,
        ((1, 2), (2, 2)): 1,
    }
    g = snake_graph((2, 2, 2, 2))
    assert colored_edges(g) == {
        ((0, 0), (0, 1)): 1,
        ((1, 0), (2, 0)): 1,
        ((2, 0), (3, 0)): -1,
        ((2, 1), (2, 2)): -1,
        ((2, 2), (2, 3)): 1,
        ((3, 2), (4, 2)): 1,
        ((4, 2), (5, 2)): -1,
    }


def test_weights_179_74_golden():
    # the full weighted-border picture of the big worked snake
    g = snake_graph((2, 2, 2, 1, 1, 2, 2))
    assert colored_edges(g) == {
        ((0, 0), (0, 1)): 1,
        ((1, 0), (2, 0)): 1,
        ((2, 0), (3, 0)): -1,
        ((2, 1), (2, 2)): -1,
        ((2, 2), (2, 3)): 1,
        ((3, 2), (4, 2)): 1,
        ((4, 2), (5, 2)): -1,
        ((5, 2), (6, 2)): 1,
        ((6, 2), (7, 2)): -1,
        ((6, 3), (6, 4)): -1,
        ((6, 4), (6, 5)): 1,
    }


def test_first_column_south_edge_unweighted():
    for r, s in SWEEP[:80]:
        g = snake_graph(cf_expand(r, s))
        assert g.weight_exp[((0, 0), (1, 0))] == 0


def test_one_colored_edge_per_box():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        for box in g.boxes:
            weighted = [e for e in box_edges(box).values() if g.weight_exp[e] != 0]
            assert len(weighted) == 1, (r, s, box)


def test_ladders_monochromatic():
    # boxes attached within one coefficient run share the weight sign, and
    # runs alternate q, 1/q, q, ...
    for r, s in SWEEP:
        cf = cf_expand(r, s)
        g = snake_graph(cf)
        run_of_sign = []
        for i, a in enumerate(cf):
            run_of_sign.extend([i] * a)
        for i, box in enumerate(g.boxes):
            [(edge, exp)] = [(e, k) for e, k in g.weight_exp.items()
                             if k != 0 and e in box_edges(box).values()]
            run = run_of_sign[i]
            assert exp == (1 if run % 2 == 0 else -1), (r, s, i)


def test_bipartite():
    for r, s in SWEEP[:100]:
        g = snake_graph(cf_expand(r, s))
        assert g.is_black((0, 0))
        for u, v in g.weight_exp:
            assert g.is_black(u) != g.is_black(v)


def test_orientation_golden_13_3():
    g = snake_graph((4, 3))
    arrows = {g.arrow(e) for e in g.weight_exp}
    expected = {
        # weighted edges, black to white
        ((0, 0), (0, 1)), ((2, 0), (1, 0)), ((1, 1), (1, 2)),
        ((3, 1), (2, 1)), ((3, 1), (4, 1)), ((3, 3), (3, 2)),
        # unit edges, white to black
        ((1, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1)),
        ((2, 1), (2, 0)), ((2, 1), (1, 1)), ((2, 1), (2, 2)),
        ((1, 2), (2, 2)), ((3, 2), (2, 2)), ((3, 2), (3, 1)),
        ((3, 2), (4, 2)), ((4, 1), (4, 2)), ((4, 3), (4, 2)),
        ((4, 3), (3, 3)),
    }
    assert arrows == expected


def test_face_condition_sweep():
    for r, s in SWEEP:
        g = snake_graph(cf_expand(r, s))
        assert all(n % 2 == 1 for n in face_arrow_counts(g)), (r, s)


def test_single_box_face():
    g = snake_graph((2,))
    assert face_arrow_counts(g) == [1]


def test_denominator_snake():
    assert denominator_snake((2, 2)).boxes == ((0, 0),)
    assert denominator_snake((4, 3)).boxes == ((0, 0), (1, 0))
    assert denominator_snake((2, 2, 2, 2)).boxes == box_path((2, 2, 2))
    with pytest.raises(ValueError):
        denominator_snake((5,))


def test_snake_graph_built_complete():
    g = snake_graph((2, 2))
    assert set(g.weight_exp) == {e for b in g.boxes for e in box_edges(b).values()}
    assert all(set(g.arrow(e)) == set(e) for e in g.weight_exp)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.weight_exp = {}
    with pytest.raises(ValueError):
        snake_graph(())


def test_snake_graph_stores_boxes_and_weights_only():
    # one exponent per box is the whole record; the boxes, weight map,
    # vertices and colors are derived from it on access
    assert [f.name for f in dataclasses.fields(SnakeGraph)] == ["exps"]
    g = snake_graph((4, 3))
    assert "boxes" not in vars(g)
    assert g.boxes == box_path((4, 3))
    assert g.vertices == tuple(sorted({v for e in g.weight_exp for v in e}))


def test_weight_map_matches_the_reference(weight_map_reference):
    # the boxes derived by the turn rule are the sign-sequence walk, the
    # exponents read off the signs are the grid's weights (of a box's west
    # and south sides one is its exposed border, the other weighs 0), and
    # the map derived from one exponent per box is the one built by exposing
    # borders, key order included; both parity forms build the same graph,
    # hence the same map
    words = [(1,), (0, 1)] + [cf_expand(r, s) for r in range(2, 301)
                              for s in range(1, r) if math.gcd(r, s) == 1]
    for cf in words:
        g = snake_graph(cf)
        boxes = box_path(cf)
        weights = weight_map_reference(cf)
        grid = tuple([weights[sides["W"]] + weights[sides["S"]]
                      for sides in map(box_edges, boxes)])
        for form in (cf, cf_even_form(cf), cf_odd_form(cf)):
            h = snake_graph(form)
            assert h == g and h.exps == grid, form
            assert h.boxes == box_path(form) == boxes, form
        assert list(g.weight_exp.items()) == list(weights.items()), cf


def test_tail_snake_is_the_negated_suffix():
    # the tail's signs are the whole word's from a1 on, each flipped; the DP
    # reads only the exponents, and negating them all mirrors its statistic
    for r in range(2, 401):
        for s in range(1, r):
            if math.gcd(r, s) != 1:
                continue
            cf = cf_expand(r, s)
            if len(cf) >= 2:
                tail = tuple([-e for e in snake_graph(cf).exps[cf[0]:]])
                assert denominator_snake(cf).exps == tail, cf


def test_degenerate_unit_snake():
    g = snake_graph((1,))
    assert g.boxes == ()
    assert tuple(g.weight_exp) == (((0, 0), (1, 0)),)
    assert g.weight_exp[((0, 0), (1, 0))] == 0
    assert g.arrow(((0, 0), (1, 0))) == ((1, 0), (0, 0))
