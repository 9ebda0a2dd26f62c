"""Snake graphs of rationals: box paths, edge weights, colors, orientation.

A continued fraction [a1, ..., ak] determines a sign sequence of runs
(-^a1, +^a2, -^a3, ...).  Boxes are glued right or up along the sequence.
Each box carries exactly one weighted edge, q or 1/q from a fixed
two-colored grid: the west side of a box glued above the one before it
(box 0 counts as glued above), the south side of a box glued to its right.
Every other edge has weight 1.  One weighted edge per box is what makes the
canonical orientation below a Kasteleyn orientation.

A ``SnakeGraph`` is its boxes and the exponent of each box's weighted edge,
nothing more: the weight map of every edge, the vertices and the colors are
derived from these when a reader asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]
Box = tuple[int, int]


def sign_sequence(cf: tuple[int, ...]) -> tuple[str, ...]:
    """Runs of '-' and '+' of lengths a1, a2, ..., starting with '-'."""
    out: list[str] = []
    for i, a in enumerate(cf):
        out.extend(("-" if i % 2 == 0 else "+") * a)
    return tuple(out)


def box_path(cf: tuple[int, ...]) -> tuple[Box, ...]:
    """
    Lattice cells of the snake, starting at (0, 0), read off the sign
    sequence in one walk.

    Box i carries the alternating base sign s_i = '-' for odd i (1-based);
    box i+1 is glued to its right when the next sequence sign equals s_i,
    above it when opposite.  Only the first (sum - 1) signs matter, so
    equivalent parity forms of the same rational build the same snake.
    """
    signs = sign_sequence(cf)
    if len(signs) == 1:
        return ()
    boxes = [(0, 0)]
    for i in range(1, len(signs) - 1):
        x, y = boxes[-1]
        base = "-" if i % 2 == 1 else "+"
        boxes.append((x + 1, y) if signs[i] == base else (x, y + 1))
    return tuple(boxes)


def far_corner(cf: tuple[int, ...]) -> Vertex:
    """
    The far corner (max x, max y) of the snake's vertices, from the
    continued fraction alone, one step per quotient.  Sign i lies in run j,
    so box i+1 goes right exactly when i + j is odd (see ``box_path``); the
    corner is one past the count of right and of up steps.  The boxless
    snake is the edge (0, 0) - (1, 0).
    """
    total = sum(cf)
    if total < 2:
        return 1, 0
    right, start = 0, 0
    for j, a in enumerate(cf):
        lo, hi = max(start, 1), min(start + a, total - 1)
        if lo < hi:
            # the i in lo .. hi - 1 of parity p, the parity that makes i + j odd
            p = 1 - j % 2
            right += (hi - p + 1) // 2 - (lo - p + 1) // 2
        start += a
    return right + 1, total - 1 - right


def box_edges(box: Box) -> dict[str, Edge]:
    """The four edges of a unit cell keyed by side W/E/S/N."""
    x, y = box
    return {
        "W": ((x, y), (x, y + 1)),
        "E": ((x + 1, y), (x + 1, y + 1)),
        "S": ((x, y), (x + 1, y)),
        "N": ((x, y + 1), (x + 1, y + 1)),
    }


def weighted_sides(boxes: tuple[Box, ...]) -> Iterator[tuple[bool, Edge]]:
    """
    Per box along the path: whether it is glued above the box before it, and
    its one weighted edge, the west side of a box glued above and the south
    side of a box glued to the right.  Box 0 counts as glued above.
    """
    y_before = -1
    for x, y in boxes:
        up = y > y_before
        yield up, (((x, y), (x, y + 1)) if up else ((x, y), (x + 1, y)))
        y_before = y


@dataclass(frozen=True)
class SnakeGraph:
    """
    A weighted snake graph embedded in the grid, built by ``snake_graph``:
    its boxes along the path, and ``exps[i]``, the exponent k of the weight
    q^k on box i's one weighted edge (see ``weighted_sides``).  The weight
    map of every edge is derived once, on first access; the edges and
    vertices (both sorted) and the colors are read off it.
    """

    boxes: tuple[Box, ...]
    exps: tuple[int, ...]

    @cached_property
    def weight_exp(self) -> dict[Edge, int]:
        """Every edge, in sorted edge order, to the exponent of its weight;
        the rational 1 is the lone unweighted edge (0, 0) - (1, 0)."""
        if not self.boxes:
            return {((0, 0), (1, 0)): 0}
        weights = dict.fromkeys(sorted({e for b in self.boxes
                                        for e in box_edges(b).values()}), 0)
        for (_, edge), k in zip(weighted_sides(self.boxes), self.exps):
            weights[edge] = k
        return weights

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.weight_exp)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted({v for e in self.weight_exp for v in e}))

    def is_black(self, v: Vertex) -> bool:
        return (v[0] + v[1]) % 2 == 0

    @property
    def black_vertices(self) -> tuple[Vertex, ...]:
        return tuple([v for v in self.vertices if self.is_black(v)])

    @property
    def white_vertices(self) -> tuple[Vertex, ...]:
        return tuple([v for v in self.vertices if not self.is_black(v)])

    def arrow(self, edge: Edge) -> tuple[Vertex, Vertex]:
        """
        The (tail, head) of an edge under the canonical Kasteleyn orientation:
        weighted edges run black -> white, weight-1 edges run white -> black.
        Each box has exactly one weighted edge, so every unit face sees an
        odd number of black -> white arrows.
        """
        u, v = edge
        black, white = (u, v) if self.is_black(u) else (v, u)
        return (black, white) if self.weight_exp[edge] != 0 else (white, black)


def _grid_exponent(edge: Edge) -> int:
    """Weight exponent the colored grid assigns to a west/south border edge."""
    (x, y), (x2, y2) = edge
    if x2 == x:  # vertical
        return 1 if (x + y) % 2 == 0 else -1
    return 1 if (x + y) % 2 == 1 else -1


def snake_graph(cf: tuple[int, ...]) -> SnakeGraph:
    """
    The weighted snake of [a1, ..., ak]: its boxes, and each box's weighted
    edge weighted from the grid coloring.

    The degenerate single-coefficient [1] (the rational 1) has no boxes; its
    graph is the lone unweighted south border.
    """
    if not cf or sum(cf) < 1:
        raise ValueError("continued fraction must have positive sum")
    boxes = box_path(cf)
    return SnakeGraph(boxes, tuple([_grid_exponent(edge)
                                    for _, edge in weighted_sides(boxes)]))


def denominator_snake(cf: tuple[int, ...]) -> SnakeGraph:
    """The snake of the tail [a2, ..., ak], used for the denominator."""
    if len(cf) < 2:
        raise ValueError("denominator snake needs at least two coefficients")
    return snake_graph(cf[1:])
