"""Snake graphs of rationals: box paths, edge weights, colors, orientation.

A continued fraction [a1, ..., ak] determines a sign sequence of runs
(-^a1, +^a2, -^a3, ...).  Box i comes from sign i, i < sum - 1, so both
parity forms build the same snake: box 0 at (0, 0), box i glued above box
i - 1 when sign i differs from the base sign, '-' for odd i and '+' for
even i, and to its right otherwise.  Each box carries exactly one weighted
edge, q or 1/q: its west side if glued above (box 0 counts as glued
above), its south side if glued to the right; every other edge weighs 1.
One weighted edge per box makes the canonical orientation below Kasteleyn.

* Box i's exponent is +1 under a '-' and -1 under a '+'.  Box i has
  x + y = i, and the grid colouring weights a west side q when x + y is
  even and a south side q when it is odd.  For even i the weight is q
  exactly when the box is glued above, sign i not the base '+'; for odd i
  exactly when it is glued right, sign i the base '-'.
* Box i is glued the way box i - 1 is exactly when their exponents differ
  (box 0: glued above, after exponent 0).  The bases of i and i - 1
  differ, so the two boxes go the same way exactly when their signs do.

So a ``SnakeGraph`` is its exponent word: the boxes, the weight map, the
vertices and the colors are derived from it when a reader asks for them.
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


def far_corner(cf: tuple[int, ...]) -> Vertex:
    """
    The far corner (max x, max y) of the snake's vertices, from the
    continued fraction alone, one step per quotient.  Sign i lies in run j,
    so box i goes right exactly when i + j is odd (see the module
    docstring); the corner is one past the count of right and of up steps.
    The boxless snake is the edge (0, 0) - (1, 0).
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


def weighted_sides(boxes: tuple[Box, ...]) -> Iterator[Edge]:
    """
    Per box along the path, its one weighted edge: the west side of a box
    glued above the box before it and the south side of a box glued to the
    right.  Box 0 counts as glued above.
    """
    y_before = -1
    for x, y in boxes:
        yield ((x, y), (x, y + 1)) if y > y_before else ((x, y), (x + 1, y))
        y_before = y


@dataclass(frozen=True)
class SnakeGraph:
    """
    A weighted snake graph embedded in the grid, built by ``snake_graph``:
    ``exps[i]`` is the exponent k of the weight q^k on box i's one weighted
    edge (see ``weighted_sides``).  The boxes along the path are derived
    from it by the turn rule of the module docstring, and the weight map of
    every edge from both, each once, on first access; its keys are the
    edges, sorted, and the vertices (sorted) and the colors are read off it.
    """

    exps: tuple[int, ...]

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        """The boxes along the path from (0, 0): box i is glued the way box
        i - 1 is exactly when their exponents differ."""
        boxes: list[Box] = []
        x, y, up, e_before = 0, -1, True, 0
        for e in self.exps:
            if e == e_before:
                up = not up
            x, y = (x, y + 1) if up else (x + 1, y)
            boxes.append((x, y))
            e_before = e
        return tuple(boxes)

    @cached_property
    def weight_exp(self) -> dict[Edge, int]:
        """Every edge, in sorted edge order, to the exponent of its weight;
        the rational 1 is the lone unweighted edge (0, 0) - (1, 0)."""
        if not self.boxes:
            return {((0, 0), (1, 0)): 0}
        weights = dict.fromkeys(sorted({e for b in self.boxes
                                        for e in box_edges(b).values()}), 0)
        for edge, k in zip(weighted_sides(self.boxes), self.exps):
            weights[edge] = k
        return weights

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


def snake_graph(cf: tuple[int, ...]) -> SnakeGraph:
    """
    The weighted snake of [a1, ..., ak]: one exponent per box, +1 under a
    '-' of the sign sequence and -1 under a '+'.

    The degenerate single-coefficient [1] (the rational 1) has no boxes; its
    graph is the lone unweighted south border.
    """
    if not cf or sum(cf) < 1:
        raise ValueError("continued fraction must have positive sum")
    signs = sign_sequence(cf)
    return SnakeGraph(tuple([1 if c == "-" else -1 for c in signs[:-1]]))
