"""Snake graphs of rationals: box paths, edge weights, colors, orientation.

A continued fraction [a1, ..., ak] determines a sign sequence of runs
(-^a1, +^a2, -^a3, ...).  Box i comes from sign i, i < sum - 1, so both
parity forms build the same snake: box 0 at (0, 0), box i glued above box
i - 1 when sign i differs from the base sign, '-' for odd i and '+' for
even i, and to its right otherwise.  The graph is one walk along the boxes
from the edge (0, 0) - (1, 0), the north side under box 0; box 0 counts as
glued above.  A box glued above takes the last north side as its south
side and adds its NW and NE corners and its west, east and north sides; a
box glued right takes the last east side as its west side and adds its SE
and NE corners and its south, east and north sides.  So each box adds one
black vertex, one white vertex and three edges, and one weighted edge, q or
1/q: its west side if glued above, its south side if glued right; every
other edge weighs 1.  One weighted edge per box makes the canonical
orientation below Kasteleyn.

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

from functools import cached_property

from .laurent import LaurentPoly

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


class SnakeGraph:
    """
    A weighted snake graph embedded in the grid, built by ``snake_graph``:
    ``exps[i]`` is the exponent k of the weight q^k on box i's one weighted
    edge.  The boxes along the path are derived from it by the turn rule of
    the module docstring, and from both, by its one walk, the weight map of
    every edge (keys sorted) and the vertices in path order (``corners``),
    each once, on first access.  Each vertex is one tuple, shared by the
    corners and the edges; the sorted vertices and colors are read off.
    """

    def __init__(self, exps: tuple[int, ...]):
        vars(self)["exps"] = exps  # the cached properties share the instance dict

    __setattr__ = __delattr__ = LaurentPoly.__setattr__

    def __eq__(self, other):
        return self.exps == other.exps if other.__class__ is SnakeGraph else NotImplemented

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"SnakeGraph(exps={self.exps!r})"

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
        """Every edge, in sorted edge order, to the exponent of its weight,
        by the walk of the module docstring, which also sets ``corners``;
        the rational 1 is the lone unweighted edge (0, 0) - (1, 0)."""
        nw, ne = (0, 0), (1, 0)  # the edge under box 0 stands as the last north side
        corners, edges, weighted = [nw, ne], [(nw, ne)], []
        for x, y in self.boxes:
            if y == ne[1]:  # glued above, on the last north side
                sw, se, nw, ne = nw, ne, (x, y + 1), (x + 1, y + 1)
                corners += nw, ne
                weighted.append((sw, nw))
            else:  # glued right, on the last east side
                sw, se, nw, ne = se, (x + 1, y), ne, (x + 1, y + 1)
                corners += se, ne
                weighted.append((sw, se))
            edges += weighted[-1], (se, ne), (nw, ne)
        vars(self)["corners"] = tuple(corners)
        edges.sort()
        weights = dict.fromkeys(edges, 0)
        weights.update(zip(weighted, self.exps))
        return weights

    @cached_property
    def corners(self) -> tuple[Vertex, ...]:
        """The vertices in path order: (0, 0), (1, 0), then the two corners
        each box adds, set by the walk that builds ``weight_exp``."""
        self.weight_exp  # the walk
        return vars(self)["corners"]

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.corners))

    def is_black(self, v: Vertex) -> bool:
        return (v[0] + v[1]) % 2 == 0

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
