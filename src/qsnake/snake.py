"""Snake graphs of rationals: box paths, edge weights, colors, orientation.

A continued fraction [a1, ..., ak] determines a sign sequence of runs
(-^a1, +^a2, -^a3, ...).  Boxes are glued right or up along the sequence;
the western and southern borders pick up weights q or 1/q from a fixed
two-colored grid, every other edge has weight 1.  Every elementary box ends
up with exactly one weighted edge, which is what makes the canonical
orientation below a Kasteleyn orientation.

A ``SnakeGraph`` is its boxes and its weight map, nothing more: the edges,
vertices and colors are read off the map when a reader asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]
Box = tuple[int, int]

RIGHT = "R"
UP = "U"


def sign_sequence(cf: tuple[int, ...]) -> tuple[str, ...]:
    """Runs of '-' and '+' of lengths a1, a2, ..., starting with '-'."""
    out: list[str] = []
    for i, a in enumerate(cf):
        out.extend(("-" if i % 2 == 0 else "+") * a)
    return tuple(out)


def attach_directions(cf: tuple[int, ...]) -> tuple[str, ...]:
    """
    Directions gluing box i+1 to box i, read off the sign sequence.

    Box i carries the alternating base sign s_i = '-' for odd i (1-based);
    the attachment is RIGHT when the next sequence sign equals s_i, UP when
    it is opposite.  Only the first (sum - 1) signs matter, so equivalent
    parity forms of the same rational build the same snake.
    """
    signs = sign_sequence(cf)
    d = len(signs) - 1
    dirs = []
    for i in range(1, d):
        base = "-" if i % 2 == 1 else "+"
        dirs.append(RIGHT if signs[i] == base else UP)
    return tuple(dirs)


def box_path(cf: tuple[int, ...]) -> tuple[Box, ...]:
    """Lattice cells of the snake, starting at (0, 0)."""
    d = sum(cf) - 1
    if d == 0:
        return ()
    boxes = [(0, 0)]
    for step in attach_directions(cf):
        x, y = boxes[-1]
        boxes.append((x + 1, y) if step == RIGHT else (x, y + 1))
    return tuple(boxes)


def box_edges(box: Box) -> dict[str, Edge]:
    """The four edges of a unit cell keyed by side W/E/S/N."""
    x, y = box
    return {
        "W": ((x, y), (x, y + 1)),
        "E": ((x + 1, y), (x + 1, y + 1)),
        "S": ((x, y), (x + 1, y)),
        "N": ((x, y + 1), (x + 1, y + 1)),
    }


@dataclass(frozen=True)
class SnakeGraph:
    """
    A weighted snake graph embedded in the grid, built complete by
    ``snake_graph``: its boxes along the path, and ``weight_exp``, which maps
    every edge, in sorted edge order, to the exponent k of its weight q^k.
    The edges and vertices (both sorted) and the colors are derived from
    these two on each access.
    """

    boxes: tuple[Box, ...]
    weight_exp: dict[Edge, int]

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
    if x == 0:  # horizontal edges leaving the first column carry no weight
        return 0
    return 1 if (x + y) % 2 == 1 else -1


def snake_graph(cf: tuple[int, ...]) -> SnakeGraph:
    """
    The weighted snake of [a1, ..., ak].  The western and southern borders
    are weighted from the grid coloring; all other edges (northern/eastern
    borders and interior rungs) get weight 1.

    The degenerate single-coefficient [1] (the rational 1) is the one-edge
    graph consisting of the south border only.
    """
    if not cf or sum(cf) < 1:
        raise ValueError("continued fraction must have positive sum")
    boxes = box_path(cf)
    if not boxes:
        return SnakeGraph(boxes=(), weight_exp={((0, 0), (1, 0)): 0})
    weights = dict.fromkeys(sorted({e for b in boxes for e in box_edges(b).values()}), 0)
    for i, box in enumerate(boxes):
        sides = box_edges(box)
        if i == 0 or boxes[i][1] == boxes[i - 1][1] + 1:  # west border exposed
            weights[sides["W"]] = _grid_exponent(sides["W"])
        if i == 0 or boxes[i][0] == boxes[i - 1][0] + 1:  # south border exposed
            weights[sides["S"]] = _grid_exponent(sides["S"])
    return SnakeGraph(boxes=boxes, weight_exp=weights)


def denominator_snake(cf: tuple[int, ...]) -> SnakeGraph:
    """The snake of the tail [a2, ..., ak], used for the denominator."""
    if len(cf) < 2:
        raise ValueError("denominator snake needs at least two coefficients")
    return snake_graph(cf[1:])


def face_arrow_counts(g: SnakeGraph) -> list[int]:
    """Black -> white arrow count around each unit box (must all be odd)."""
    counts = []
    for box in g.boxes:
        n = 0
        for e in box_edges(box).values():
            tail, head = g.arrow(e)
            if g.is_black(tail):
                n += 1
        counts.append(n)
    return counts


def colored_edges(g: SnakeGraph) -> dict[Edge, int]:
    """The weighted (non-unit) edges and their exponents."""
    return {e: k for e, k in g.weight_exp.items() if k != 0}
