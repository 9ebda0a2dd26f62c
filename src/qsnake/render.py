"""Renderings of weighted snake graphs: ASCII, SVG, TikZ and a JSON dump's blob.

Weighted edges follow the blue (q) / red (1/q) palette; weight-1 edges are
thin and black.  All output is deterministic: edges are emitted in sorted
order on a fixed unit-square scale.
"""

from __future__ import annotations

from .kasteleyn import number_vertices
from .snake import SnakeGraph

CELL_W = 6
CELL_H = 2
SVG_SCALE = 40
SVG_MARGIN = 20

# Largest character grid ascii_render allocates, about 9 bytes of memory per
# cell: the 2000-box zigzag of `snake 2001 1` needs 1.2e7 cells and 122 MiB.
MAX_ASCII_CELLS = 10**7

_LABEL = {1: "q", -1: "q^-1"}


def _extent(g: SnakeGraph) -> tuple[int, int]:
    """The far corner (max x, max y) of the snake's vertices: the path only
    goes right or up, so the last box holds it; the boxless snake is the
    edge (0, 0) - (1, 0)."""
    if not g.boxes:
        return 1, 0
    x, y = g.boxes[-1]
    return x + 1, y + 1


def ascii_grid(corner: tuple[int, int]) -> tuple[int, int]:
    """The width and height in cells of the picture of a snake whose far
    corner is corner; raises ValueError above MAX_ASCII_CELLS cells."""
    width = corner[0] * CELL_W + 1
    height = corner[1] * CELL_H + 1
    if width * height > MAX_ASCII_CELLS:
        raise ValueError(f"the ascii render is limited to {MAX_ASCII_CELLS} "
                         f"cells, this snake needs {width * height}")
    return width, height


def ascii_render(g: SnakeGraph) -> str:
    """Character-grid picture; weighted vertical edges carry their label
    just inside the box, horizontal ones inline in the edge.

    Raises ValueError when the grid would exceed MAX_ASCII_CELLS cells,
    before any edge or vertex is read."""
    corner = _extent(g)
    width, height = ascii_grid(corner)
    max_y = corner[1]
    canvas = [[" "] * width for _ in range(height)]

    def at(x, y):
        return (max_y - y) * CELL_H, x * CELL_W

    for ((x1, y1), (x2, y2)), exp in g.weight_exp.items():
        row, col = at(x1, y1)
        if y1 == y2:  # horizontal
            body = "-" * (CELL_W - 1) if exp == 0 else _LABEL[exp].center(CELL_W - 1, "-")
            canvas[row][col + 1:col + CELL_W] = body
        else:  # vertical
            canvas[row - 1][col] = "|"
            if exp:
                label = _LABEL[exp]
                canvas[row - 1][col + 1:col + 1 + len(label)] = label
    for x, y in g.vertices:
        row, col = at(x, y)
        canvas[row][col] = "+"
    return "\n".join("".join(line).rstrip() for line in canvas)


def svg_render(g: SnakeGraph) -> str:
    max_x, max_y = _extent(g)
    width = max_x * SVG_SCALE + 2 * SVG_MARGIN
    height = max_y * SVG_SCALE + 2 * SVG_MARGIN

    def pt(v):
        return SVG_MARGIN + v[0] * SVG_SCALE, SVG_MARGIN + (max_y - v[1]) * SVG_SCALE

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    labels = []
    for e, exp in g.weight_exp.items():
        (x1, y1), (x2, y2) = pt(e[0]), pt(e[1])
        color = "blue" if exp == 1 else ("red" if exp == -1 else "black")
        sw = 3 if exp else 1.5
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="{color}" stroke-width="{sw}"/>')
        if exp:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            text = "q" if exp == 1 else "q⁻¹"
            if e[0][0] == e[1][0]:  # vertical: label to the left
                labels.append(f'<text x="{mx - 6}" y="{my + 4}" font-size="13" '
                              f'fill="{color}" text-anchor="end">{text}</text>')
            else:  # horizontal: label below
                labels.append(f'<text x="{mx}" y="{my + 16}" font-size="13" '
                              f'fill="{color}" text-anchor="middle">{text}</text>')
    parts.extend(labels)
    parts.append("</svg>")
    return "\n".join(parts)


def tikz_render(g: SnakeGraph) -> str:
    lines = ["\\begin{tikzpicture}[scale=0.7]"]
    for ((x1, y1), (x2, y2)), exp in g.weight_exp.items():
        if exp == 0:
            lines.append(f"\\draw[line width=0.7pt] ({x1},{y1}) -- ({x2},{y2});")
        else:
            color = "blue" if exp == 1 else "red"
            label = "$q$" if exp == 1 else "$q^{-1}$"
            anchor = "left" if x1 == x2 else "below"
            lines.append(f"\\draw[line width=2pt,{color}] ({x1},{y1}) -- "
                         f"node[{anchor}]{{{label}}} ({x2},{y2});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines)


def graph_json(g: SnakeGraph) -> dict:
    """The JSON dump's blob, its edges a generator of records, so that a
    streaming writer holds one record at a time, never the whole list."""
    black, white = number_vertices(g)
    return {
        "boxes": [list(b) for b in g.boxes],
        "black": [list(v) for v in sorted(black)],
        "white": [list(v) for v in sorted(white)],
        "edges": _edge_records(g),
    }


def _edge_records(g: SnakeGraph):
    for e, exp in g.weight_exp.items():
        tail, head = g.arrow(e)
        yield {"u": list(e[0]), "v": list(e[1]),
               "weight_exp": exp,
               "tail": list(tail), "head": list(head)}


def render(g: SnakeGraph, fmt: str) -> str:
    if fmt == "ascii":
        return ascii_render(g)
    if fmt == "svg":
        return svg_render(g)
    if fmt == "tikz":
        return tikz_render(g)
    raise ValueError(f"unknown render format {fmt!r}")
