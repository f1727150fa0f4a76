"""Deterministic SVG and TikZ renderers.

Arc diagrams follow the usual drawing conventions: positive nodes run up
the left column, negated nodes sit on the right with ``-1`` at the
bottom, propagating arcs cross the strip, same-side arcs bow inward, and
every arc carries its height in a small circle at the midpoint.  Hasse
diagrams are emitted for the Young-Fibonacci lattice (up to a rank) and
for the dominance order of a fixed rank.

Output is plain text built from integers and fixed-precision floats, so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from .diagrams import ArcDiagram, HalfArcDiagram
from .fibonacci import (
    FibonacciSet,
    dominance_covers,
    dominance_rank,
    dominance_top,
    enumerate_yfs,
    set_to_word,
    yf_covers,
)

__all__ = [
    "render_diagram_svg",
    "render_diagram_tikz",
    "render_half_svg",
    "render_half_tikz",
    "render_yfs_hasse_svg",
    "render_yfs_hasse_tikz",
    "render_dominance_svg",
    "render_dominance_tikz",
]

_SP = 36  # vertical spacing between boundary nodes
_XL, _XR = 60, 260
_MARGIN = 24


def _f(v: float) -> str:
    return f"{v:.1f}"


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]


def _label(cx: float, cy: float, text: str) -> str:
    return (
        f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="9.0" fill="white" stroke="black"/>'
        f'<text x="{_f(cx)}" y="{_f(cy)}" font-size="11" fill="black" stroke="none" '
        f'text-anchor="middle" dominant-baseline="central">{text}</text>'
    )


def _arc_paths(d: ArcDiagram, height: int):
    """Path and label placement per arc, in canonical order."""

    def y(node: int) -> float:
        return height - _MARGIN - (abs(node) - 1) * _SP

    out = []
    for a, b, h in d.arcs:
        ya, yb = y(a), y(b)
        if a > 0 and b > 0:
            bulge = _XL + 0.55 * _SP * (abs(b) - abs(a))
            path = f"M {_f(_XL)} {_f(ya)} C {_f(bulge)} {_f(ya)} {_f(bulge)} {_f(yb)} {_f(_XL)} {_f(yb)}"
            lx, ly = _XL + 0.41 * _SP * (abs(b) - abs(a)), (ya + yb) / 2
        elif a < 0 and b < 0:
            bulge = _XR - 0.55 * _SP * abs(abs(b) - abs(a))
            path = f"M {_f(_XR)} {_f(ya)} C {_f(bulge)} {_f(ya)} {_f(bulge)} {_f(yb)} {_f(_XR)} {_f(yb)}"
            lx, ly = _XR - 0.41 * _SP * abs(abs(b) - abs(a)), (ya + yb) / 2
        else:
            path = f"M {_f(_XL)} {_f(ya)} L {_f(_XR)} {_f(yb)}"
            lx, ly = (_XL + _XR) / 2, (ya + yb) / 2
        out.append((path, lx, ly, h))
    return out


def render_diagram_svg(d: ArcDiagram) -> str:
    height = 2 * _MARGIN + max(d.rank - 1, 0) * _SP
    lines = _svg_header(_XR + _MARGIN + 36, height)
    for path, *_ in _arc_paths(d, height):
        lines.append(f'<path d="{path}"/>')
    lines.append("</g>")
    for _, lx, ly, h in _arc_paths(d, height):
        lines.append(_label(lx, ly, str(h)))

    def y(node: int) -> float:
        return height - _MARGIN - (abs(node) - 1) * _SP

    for k in range(1, d.rank + 1):
        lines.append(
            f'<text x="{_f(_XL - 18)}" y="{_f(y(k))}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="central">{k}</text>'
        )
        lines.append(
            f'<text x="{_f(_XR + 18)}" y="{_f(y(k))}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="central">-{k}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_diagram_tikz(d: ArcDiagram) -> str:
    lines = [
        "\\begin{tikzpicture}[xscale=0.7,yscale=0.45,thick]",
        "\\tikzstyle{vertex}=[shape=rectangle,minimum height=15pt,inner sep=0pt]",
        "\\tikzstyle{mid}=[draw,fill=white,shape=circle,minimum size=2pt,inner sep=1pt]",
    ]
    for k in range(1, d.rank + 1):
        yy = _f(k * 1.5 - 1.5)
        lines.append(f"\\node[vertex] (p{k}) at (-2.1,{yy}) {{{k}}};")
        lines.append(f"\\node[vertex] (m{k}) at (2.1,{yy}) {{$\\overline{{{k}}}$}};")

    def name(node: int) -> str:
        return f"p{node}" if node > 0 else f"m{-node}"

    for a, b, h in d.arcs:
        if a > 0 and b > 0:
            off = _f(0.7 * (b - a))
            up, dn = _f(0.35 * (b - a)), _f(-0.35 * (b - a))
            lines.append(
                f"\\draw ({name(a)}) .. controls +({off},{up}) and +({off},{dn}) "
                f".. ({name(b)}) node[pos=0.5,mid] {{{h}}};"
            )
        elif a < 0 and b < 0:
            span = abs(a) - abs(b)
            off = _f(-0.7 * span)
            up, dn = _f(0.35 * span), _f(-0.35 * span)
            lines.append(
                f"\\draw ({name(b)}) .. controls +({off},{up}) and +({off},{dn}) "
                f".. ({name(a)}) node[pos=0.5,mid] {{{h}}};"
            )
        else:
            lines.append(f"\\draw ({name(a)}) -- ({name(b)}) node[pos=0.5,mid] {{{h}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def render_half_svg(h: HalfArcDiagram) -> str:
    height = 2 * _MARGIN + max(h.rank - 1, 0) * _SP

    def y(node: int) -> float:
        return height - _MARGIN - (node - 1) * _SP

    lines = _svg_header(_XR + _MARGIN, height)
    pieces = []
    for a, b, ht in h.full_arcs:
        bulge = _XL + 0.55 * _SP * (b - a)
        pieces.append(
            (
                f"M {_f(_XL)} {_f(y(a))} C {_f(bulge)} {_f(y(a))} {_f(bulge)} {_f(y(b))} {_f(_XL)} {_f(y(b))}",
                _XL + 0.41 * _SP * (b - a),
                (y(a) + y(b)) / 2,
                ht,
            )
        )
    for e, ht in h.half_arcs:
        pieces.append(
            (f"M {_f(_XL)} {_f(y(e))} L {_f(_XR)} {_f(y(e))}", (_XL + _XR) / 2, y(e), ht)
        )
    for path, *_ in pieces:
        lines.append(f'<path d="{path}"/>')
    lines.append("</g>")
    for _, lx, ly, ht in pieces:
        lines.append(_label(lx, ly, str(ht)))
    for k in range(1, h.rank + 1):
        lines.append(
            f'<text x="{_f(_XL - 18)}" y="{_f(y(k))}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="central">{k}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_half_tikz(h: HalfArcDiagram) -> str:
    lines = [
        "\\begin{tikzpicture}[xscale=0.7,yscale=0.45,thick]",
        "\\tikzstyle{vertex}=[shape=rectangle,minimum height=15pt,inner sep=0pt]",
        "\\tikzstyle{mid}=[draw,fill=white,shape=circle,minimum size=2pt,inner sep=1pt]",
    ]
    for k in range(1, h.rank + 1):
        lines.append(f"\\node[vertex] (p{k}) at (-2.1,{_f(k * 1.5 - 1.5)}) {{{k}}};")
    for a, b, ht in h.full_arcs:
        off, up, dn = _f(0.7 * (b - a)), _f(0.35 * (b - a)), _f(-0.35 * (b - a))
        lines.append(
            f"\\draw (p{a}) .. controls +({off},{up}) and +({off},{dn}) "
            f".. (p{b}) node[pos=0.5,mid] {{{ht}}};"
        )
    for e, ht in h.half_arcs:
        yy = _f(e * 1.5 - 1.5)
        lines.append(f"\\draw (p{e}) -- (2.1,{yy}) node[pos=0.5,mid] {{{ht}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Hasse diagrams


def _node_id(s: FibonacciSet) -> str:
    return f"n{s.rank}_" + "_".join(str(x) for x in s.elements)


def _elements(s: FibonacciSet) -> str:
    return ",".join(str(x) for x in s.elements)


def _node_label(s: FibonacciSet) -> str:
    return f"{set_to_word(s) or 'e'} | {{{_elements(s)}}}_{s.rank}"


def _hasse_svg(rows, edges, nodes, label, sp_x: int, sp_y: int) -> str:
    """Rows bottom-up and centred, a line per edge, then a label per node in ``nodes`` order."""
    width = max(len(r) for r in rows) * sp_x + 2 * _MARGIN
    height = len(rows) * sp_y + _MARGIN
    pos = {}
    for r, row in enumerate(rows):
        for i, s in enumerate(row):
            pos[s] = (width / 2 + (i - (len(row) - 1) / 2) * sp_x, height - _MARGIN - r * sp_y)
    lines = _svg_header(width, height)
    for a, b in edges:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        lines.append(f'<line x1="{_f(x1)}" y1="{_f(y1 - 10)}" x2="{_f(x2)}" y2="{_f(y2 + 10)}"/>')
    lines.append("</g>")
    for s in nodes:
        x, y = pos[s]
        lines.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="11" text-anchor="middle" '
            f'dominant-baseline="central">{label(s)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _hasse_tikz(rows, edges, label, options: str) -> str:
    """Rows bottom-up and centred, a node per set, then an arrow per edge."""
    lines = [f"\\begin{{tikzpicture}}[{options}]"]
    for r, row in enumerate(rows):
        for i, s in enumerate(row):
            x = _f(i - (len(row) - 1) / 2)
            lines.append(f"\\node ({_node_id(s)}) at ({x},{r}) {{${label(s)}$}};")
    for a, b in edges:
        lines.append(f"\\draw[->] ({_node_id(a)}) -- ({_node_id(b)});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _yfs_layout(max_rank: int):
    """One row per rank up to ``max_rank``, and the covering edges between them."""
    rows = [enumerate_yfs(n) for n in range(max_rank + 1)]
    edges = [(s, t) for row in rows[:-1] for s in row for t in yf_covers(s)]
    return rows, edges


def _dominance_layout(n: int):
    """One row per dominance rank, each in lexicographic order, and the cover pairs."""
    rows: list[list[FibonacciSet]] = [[] for _ in range(dominance_rank(dominance_top(n)) + 1)]
    for s in enumerate_yfs(n):
        rows[dominance_rank(s)].append(s)
    return rows, dominance_covers(n)


def render_yfs_hasse_svg(max_rank: int) -> str:
    rows, edges = _yfs_layout(max_rank)
    return _hasse_svg(rows, edges, [s for row in rows for s in row], _node_label, 120, 70)


def render_yfs_hasse_tikz(max_rank: int) -> str:
    rows, edges = _yfs_layout(max_rank)
    return _hasse_tikz(rows, edges, _node_label, ">=latex,xscale=2.2,yscale=1.1")


def render_dominance_svg(n: int) -> str:
    rows, edges = _dominance_layout(n)
    return _hasse_svg(rows, edges, enumerate_yfs(n), lambda s: f"{{{_elements(s)}}}", 110, 64)


def render_dominance_tikz(n: int) -> str:
    rows, edges = _dominance_layout(n)
    return _hasse_tikz(rows, edges, lambda s: f"\\{{{_elements(s)}\\}}", ">=latex,yscale=1.0")
