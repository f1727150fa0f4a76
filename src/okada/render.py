"""Deterministic SVG and TikZ renderers.

Arc diagrams follow the usual drawing conventions: positive nodes run up
the left column, negated nodes sit on the right with ``-1`` at the
bottom, propagating arcs cross the strip, same-side arcs bow inward, and
every arc carries its height in a small circle at the midpoint.  One
routine per format draws every arc picture: a half diagram is the left
column alone, and its half arc at ``e`` is drawn as the crossing arc
``(e, -e)`` cut at the right column.  Hasse diagrams are emitted for the
Young-Fibonacci lattice (up to a rank) and for the dominance order of a
fixed rank.

Output is plain text built from integers and fixed-precision floats, so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fibonacci import (
    FibonacciSet,
    dominance_covers,
    dominance_rank,
    dominance_top,
    enumerate_yfs,
    set_to_word,
    yf_covers,
)

if TYPE_CHECKING:
    from .diagrams import ArcDiagram, HalfArcDiagram

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


def _svg(rank: int, arcs, right: bool) -> str:
    """The SVG picture of arc triples ``(a, b, h)``, drawn in order and each
    labelled with its height: cups bow inward from their column and every
    other arc crosses the strip.  ``right`` adds the negated nodes' labels."""
    height = 2 * _MARGIN + max(rank - 1, 0) * _SP

    def y(node: int) -> float:
        return height - _MARGIN - (abs(node) - 1) * _SP

    lines = _svg_header(_XR + _MARGIN + (36 if right else 0), height)
    labels = []
    for a, b, h in arcs:
        ya, yb = y(a), y(b)
        if (a > 0) == (b > 0):
            x, s = (_XL, 1) if a > 0 else (_XR, -1)
            span = abs(abs(b) - abs(a))
            bulge = x + s * 0.55 * _SP * span
            path = f"M {_f(x)} {_f(ya)} C {_f(bulge)} {_f(ya)} {_f(bulge)} {_f(yb)} {_f(x)} {_f(yb)}"
            lx = x + s * 0.41 * _SP * span
        else:
            path = f"M {_f(_XL)} {_f(ya)} L {_f(_XR)} {_f(yb)}"
            lx = (_XL + _XR) / 2
        lines.append(f'<path d="{path}"/>')
        labels.append(
            f'<circle cx="{_f(lx)}" cy="{_f((ya + yb) / 2)}" r="9.0" fill="white" stroke="black"/>'
            f'<text x="{_f(lx)}" y="{_f((ya + yb) / 2)}" font-size="11" fill="black" stroke="none" '
            f'text-anchor="middle" dominant-baseline="central">{h}</text>'
        )
    lines.append("</g>")
    lines += labels
    columns = [(_XL - 18, 1), (_XR + 18, -1)] if right else [(_XL - 18, 1)]
    for k in range(1, rank + 1):
        for x, sign in columns:
            lines.append(
                f'<text x="{_f(x)}" y="{_f(y(k))}" font-size="11" '
                f'text-anchor="middle" dominant-baseline="central">{sign * k}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _tikz(rank: int, arcs, right: bool) -> str:
    """The TikZ form of :func:`_svg`: without ``right`` there are no
    ``m{k}`` nodes, so an arc to ``-k`` ends where ``m{k}`` would sit."""
    lines = [
        "\\begin{tikzpicture}[xscale=0.7,yscale=0.45,thick]",
        "\\tikzstyle{vertex}=[shape=rectangle,minimum height=15pt,inner sep=0pt]",
        "\\tikzstyle{mid}=[draw,fill=white,shape=circle,minimum size=2pt,inner sep=1pt]",
    ]
    for k in range(1, rank + 1):
        lines.append(f"\\node[vertex] (p{k}) at (-2.1,{_f(k * 1.5 - 1.5)}) {{{k}}};")
        if right:
            lines.append(f"\\node[vertex] (m{k}) at (2.1,{_f(k * 1.5 - 1.5)}) {{$\\overline{{{k}}}$}};")

    def end(node: int) -> str:
        if node > 0:
            return f"p{node}"
        return f"m{-node}" if right else f"2.1,{_f(-node * 1.5 - 1.5)}"

    for a, b, h in arcs:
        if (a > 0) == (b > 0):
            lo, hi, s = (a, b, 1) if a > 0 else (b, a, -1)
            span = abs(hi) - abs(lo)
            off, up, dn = _f(s * 0.7 * span), _f(0.35 * span), _f(-0.35 * span)
            lines.append(
                f"\\draw ({end(lo)}) .. controls +({off},{up}) and +({off},{dn}) "
                f".. ({end(hi)}) node[pos=0.5,mid] {{{h}}};"
            )
        else:
            lines.append(f"\\draw ({end(a)}) -- ({end(b)}) node[pos=0.5,mid] {{{h}}};")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _half_arcs(h: HalfArcDiagram):
    """The full arcs, then each half arc at ``e`` as the crossing arc ``(e, -e)``."""
    return [*h.full_arcs, *((e, -e, ht) for e, ht in h.half_arcs)]


def render_diagram_svg(d: ArcDiagram) -> str:
    return _svg(d.rank, d.arcs, True)


def render_diagram_tikz(d: ArcDiagram) -> str:
    return _tikz(d.rank, d.arcs, True)


def render_half_svg(h: HalfArcDiagram) -> str:
    return _svg(h.rank, _half_arcs(h), False)


def render_half_tikz(h: HalfArcDiagram) -> str:
    return _tikz(h.rank, _half_arcs(h), False)


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
