"""Upward 2-page topological book embeddings of st-digraphs.

A hamiltonian-path completion with c crossings and an upward 2-page book
embedding with c spine crossings are two views of the same object: the
spine order is the hamiltonian path, graph edges go to the page matching
their side of the path in the planar embedding, and each crossing of a
completion edge becomes a spine crossing in the gap between the
completion edge's endpoints.  The reverse direction reads the completion
edges off consecutive spine pairs that are not graph edges.

Sides are read off boundary-cycle positions.  Every vertex lies on the
outer boundary cycle, so the cycle can be drawn convex with each
completion edge a straight chord; such a chord crosses exactly the edges
whose endpoints interleave its own around the cycle, the crossings that
:func:`~hpccm.solver.verify_solution` has just checked.  In that drawing
an edge (v, w) leaves v on the right of the path exactly when w's offset
(clockwise around the cycle from v) lies strictly between the offsets of
v's next and previous path vertices.  The source has no incoming and the
sink no outgoing path step; a missing step sits at offset 0, v's own
position, which faces the outer face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Union

from .graph_model import (
    DirectedEdge,
    EmbeddedDigraph,
    GraphError,
    OTStDigraph,
    VertexId,
)
from .solver import HpCompletionResult, verify_solution


@dataclass(frozen=True)
class SpineCrossing:
    """One crossing of a graph edge with the spine, strictly inside the
    gap between spine ranks ``gap`` and ``gap + 1``."""

    edge: DirectedEdge
    gap: int
    rank_in_gap: int


@dataclass(frozen=True)
class PageArc:
    page: str  # 'L' or 'R'


@dataclass(frozen=True)
class SplitArc:
    lower_page: str
    crossing: SpineCrossing
    upper_page: str


Placement = Union[PageArc, SplitArc]


@dataclass(frozen=True)
class BookEmbedding:
    names: tuple[str, ...]
    spine: tuple[VertexId, ...]
    assignment: dict[DirectedEdge, Placement]
    crossings: tuple[SpineCrossing, ...]


def to_book_embedding(g: OTStDigraph, r: HpCompletionResult) -> BookEmbedding:
    """Book embedding with the completion's path as spine order.

    Each graph edge crossed by a completion edge splits at a spine
    crossing in that completion edge's gap; crossings within one gap keep
    the order in which they occur along the completion edge.
    """
    violations = verify_solution(g, r)
    if violations:
        raise GraphError("invalid-solution", violations[0])
    base = g.base
    n = base.n
    path = r.path
    rank = [0] * n
    for i, v in enumerate(path):
        rank[v] = i
    crossing_of: dict[DirectedEdge, SpineCrossing] = {}
    for ce, lst in zip(r.completion_edges, r.crossings):
        gap = rank[ce[0]]
        for j, e in enumerate(lst):
            crossing_of[e] = SpineCrossing(edge=e, gap=gap, rank_in_gap=j)

    # Offsets, clockwise around the boundary cycle from v, of v's next
    # and previous path vertices; a missing step (at s and t) sits at v's
    # own position, in the outer face.
    cycle_pos = g.cycle_pos
    out_off = [0] * n
    in_off = [0] * n
    for a, b in zip(path, path[1:]):
        d = (cycle_pos[b] - cycle_pos[a]) % n
        out_off[a] = d
        in_off[b] = n - d

    def side_at(v: VertexId, w: VertexId) -> str:
        o = out_off[v]
        q = (cycle_pos[w] - cycle_pos[v] - o) % n
        return "R" if 0 < q < (in_off[v] - o) % n else "L"

    assignment: dict[DirectedEdge, Placement] = {}
    for e in sorted(base.edges):
        x, y = e
        if rank[y] == rank[x] + 1:
            assignment[e] = PageArc("R")  # path edges: fixed convention
            continue
        side_x = side_at(x, y)
        side_y = side_at(y, x)
        crossing = crossing_of.get(e)
        if crossing is None:
            if side_x != side_y:
                raise GraphError(
                    "internal",
                    f"uncrossed edge {base.name_edge(e)} changes sides",
                )
            assignment[e] = PageArc(side_x)
        else:
            if side_x == side_y:
                raise GraphError(
                    "internal",
                    f"crossed edge {base.name_edge(e)} keeps its side",
                )
            assignment[e] = SplitArc(
                lower_page=side_x, crossing=crossing, upper_page=side_y
            )
    crossings = tuple(
        sorted(crossing_of.values(), key=lambda c: (c.gap, c.rank_in_gap))
    )
    return BookEmbedding(
        names=base.names, spine=path, assignment=assignment, crossings=crossings
    )


# ---------------------------------------------------------------------------


def validate_embedding(g: EmbeddedDigraph, b: BookEmbedding) -> list[str]:
    """All violations of the book-embedding contract (empty iff valid).

    Checks: the spine is a topological order covering every vertex, the
    assignment covers exactly the edge set, split halves use opposite
    pages and cross strictly between their endpoints, crossings sit only
    in gaps whose spine pair is not an edge, ranks within a gap are
    0..k-1, and no two same-page arcs interleave.  O(m log m): one sort
    and stack scan per page, on integer spine coordinates, names each arc
    that interleaves the innermost open arc where it starts.
    """
    out: list[str] = []
    n = g.n
    if sorted(b.spine) != list(range(n)):
        return ["spine is not a permutation of the vertices"]
    rank = [0] * n
    for i, v in enumerate(b.spine):
        rank[v] = i
    if set(b.assignment) != set(g.edges):
        return ["assignment does not cover exactly the edge set"]
    for (x, y) in g.edges:
        if rank[x] >= rank[y]:
            out.append(f"edge {g.name_edge((x, y))} is not upward on the spine")
    split_crossings = []
    for e, placement in b.assignment.items():
        if isinstance(placement, PageArc):
            if placement.page not in ("L", "R"):
                out.append(f"edge {g.name_edge(e)} has page {placement.page!r}")
            continue
        c = placement.crossing
        if placement.lower_page == placement.upper_page:
            out.append(f"split edge {g.name_edge(e)} uses a single page")
        if c.edge != e:
            out.append(f"split edge {g.name_edge(e)} carries a foreign crossing")
        if not (rank[e[0]] <= c.gap < rank[e[1]]):
            out.append(
                f"crossing of {g.name_edge(e)} at gap {c.gap} is outside "
                f"its spine span"
            )
        split_crossings.append(c)
    if sorted(split_crossings, key=lambda c: (c.gap, c.rank_in_gap)) != list(
        b.crossings
    ):
        out.append("crossings list does not match the split assignments")
    by_gap: dict[int, list[int]] = {}
    for c in b.crossings:
        by_gap.setdefault(c.gap, []).append(c.rank_in_gap)
    for gap, ranks in sorted(by_gap.items()):
        if sorted(ranks) != list(range(len(ranks))):
            out.append(f"gap {gap} ranks are not 0..{len(ranks) - 1}")
        if gap + 1 < n and (b.spine[gap], b.spine[gap + 1]) in g.edges:
            out.append(
                f"gap {gap} carries crossings although its spine pair is "
                f"an edge"
            )
    if out:
        return out
    # Integer spine coordinates: each vertex, then its gap's crossings in
    # rank order.
    at = list(accumulate((1 + len(by_gap.get(i, ())) for i in range(n)), initial=0))
    pages: dict[str, list[tuple[int, int, DirectedEdge]]] = {}
    for e, placement in b.assignment.items():
        lo, hi = at[rank[e[0]]], at[rank[e[1]]]
        if isinstance(placement, PageArc):
            pages.setdefault(placement.page, []).append((lo, -hi, e))
        else:
            c = placement.crossing
            mid = at[c.gap] + c.rank_in_gap + 1
            pages.setdefault(placement.lower_page, []).append((lo, -mid, e))
            pages.setdefault(placement.upper_page, []).append((mid, -hi, e))
    # Sorted by left end, outer first, arcs nest exactly when each ends no
    # later than the innermost arc still open at its start.
    for page, arcs in pages.items():
        arcs.sort()
        stack: list[tuple[int, DirectedEdge]] = []
        for lo, neg_hi, e in arcs:
            while stack and stack[-1][0] <= lo:
                stack.pop()
            if stack and stack[-1][0] < -neg_hi:
                out.append(
                    f"arcs of {g.name_edge(stack[-1][1])} and {g.name_edge(e)} "
                    f"interleave on page {page}"
                )
            stack.append((-neg_hi, e))
    return out


def from_book_embedding(
    g: EmbeddedDigraph, b: BookEmbedding
) -> HpCompletionResult:
    """Read a completion back off a valid embedding: completion edges are
    the consecutive spine pairs missing from the graph, crossed in each
    gap bottom-to-top."""
    violations = validate_embedding(g, b)
    if violations:
        raise GraphError("invalid-embedding", violations[0])
    by_gap: dict[int, list[SpineCrossing]] = {}
    for c in b.crossings:
        by_gap.setdefault(c.gap, []).append(c)
    completion: list[DirectedEdge] = []
    crossings: list[tuple[DirectedEdge, ...]] = []
    for i, (a, bb) in enumerate(zip(b.spine, b.spine[1:])):
        if (a, bb) in g.edges:  # validate_embedding: no crossings here
            continue
        completion.append((a, bb))
        lst = sorted(by_gap.get(i, []), key=lambda c: c.rank_in_gap)
        crossings.append(tuple(c.edge for c in lst))
    return HpCompletionResult(
        path=b.spine,
        completion_edges=tuple(completion),
        crossings=tuple(crossings),
        total_crossings=len(b.crossings),
    )


# ---------------------------------------------------------------------------
# Renderers

_SPACING = 40
_MARGIN = 40


def _spine_y(position: float, n: int) -> float:
    return _MARGIN + (n - 1 - position) * _SPACING


def render_text(b: BookEmbedding) -> str:
    """Stable line-based description: spine order, then one line per edge."""
    names = b.names
    rank = {v: i for i, v in enumerate(b.spine)}
    lines = ["spine: " + " ".join(names[v] for v in b.spine)]
    for e in sorted(b.assignment, key=lambda e: (rank[e[0]], rank[e[1]])):
        placement = b.assignment[e]
        label = f"{names[e[0]]}->{names[e[1]]}"
        if isinstance(placement, PageArc):
            lines.append(f"{label} page={placement.page}")
        else:
            c = placement.crossing
            lines.append(
                f"{label} split {placement.lower_page}@gap({c.gap},"
                f"{c.rank_in_gap})/{placement.upper_page}"
            )
    return "\n".join(lines) + "\n"


def render_svg(b: BookEmbedding) -> str:
    """Deterministic SVG: vertical spine, vertices at integer ranks, edges
    as half-circle arcs left/right, split edges as two arcs meeting at
    their crossing point on the spine."""
    n = len(b.spine)
    rank = {v: i for i, v in enumerate(b.spine)}
    per_gap: dict[int, int] = {}
    for c in b.crossings:
        per_gap[c.gap] = max(per_gap.get(c.gap, -1), c.rank_in_gap)
    max_radius = _SPACING * (n - 1) / 2
    width = 2 * (max_radius + _MARGIN)
    height = 2 * _MARGIN + (n - 1) * _SPACING
    cx = width / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{cx:.1f}" y1="{_spine_y(n - 1, n):.1f}" '
        f'x2="{cx:.1f}" y2="{_spine_y(0, n):.1f}" stroke="#999" '
        f'stroke-dasharray="4 3"/>',
    ]

    def arc(lo: float, hi: float, page: str, color: str) -> str:
        y1, y2 = _spine_y(lo, n), _spine_y(hi, n)
        radius = abs(y1 - y2) / 2
        sweep = 1 if page == "R" else 0
        return (
            f'<path d="M {cx:.1f} {y1:.1f} A {radius:.2f} {radius:.2f} '
            f'0 0 {sweep} {cx:.1f} {y2:.1f}" fill="none" stroke="{color}"/>'
        )

    for e in sorted(b.assignment, key=lambda e: (rank[e[0]], rank[e[1]])):
        placement = b.assignment[e]
        lo, hi = rank[e[0]], rank[e[1]]
        if isinstance(placement, PageArc):
            parts.append(arc(lo, hi, placement.page, "#000"))
        else:
            c = placement.crossing
            at = c.gap + (c.rank_in_gap + 1) / (per_gap[c.gap] + 2)
            parts.append(arc(lo, at, placement.lower_page, "#c22"))
            parts.append(arc(at, hi, placement.upper_page, "#c22"))
            y = _spine_y(at, n)
            parts.append(
                f'<rect x="{cx - 2.5:.1f}" y="{y - 2.5:.1f}" width="5" '
                f'height="5" fill="#c22"/>'
            )
    for v in b.spine:
        y = _spine_y(rank[v], n)
        parts.append(f'<circle cx="{cx:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
        parts.append(
            f'<text x="{cx + 8:.1f}" y="{y + 4:.1f}" font-size="12" '
            f'font-family="monospace">{b.names[v]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
