"""Median edges, maximal st-polygons and the polygon decomposition.

An st-polygon is a sub-digraph shaped like a triangulated strip with an
interior edge (its median) running from its source to its sink.  An edge
is the median of some st-polygon exactly when the faces on both of its
sides are interior triangles carrying the transitive orientation
(u -> w -> v over the edge (u, v)); that is an O(1) test per edge on the
instance's positional arrays.

Each median determines a unique inclusion-maximal polygon; the strip is
bounded below by a limiting edge at the source (the most clockwise /
counterclockwise outgoing edge, depending on the source's side) and above
by one at the sink.  Maximal polygons of one graph are pairwise
area-disjoint and, ordered by the topological rank of their sources
(free vertices represent themselves), form a total order: the
decomposition the dynamic program runs over.

The scan itself runs in :mod:`hpccm.core`; this module turns its columns
into the records below.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .core import (
    Deferred,
    Layout,
    backend,
    decompose_arrays,
    is_median_slot,
    polygon_columns,
)
from .graph_model import (
    DirectedEdge,
    GraphError,
    OTStDigraph,
    VertexId,
)


class StPolygon(NamedTuple):
    """Maximal st-polygon of an OT-st-digraph.

    Chains are the polygon's own boundary chains bottom-to-top, excluding
    ``source`` and ``sink``.  Junction vertices shared with a neighbouring
    polygon are included in the chain they lie on.  The ``*_adj_*`` tuples
    flag, per chain vertex, adjacency to the polygon's source/sink; they
    feed the crossing-cost formula.
    """

    source: VertexId
    sink: VertexId
    median: DirectedEdge
    left_chain: tuple[VertexId, ...]
    right_chain: tuple[VertexId, ...]
    lower_limit: Optional[DirectedEdge]
    upper_limit: Optional[DirectedEdge]
    src_adj_left: tuple[bool, ...]
    src_adj_right: tuple[bool, ...]
    sink_adj_left: tuple[bool, ...]
    sink_adj_right: tuple[bool, ...]

    def vertices(self) -> tuple[VertexId, ...]:
        return (self.source, *self.left_chain, *self.right_chain, self.sink)

    @property
    def size(self) -> int:
        return 2 + len(self.left_chain) + len(self.right_chain)


class FreeVertex(NamedTuple):
    vertex: VertexId


DecompositionElement = Union[StPolygon, FreeVertex]


@dataclass(frozen=True)
class Decomposition(Deferred):
    """Total order of maximal st-polygons and free vertices.

    ``layout`` holds the kernel's columns; :func:`decompose` builds the
    records in ``elements`` from them on first read.
    """

    elements: tuple[DecompositionElement, ...]
    shared: tuple[int, ...]
    layout: Layout = field(compare=False, repr=False)

    @property
    def polygon_count(self) -> int:
        layout = self.layout
        return int(layout.poly.sum()) if layout.np is not None else sum(layout.poly)


def _polygon_record(g: OTStDigraph, cols: Sequence[int]) -> StPolygon:
    """The StPolygon of one layout entry (columns ``src`` to ``up``)."""
    u, v, lo_l, hi_l, lo_r, hi_r, low, up = cols
    a = g.arrays
    n, cyc = a.n, a.cyc
    edges = g.base.edges
    su, sv = cyc[u], cyc[v]
    left = tuple(cyc[lo_l : hi_l + 1])
    right = tuple(cyc[n - lo_r : n - hi_r - 1 : -1])
    return StPolygon(
        source=su,
        sink=sv,
        median=(su, sv),
        left_chain=left,
        right_chain=right,
        lower_limit=(su, cyc[low]) if low >= 0 else None,
        upper_limit=(cyc[up], sv) if up >= 0 else None,
        src_adj_left=tuple((su, x) in edges for x in left),
        src_adj_right=tuple((su, x) in edges for x in right),
        sink_adj_left=tuple((x, sv) in edges for x in left),
        sink_adj_right=tuple((x, sv) in edges for x in right),
    )


def _position_of_edge(g: OTStDigraph, e: DirectedEdge) -> tuple[int, int]:
    """Tail position and CSR slot of a graph edge.

    Row p of the arrays lists the neighbours by increasing offset
    (q - p) mod n around the boundary cycle, so one binary search over the
    row finds the head: O(log deg).
    """
    if e not in g.base.edges:
        raise GraphError("unknown-edge", f"edge {e} is not in the graph")
    a = g.arrays
    n = a.n
    u, v = g.cycle_pos[e[0]], g.cycle_pos[e[1]]
    i = bisect_left(
        a.nbr, (v - u) % n, a.off[u], a.off[u + 1], key=lambda q: (q - u) % n
    )
    return u, i


def is_median(g: OTStDigraph, e: DirectedEdge) -> bool:
    """Whether ``e`` is the median of some st-polygon of ``g``.

    True exactly when both faces flanking ``e`` are interior triangles
    whose third vertex w carries the transitive orientation u->w->v.
    O(log deg) per call on the instance's positional arrays.
    """
    u, i = _position_of_edge(g, e)
    return is_median_slot(g.arrays, i, u)


def maximal_polygon(g: OTStDigraph, median: DirectedEdge) -> StPolygon:
    """The inclusion-maximal st-polygon with the given median edge.

    The polygon spans the strip between its limiting edges: at a left-chain
    source the lower limit is the last clockwise outgoing edge (the
    two-sided edge reaching lowest on the right), mirrored for the other
    cases; a source at s / sink at t extends the strip to the graph's
    bottom / top.
    """
    u, i = _position_of_edge(g, median)
    a = g.arrays
    if not is_median_slot(a, i, u):
        raise GraphError("not-a-median", f"edge {median} is not a median edge")
    return _polygon_record(g, polygon_columns(a, u, a.nbr[i])[:8])


def _decompose(g: OTStDigraph, np) -> Decomposition:
    """:func:`decompose` on the numpy kernel (``np`` the numpy module) or
    on the pure-Python one (``np`` None)."""
    layout = decompose_arrays(g.arrays, np)

    def fill() -> dict:
        col = layout.lists()
        cyc = g.arrays.cyc
        rows = zip(*(col[name] for name in Layout.COLUMNS[:9]))
        elements = tuple(
            _polygon_record(g, r[1:]) if r[0] else FreeVertex(cyc[r[1]])
            for r in rows
        )
        return {"elements": elements, "shared": tuple(col["shared"])}

    return Decomposition.deferred(fill, layout=layout)


def decompose(g: OTStDigraph) -> Decomposition:
    """The st-polygon decomposition: maximal polygons plus free vertices,
    totally ordered by the topological rank of their representatives
    (a polygon's source; a free vertex itself)."""
    return _decompose(g, backend(g.n))
