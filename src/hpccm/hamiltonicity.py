"""Rhombus detection and hamiltonian paths in triangulated st-digraphs.

A triangulated st-digraph has a hamiltonian path exactly when no edge is
the median of a rhombus, i.e. no edge is flanked on both sides by interior
"transitive" triangles (third vertex w with u->w->v over the edge (u,v)).
Hamiltonian paths in DAGs coincide with unique topological orders, which
Kahn elimination decides in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph_model import (
    DirectedEdge,
    EmbeddedDigraph,
    VertexId,
    check_interior_triangles,
    kahn_order,
    outer_face_start,
    trace_face,
    triangle_apex,
)


@dataclass(frozen=True)
class Rhombus:
    source: VertexId
    sink: VertexId
    left_apex: VertexId
    right_apex: VertexId
    median: DirectedEdge


def find_rhombi(g: EmbeddedDigraph) -> tuple[Rhombus, ...]:
    """All rhombi of a triangulated st-digraph, one O(1) test per edge.

    An edge (u, v) is a median when both its faces are interior triangles
    (read off the rotations by :func:`~hpccm.graph_model.triangle_apex`)
    whose apexes w satisfy u -> w -> v.  Reported once per median edge,
    ordered by (tail id, head id).  Raises if some interior face is not a
    triangle.
    """
    edges = g.edges
    outer = set(trace_face(g, outer_face_start(g)))

    def apex(u: VertexId, v: VertexId) -> Optional[VertexId]:
        if (u, v) in outer:
            return None
        w = triangle_apex(g, u, v)
        if w is None:
            check_interior_triangles(g, outer)  # raises: this face is one
        return w

    out = []
    for (u, v) in sorted(edges):
        right_apex, left_apex = apex(u, v), apex(v, u)
        if (
            right_apex is not None
            and left_apex is not None
            and (u, right_apex) in edges
            and (right_apex, v) in edges
            and (u, left_apex) in edges
            and (left_apex, v) in edges
        ):
            out.append(
                Rhombus(
                    source=u,
                    sink=v,
                    left_apex=left_apex,
                    right_apex=right_apex,
                    median=(u, v),
                )
            )
    return tuple(out)


def hamiltonian_path(g: EmbeddedDigraph) -> Optional[tuple[VertexId, ...]]:
    """The hamiltonian path of an acyclic digraph, or None.

    A DAG has a hamiltonian path iff its topological order is unique, i.e.
    Kahn elimination never sees two simultaneous zero-indegree vertices.
    The consecutive-edge check below is then redundant but guards the
    implementation.
    """
    order, ambiguous = kahn_order(g)
    if ambiguous or len(order) != g.n:
        return None
    for a, b in zip(order, order[1:]):
        if (a, b) not in g.edges:
            return None
    return tuple(order)
