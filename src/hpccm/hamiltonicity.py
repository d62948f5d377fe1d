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
    face_walks,
    outer_slot,
)


@dataclass(frozen=True)
class Rhombus:
    source: VertexId
    sink: VertexId
    left_apex: VertexId
    right_apex: VertexId
    median: DirectedEdge


def find_rhombi(g: EmbeddedDigraph) -> tuple[Rhombus, ...]:
    """All rhombi of a triangulated st-digraph, in O(m).

    An edge (u, v) is a median when both its faces are interior triangles
    whose apexes w satisfy u -> w -> v.  One walk over the faces flags
    each slot whose right face is such a triangle for its edge: in the
    triangle's slots a, b, c the edge of a is flanked exactly when b and c
    both point the other way along it.  Reported once per median edge,
    ordered by (tail id, head id).  Raises if some interior face is not a
    triangle.
    """
    off, nbr, out, twin = g.off, g.nbr, g.out, g.twin
    outer = outer_slot(g)
    flank = bytearray(len(nbr))
    for walk in face_walks(g, range(len(nbr))):
        if outer in walk:
            continue
        if len(walk) != 3:
            check_interior_triangles(g)  # raises: this face is one
        a, b, c = walk
        flank[a] = out[b] == out[c] != out[a]
        flank[b] = out[c] == out[a] != out[b]
        flank[c] = out[a] == out[b] != out[c]

    def apex(i: int) -> VertexId:
        v, j = nbr[i], twin[i]
        return nbr[j - 1 if j > off[v] else off[v + 1] - 1]

    found = []
    for u in range(g.n):
        for i in range(off[u], off[u + 1]):
            if out[i] and flank[i] and flank[twin[i]]:
                v = nbr[i]
                found.append(
                    Rhombus(
                        source=u,
                        sink=v,
                        left_apex=apex(twin[i]),
                        right_apex=apex(i),
                        median=(u, v),
                    )
                )
    return tuple(sorted(found, key=lambda r: r.median))


def hamiltonian_path(g: EmbeddedDigraph) -> Optional[tuple[VertexId, ...]]:
    """The hamiltonian path of an acyclic digraph, or None.

    A DAG has a hamiltonian path iff its topological order is unique, i.e.
    Kahn elimination never sees two simultaneous zero-indegree vertices.
    The consecutive-edge check below is then redundant but guards the
    implementation.
    """
    order, ambiguous = g.kahn
    if ambiguous or len(order) != g.n:
        return None
    for a, b in zip(order, order[1:]):
        if (a, b) not in g.edges:
            return None
    return tuple(order)
