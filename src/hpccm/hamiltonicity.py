"""Rhombus detection and hamiltonian paths in triangulated st-digraphs.

A triangulated st-digraph has a hamiltonian path exactly when no edge is
the median of a rhombus, i.e. no edge is flanked on both sides by interior
"transitive" triangles (third vertex w with u->w->v over the edge (u,v)).
The rhombi come from one pass over the out-slots, each read with its twin
and the faces right of both; the stored outer walk marks the outer face.
Hamiltonian paths in DAGs coincide with unique topological orders, which
Kahn elimination decides in linear time.  From ``NUMPY_MIN_N`` on, the
order is read off the embedding instead, as the reverse postorder of its
tree of leftmost in-edges, and checked; Kahn runs only if the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Optional

from .graph_model import (
    DirectedEdge,
    EmbeddedDigraph,
    VertexId,
    backend,
    check_interior_triangles,
    face_next,
    next_slots,
)


@dataclass(frozen=True)
class Rhombus:
    source: VertexId
    sink: VertexId
    left_apex: VertexId
    right_apex: VertexId
    median: DirectedEdge


def find_rhombi(g: EmbeddedDigraph) -> tuple[Rhombus, ...]:
    """All rhombi of a triangulated st-digraph: :func:`rhombus_columns`."""
    rows = zip(*rhombus_columns(g))
    return tuple(Rhombus(u, v, a, b, (u, v)) for u, v, a, b in rows)


def rhombus_columns(g: EmbeddedDigraph) -> tuple[list[VertexId], ...]:
    """The rhombi of a triangulated st-digraph, in O(m), as four columns:
    each median's tail and head, its left and right apexes, by (tail,
    head).  Raises if an interior face is not a triangle.  A median (u, v)
    has interior triangles on both sides whose apexes w have u -> w -> v:
    in a triangle's slots a, b, c, a's edge is flanked exactly when b and
    c both point the other way along it.  Numpy reads large graphs."""
    np = backend(g.n)
    columns = None if np is None else _rhombi_np(np, g)
    return columns or _rhombi_py(g)


def _rhombi_np(np, g: EmbeddedDigraph):
    """:func:`_rhombi_py`'s columns, or None where it would raise: every
    slot off the stored outer walk (:attr:`EmbeddedDigraph.outer`) must lie
    on a triangle (``nxt`` thrice back to itself)."""
    slots = len(g.nbr)
    if not slots or slots != 2 * g.m or g.outer is None:
        return None
    head = np.frombuffer(g.nbr, dtype=np.intc)
    twin = np.frombuffer(g.twin, dtype=np.intc)
    out = np.frombuffer(g.out, dtype=np.bool_)
    nxt = face_next(np, g)
    nxt2 = nxt[nxt]
    tri = np.ones(slots, dtype=np.bool_)
    tri[np.frombuffer(g.outer, dtype=np.intc)] = False
    if ((nxt[nxt2] != np.arange(slots)) & tri).any():
        return None  # an interior face that is not a triangle
    flank = tri & (out[nxt] == out[nxt2]) & (out[nxt] != out)
    median = np.flatnonzero(out & flank & flank[twin])
    median = median[np.lexsort((head[median], head[twin[median]]))]
    ends = (twin[median], median, nxt[twin[median]], nxt[median])
    return tuple(head[i].tolist() for i in ends)


def _rhombi_py(g: EmbeddedDigraph) -> tuple[list[VertexId], ...]:
    """:func:`rhombus_columns` in pure Python, the reference: one pass over
    the out-slots i, with twins j.  The faces right of i and j must be
    triangles (``nxt`` thrice back) unless on the stored outer walk
    (:attr:`EmbeddedDigraph.outer`).  i is a median when neither is and the
    two slots after i run against their edges, the two after j along them."""
    nbr, out, twin = g.nbr, g.out, g.twin
    nxt = next_slots(g)
    inner = bytearray(b"\x01") * len(nbr)
    for i in g.outer or ():
        inner[i] = 0
    found = []
    for i in compress(range(len(nbr)), out):
        j = twin[i]
        a, b = nxt[i], nxt[j]
        c, d = nxt[a], nxt[b]
        if inner[i] and nxt[c] != i or inner[j] and nxt[d] != j:
            check_interior_triangles(g)  # raises: the face is not a triangle
        if inner[i] and inner[j] and not (out[a] or out[c]) and out[b] and out[d]:
            found.append((nbr[j], nbr[i], nbr[b], nbr[a]))
    found.sort()
    return tuple(map(list, zip(*found))) or ([], [], [], [])


def hamiltonian_path(g: EmbeddedDigraph) -> Optional[tuple[VertexId, ...]]:
    """The hamiltonian path of an acyclic digraph, or None.

    A DAG has a hamiltonian path iff its topological order is unique, i.e.
    Kahn elimination never sees two simultaneous zero-indegree vertices.
    The check that n - 1 edges join consecutive vertices of the order is
    then redundant but guards the implementation; :func:`_order_np` ends
    in the same check.  At numpy sizes the order comes from it instead,
    and Kahn runs only where it declines.  It reads no rhombi, so ``hpccm
    check``'s two verdicts stay apart.
    """
    np = backend(g.n)
    found = None if np is None else _order_np(np, g)
    if found is not None:
        order, joined = found
        return tuple(order.tolist()) if joined else None
    order, ambiguous = g.kahn
    if ambiguous or len(order) != g.n:
        return None
    steps = set(map(add, map(g.n.__mul__, order), order[1:]))  # keys u * n + v
    return tuple(order) if sum(map(steps.__contains__, g.keys)) == g.n - 1 else None


def _order_np(np, g: EmbeddedDigraph):
    """A topological order of the graph as a numpy array, and whether each
    two consecutive vertices in it are joined, or None where it cannot
    vouch for the order.

    Each vertex other than s and t hangs off the tail of its leftmost
    in-edge: the in-slot its clockwise row follows with an out-slot.  The
    children of a vertex are ordered by their slots' offsets in its row
    from its leftmost out-slot (for s, its first slot, by the file
    format).  s, then the reverse postorder of this tree, then t is the
    order in which a depth-first search taking out-edges left to right
    finishes the vertices, backwards.  The postorder is read off the
    tree's Euler tour, ranked by pointer jumping in log2(2n) rounds: a
    deliberate O(n log n) part of the default path, since walking the tour
    instead, through a ``memoryview``, took 0.36-0.40 s against 0.30 s at
    n = 10^6, and list ranking has no cheaper vectorised linear form.  The
    order is checked, not assumed: it must be a permutation under which
    every edge points forward.  Then the graph has a hamiltonian path
    exactly when n - 1 of its edges join consecutive vertices.
    """
    n, s, t, slots = g.n, g.s, g.t, len(g.nbr)
    if len(g.off) != n + 1 or not slots:
        return None
    off = np.frombuffer(g.off, dtype=np.intc)
    head = np.frombuffer(g.nbr, dtype=np.intc)
    twin = np.frombuffer(g.twin, dtype=np.intc)
    out = np.frombuffer(g.out, dtype=np.bool_)
    if head.min() < 0 or head.max() >= n:
        return None
    deg = np.diff(off)
    tail = np.repeat(np.arange(n, dtype=np.intc), deg)
    after = np.arange(1, slots + 1, dtype=np.intc)  # the next slot in its row
    full = deg > 0
    after[off[1:][full] - 1] = off[:-1][full]
    left_in = np.flatnonzero(~out & out[after])
    child = tail[left_in]
    first_out = off[:-1].astype(np.intp)
    first_out[child] = after[left_in]
    parent, at = head[left_in], twin[left_in]
    key = off[parent] + (at - first_out[parent]) % deg[parent]
    by_key = np.argsort(key)
    child, parent = child[by_key], parent[by_key]
    # The Euler tour: event v enters vertex v, event n + v leaves it.
    tour = np.arange(2 * n, dtype=np.intp)
    tour[s] = n + s
    tour[child] = n + child
    first = np.ones(len(child), dtype=np.bool_)
    first[1:] = parent[1:] != parent[:-1]
    tour[parent[first]] = child[first]
    tour[n + child] = n + parent
    tour[n + child[:-1][~first[1:]]] = child[1:][~first[1:]]
    # Each event's count of leave events after it: a leave event's count
    # is its vertex's place in the reverse postorder.
    leave = np.zeros(2 * n, dtype=np.intp)
    leave[n + child] = 1
    leave[n + s] = 1
    end = tour == np.arange(2 * n)
    later = np.where(end, 0, leave[tour])
    for _ in range((2 * n).bit_length()):
        later += later[tour]
        tour = tour[tour]
    rank = later[n:]
    rank[t] = n - 1
    if rank.max() >= n or (np.bincount(rank, minlength=n) != 1).any():
        return None  # a tour that does not end at s (a cycle of parents)
    edge_tail, edge_head = rank[tail[out]], rank[head[out]]
    if (edge_tail >= edge_head).any():
        return None
    order = np.empty(n, dtype=np.intc)
    order[rank] = np.arange(n, dtype=np.intc)
    return order, np.count_nonzero(edge_head - edge_tail == 1) == n - 1
