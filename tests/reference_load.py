"""The pure-Python load bodies as they were before their rewrite for
speed, kept as test oracles.

``_pair_py``, ``_arrays_py``, ``kahn_order``, ``_validate_py`` and
``_cycle_py`` of :mod:`hpccm.graph_model` now relabel each slot once,
walk faces on a next-slot list, test rows in one pass and split the
graph's stored outer walk; ``_rhombi_py`` of :mod:`hpccm.hamiltonicity`
makes one pass over the out-slots.  These copies build a list per face
and per row, and walk the outer face again, instead.
``tests/test_reference_load.py`` requires both versions to give the same
result, or the same error kind and message, on every input.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, compress, count, repeat
from operator import add, mul, or_, sub

from hpccm.graph_model import (
    EmbeddedDigraph,
    GraphError,
    OtArrays,
    VertexId,
    _check_rows,
    check_interior_triangles,
    face_walks,
    outer_slot,
)


def _pair_py(names: tuple[str, ...], keys: array, off: array, nbr: array):
    """Out flags and twin slots of the rows; raises ``schema`` (see
    :func:`_check_rows`) when they are wrong.  The reference pairing."""
    n = len(names)
    # Dart v -> w is the number v * n + w, as its edge's key.  The rows
    # are right exactly when their darts are distinct, each has its
    # reverse, every edge is one, and one of each two twins is an edge.
    lens = map(sub, off[1:], off)
    tails = array("i", chain.from_iterable(map(repeat, range(n), lens)))
    slot_of = dict(zip(map(add, map(mul, tails, repeat(n)), nbr), count()))
    twin = list(map(slot_of.get, map(add, map(mul, nbr, repeat(n)), tails)))
    at = list(map(slot_of.get, keys))
    if len(slot_of) == len(nbr) and None not in twin and None not in at:
        out = bytearray(len(nbr))
        for i in at:
            out[i] = 1
        if all(map(or_, out, map(out.__getitem__, twin))):
            return bytes(out), array("i", twin)
    _check_rows(names, map(divmod, keys, repeat(n)), off, nbr)


def _arrays_py(base: EmbeddedDigraph, cyc: list[VertexId], k: int) -> OtArrays:
    """:func:`_arrays_from_rotation` in pure Python, the reference."""
    n = base.n
    pos = [0] * n
    for p, v in enumerate(cyc):
        pos[v] = p
    boff, bnbr, bout = base.off, base.nbr, base.out
    off, nbr, out = array("i", [0]), array("i"), bytearray()
    # The edges (a, b), a < b, spanning the current position, as a * n + b
    # and innermost on top.  Both checks hold exactly when every row's
    # edges down to lower positions close the innermost ones in turn.
    open_at: list[int] = []
    for p, v in enumerate(cyc):
        o, e = boff[v], boff[v + 1]
        row = [pos[w] for w in bnbr[o:e]]
        i = row.index(p + 1 if p + 1 < n else 0)
        row = row[i:] + row[:i]
        ups = [q for q in row if q > p]
        for q in reversed(row[len(ups) :]):
            if not open_at or open_at.pop() != q * n + p:
                raise GraphError(
                    "not-outerplanar",
                    f"rotation of {base.names[v]} does not follow the boundary "
                    f"cycle, or one of its edges crosses another",
                )
        open_at += [p * n + q for q in reversed(ups)]
        nbr.extend(row)
        out += bout[o + i : e] + bout[o : o + i]
        off.append(len(nbr))
    return OtArrays(cyc, k, off, nbr, out)


def kahn_order(g: EmbeddedDigraph) -> tuple[array, bool]:
    """Kahn elimination: the vertices in the order they are removed, and
    whether two vertices were ever ready at once.  The order is shorter
    than n exactly when the graph has a directed cycle, and it is the only
    topological order exactly when it is full and never ambiguous."""
    n, off, nbr, out = g.n, g.off, g.nbr, g.out
    indeg = [0] * n
    for w in compress(nbr, out):
        indeg[w] += 1
    ready = [v for v in range(n) if not indeg[v]]
    order = array("i")
    ambiguous = False
    while ready:
        ambiguous = ambiguous or len(ready) > 1
        v = ready.pop()
        order.append(v)
        for i in range(off[v], off[v + 1]):
            if out[i]:
                w = nbr[i]
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
    return order, ambiguous


def _validate_py(g: EmbeddedDigraph) -> None:
    """:func:`validate_embedded` in pure Python, the reference."""
    n = g.n
    if n < 2:
        raise GraphError("too-small", "graph needs at least vertices s and t")
    off, nbr, out = g.off, g.nbr, g.out
    indeg = Counter(compress(nbr, out))
    sources = [v for v in range(n) if not indeg[v]]
    sinks = [v for v in range(n) if 1 not in out[off[v] : off[v + 1]]]
    if len(sources) != 1 or sources[0] != g.s:
        raise GraphError(
            "multi-source",
            f"expected {g.names[g.s]} as the unique source, found "
            f"{[g.names[v] for v in sources]}",
        )
    if len(sinks) != 1 or sinks[0] != g.t:
        raise GraphError(
            "multi-sink",
            f"expected {g.names[g.t]} as the unique sink, found "
            f"{[g.names[v] for v in sinks]}",
        )
    if len(g.kahn[0]) != n:
        raise GraphError("cyclic", "graph contains a directed cycle")
    for v in range(n):
        # The outgoing slots form one cyclic run exactly when at most one
        # outgoing slot is followed by an incoming one.
        o, e = off[v], off[v + 1]
        if out.count(b"\x01\x00", o, e) + (out[e - 1] > out[o] if e > o else 0) > 1:
            raise GraphError(
                "non-consecutive-in-out",
                f"vertex {g.names[v]}: incoming/outgoing edges are interleaved "
                f"in the rotation",
            )
    count = sum(1 for _ in face_walks(g, range(len(nbr))))
    if n - g.m + count != 2:
        raise GraphError(
            "non-planar-rotation",
            f"rotation system is not a planar embedding: V-E+F = "
            f"{n}-{g.m}+{count} != 2",
        )
    if g.t not in map(nbr.__getitem__, next(face_walks(g, [outer_slot(g)]))):
        raise GraphError(
            "sink-not-on-outer-face",
            f"sink {g.names[g.t]} does not lie on the outer face",
        )


def _cycle_py(g: EmbeddedDigraph) -> tuple[list[VertexId], int]:
    """The boundary cycle and the left chain's length, by a walk of the
    outer face of its own in pure Python."""
    nbr, out, twin = g.nbr, g.out, g.twin
    if g.off[g.s] == g.off[g.s + 1]:
        raise GraphError(
            "not-outerplanar",
            f"source {g.names[g.s]} has no edge to fix the outer face",
        )
    # The walk starts at s, the tail of the outer slot.
    walk = next(face_walks(g, [outer_slot(g)]))
    visits = [nbr[i] for i in walk].count(g.s)
    if visits != 1:
        raise GraphError(
            "not-outerplanar",
            f"outer boundary visits {g.names[g.s]} {visits} times",
        )
    right: list[VertexId] = []
    left_rev: list[VertexId] = []
    at_t = False
    for i in walk[1:]:
        u, v = nbr[twin[i]], nbr[i]
        if u == g.t:
            at_t = True
        if at_t:
            if not out[twin[i]]:
                raise GraphError(
                    "not-outerplanar",
                    f"outer boundary dart {g.names[u]}->{g.names[v]} is not a "
                    f"reversed edge above the sink",
                )
            left_rev.append(v)
        else:
            if not out[i]:
                raise GraphError(
                    "not-outerplanar",
                    f"outer boundary reverses direction at {g.names[u]} "
                    f"before reaching the sink",
                )
            right.append(u)
    left = tuple(reversed(left_rev[:-1]))  # drop s, appended when the walk closes
    boundary = {g.s, g.t, *left, *right}
    if len(boundary) != g.n or len(left) + len(right) + 2 != len(walk):
        inner = sorted(set(range(g.n)) - boundary)
        name = g.names[inner[0]] if inner else "?"
        raise GraphError(
            "not-outerplanar", f"vertex {name} does not lie on the outer face"
        )
    if set(left) & set(right):
        raise GraphError("not-outerplanar", "boundary chains overlap")
    if g.m != 2 * g.n - 3:
        check_interior_triangles(g)
        raise GraphError(
            "non-triangular-face", f"{g.m} edges, a triangulation has {2 * g.n - 3}"
        )
    return [g.s, *left, g.t, *reversed(right)], len(left)


def _rhombi_py(g: EmbeddedDigraph) -> tuple[list[VertexId], ...]:
    """:func:`~hpccm.hamiltonicity.rhombus_columns` in pure Python: one
    walk over the faces flags each slot whose right face flanks its edge."""
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

    found = sorted(
        (u, nbr[i], apex(twin[i]), apex(i))
        for u in range(g.n)
        for i in range(off[u], off[u + 1])
        if out[i] and flank[i] and flank[twin[i]]
    )
    return tuple(map(list, zip(*found))) or ([], [], [], [])
