"""The pure-Python load bodies as they were before their rewrite for
speed, kept as test oracles.

``_pair_py``, ``_arrays_py``, ``kahn_order`` and ``_validate_py`` of
:mod:`hpccm.graph_model` now relabel each slot once, walk faces on a
next-slot list and test rows in one pass.  These copies build a list per
face and per row instead.
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
