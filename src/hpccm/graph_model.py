"""Embedded planar acyclic digraphs described by rotation systems.

A graph is given purely combinatorially: for every vertex, the clockwise
cyclic order of its neighbours as seen in an upward drawing (source at the
bottom, sink at the top, left boundary chain on the left).  All derived
data -- faces, the outer face, boundary chains, edge sidedness -- follows
from that chirality convention.

The edge set is stored once, as ``keys``: each edge (u, v) as u * n + v,
ascending; ``edges`` is a view of it as tuples.  The rotation system is
stored once too, as CSR slots: row v of ``nbr`` (slots ``off[v]`` to
``off[v + 1] - 1``) is v's clockwise rotation as given, each slot a dart
v -> w.  ``out`` flags the slots whose edge leaves v and ``twin`` gives
the slot of the reverse dart.  The dart after slot i = (u -> v) around its
right face is the slot just before ``twin[i]`` in v's row, cyclically.
:class:`OtArrays` is this CSR relabelled by boundary-cycle position.

Since the rotation system alone determines an embedding only up to the
choice of outer face, the file format fixes it: the rotation array of the
source starts at its leftmost edge, so the outer face is the face lying to
the right of the dart from the source to the *last* entry of its rotation
array.
"""

from __future__ import annotations

import gc
import json
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, eq, mul, sub
from typing import Iterable, Iterator, Sequence

VertexId = int
DirectedEdge = tuple[VertexId, VertexId]
Dart = tuple[VertexId, VertexId]

# From this many vertices on, numpy repays its import on a single
# instance.  Importing it takes 0.125-0.139 s (-X importtime).  The pure
# load, parse_graph and classify_ot, costs 9-12 us per vertex and the numpy
# one 2.5-3.3 us, so the load alone repays the import from about 16 000 to
# 19 000 vertices on; the kernel, up to ~4.5 us per vertex in pure Python
# (on polygon stacks, its slowest family), adds its own saving to that.
NUMPY_MIN_N = 15_000


def backend(n: int):
    """The numpy module when ``n`` is large and numpy is installed (the
    ``fast`` extra), else None.  numpy is imported on the first large
    instance only, so small ones never pay for it.  Every bulk step, here
    and in the kernel, picks its implementation by this alone."""
    if n < NUMPY_MIN_N:
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class GraphError(ValueError):
    """Invalid graph input; ``kind`` is a stable machine-readable tag."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class Sidedness(Enum):
    ONE_SIDED_LEFT = "one-sided-left"
    ONE_SIDED_RIGHT = "one-sided-right"
    TWO_SIDED = "two-sided"


@dataclass(frozen=True)
class EmbeddedDigraph:
    """Planar st-digraph with an explicit clockwise rotation system.

    Immutable after construction; every derived structure is cached and
    safe for concurrent reads.  Vertices are dense integer ids; ``names``
    maps them back to the labels used in graph files.  ``keys`` holds the
    edge set (``edges`` is a view of it) and ``off``, ``nbr``, ``out`` and
    ``twin`` the rotation system (see the module docstring); :meth:`from_rows`
    fills them.
    """

    names: tuple[str, ...]
    s: VertexId
    t: VertexId
    keys: array = field(hash=False)
    off: array = field(hash=False)
    nbr: array = field(hash=False)
    out: bytes = field(hash=False)
    twin: array = field(hash=False)

    @classmethod
    def from_rows(
        cls,
        names: Iterable[str],
        s: VertexId,
        t: VertexId,
        edges: Iterable[DirectedEdge],
        rows: Iterable[Iterable[VertexId]],
    ) -> EmbeddedDigraph:
        """The graph whose vertex v has clockwise rotation ``rows[v]``.

        Fills the slots and pairs the two slots of each edge as twins; an
        edge and its reverse, if both are given, share one pair of slots.
        A row that does not list exactly its vertex's neighbours raises
        ``schema``, before any error raised while reading a later row; so
        does an edge end that is no vertex id, after the rows.
        """
        names, edges = tuple(names), frozenset(edges)
        n = len(names)
        off, nbr = array("i", [0]), array("i")
        try:
            for row in rows:
                nbr.extend(row)
                off.append(len(nbr))
            if not all(0 <= u < n and 0 <= v < n for (u, v) in edges):
                raise GraphError("schema", "an edge end is not a vertex id")
        except GraphError:
            _check_rows(names, edges, off, nbr)
            raise
        keys = array("q", sorted(u * n + v for (u, v) in edges))
        return cls._from_slots(names, s, t, keys, off, nbr)

    @classmethod
    def _from_slots(
        cls,
        names: tuple[str, ...],
        s: VertexId,
        t: VertexId,
        keys: array,
        off: array,
        nbr: array,
    ) -> EmbeddedDigraph:
        """The graph with edge keys ``keys`` (ascending, each edge once)
        and rows ``nbr[off[v]:off[v + 1]]``: pairs the twins with numpy on
        large graphs, and in pure Python (which names the error of wrong
        rows) otherwise or when numpy rejects the rows."""
        np = backend(len(names))
        paired = None if np is None else _pair_np(np, len(names), keys, off, nbr)
        out, twin = paired or _pair_py(names, keys, off, nbr)
        return cls(names, s, t, keys, off, nbr, out, twin)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.keys)

    @property
    def edges(self) -> EdgeSet:
        """The edges as a set of (u, v) tuples: a view of ``keys``."""
        return EdgeSet(self)

    def pairs(self) -> Iterator[DirectedEdge]:
        """The edges as (u, v) pairs in ``keys`` order, i.e. sorted."""
        return map(divmod, self.keys, repeat(self.n))

    def has_edge(self, e: object) -> bool:
        """Whether ``e`` is an edge (u, v): one bisect of ``keys``, O(log m).
        As in a set of int pairs, (1.0, 2) and (True, 2) are edge (1, 2)."""
        n, keys = len(self.names), self.keys
        try:
            u, v = e
            k = u * n + v if 0 <= u < n and 0 <= v < n else -1
        except (TypeError, ValueError):
            return False
        i = bisect_left(keys, k)
        return i < len(keys) and keys[i] == k

    @cached_property
    def id_of(self) -> dict[str, VertexId]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def kahn(self) -> tuple[array, bool]:
        """:func:`kahn_order` of the graph, run once: by the hamiltonian
        path below ``NUMPY_MIN_N`` (or where numpy's order is declined), and
        by the pure-Python validation to tell acyclic graphs."""
        return kahn_order(self)

    @cached_property
    def outer(self) -> array | None:
        """:func:`outer_walk` of the graph, walked once: the numpy
        validation stores it from the step table it builds, else it is
        walked on first use.  :func:`classify_ot` and the rhombi read it at
        numpy sizes."""
        np = backend(self.n)
        return outer_walk(
            self, next_slots(self) if np is None else memoryview(face_next(np, self))
        )

    def name_edge(self, e: DirectedEdge) -> str:
        return f"{self.names[e[0]]}->{self.names[e[1]]}"


class EdgeSet(Set):
    """A graph's edges as a read-only set of (u, v) tuples read off its
    ``keys``, in key order and one int object per vertex: nothing is
    stored per edge, and two views compare by their keys."""

    __slots__ = ("_g",)
    __hash__ = Set._hash

    def __init__(self, g: EmbeddedDigraph):
        self._g = g

    def __len__(self) -> int:
        return self._g.m

    def __iter__(self) -> Iterator[DirectedEdge]:
        ids = list(range(self._g.n))
        return ((ids[u], ids[v]) for u, v in self._g.pairs())

    def __contains__(self, e: object) -> bool:
        return self._g.has_edge(e)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeSet) and other._g.n == self._g.n:
            return self._g.keys == other._g.keys
        return super().__eq__(other)

    @classmethod
    def _from_iterable(cls, it: Iterable[DirectedEdge]) -> frozenset:
        return frozenset(it)


def _check_rows(names: tuple[str, ...], edges: Iterable, off: array, nbr: array):
    """Raise ``schema`` for the first row read so far that does not list
    exactly its vertex's neighbours.  O(m)."""
    adjacency: dict[VertexId, set[VertexId]] = {}
    for (u, v) in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    for v in range(len(off) - 1):
        row = nbr[off[v] : off[v + 1]]
        if len(set(row)) != len(row):
            message = f"repeated neighbour in rotation of {names[v]!r}"
        elif set(row) != adjacency.get(v, set()):
            message = f"rotation of {names[v]!r} does not list exactly its neighbours"
        else:
            continue
        raise GraphError("schema", message)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # out flags to in flags


def _pair_py(names: tuple[str, ...], keys: array, off: array, nbr: array):
    """Out flags and twin slots of the rows; raises ``schema`` (see
    :func:`_check_rows`) when they are wrong.  The reference pairing."""
    n = len(names)
    # Dart v -> w is the number v * n + w, as its edge's key.  The rows
    # are right exactly when their darts are distinct, each has its
    # reverse, every edge is one, and one of each two twins is an edge.
    lens = map(sub, off[1:], off)
    tails = list(chain.from_iterable(map(repeat, range(n), lens)))
    slot_of = dict(zip(map(add, map(mul, tails, repeat(n)), nbr), count()))
    twin = list(map(slot_of.get, map(add, map(mul, nbr, repeat(n)), tails)))
    at = list(map(slot_of.get, keys))
    if len(slot_of) == len(nbr) and None not in twin and None not in at:
        out = bytearray(len(nbr))
        for i in at:
            out[i] = 1
        # Each in-slot's twin must be an out-slot.
        if all(map(out.__getitem__, compress(twin, out.translate(_FLIP)))):
            return bytes(out), array("i", twin)
    _check_rows(names, map(divmod, keys, repeat(n)), off, nbr)


def _pair_np(np, n: int, keys: array, off: array, nbr: array):
    """What :func:`_pair_py` returns, or None where it would raise and
    where an edge is given with its reverse.  One sort of the slots by
    their undirected key min * n + max puts each two twins side by side,
    and one sort of the edges by theirs names the out slot of each pair."""
    m, slots = len(keys), len(nbr)
    if len(off) != n + 1 or not m or slots != 2 * m:
        return None
    head = np.frombuffer(nbr, dtype=np.intc)
    if head.min() < 0 or head.max() >= n:
        return None
    tail = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
    key = np.minimum(tail, head) * n + np.maximum(tail, head)
    a, b = np.argsort(key).reshape(m, 2).T
    # Pair j must be a dart and its reverse (equal undirected keys, two
    # tails) of the edge with the j-th undirected key, no key twice.
    u, v = np.divmod(np.frombuffer(keys, dtype=np.int64), n)
    edge = np.minimum(u, v) * n + np.maximum(u, v)
    by = np.argsort(edge)
    edge = edge[by]
    if (
        (edge[1:] == edge[:-1]).any()
        or (key[a] != edge).any()
        or (key[b] != edge).any()
        or (tail[a] == tail[b]).any()
    ):
        return None
    del key, edge, v
    first = tail[a] == u[by]  # the pair's first slot is the edge's
    out = np.empty(slots, dtype=np.bool_)
    out[a], out[b] = first, ~first
    twin = np.empty(slots, dtype=np.intc)
    twin[a], twin[b] = b, a
    return out.tobytes(), array("i", twin.tobytes())


@dataclass(frozen=True)
class FaceSet:
    """All faces of an embedding, as cyclic dart walks."""

    walks: tuple[tuple[Dart, ...], ...]
    outer: int

    @property
    def interior(self) -> tuple[tuple[Dart, ...], ...]:
        return tuple(w for i, w in enumerate(self.walks) if i != self.outer)


class OtArrays:
    """Flat arrays of an OT-st-digraph, indexed by boundary-cycle position.

    Every vertex lies on the boundary cycle, so positions relabel them:
    0 is the source, 1..k the left chain bottom to top, k + 1 the sink and
    k + 2..n - 1 the right chain top to bottom (right-chain vertex j sits
    at position n - j).  ``cyc`` maps positions back to vertex ids.

    The rotations are stored in CSR form: row p is ``nbr[off[p]:off[p + 1]]``,
    the neighbour positions in clockwise order starting at the cycle
    successor p + 1, i.e. by increasing offset (q - p) mod n.  ``out`` flags
    each slot whose edge leaves p; the outgoing slots form a prefix of the
    row at the source and on the left chain, a suffix elsewhere.  ``rank``
    is a topological rank per position.
    """

    __slots__ = ("n", "k", "cyc", "off", "nbr", "out", "rank")

    def __init__(
        self,
        cyc: Sequence[VertexId],
        k: int,
        off: Iterable[int],
        nbr: Iterable[int],
        out: bytes,
    ):
        self.n = n = len(cyc)
        self.k = k
        self.cyc = array("i", cyc)
        self.off = array("i", off)
        self.nbr = array("i", nbr)
        self.out = bytes(out)
        np = backend(n)
        ranked = None if np is None else _rank_np(np, self)
        self.rank = ranked or _rank_py(self)


def _rank_py(arrays: OtArrays) -> array:
    """A topological rank per position: the left-greedy merge of the two
    chains.  Each left vertex l_i follows exactly the right vertices
    r_1..r_A, A the highest right tail of an edge into l_1..l_i (the first
    in-slot of a left row holds its topmost right in-neighbour)."""
    n, k, off, nbr, out = arrays.n, arrays.k, arrays.off, arrays.nbr, arrays.out
    rank = array("i", bytes(4 * n))
    rank[k + 1] = n - 1
    before = array("i")
    a = 0
    for p in range(1, k + 1):
        q = nbr[out.index(0, off[p])]
        if q > k + 1 and n - q > a:
            a = n - q
        rank[p] = p + a
        before.append(a)
    i = 0
    for j in range(1, n - k - 1):
        while i < k and before[i] < j:
            i += 1
        rank[n - j] = j + i
    return rank


def _rank_np(np, arrays: OtArrays):
    """:func:`_rank_py`'s rank, or None where it would raise: A is a
    running maximum, and the left vertices below each right one are
    counted by ``searchsorted``."""
    n, k = arrays.n, arrays.k
    zeros = np.flatnonzero(np.frombuffer(arrays.out, dtype=np.uint8) == 0)
    at = np.searchsorted(zeros, np.frombuffer(arrays.off, dtype=np.intc)[1 : k + 1])
    if k and at[-1] == len(zeros):
        return None  # a left row with no in-slot at or after it
    q = np.frombuffer(arrays.nbr, dtype=np.intc)[zeros[at]]
    before = np.maximum.accumulate(np.where(q > k + 1, n - q, 0))
    rank = np.empty(n, dtype=np.intc)
    rank[0], rank[k + 1] = 0, n - 1
    rank[1 : k + 1] = np.arange(1, k + 1) + before
    j = np.arange(1, n - k - 1)
    rank[n - j] = j + np.searchsorted(before, j)
    return array("i", rank.tobytes())


@dataclass(frozen=True)
class OTStDigraph:
    """Validated outerplanar triangulated st-digraph: the embedded graph
    and its positional form ``arrays``, whose boundary cycle holds the
    chains."""

    base: EmbeddedDigraph
    arrays: OtArrays = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def left(self) -> tuple[VertexId, ...]:
        """The left boundary chain bottom to top, without the source and
        sink (which by convention belong to both sides)."""
        return tuple(self.arrays.cyc[1 : self.arrays.k + 1])

    @property
    def right(self) -> tuple[VertexId, ...]:
        """The right boundary chain bottom to top, likewise."""
        return tuple(reversed(self.arrays.cyc[self.arrays.k + 2 :]))

    @cached_property
    def cycle_pos(self) -> tuple[int, ...]:
        """Position on the outer boundary cycle: s, left chain, t, reversed
        right chain."""
        pos = [0] * self.base.n
        for p, v in enumerate(self.arrays.cyc):
            pos[v] = p
        return tuple(pos)


def _arrays_from_rotation(g: EmbeddedDigraph, cyc: list[VertexId], k: int) -> OtArrays:
    """Positional arrays of a graph with boundary cycle ``cyc`` and k
    left-chain vertices: its slot rows relabelled by cycle position, each
    rotated to start at the cycle successor.

    Also checks, without relying on :func:`validate_embedded`, that the
    rotations are an outerplanar embedding: each rotated row must list the
    neighbours above its position ascending and then those below
    ascending, and no two edges may cross as chords of the cycle.  Then
    m = 2n - 3 (checked by :func:`classify_ot`) holds exactly when every
    interior face is a triangle.  Large instances are relabelled with
    numpy; when that finds a fault, the pure-Python relabelling runs again
    to name it.
    """
    np = backend(g.n)
    arrays = _arrays_np(np, g, cyc, k) if np is not None else None
    return arrays or _arrays_py(g, cyc, k)


def _arrays_np(np, base: EmbeddedDigraph, cyc: list[VertexId], k: int):
    """What :func:`_arrays_py` returns, or None where it would raise.

    All slots are relabelled by cycle position and each row is rotated to
    its cycle successor by one gather.  Both checks are then one balanced
    bracket test over the rows read backwards, each up-slot opening its
    edge and each down-slot closing one: an event's level is its depth,
    and at every level the events, in order, must alternate open and
    close, each close carrying its open's edge.
    """
    n, slots = base.n, len(base.nbr)
    cycle = np.array(cyc, dtype=np.intc)
    pos = np.empty(n, dtype=np.intc)
    pos[cycle] = np.arange(n, dtype=np.intc)
    boff = np.frombuffer(base.off, dtype=np.intc)
    bdeg = np.diff(boff)
    # Each base slot's neighbour position, and the slot of each row's
    # cycle successor (rows list their neighbours once).
    bnbr = pos[np.frombuffer(base.nbr, dtype=np.intc)]
    owner = np.repeat(pos, bdeg)
    succ = np.flatnonzero(bnbr == (owner + 1) % n)
    start = np.full(n, -1, dtype=np.intc)
    start[owner[succ]] = succ
    if len(succ) != n or start.min() < 0:
        return None
    del owner, succ
    deg = bdeg[cycle]
    off = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(deg, out=off[1:])
    row = np.repeat(np.arange(n, dtype=np.intc), deg)
    index = np.arange(slots, dtype=np.intc)
    row0 = boff[cycle][row]
    src = row0 + (start[row] - row0 + index - off[row]) % deg[row]
    del row0, start
    nbr = bnbr[src]
    out = np.frombuffer(base.out, dtype=np.uint8)[src]
    del bnbr, src
    # The events: rows in order, each read backwards.  A row that does not
    # list its ups before its downs fails too: read backwards, one of its
    # opens is followed at once by a close, of another edge.
    back = off[row] + off[row + 1] - 1 - index
    far, near = nbr[back], row[back]
    opens = far > near
    del back
    depth = np.cumsum(np.where(opens, 1, -1), dtype=np.intc)
    level = depth - opens
    key = np.minimum(near, far).astype(np.int64) * n + np.maximum(near, far)
    del depth, far, near
    order = np.argsort(level, kind="stable")
    level, opens, key = level[order], opens[order], key[order]
    del order
    # Each event's place within its level: its index less the level's first.
    size = np.bincount(level - level[0])
    rank = index - (np.cumsum(size) - size)[level - level[0]]
    is_close = rank % 2 == 1
    if (opens == is_close).any():
        return None
    closes = np.flatnonzero(is_close)
    if (key[closes] != key[closes - 1]).any():
        return None
    return OtArrays(
        cyc, k, array("i", off.tobytes()), array("i", nbr.tobytes()), out.tobytes()
    )


def _arrays_py(base: EmbeddedDigraph, cyc: list[VertexId], k: int) -> OtArrays:
    """:func:`_arrays_from_rotation` in pure Python, the reference."""
    n = base.n
    pos = [0] * n
    for p, v in enumerate(cyc):
        pos[v] = p
    boff, bout = base.off, base.out
    rel = array("i", map(pos.__getitem__, base.nbr))  # every slot relabelled
    off, nbr, out = array("i", [0]), array("i"), bytearray()
    # The edges (a, b), a < b, spanning the current position, as a * n + b
    # and innermost on top, over a sentinel no edge matches.  Both checks
    # hold exactly when each row, read backwards, closes the innermost
    # edges by its down-slots and then opens its own by its up-slots: a row
    # that lists a down after an up closes an edge it has just opened.
    open_at = [-1]
    push, pop = open_at.append, open_at.pop
    for p, v in enumerate(cyc):
        o, e = boff[v], boff[v + 1]
        row = rel[o:e]
        i = row.index(p + 1 if p + 1 < n else 0)
        if i:
            row = row[i:] + row[:i]
            out += bout[o + i : e] + bout[o : o + i]
        else:
            out += bout[o:e]
        for q in reversed(row):
            if q > p:
                push(p * n + q)
            elif pop() != q * n + p:
                raise GraphError(
                    "not-outerplanar",
                    f"rotation of {base.names[v]} does not follow the boundary "
                    f"cycle, or one of its edges crosses another",
                )
        nbr += row
        off.append(len(nbr))
    return OtArrays(cyc, k, off, nbr, out)


# ---------------------------------------------------------------------------
# Face tracing and validation


def outer_slot(g: EmbeddedDigraph) -> int:
    """Slot whose right face is the outer face, by the format convention:
    the source's last one."""
    return g.off[g.s + 1] - 1


def face_walks(g: EmbeddedDigraph, slots: Iterable[int]) -> Iterator[list[int]]:
    """The face walks through the slots of ``slots`` not met before, each
    as its slots from the first such slot.  A walk leaves slot i =
    (u -> v) by the slot just before ``twin[i]`` in v's row, i.e. by
    (v, w) with w the neighbour just before u in v's clockwise rotation.
    O(m)."""
    off, nbr, twin = g.off, g.nbr, g.twin
    seen = bytearray(len(nbr))
    for i in slots:
        walk = []
        while not seen[i]:
            seen[i] = 1
            walk.append(i)
            v, j = nbr[i], twin[i]
            i = j - 1 if j > off[v] else off[v + 1] - 1
        if walk:
            yield walk


def next_slots(g: EmbeddedDigraph) -> list[int]:
    """Each slot's next slot on its face walk (see :func:`face_walks`), the
    pure-Python twin of :func:`face_next`.  O(m)."""
    # before[j]: the slot before slot j in its row, cyclically.  Each row
    # sets its first slot's entry; an empty row's entry lies at the next
    # row's first slot, which that row sets after it, or past the slots.
    before = list(range(-1, len(g.nbr)))
    for o, e in zip(g.off, islice(g.off, 1, None)):
        before[o] = e - 1
    return list(map(before.__getitem__, g.twin))


def faces(g: EmbeddedDigraph) -> FaceSet:
    """All face boundary walks traced from the rotation system.

    Each dart (directed edge side) belongs to exactly one walk, which
    starts at its first dart in this order: the edges sorted, then the
    same edges reversed.  The outer face is the one containing the dart
    fixed by the source's rotation array convention.
    """
    nbr, twin = g.nbr, g.twin
    edges = sorted(compress(count(), g.out), key=lambda i: (nbr[twin[i]], nbr[i]))
    walks = list(face_walks(g, edges + [twin[i] for i in edges]))
    outer = next((k for k, w in enumerate(walks) if outer_slot(g) in w), -1)
    darts = (tuple((nbr[twin[i]], nbr[i]) for i in w) for w in walks)
    return FaceSet(walks=tuple(darts), outer=outer)


def check_interior_triangles(g: EmbeddedDigraph) -> None:
    """Raise ``non-triangular-face`` naming the first interior face, in the
    order :func:`faces` lists them, that is not a triangle.  O(m)."""
    for walk in faces(g).interior:
        if len(walk) != 3:
            names = ",".join(g.names[u] for (u, _) in walk)
            raise GraphError(
                "non-triangular-face", f"interior face ({names}) is not a triangle"
            )


def kahn_order(g: EmbeddedDigraph) -> tuple[array, bool]:
    """Kahn elimination: the vertices in the order they are removed, and
    whether two vertices were ever ready at once.  The order is shorter
    than n exactly when the graph has a directed cycle, and it is the only
    topological order exactly when it is full and never ambiguous."""
    n, out = g.n, g.out
    # Each vertex's out-neighbours are heads[at[v]:at[v + 1]], in row order.
    heads = list(compress(g.nbr, out))
    before = list(accumulate(out, initial=0))  # the out-slots before each slot
    at = list(map(before.__getitem__, g.off))
    indeg = [0] * n
    for w in heads:
        indeg[w] += 1
    ready = [v for v in range(n) if not indeg[v]]
    order = array("i")
    ambiguous = False
    while ready:
        ambiguous = ambiguous or len(ready) > 1
        v = ready.pop()
        order.append(v)
        for w in heads[at[v] : at[v + 1]]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return order, ambiguous


def validate_embedded(g: EmbeddedDigraph) -> None:
    """Check every invariant of an embedded planar st-digraph.

    Raises GraphError with kinds: too-small, multi-source, multi-sink,
    cyclic, non-consecutive-in-out, non-planar-rotation,
    sink-not-on-outer-face.  Large graphs are checked with numpy, with no
    Kahn pass; the pure-Python checks run again to name a fault found.
    """
    np = backend(g.n)
    if np is None or not _valid_np(np, g):
        _validate_py(g)


def face_next(np, g: EmbeddedDigraph):
    """Each slot's next slot on its face walk (see :func:`face_walks`), as
    a numpy array.  The twins must lie in range."""
    off = np.frombuffer(g.off, dtype=np.intc)
    full = off[1:] > off[:-1]
    before = np.arange(-1, len(g.nbr) - 1, dtype=np.intc)
    before[off[:-1][full]] = off[1:][full] - 1
    return before[np.frombuffer(g.twin, dtype=np.intc)]


def outer_walk(g: EmbeddedDigraph, nxt: Sequence[int]) -> array | None:
    """The outer face's slots in walk order from :func:`outer_slot`, or None
    if the source has no slot or the walk is not back within the slot
    count.  ``nxt`` is each slot's next slot (:func:`next_slots`, or a
    ``memoryview`` of :func:`face_next`).  O(outer face)."""
    if g.off[g.s] == g.off[g.s + 1]:
        return None  # no outer slot
    o = i = outer_slot(g)
    walk = []
    for _ in range(len(nxt)):
        walk.append(i)
        i = nxt[i]
        if i == o:
            return array("i", walk)
    return None  # nxt is not a permutation


def _valid_np(np, g: EmbeddedDigraph) -> bool:
    """Whether :func:`_validate_py` passes, decided on the slot arrays, in
    O(m) on an OT-st-digraph.

    Degrees by ``bincount``.  Stepping from each vertex to its least
    in-neighbour, by pointer jumping in log2(n) rounds, must reach s, so the
    graph is connected.  The faces are the cycles of the permutation ``nxt``
    (:func:`face_next`), in three classes: the triangles, the slots i with
    ``nxt[i] != i`` and ``nxt`` thrice back to i; the outer face, the walk
    :attr:`EmbeddedDigraph.outer`, which must contain t; and the rest,
    compressed into a sub-permutation whose cycles are each labelled with
    their least slot by pointer jumping.  An OT-st-digraph has no rest.
    With tri / 3 + 1 + (the rest's cycles) faces, V - E + F = 2 makes the
    connected graph a plane embedding.

    Bimodal rows and acyclicity are then decided together, without Kahn's
    pass.  A switch is a slot i whose edge and ``nxt[i]``'s point opposite
    ways along the walk, so that at their shared vertex both are in-edges or
    both out-edges; the other angles are turns.  A walk has an even number of
    switches, none only if it is a directed closed walk.  A vertex other than
    s and t has at least two turns, two exactly when its row is bimodal, and s
    and t have none: so there are at most 2m - 2n + 4 = 2F switches, with
    equality exactly when all rows are bimodal.  Hence a valid graph has two
    switches on every face, and one with two on every face has bimodal rows.
    If it also had a simple directed cycle C, take C and all on its side away
    from the outer face (where s and t lie): n' vertices, m' edges, F' - 1
    faces, and the plane outside C as one more.  Inner vertices have deg - 2
    switch angles, and a vertex of C with k edges into this side has k (of its
    k + 1 angles there, one is a turn).  So 2(F' - 1) = 2m' - 2n', and
    n' - m' + F' = 1, against Euler's formula.  Without the connectivity
    test, a torus-embedded grid with every edge pointing right or up would
    pass as a second component.

    Each class proves "two on every face" for its faces its own way.  Each
    cycle of the rest is counted by its label.  The triangles are counted
    by one total: a triangle's switches are even and at most three, so two
    on each is exactly 2 / 3 of the triangle slots.  The outer face needs no
    count: its angle at s, between two out-edges, is a switch, so it has at
    least two, and with two on every other face the bound of 2F leaves it
    at most two.
    """
    n, slots = g.n, len(g.nbr)
    if n < 2 or len(g.off) != n + 1 or not slots or slots != 2 * g.m:
        return False  # rows of fewer slots: a self-loop or a two-cycle
    off = np.frombuffer(g.off, dtype=np.intc)
    head = np.frombuffer(g.nbr, dtype=np.intc)
    twin = np.frombuffer(g.twin, dtype=np.intc)
    out = np.frombuffer(g.out, dtype=np.bool_)
    if min(head.min(), twin.min()) < 0 or head.max() >= n or twin.max() >= slots:
        return False
    tail = np.repeat(np.arange(n, dtype=np.intc), np.diff(off))
    sources = np.flatnonzero(np.bincount(head[out], minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(tail[out], minlength=n) == 0)
    if sources.tolist() != [g.s] or sinks.tolist() != [g.t]:
        return False
    if (tail[twin] != head).any():
        return False  # a twin outside its head's row
    back = np.full(n, n - 1, dtype=np.intc)
    np.minimum.at(back, head[out], tail[out])  # the least in-neighbour
    back[g.s] = g.s
    span = 1
    while span < n:
        back = back[back]
        span *= 2
    if (back != g.s).any():
        return False  # a vertex s does not reach
    del tail, back
    nxt = face_next(np, g)
    if np.bincount(nxt, minlength=slots).max() > 1:
        return False  # not a permutation
    if "outer" not in g.__dict__:  # g.outer, walked on this nxt
        g.__dict__["outer"] = outer_walk(g, memoryview(nxt))
    if g.outer is None:
        return False  # s has no slot
    walk = np.frombuffer(g.outer, dtype=np.intc)
    if not (head[walk] == g.t).any():
        return False
    switch = out != out[nxt]
    index = np.arange(slots, dtype=np.intc)
    tri = nxt[nxt[nxt]] == index
    tri &= nxt != index
    tri[walk] = False
    triangles = np.count_nonzero(tri)
    if 3 * np.count_nonzero(switch & tri) != 2 * triangles:
        return False  # a directed triangle
    rest = ~tri
    rest[walk] = False
    rest = np.flatnonzero(rest)
    del tri
    # The rest's cycles, relabelled 0..len(rest) - 1 in slot order.
    step = np.empty(slots, dtype=np.intc)
    step[rest] = np.arange(len(rest), dtype=np.intc)
    step = step[nxt[rest]]
    label = np.arange(len(rest), dtype=np.intc)
    span = 1
    while span < len(rest):
        np.minimum(label, label[step], out=label)
        step = step[step]
        span *= 2
    root = label == np.arange(len(rest), dtype=np.intc)
    if n - g.m + triangles // 3 + 1 + np.count_nonzero(root) != 2:
        return False
    return bool((np.bincount(label[switch[rest]], minlength=len(rest)) == 2 * root).all())


def _validate_py(g: EmbeddedDigraph) -> None:
    """:func:`validate_embedded` in pure Python, the reference."""
    n = g.n
    if n < 2:
        raise GraphError("too-small", "graph needs at least vertices s and t")
    off, nbr, out = g.off, g.nbr, g.out
    # Sources by in-degree: an edge given with its reverse shares one slot
    # pair, both flagged out, and only the counts see that both its ends
    # have an in-edge.
    indeg = Counter(compress(nbr, out))
    sources = [v for v in range(n) if not indeg[v]]
    # Sinks and the in/out blocks in one pass over the rows.  The outgoing
    # slots form one cyclic run exactly when at most one outgoing slot is
    # followed by an incoming one.
    sinks, bad = [], None
    find, turns = out.find, out.count
    for v, o, e in zip(range(n), off, islice(off, 1, None)):
        if find(1, o, e) < 0:
            sinks.append(v)
        elif bad is None and turns(b"\x01\x00", o, e) + (out[e - 1] > out[o]) > 1:
            bad = v
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
    if bad is not None:
        raise GraphError(
            "non-consecutive-in-out",
            f"vertex {g.names[bad]}: incoming/outgoing edges are interleaved "
            f"in the rotation",
        )
    nxt = next_slots(g)
    seen = bytearray(len(nbr))
    count = 0
    for i in range(len(nbr)):
        if not seen[i]:
            count += 1
            while not seen[i]:
                seen[i] = 1
                i = nxt[i]
    if n - g.m + count != 2:
        raise GraphError(
            "non-planar-rotation",
            f"rotation system is not a planar embedding: V-E+F = "
            f"{n}-{g.m}+{count} != 2",
        )
    if g.t not in map(nbr.__getitem__, outer_walk(g, nxt)):
        raise GraphError(
            "sink-not-on-outer-face",
            f"sink {g.names[g.t]} does not lie on the outer face",
        )


# ---------------------------------------------------------------------------
# Parsing and serialization

_FORMAT_KEYS = ("vertices", "source", "sink", "edges", "rotation")


def parse_graph(text: str | bytes) -> EmbeddedDigraph:
    """Parse the JSON graph format and check all invariants.

    Format: object with keys vertices (list of names), source, sink,
    edges (list of [tail, head] name pairs) and rotation (name -> clockwise
    neighbour list).  The source's rotation array must start at its
    leftmost edge; this pins down the outer face.

    At numpy sizes a text in :func:`serialize_graph`'s layout, whitespace
    aside, is read straight from its bytes (:func:`_read_bytes`); any other
    text, and every text below that size, through ``json.loads``.  Bytes
    are read as ``open(path)`` reads a file in text mode: the byte reader
    takes them as they are, and ``json.loads`` gets them decoded as UTF-8
    with universal newlines, so a file names the same errors either way.
    """
    # At numpy sizes the load builds no reference cycles, so reference
    # counting frees all it drops; the cyclic collector would only traverse
    # the parsed rows and edge lists, again and again.  Below that size the
    # pause saves little.  n is first read off the layout, and again after
    # json.loads for a text in another one.
    enabled = gc.isenabled()
    np = backend(_vertex_count(text))
    if np is not None:
        gc.disable()
    try:
        g = None if np is None else _read_bytes(np, text)
        if g is None:
            data, names = _load_json(_decoded(text))
            if backend(len(names)) is not None:
                gc.disable()
            ids = {name: i for i, name in enumerate(names)}
            g = _read_bulk(data, names, ids) or _read_py(data, names, ids)
        validate_embedded(g)
    finally:
        if enabled:
            gc.enable()
    return g


def _vertex_count(text: str | bytes) -> int:
    """n for a text in :func:`serialize_graph`'s layout, found at C speed:
    its quotes before the first ``]`` are those of the key "vertices" and of
    the n names."""
    quote, close = ('"', "]") if isinstance(text, str) else (b'"', b"]")
    return text.count(quote, 0, text.find(close)) // 2 - 1


def _decoded(text: str | bytes) -> str:
    """``text``, its bytes decoded as in text mode: UTF-8, with "\\r\\n"
    and "\\r" read as "\\n"."""
    if isinstance(text, str):
        return text
    text = text.decode("utf-8")
    if "\r" not in text:  # replace("\r\n", ...) is slow even with no match
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_json(text: str) -> tuple[dict, list[str]]:
    """The format object of ``text`` and its checked vertex list."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(
            "syntax", f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too long a number, too deep
        raise GraphError("syntax", str(exc)) from exc
    if not isinstance(data, dict):
        raise GraphError("schema", "top-level value must be an object")
    for key in _FORMAT_KEYS:
        if key not in data:
            raise GraphError("schema", f"missing key {key!r}")
    names = data["vertices"]
    if (
        not isinstance(names, list)
        or not names
        or not all(map(isinstance, names, repeat(str)))
    ):
        raise GraphError("schema", "vertices must be a non-empty list of names")
    if len(set(names)) != len(names):
        raise GraphError("schema", "duplicate vertex names")
    return data, names


# The byte reader's alphabet.  Outside the names a text may hold only JSON
# whitespace and the skeleton: quotes and punctuation.  Separators, the
# skeleton between two names, and names are read as big-endian numbers.
_SKELETON = b'",:[]{}'
_NOT_SKELETON = bytes(sorted(set(range(256)).difference(_SKELETON)))
_NOT_NAME = b" \t\n\r" + _SKELETON
_COMMA, _LIST, _LIST_END, _COLON, _EDGES, _EDGE, _EDGES_END, _ROTATION = (
    int.from_bytes(sep, "big")
    for sep in (b",", b":[", b"],", b":", b":[[", b"],[", b"]],", b":{")
)
_KEY_WORDS = [int.from_bytes(key.encode(), "big") for key in _FORMAT_KEYS]


def _read_bytes(np, text: str | bytes):
    """:func:`_read_bulk`'s graph of a text in :func:`serialize_graph`'s
    layout, whitespace aside, read from its bytes with numpy; None for any
    other text, and where :func:`_read_bulk` would return None.

    Each name is one word: its bytes (at most 8) as a big-endian number,
    read through an unaligned view that ends at its closing quote.  The
    names hold no whitespace, quote, backslash, punctuation or control
    byte, and all other non-whitespace bytes lie in names; so the text is
    JSON that ``json.loads`` reads as this graph exactly when the skeleton
    matches the format, with each separator read as one number.
    """
    is_ascii = text.isascii()
    raw = text.encode("ascii") if is_ascii and isinstance(text, str) else text
    if not is_ascii or b"\\" in raw:
        return None
    quote = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == 34)
    if len(quote) < 4 or len(quote) % 2:
        return None
    size = quote[1::2] - quote[0::2] - 1
    if size.max() > 8 or quote[1] < 8:
        return None
    word = _words(np, raw, quote[1::2], size, 8)
    del quote
    total = int(size.sum())
    if np.count_nonzero(word.view(np.uint8) <= 32) != 8 * len(word) - total:
        return None  # a name with a space or control byte
    if len(raw.translate(None, _NOT_NAME)) != total:
        return None  # a byte outside the names that is no JSON whitespace
    del size
    skeleton = raw.translate(None, _NOT_SKELETON)
    opens = np.flatnonzero(np.frombuffer(skeleton, dtype=np.uint8) == 34)
    closes, opens = opens[1::2], opens[0::2]
    if (closes - opens != 1).any():
        return None  # punctuation in a name
    gap = opens[1:] - closes[:-1] - 1
    ends_ok = skeleton[:5] == b'{"":[' and skeleton[closes[-1] + 1 :] == b"]}}"
    if not ends_ok or gap.max() > 3:
        return None
    del closes
    # code[i]: the separator after token i, 0 where there is none.  Tokens:
    # "vertices", n names, "source", s, "sink", t, "edges", 2m ends,
    # "rotation", then each row's key and its names.
    code = _words(np, skeleton, opens[1:], gap, 4)
    del opens, gap, skeleton
    tokens = len(word)
    n = int(np.argmax(code[1:] != _COMMA)) + 1
    e = n + 5
    header = [_LIST_END, _COLON, _COMMA, _COLON, _COMMA, _EDGES]
    if e + 4 > tokens or code[0] != _LIST or code[n : e + 1].tolist() != header:
        return None
    end = e + 1 + int(np.argmax(code[e + 1 :] == _EDGES_END))
    r = end + 2
    if (end - e) % 2 or r + 2 > tokens:  # odd also where no "]]," is found
        return None
    # "," after each tail, "],[" after each head but the last.
    pairs = code[e + 1 : end]
    if (pairs[0::2] != _COMMA).any() or (pairs[1::2] != _EDGE).any():
        return None
    # Each row: its key, ":[", names apart by "," and "],"; the last one
    # ends the text with "]}}".
    rows = code[r:]
    key = np.empty(tokens - r, dtype=np.bool_)
    key[0], key[1:] = True, rows == _LIST_END
    if key[-1] or ((rows == _LIST) != key[:-1]).any():
        return None
    if not (key[:-1] | key[1:] | (rows == _COMMA)).all():
        return None
    at = np.flatnonzero(key)
    if len(at) != n or code[end + 1] != _ROTATION:
        return None
    if word[[0, n + 1, n + 3, e, end + 1]].tolist() != _KEY_WORDS:
        return None
    vertex = word[1 : n + 1]
    if (word[r + at] != vertex).any():
        return None  # the rows out of vertex order
    del code, key
    # None: a vertex listed twice, or names that collide too often.
    table = _name_table(np, vertex)
    if table is None:
        return None
    st, ends, head = (
        _name_ids(np, table, vertex, words)
        for words in (word[[n + 2, n + 4]], word[e + 1 : end + 1], np.delete(word[r:], at))
    )
    if st is None or ends is None or head is None:
        return None
    # The vertex list, its whitespace and quotes removed, is the names
    # joined by commas.
    listed = raw[raw.find(b"[") + 1 : raw.find(b"]")].translate(None, b' \t\n\r"')
    names = tuple(listed.decode("ascii").split(","))
    off = array("i", np.append(at - np.arange(n), len(head)).astype(np.intc).tobytes())
    nbr = array("i", head.tobytes())
    return _from_ids(names, *st.tolist(), ends.astype(np.int64), off, nbr)


def _words(np, buf: bytes, ends, sizes, width: int):
    """The big-endian numbers formed by the ``sizes[i]`` bytes of ``buf``
    just before offset ``ends[i]``; each size at most ``width``, each end
    at least ``width``."""
    view = np.ndarray((len(buf) - width + 1,), f">u{width}", buf, strides=(1,))
    mask = np.array([(1 << 8 * k) - 1 for k in range(width + 1)], f"u{width}")
    return view[ends - width] & mask[sizes]


# The name map is an open-addressing table with linear probing.  A word's
# first slot is the top bits of word * _HASH mod 2^64 (Fibonacci hashing).
# A word not placed or found within _PROBES slots makes the reader decline,
# so names crafted to collide cost O(n) before json.loads reads the text.
# At n = 10^6 the most slots any word took were 14 for polygon_stack's
# names and 21 for random words.
_HASH = 0x9E3779B97F4A7C15
_PROBES = 64


def _first_slots(np, words, size: int):
    """The top log2(size) bits of each word * ``_HASH`` mod 2^64."""
    slot = words * np.uint64(_HASH)
    slot >>= np.uint64(65 - size.bit_length())
    return slot.view(np.intp)


def _name_table(np, vertex):
    """A table of at least 4n slots, a power of two, holding each vertex
    id at the first free slot from its word's on, the others -1; None when
    a word is listed twice or not placed within ``_PROBES`` rounds.  Each
    round places one of the ids that want each free slot and moves the
    rest on by one slot; two ids of one word always want the same slot."""
    size = 4 << (len(vertex) - 1).bit_length()
    table = np.full(size, -1, dtype=np.intc)
    todo = np.arange(len(vertex), dtype=np.intc)
    slot = _first_slots(np, vertex, size)
    for _ in range(_PROBES):
        free = table[slot] < 0
        table[slot[free]] = todo[free]
        held = table[slot]
        left = held != todo
        todo, held = todo[left], held[left]
        if (vertex[held] == vertex[todo]).any():
            return None
        if not len(todo):
            return table
        slot = (slot[left] + 1) & (size - 1)
    return None


def _name_ids(np, table, vertex, words):
    """The vertex ids of ``words`` in :func:`_name_table`'s ``table``;
    None when a word is no vertex's (its probe meets a free slot) or is not
    found within ``_PROBES`` slots, the bound it was placed within."""
    mask = len(table) - 1
    slot = _first_slots(np, words, len(table))
    ids = table[slot]
    # A free slot (-1) reads vertex[-1], a word no probe can meet at a free
    # slot: its own probe passes only slots taken when it was placed.
    todo = np.flatnonzero(vertex[ids] != words)
    slot, words, held = slot[todo], words[todo], ids[todo]
    for _ in range(_PROBES):
        if not len(todo):
            return ids
        if (held < 0).any():
            return None
        slot = (slot + 1) & mask
        held = ids[todo] = table[slot]
        miss = vertex[held] != words
        todo, slot, words, held = todo[miss], slot[miss], words[miss], held[miss]
    return None


def _read_bulk(data: dict, names: list[str], ids: dict[str, int]):
    """:func:`_read_py`'s graph, with the names mapped to ids in bulk, or
    None where it would raise."""
    get, edge_items, rot_obj = ids.__getitem__, data["edges"], data["rotation"]
    if not (
        isinstance(edge_items, list)
        and all(map(isinstance, edge_items, repeat(list)))
        and set(map(len, edge_items)) == {2}
        and isinstance(rot_obj, dict)
        and len(rot_obj) == len(names)
    ):
        return None
    try:
        # A name that is not a vertex raises KeyError, or TypeError when
        # it is a list or an object.
        s, t = get(data["source"]), get(data["sink"])
        ends = list(map(get, chain.from_iterable(edge_items)))
        rows = list(map(rot_obj.__getitem__, names))
        if not all(map(isinstance, rows, repeat(list))):
            return None
        nbr = array("i", list(map(get, chain.from_iterable(rows))))
    except (KeyError, TypeError):
        return None
    np = backend(len(names))
    if np is not None:
        ends = np.frombuffer(array("i", ends), dtype=np.intc).astype(np.int64)
    off = array("i", [0])
    off.extend(accumulate(map(len, rows)))
    return _from_ids(tuple(names), s, t, ends, off, nbr)


def _from_ids(names: tuple[str, ...], s: int, t: int, ends, off: array, nbr: array):
    """The graph whose edge i is (ends[2i], ends[2i + 1]), ids in a list,
    or in an int64 numpy array at numpy sizes, and whose rows are
    ``nbr[off[v]:off[v + 1]]``; None on a self-loop or an edge listed
    twice."""
    # A self-loop has equal ends, an edge listed twice equal neighbouring keys.
    n, np = len(names), backend(len(names))
    tails, heads = ends[0::2], ends[1::2]
    if np is None:
        k = sorted(map(add, map(mul, tails, repeat(n)), heads))
        bad = any(map(eq, tails, heads)) or any(map(eq, k, islice(k, 1, None)))
    else:
        k = np.sort(tails * n + heads)
        bad = (tails == heads).any() or (k[1:] == k[:-1]).any()
    if bad:
        return None
    keys = array("q", k if np is None else k.tobytes())
    return EmbeddedDigraph._from_slots(names, s, t, keys, off, nbr)


def _read_py(data: dict, names: list[str], ids: dict[str, int]) -> EmbeddedDigraph:
    """The graph of a format object whose vertex list is checked, before
    :func:`validate_embedded`; raises the first ``schema`` error in file
    order."""

    def vid(name: object, where: str) -> int:
        if not isinstance(name, str) or name not in ids:
            raise GraphError("schema", f"unknown vertex {name!r} in {where}")
        return ids[name]

    s = vid(data["source"], "source")
    t = vid(data["sink"], "sink")
    if not isinstance(data["edges"], list):
        raise GraphError("schema", "edges must be a list of pairs")
    edges: set[DirectedEdge] = set()
    for item in data["edges"]:
        if not isinstance(item, list) or len(item) != 2:
            raise GraphError("schema", f"edge entry {item!r} is not a pair")
        e = (vid(item[0], "edges"), vid(item[1], "edges"))
        if e[0] == e[1]:
            raise GraphError("schema", f"self-loop at {item[0]!r}")
        if e in edges:
            raise GraphError("schema", f"duplicate edge {item[0]}->{item[1]}")
        edges.add(e)
    rot_obj = data["rotation"]
    if not isinstance(rot_obj, dict):
        raise GraphError("schema", "rotation must be an object")

    def rows() -> Iterator[list[int]]:
        for name in names:
            if name not in rot_obj:
                raise GraphError("schema", f"rotation missing for vertex {name!r}")
            row = rot_obj[name]
            if not isinstance(row, list):
                raise GraphError("schema", f"rotation of {name!r} must be a list")
            where = f"rotation of {name!r}"
            yield [vid(w, where) for w in row]

    g = EmbeddedDigraph.from_rows(names, s, t, edges, rows())
    if len(rot_obj) != len(names):
        extra = next(key for key in rot_obj if key not in ids)
        raise GraphError("schema", f"rotation of unknown vertex {extra!r}")
    return g


def serialize_graph(g: EmbeddedDigraph) -> str:
    """Canonical JSON text; parse_graph round-trips it bit-exactly.  It is
    ``json.dumps`` of the format object with ``indent=2``, written out
    directly with each name quoted once: the edges in key order, which
    sorts them, the rows' names mapped in one pass over ``nbr``."""
    q = list(map(encode_basestring_ascii, g.names))
    n, off = g.n, g.off
    qn = list(map(q.__getitem__, g.nbr))

    def block(items: list[str], ind: str) -> str:
        sep = f",\n{ind}  "
        return f"[\n{ind}  {sep.join(items)}\n{ind}]" if items else "[]"

    edges = [f"[\n      {q[k // n]},\n      {q[k % n]}\n    ]" for k in g.keys]
    rows = [f"{q[v]}: " + block(qn[off[v] : off[v + 1]], "    ") for v in range(n)]
    return (
        f'{{\n  "vertices": {block(q, "  ")},\n  "source": {q[g.s]},\n'
        f'  "sink": {q[g.t]},\n  "edges": {block(edges, "  ")},\n'
        '  "rotation": {\n    ' + ",\n    ".join(rows) + "\n  }\n}\n"
    )


# ---------------------------------------------------------------------------
# OT classification


def classify_ot(g: EmbeddedDigraph) -> OTStDigraph:
    """Derive boundary chains and verify the outerplanar triangulated shape.

    The outer face is walked once: its forward darts form the directed
    right boundary s..t, the reversed remainder the left boundary.  Fails
    if some vertex is not on the outer face or an interior face is not a
    triangle: the rotations must follow the boundary cycle with no two
    edges crossing (checked as the positional arrays are built), and then
    the interior faces are all triangles exactly when m = 2n - 3.  Large
    graphs are split with numpy on their stored outer walk
    (:attr:`EmbeddedDigraph.outer`); when that finds a fault, the
    pure-Python walk runs again to name it.
    """
    np = backend(g.n)
    found = None if np is None else _cycle_np(np, g)
    cyc, k = found or _cycle_py(g)
    return OTStDigraph(base=g, arrays=_arrays_from_rotation(g, cyc, k))


def _cycle_np(np, g: EmbeddedDigraph):
    """:func:`_cycle_py`'s cycle and k, or None where it would raise: the
    chains are split at the first slot out of t on the stored outer walk
    (:attr:`EmbeddedDigraph.outer`).  As there, the interior faces are left
    to m = 2n - 3 and the positional arrays' checks."""
    n = g.n
    walk = g.outer
    if walk is None or len(walk) != n or g.m != 2 * n - 3:
        return None
    walk = np.frombuffer(walk, dtype=np.intc)
    head = np.frombuffer(g.nbr, dtype=np.intc)
    twin = np.frombuffer(g.twin, dtype=np.intc)
    out = np.frombuffer(g.out, dtype=np.bool_)
    tail, head = head[twin[walk]], head[walk]  # tail[0] is s
    at_t = np.flatnonzero(tail[1:] == g.t)
    j = at_t[0] + 1 if len(at_t) else n
    if not (out[walk[1:j]].all() and out[twin[walk[j:]]].all()):
        return None
    left = head[j:-1][::-1]
    cyc = np.concatenate(([g.s], left, [g.t], tail[1:j][::-1]))
    if (np.bincount(cyc, minlength=n) != 1).any():
        return None  # a vertex off the outer face, or met twice on it
    return array("i", cyc.astype(np.intc).tobytes()), len(left)


def _cycle_py(g: EmbeddedDigraph) -> tuple[list[VertexId], int]:
    """The boundary cycle and the left chain's length, by one walk of the
    outer face in pure Python, the reference."""
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


def edge_sidedness(g: OTStDigraph, e: DirectedEdge) -> Sidedness:
    """Classify an edge as one-sided (left/right) or two-sided.

    Edges incident to s or t count as one-sided, taking the side of the
    other endpoint; the edge (s, t) itself counts as one-sided left.
    """
    if not g.base.has_edge(e):
        raise GraphError("unknown-edge", f"edge {e} is not in the graph")
    # Cycle positions 1..k are the left chain and k + 2.. the right one;
    # s (0) and t (k + 1) lie on neither.
    k, cycle_pos = g.arrays.k, g.cycle_pos
    ends = (cycle_pos[e[0]], cycle_pos[e[1]])
    on_left = {p <= k for p in ends if p not in (0, k + 1)}
    if len(on_left) == 2:
        return Sidedness.TWO_SIDED
    if on_left == {False}:
        return Sidedness.ONE_SIDED_RIGHT
    return Sidedness.ONE_SIDED_LEFT


def build_graph(
    names: Iterable[str],
    source: str,
    sink: str,
    edges: Iterable[tuple[str, str]],
    rotation: dict[str, Iterable[str]],
    validate: bool = True,
) -> EmbeddedDigraph:
    """Construct a graph from names (convenience for tests and builders)."""
    names = tuple(names)
    ids = {name: i for i, name in enumerate(names)}
    pairs = ((ids[u], ids[v]) for (u, v) in edges)
    rows = ([ids[w] for w in rotation[name]] for name in names)
    g = EmbeddedDigraph.from_rows(names, ids[source], ids[sink], pairs, rows)
    if validate:
        validate_embedded(g)
    return g
