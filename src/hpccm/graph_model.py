"""Embedded planar acyclic digraphs described by rotation systems.

A graph is given purely combinatorially: for every vertex, the clockwise
cyclic order of its neighbours as seen in an upward drawing (source at the
bottom, sink at the top, left boundary chain on the left).  All derived
data -- faces, the outer face, boundary chains, edge sidedness -- follows
from that chirality convention.

Since the rotation system alone determines an embedding only up to the
choice of outer face, the file format fixes it: the rotation array of the
source starts at its leftmost edge, so the outer face is the face lying to
the right of the dart from the source to the *last* entry of its rotation
array.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, Optional, Sequence

VertexId = int
DirectedEdge = tuple[VertexId, VertexId]
Dart = tuple[VertexId, VertexId]


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
    maps them back to the labels used in graph files.
    """

    names: tuple[str, ...]
    s: VertexId
    t: VertexId
    edges: frozenset[DirectedEdge]
    rotation: tuple[tuple[VertexId, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def id_of(self) -> dict[str, VertexId]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def out_neighbors(self) -> tuple[tuple[VertexId, ...], ...]:
        """Out-neighbours of each vertex, in clockwise rotation order."""
        return tuple(
            tuple(w for w in rot if (v, w) in self.edges)
            for v, rot in enumerate(self.rotation)
        )

    @cached_property
    def _rot_pos(self) -> tuple[dict[VertexId, int], ...]:
        return tuple({w: i for i, w in enumerate(rot)} for rot in self.rotation)

    def name_edge(self, e: DirectedEdge) -> str:
        return f"{self.names[e[0]]}->{self.names[e[1]]}"


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
        outdeg: Sequence[int],
    ):
        n = len(cyc)
        self.n = n
        self.k = k
        self.cyc = array("i", cyc)
        self.off = off = array("i", off)
        self.nbr = nbr = array("i", nbr)
        out = bytearray(off[n])
        ones = b"\x01" * n
        for p in range(n):
            o = outdeg[p]
            if p <= k:
                out[off[p] : off[p] + o] = ones[:o]
            else:
                out[off[p + 1] - o : off[p + 1]] = ones[:o]
        self.out = bytes(out)
        # The left-greedy merge of the two chains is a topological order:
        # each left vertex l_i follows exactly the right vertices r_1..r_A,
        # A the highest right tail of an edge into l_1..l_i (the first
        # in-slot of a left row holds its topmost right in-neighbour).
        rank = array("i", bytes(4 * n))
        rank[k + 1] = n - 1
        before = array("i")
        a = 0
        for p in range(1, k + 1):
            q = nbr[off[p] + outdeg[p]]
            if q > k + 1 and n - q > a:
                a = n - q
            rank[p] = p + a
            before.append(a)
        i = 0
        for j in range(1, n - k - 1):
            while i < k and before[i] < j:
                i += 1
            rank[n - j] = j + i
        self.rank = rank


@dataclass(frozen=True)
class OTStDigraph:
    """Validated outerplanar triangulated st-digraph.

    ``left`` and ``right`` are the boundary chains bottom-to-top, excluding
    the source and sink (which by convention belong to both sides).
    ``arrays`` holds the positional form of the instance; it is built from
    the rotations when not supplied.
    """

    base: EmbeddedDigraph
    left: tuple[VertexId, ...]
    right: tuple[VertexId, ...]
    arrays: OtArrays = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.arrays is None:
            object.__setattr__(self, "arrays", _arrays_from_rotation(self))

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def cycle_pos(self) -> tuple[int, ...]:
        """Position on the outer boundary cycle: s, left chain, t, reversed
        right chain."""
        pos = [0] * self.base.n
        for p, v in enumerate(self.arrays.cyc):
            pos[v] = p
        return tuple(pos)


def _arrays_from_rotation(g: OTStDigraph) -> OtArrays:
    """Positional arrays of an instance, read off its rotations.

    Also checks, without relying on :func:`validate_embedded`, that the
    rotations are an outerplanar embedding: each row, rotated to start at
    the cycle successor, must list the neighbours above its position
    ascending and then those below ascending, and no two edges may cross
    as chords of the cycle.  Then m = 2n - 3 (checked by
    :func:`classify_ot`) holds exactly when every interior face is a
    triangle.
    """
    base = g.base
    n = base.n
    cyc = [base.s, *g.left, base.t, *reversed(g.right)]
    pos = [0] * n
    for p, v in enumerate(cyc):
        pos[v] = p
    outdeg = [0] * n
    for (u, _) in base.edges:
        outdeg[pos[u]] += 1
    rows = []
    # The edges (a, b), a < b, spanning the current position, as a * n + b
    # and innermost on top.  Both checks hold exactly when every row's
    # edges down to lower positions close the innermost ones in turn.
    open_at: list[int] = []
    for p, v in enumerate(cyc):
        row = [pos[w] for w in base.rotation[v]]
        i = row.index(p + 1 if p + 1 < n else 0)
        if i:
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
        rows.append(row)
    off = accumulate(map(len, rows), initial=0)
    return OtArrays(cyc, len(g.left), off, chain.from_iterable(rows), outdeg)


# ---------------------------------------------------------------------------
# Face tracing and validation


def trace_face(g: EmbeddedDigraph, start: Dart) -> tuple[Dart, ...]:
    """Boundary walk of the face lying to the right of ``start``: each
    step leaves dart (u, v) by (v, w), w the neighbour just before u in
    v's clockwise rotation."""
    rotation, rot_pos = g.rotation, g._rot_pos
    walk = [start]
    u, v = start
    while True:
        u, v = v, rotation[v][rot_pos[v][u] - 1]
        if (u, v) == start:
            return tuple(walk)
        walk.append((u, v))


def triangle_apex(g: EmbeddedDigraph, u: VertexId, v: VertexId) -> Optional[VertexId]:
    """Third vertex w of the face right of dart (u, v) if that face is a
    triangle, else None: w is the neighbour just before u in v's clockwise
    rotation, and two more such steps (:func:`trace_face`) must lead back
    to (u, v).  O(1)."""
    rotation, rot_pos = g.rotation, g._rot_pos
    w = rotation[v][rot_pos[v][u] - 1]
    if rotation[w][rot_pos[w][v] - 1] == u and rotation[u][rot_pos[u][w] - 1] == v:
        return w
    return None


def check_interior_triangles(g: EmbeddedDigraph, outer: set[Dart]) -> None:
    """Raise ``non-triangular-face`` naming the first interior face, in the
    order :func:`faces` lists them, that is not a triangle.  ``outer`` holds
    the darts of the outer face.  O(m)."""
    edges = sorted(g.edges)
    for dart in edges + [(v, u) for (u, v) in edges]:
        if dart not in outer and triangle_apex(g, *dart) is None:
            names = ",".join(g.names[u] for (u, _) in trace_face(g, dart))
            raise GraphError(
                "non-triangular-face", f"interior face ({names}) is not a triangle"
            )


def outer_face_start(g: EmbeddedDigraph) -> Dart:
    """Dart whose right face is the outer face, by the format convention."""
    return (g.s, g.rotation[g.s][-1])


def _face_starts(g: EmbeddedDigraph, darts: Iterable[Dart]) -> Iterator[Dart]:
    """The darts of ``darts`` that start a face walk not met before.  A
    walk marks each dart it passes in a flag per rotation slot.  O(m)."""
    rotation, rot_pos = g.rotation, g._rot_pos
    off = list(accumulate(map(len, rotation), initial=0))
    seen = bytearray(off[-1])
    for start in darts:
        u, v = start
        slot = off[u] + rot_pos[u][v]
        if seen[slot]:
            continue
        yield start
        while not seen[slot]:
            seen[slot] = 1
            j = (rot_pos[v][u] - 1) % len(rotation[v])
            u, v, slot = v, rotation[v][j], off[v] + j


def faces(g: EmbeddedDigraph) -> FaceSet:
    """All face boundary walks traced from the rotation system.

    Each dart (directed edge side) belongs to exactly one walk; the outer
    face is the one containing the dart fixed by the source's rotation
    array convention.
    """
    edges = sorted(g.edges)
    darts = edges + [(v, u) for (u, v) in edges]
    walks = [trace_face(g, d0) for d0 in _face_starts(g, darts)]
    outer_start = outer_face_start(g)
    outer = next((i for i, w in enumerate(walks) if outer_start in w), -1)
    return FaceSet(walks=tuple(walks), outer=outer)


def kahn_order(g: EmbeddedDigraph) -> tuple[list[VertexId], bool]:
    """Kahn elimination: the vertices in the order they are removed, and
    whether two vertices were ever ready at once.  The order is shorter
    than n exactly when the graph has a directed cycle, and it is the only
    topological order exactly when it is full and never ambiguous."""
    indeg = [0] * g.n
    for (_, v) in g.edges:
        indeg[v] += 1
    ready = [v for v, d in enumerate(indeg) if d == 0]
    order: list[VertexId] = []
    ambiguous = False
    while ready:
        ambiguous = ambiguous or len(ready) > 1
        v = ready.pop()
        order.append(v)
        for w in g.out_neighbors[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order, ambiguous


def _check_consecutive_blocks(g: EmbeddedDigraph, v: VertexId) -> None:
    rot = g.rotation[v]
    flags = [(v, w) in g.edges for w in rot]
    if all(flags) or not any(flags):
        return
    # A single maximal run of outgoing edges means a single run of incoming
    # ones too; count block changes around the cycle.
    changes = sum(1 for i in range(len(rot)) if flags[i] != flags[i - 1])
    if changes != 2:
        raise GraphError(
            "non-consecutive-in-out",
            f"vertex {g.names[v]}: incoming/outgoing edges are interleaved "
            f"in the rotation",
        )


def validate_embedded(g: EmbeddedDigraph) -> None:
    """Check every invariant of an embedded planar st-digraph.

    Raises GraphError with kinds: cyclic, multi-source, multi-sink,
    non-planar-rotation, non-consecutive-in-out, sink-not-on-outer-face.
    """
    n = g.n
    if n < 2:
        raise GraphError("too-small", "graph needs at least vertices s and t")
    indeg = [0] * n
    outdeg = [0] * n
    for (u, v) in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    sources = [v for v in range(n) if indeg[v] == 0]
    sinks = [v for v in range(n) if outdeg[v] == 0]
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
    if len(kahn_order(g)[0]) != n:
        raise GraphError("cyclic", "graph contains a directed cycle")
    for v in range(n):
        _check_consecutive_blocks(g, v)
    darts = ((u, v) for u, rot in enumerate(g.rotation) for v in rot)
    count = sum(1 for _ in _face_starts(g, darts))
    if n - g.m + count != 2:
        raise GraphError(
            "non-planar-rotation",
            f"rotation system is not a planar embedding: V-E+F = "
            f"{n}-{g.m}+{count} != 2",
        )
    if all(u != g.t for (u, _) in trace_face(g, outer_face_start(g))):
        raise GraphError(
            "sink-not-on-outer-face",
            f"sink {g.names[g.t]} does not lie on the outer face",
        )


# ---------------------------------------------------------------------------
# Parsing and serialization

_FORMAT_KEYS = ("vertices", "source", "sink", "edges", "rotation")


def parse_graph(text: str) -> EmbeddedDigraph:
    """Parse the JSON graph format and check all invariants.

    Format: object with keys vertices (list of names), source, sink,
    edges (list of [tail, head] name pairs) and rotation (name -> clockwise
    neighbour list).  The source's rotation array must start at its
    leftmost edge; this pins down the outer face.
    """
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
        or not all(isinstance(x, str) for x in names)
    ):
        raise GraphError("schema", "vertices must be a non-empty list of names")
    if len(set(names)) != len(names):
        raise GraphError("schema", "duplicate vertex names")
    ids = {name: i for i, name in enumerate(names)}

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
    adjacency: list[set[int]] = [set() for _ in names]
    for (u, v) in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    rotation: list[tuple[int, ...]] = []
    for i, name in enumerate(names):
        if name not in rot_obj:
            raise GraphError("schema", f"rotation missing for vertex {name!r}")
        if not isinstance(rot_obj[name], list):
            raise GraphError("schema", f"rotation of {name!r} must be a list")
        row = [vid(w, f"rotation of {name!r}") for w in rot_obj[name]]
        if len(row) != len(set(row)):
            raise GraphError("schema", f"repeated neighbour in rotation of {name!r}")
        if set(row) != adjacency[i]:
            raise GraphError(
                "schema",
                f"rotation of {name!r} does not list exactly its neighbours",
            )
        rotation.append(tuple(row))
    if len(rot_obj) != len(names):
        extra = next(key for key in rot_obj if key not in ids)
        raise GraphError("schema", f"rotation of unknown vertex {extra!r}")
    g = EmbeddedDigraph(
        names=tuple(names),
        s=s,
        t=t,
        edges=frozenset(edges),
        rotation=tuple(rotation),
    )
    validate_embedded(g)
    return g


def serialize_graph(g: EmbeddedDigraph) -> str:
    """Canonical JSON text; parse_graph round-trips it bit-exactly."""
    data = {
        "vertices": list(g.names),
        "source": g.names[g.s],
        "sink": g.names[g.t],
        "edges": [[g.names[u], g.names[v]] for (u, v) in sorted(g.edges)],
        "rotation": {
            g.names[v]: [g.names[w] for w in rot]
            for v, rot in enumerate(g.rotation)
        },
    }
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# OT classification


def classify_ot(g: EmbeddedDigraph) -> OTStDigraph:
    """Derive boundary chains and verify the outerplanar triangulated shape.

    The outer face is walked once: its forward darts form the directed
    right boundary s..t, the reversed remainder the left boundary.  Fails
    if some vertex is not on the outer face or an interior face is not a
    triangle: the rotations must follow the boundary cycle with no two
    edges crossing (checked as the positional arrays are built), and then
    the interior faces are all triangles exactly when m = 2n - 3.
    """
    outer = trace_face(g, outer_face_start(g))
    # Rotate the cyclic walk to start at s.
    starts = [i for i, (u, _) in enumerate(outer) if u == g.s]
    if len(starts) != 1:
        raise GraphError(
            "not-outerplanar",
            f"outer boundary visits {g.names[g.s]} {len(starts)} times",
        )
    k = starts[0]
    walk = outer[k:] + outer[:k]
    right: list[VertexId] = []
    left_rev: list[VertexId] = []
    at_t = False
    for (u, v) in walk[1:]:
        if u == g.t:
            at_t = True
        if at_t:
            if (v, u) not in g.edges:
                raise GraphError(
                    "not-outerplanar",
                    f"outer boundary dart {g.names[u]}->{g.names[v]} is not a "
                    f"reversed edge above the sink",
                )
            left_rev.append(v)
        else:
            if (u, v) not in g.edges:
                raise GraphError(
                    "not-outerplanar",
                    f"outer boundary reverses direction at {g.names[u]} "
                    f"before reaching the sink",
                )
            right.append(u)
    left_rev = left_rev[:-1]  # drop s, appended when the walk closes
    left = tuple(reversed(left_rev))
    right_chain = tuple(right)
    boundary = {g.s, g.t, *left, *right_chain}
    if len(boundary) != g.n or len(left) + len(right_chain) + 2 != len(walk):
        inner = sorted(set(range(g.n)) - boundary)
        name = g.names[inner[0]] if inner else "?"
        raise GraphError(
            "not-outerplanar", f"vertex {name} does not lie on the outer face"
        )
    if set(left) & set(right_chain):
        raise GraphError("not-outerplanar", "boundary chains overlap")
    if g.m != 2 * g.n - 3:
        check_interior_triangles(g, set(outer))
        raise GraphError(
            "non-triangular-face", f"{g.m} edges, a triangulation has {2 * g.n - 3}"
        )
    return OTStDigraph(base=g, left=left, right=right_chain)


def edge_sidedness(g: OTStDigraph, e: DirectedEdge) -> Sidedness:
    """Classify an edge as one-sided (left/right) or two-sided.

    Edges incident to s or t count as one-sided, taking the side of the
    other endpoint; the edge (s, t) itself counts as one-sided left.
    """
    if e not in g.base.edges:
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
    g = EmbeddedDigraph(
        names=names,
        s=ids[source],
        t=ids[sink],
        edges=frozenset((ids[u], ids[v]) for (u, v) in edges),
        rotation=tuple(tuple(ids[w] for w in rotation[name]) for name in names),
    )
    if validate:
        validate_embedded(g)
    return g
