"""Seeded random instance generation and brute-force oracles.

Instances are built on a fixed boundary cycle (source, left chain, sink,
reversed right chain): a random triangulation of that cycle plus a random
interleaving of the two chains' heights determines the edge set and its
orientation, and the clockwise rotations fall out of the cycle positions.
Every generated graph is validated by the OT classifier before being
returned.

The oracles deliberately avoid the solver's recurrences: minimum
crossings are found by enumerating all entry-side vectors and counting
forced crossings from boundary interleavings, and hamiltonicity by
depth-first search over all simple source-to-sink paths.  The
enumeration builds its paths with the record-level reference code at the
end of this module (costs, crossing lists and path construction on
:class:`~hpccm.decomposition.StPolygon` records), which is also what the
tests compare the positional kernel against.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, product
from typing import Optional, Sequence

from .decomposition import Decomposition, FreeVertex, StPolygon, decompose
from .graph_model import (
    DirectedEdge,
    EmbeddedDigraph,
    GraphError,
    OTStDigraph,
    OtArrays,
    VertexId,
    classify_ot,
)
from .solver import PolygonCosts, Side, all_costs, interleaves


@dataclass(frozen=True)
class GenProfile:
    """Shape of a random instance: chain lengths, chord bias, RNG seed."""

    n_left: int
    n_right: int
    polygon_bias: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_left < 0 or self.n_right < 0 or self.n_left + self.n_right < 1:
            raise ValueError("chain lengths must be non-negative and sum to >= 1")
        if not 0.0 <= self.polygon_bias <= 1.0:
            raise ValueError("polygon_bias must lie in [0, 1]")


def _random_triangulation(
    n: int, t_pos: int, bias: float, rng: random.Random
) -> list[tuple[int, int]]:
    """Chords (as cycle-position pairs) of a random triangulation of an
    n-gon.  With probability ``bias`` a split apexes at the sink position,
    which favours source/sink fans and therefore large, chord-heavy
    polygons around the median."""
    chords: list[tuple[int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        if a < t_pos < b and rng.random() < bias:
            c = t_pos
        else:
            c = rng.randrange(a + 1, b)
        if c - a >= 2:
            chords.append((a, c))
        if b - c >= 2:
            chords.append((c, b))
        stack.append((a, c))
        stack.append((c, b))
    return chords


def random_ot(profile: GenProfile) -> OTStDigraph:
    """Random outerplanar triangulated st-digraph; deterministic per profile."""
    rng = random.Random(profile.seed)
    k, m = profile.n_left, profile.n_right
    n = k + m + 2
    names = ["s"] + [f"l{i}" for i in range(1, k + 1)] + [
        f"r{j}" for j in range(1, m + 1)
    ] + ["t"]
    s = 0
    t = n - 1
    left = list(range(1, k + 1))
    right = list(range(k + 1, k + 1 + m))

    # Boundary cycle: s, left chain up, t, right chain down.
    cycle = [s, *left, t, *reversed(right)]

    # Heights: s first, t last, chains interleaved at random.
    seq = ["L"] * k + ["R"] * m
    rng.shuffle(seq)
    height = [0] * n
    il = iter(left)
    ir = iter(right)
    for rank, tag in enumerate(seq, start=1):
        height[next(il) if tag == "L" else next(ir)] = rank
    height[t] = n - 1

    chords = [
        (cycle[pa], cycle[pb])
        for (pa, pb) in _random_triangulation(n, k + 1, profile.polygon_bias, rng)
    ]
    return _from_cycle(names, cycle, height, chords)


def exhaustive_min_crossings(g: OTStDigraph, max_polygons: int = 20) -> int:
    """Brute-force minimum crossings over all 2^(polygon count) entry-side
    vectors.

    Each candidate path is built by :func:`construct_path` and its
    crossings are counted independently of both the DP recurrences and
    the construction's own crossing lists, by testing which graph edges
    interleave each completion edge on the boundary cycle.
    """
    d = decompose(g)
    polys = [i for i, el in enumerate(d.elements) if isinstance(el, StPolygon)]
    if len(polys) > max_polygons:
        raise GraphError(
            "too-many-polygons",
            f"{len(polys)} polygons exceed the oracle limit {max_polygons}",
        )
    costs = all_costs(d)
    cyc = g.cycle_pos
    base_n = g.base.n
    edges = sorted(g.base.edges)
    sides: list[Optional[Side]] = [None] * len(d.elements)

    def crossings(bits: tuple[Side, ...]) -> int:
        for idx, side in zip(polys, bits):
            sides[idx] = side
        _, ces, _ = construct_path(d, costs, sides)
        return sum(1 for ce in ces for e in edges if interleaves(cyc, base_n, ce, e))

    # With no polygons the one empty side vector gives the path of free
    # vertices and 0 crossings.
    return min(map(crossings, product("LR", repeat=len(polys))))


def exhaustive_hamiltonian(g: EmbeddedDigraph, limit: int = 12) -> bool:
    """DFS over all simple s->t paths; True iff one covers every vertex."""
    if g.n > limit:
        raise GraphError(
            "too-large", f"exhaustive search limited to {limit} vertices"
        )
    n = g.n
    target = g.t
    out_nbrs = g.out_neighbors
    visited = [False] * n
    visited[g.s] = True

    def walk(v: int, count: int) -> bool:
        if v == target:
            return count == n
        for w in out_nbrs[v]:
            if not visited[w]:
                visited[w] = True
                if walk(w, count + 1):
                    return True
                visited[w] = False
        return False

    return walk(g.s, 1)


# ---------------------------------------------------------------------------
# Deterministic instance builders


def _from_cycle(
    names: list[str],
    cycle: list[int],
    heights: list[int],
    chords: list[tuple[int, int]],
    validate: bool = True,
) -> OTStDigraph:
    """Assemble an OT instance from its boundary cycle and chord list.

    ``cycle`` lists vertex ids as s, left chain, t, reversed right chain;
    chords are id pairs, oriented by ``heights``.  The rotations and the
    positional arrays come from the same rows: each vertex's neighbours by
    increasing cycle offset.  With ``validate`` the graph goes through
    :func:`classify_ot`.
    """
    n = len(names)
    t_at = max(range(n), key=lambda p: heights[cycle[p]])
    pos = [0] * n
    for p, v in enumerate(cycle):
        pos[v] = p
    # Edges as position pairs: the left chain climbs 0..t_at, the right
    # chain descends n - 1..t_at, then come the edge closing the cycle at
    # the source and the chords (a pair of cycle neighbours other than
    # (0, n - 1) is a chain edge already).
    oriented = (
        (pos[x], pos[y]) if heights[x] < heights[y] else (pos[y], pos[x])
        for (x, y) in chords
    )
    all_edges = chain(
        zip(range(t_at), range(1, t_at + 1)),
        zip(range(t_at + 1, n), range(t_at, n - 1)),
        ((a, b) for (a, b) in chain([(0, n - 1)], oriented) if abs(a - b) != 1),
    )
    edges: set[tuple[int, int]] = set()
    outdeg, deg = [0] * n, [0] * n
    # Row p lists its neighbours q by increasing offset (q - p) mod n: the
    # slots sort by p * 2n + (q, or q + n when q < p), which also keeps q
    # recoverable as the key mod n.
    keys: list[int] = []
    n2 = 2 * n
    for (a, b) in all_edges:
        e = (cycle[a], cycle[b])
        if e in edges:
            continue
        edges.add(e)
        outdeg[a] += 1
        deg[a] += 1
        deg[b] += 1
        keys.append(a * n2 + (b if b > a else b + n))
        keys.append(b * n2 + (a if a > b else a + n))
    keys.sort()
    nbr = array("i", map(n.__rmod__, keys))
    del keys, pos
    off = array("i", accumulate(deg, initial=0))
    rotation: list[tuple[int, ...]] = [()] * n
    for p in range(n):
        rotation[cycle[p]] = tuple(map(cycle.__getitem__, nbr[off[p] : off[p + 1]]))
    g = EmbeddedDigraph(
        names=tuple(names),
        s=cycle[0],
        t=cycle[t_at],
        edges=frozenset(edges),
        rotation=tuple(rotation),
    )
    if validate:
        return classify_ot(g)
    return OTStDigraph(
        base=g,
        left=tuple(cycle[1:t_at]),
        right=tuple(reversed(cycle[t_at + 1 :])),
        arrays=OtArrays(cycle, t_at - 1, off, nbr, outdeg),
    )


def triangle() -> OTStDigraph:
    """Smallest triangulated st-digraph: s -> v -> t plus s -> t."""
    return _from_cycle(
        names=["s", "v", "t"],
        cycle=[0, 1, 2],
        heights=[0, 1, 2],
        chords=[],
    )


def rhombus() -> OTStDigraph:
    """Four vertices, two interior faces, median (s, t); not hamiltonian."""
    return _from_cycle(
        names=["s", "a", "t", "b"],
        cycle=[0, 1, 2, 3],
        heights=[0, 1, 3, 2],
        chords=[(0, 2)],
    )


def five_crossing_polygon() -> OTStDigraph:
    """Single maximal st-polygon on chains of 8 and 4 vertices whose two
    single-edge completions cost 5 crossings each.

    Left region: fan from s up to u4, then fan into t; right region: fan
    from v1.  Chords into t from u4..u7 and out of s to u2..u4 put both
    entry sides at 1 + 4 + 0 = 1 + 1 + 3 = 5.
    """
    names = ["s"] + [f"u{i}" for i in range(1, 9)] + [
        f"v{j}" for j in range(1, 5)
    ] + ["t"]
    # ids: s=0, u1..u8 = 1..8, v1..v4 = 9..12, t=13
    u = {i: i for i in range(1, 9)}
    v = {j: 8 + j for j in range(1, 5)}
    s, t = 0, 13
    cycle = [s, *(u[i] for i in range(1, 9)), t, *(v[j] for j in (4, 3, 2, 1))]
    heights = list(range(9)) + [9, 10, 11, 12] + [13]
    chords = [
        (s, u[2]),
        (s, u[3]),
        (s, u[4]),
        (u[4], t),
        (u[5], t),
        (u[6], t),
        (u[7], t),
        (s, t),
        (v[1], v[3]),
        (v[1], v[4]),
        (v[1], t),
    ]
    return _from_cycle(names=names, cycle=cycle, heights=heights, chords=chords)


def polygon_stack(count: int, validate: bool = True) -> OTStDigraph:
    """Chain of ``count`` stacked st-polygons, consecutive ones sharing a
    limiting edge; n = 2*count + 2 vertices."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = count
    names = ["s"] + [f"l{i}" for i in range(1, k + 1)] + [
        f"r{j}" for j in range(1, k + 1)
    ] + ["t"]
    s = 0
    t = 2 * k + 1
    l = {i: i for i in range(1, k + 1)}
    r = {j: k + j for j in range(1, k + 1)}
    cycle = [s, *(l[i] for i in range(1, k + 1)), t, *(r[j] for j in range(k, 0, -1))]
    heights = [0] * (2 * k + 2)
    for i in range(1, k + 1):
        heights[l[i]] = 2 * i - 1
        heights[r[i]] = 2 * i
    heights[t] = 2 * k + 1
    if k == 1:
        chords = [(s, t)]
    else:
        chords = [(s, l[2])]
        chords += [(r[i], l[i + 1]) for i in range(1, k)]
        chords += [(r[i], l[i + 2]) for i in range(1, k - 1)]
        chords += [(r[k - 1], t)]
    return _from_cycle(
        names=names, cycle=cycle, heights=heights, chords=chords, validate=validate
    )


# ---------------------------------------------------------------------------
# Record-level reference: costs, crossing lists and path construction on
# StPolygon records.  The exhaustive oracle builds its paths with these, and
# the tests check the kernel (core.polygon columns, core.build_path,
# core.hop_crossings) against them.


class _Builder:
    """Assembles the hamiltonian path as runs separated by completion hops.

    A run is a maximal stretch of real graph edges.  Keeping runs separate
    makes the limiting-edge junction rewrite an O(1) splice: it inserts
    one run before the final one and replaces the last completion hop.
    """

    def __init__(self) -> None:
        self.runs: list[list[VertexId]] = []
        self.hops: list[Optional[tuple[DirectedEdge, tuple[DirectedEdge, ...]]]] = []

    def glue(self, vertices: Sequence[VertexId]) -> None:
        if not vertices:
            return
        if not self.runs:
            self.runs.append(list(vertices))
        else:
            self.runs[-1].extend(vertices)

    def hop(
        self, ce: DirectedEdge, crossed: tuple[DirectedEdge, ...], run: Sequence[VertexId]
    ) -> None:
        if not self.runs or self.runs[-1][-1] != ce[0]:
            raise GraphError("internal", f"completion edge {ce} detached from path")
        self.hops.append((ce, crossed))
        self.runs.append(list(run))
        if run[0] != ce[1]:
            raise GraphError("internal", f"completion edge {ce} detached from path")

    def last(self) -> VertexId:
        return self.runs[-1][-1]

    def pop_last(self) -> VertexId:
        return self.runs[-1].pop()

    def last_hop(self) -> tuple[DirectedEdge, tuple[DirectedEdge, ...]]:
        if not self.hops or self.hops[-1] is None:
            raise GraphError("internal", "expected a completion hop at the junction")
        return self.hops[-1]

    def splice_before_last(
        self,
        run: Sequence[VertexId],
        merged: tuple[DirectedEdge, tuple[DirectedEdge, ...]],
    ) -> None:
        self.runs.insert(len(self.runs) - 1, list(run))
        self.hops[-1] = merged
        self.hops.insert(len(self.hops) - 1, None)

    def result(self) -> tuple[
        tuple[VertexId, ...],
        tuple[DirectedEdge, ...],
        tuple[tuple[DirectedEdge, ...], ...],
    ]:
        path: list[VertexId] = []
        for run in self.runs:
            path.extend(run)
        ces = tuple(h[0] for h in self.hops if h is not None)
        crossings = tuple(h[1] for h in self.hops if h is not None)
        return tuple(path), ces, crossings


def _polygon_runs(p: StPolygon, side: Side) -> tuple[list[VertexId], list[VertexId]]:
    """First and second run of the polygon's stand-alone path."""
    if side == "L":
        return [p.source, *p.right_chain], [*p.left_chain, p.sink]
    return [p.source, *p.left_chain], [*p.right_chain, p.sink]


def construct_path(
    d: Decomposition,
    costs: Sequence[Optional[PolygonCosts]],
    sides: Sequence[Optional[Side]],
) -> tuple[
    tuple[VertexId, ...],
    tuple[DirectedEdge, ...],
    tuple[tuple[DirectedEdge, ...], ...],
]:
    """Build the full path for one choice of entry side per polygon.

    Used with every side vector by the exhaustive oracle, and with the
    DP-optimal sides as the reference for :func:`hpccm.solver.reconstruct`.
    """
    b = _Builder()
    prev_side: Optional[Side] = None
    for i, el in enumerate(d.elements):
        if isinstance(el, FreeVertex):
            b.glue([el.vertex])
            prev_side = None
            continue
        p = el
        side = sides[i]
        if side not in ("L", "R"):
            raise GraphError("internal", f"missing side for polygon element {i}")
        ce = costs[i].edge_left if side == "L" else costs[i].edge_right
        crossed = crossed_edges(p, side)
        shared = d.shared[i - 1] if i > 0 else 0
        if shared <= 1:
            first, second = _polygon_runs(p, side)
            if shared == 1:
                if b.last() != p.source:
                    raise GraphError("internal", "shared source not at path end")
                first = first[1:]
            b.glue(first)
            b.hop(ce, crossed, second)
            prev_side = side
            continue
        # Junction over a shared limiting edge (source, t_prev): t_prev is
        # the previous polygon's sink and the first vertex of one of this
        # polygon's chains.
        t_prev = p.lower_limit[1]
        near_is_left = bool(p.left_chain) and p.left_chain[0] == t_prev
        near, far = (
            (p.left_chain, p.right_chain)
            if near_is_left
            else (p.right_chain, p.left_chain)
        )
        near_side: Side = "L" if near_is_left else "R"
        if side != near_side:
            # Continue up the shared sink's own chain; the far chain is
            # reached by this polygon's plain completion edge.
            if b.last() != t_prev:
                raise GraphError("internal", "junction vertex not at path end")
            b.glue(near[1:])
            b.hop(ce, crossed, [*far, p.sink])
        elif prev_side != near_side:
            # The previous path reached t_prev from the other chain, so its
            # last step was the limiting edge itself; reroute it through
            # the far chain.
            if b.pop_last() != t_prev or b.last() != p.source:
                raise GraphError("internal", "limiting edge not at path end")
            b.glue(far)
            b.hop(ce, crossed, [t_prev, *near[1:], p.sink])
        else:
            # Both entries on the shared side: merge this polygon's
            # completion edge with the previous one; the merged edge
            # additionally crosses the shared limiting edge.
            (old_ce, old_crossed) = b.last_hop()
            if old_ce[0] != p.source:
                raise GraphError("internal", "junction hop does not leave the source")
            merged_ce = (far[-1], old_ce[1])
            merged_crossed = crossed + (p.lower_limit,) + old_crossed
            b.splice_before_last(list(far), (merged_ce, merged_crossed))
            b.glue([*near[1:], p.sink])
        prev_side = side
    return b.result()


def polygon_costs(p: StPolygon) -> PolygonCosts:
    """Entry-side costs of one polygon solved in isolation."""
    cost_left = 1 + sum(p.sink_adj_right[:-1]) + sum(p.src_adj_left[1:])
    cost_right = 1 + sum(p.sink_adj_left[:-1]) + sum(p.src_adj_right[1:])
    return PolygonCosts(
        cost_left=cost_left,
        cost_right=cost_right,
        edge_left=(p.right_chain[-1], p.left_chain[0]),
        edge_right=(p.left_chain[-1], p.right_chain[0]),
    )


def crossed_edges(p: StPolygon, side: Side) -> tuple[DirectedEdge, ...]:
    """Graph edges crossed by the polygon's completion edge, ordered
    geometrically from its tail to its head.

    Walking from the tail, the edge first leaves the nested pockets formed
    by chords into the sink (nearest chord first), crosses the median, and
    then pierces the fan of chords out of the source (outermost first);
    within each group that is descending chain position.
    """
    if side == "L":
        walked, src_adj = p.right_chain, p.src_adj_left
        other, sink_adj = p.left_chain, p.sink_adj_right
    else:
        walked, src_adj = p.left_chain, p.src_adj_right
        other, sink_adj = p.right_chain, p.sink_adj_left
    out: list[DirectedEdge] = [
        (x, p.sink)
        for x, adj in zip(walked[-2::-1], sink_adj[-2::-1])
        if adj
    ]
    out.append(p.median)
    out.extend(
        (p.source, x)
        for x, adj in zip(other[:0:-1], src_adj[:0:-1])
        if adj
    )
    return tuple(out)
