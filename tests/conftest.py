"""Shared fixtures: canned instances, a random corpus, brute-force checkers."""

from __future__ import annotations

import time

import pytest

from hpccm import (
    EmbeddedDigraph,
    GenProfile,
    OTStDigraph,
    StPolygon,
    classify_ot,
    decompose,
    exhaustive_min_crossings,
    five_crossing_polygon,
    polygon_stack,
    random_ot,
    rhombus,
    solve,
    triangle,
    validate_embedded,
)
from hpccm.oracle_gen import _from_cycle
from hpccm.solver import interleaves


@pytest.fixture(scope="session")
def tri() -> OTStDigraph:
    return triangle()


@pytest.fixture(scope="session")
def rh() -> OTStDigraph:
    return rhombus()


@pytest.fixture(scope="session")
def f9() -> OTStDigraph:
    return five_crossing_polygon()


@pytest.fixture(scope="session")
def stack3() -> OTStDigraph:
    return polygon_stack(3)


def make_pfp() -> OTStDigraph:
    """Two rhombus-like polygons with one free vertex strictly between:
    decomposes as polygon, free vertex, polygon with no shared vertices."""
    names = ["s", "l1", "l2", "l3", "l4", "r1", "r2", "r3", "t"]
    ids = {n: i for i, n in enumerate(names)}
    cycle = [ids[x] for x in ("s", "l1", "l2", "l3", "l4", "t", "r3", "r2", "r1")]
    h = {"s": 0, "l1": 1, "r1": 2, "l2": 3, "r2": 4, "l3": 5, "r3": 6, "l4": 7, "t": 8}
    heights = [h[n] for n in names]
    chords = [
        (ids[a], ids[b])
        for a, b in [
            ("s", "l2"),
            ("r1", "l2"),
            ("l2", "r2"),
            ("r2", "l3"),
            ("l3", "r3"),
            ("l3", "t"),
        ]
    ]
    return _from_cycle(names=names, cycle=cycle, heights=heights, chords=chords)


@pytest.fixture(scope="session")
def pfp() -> OTStDigraph:
    return make_pfp()


def fan_polygon() -> OTStDigraph:
    """Single polygon, left chain of 3 all adjacent to the sink, right
    chain of 1: entering the sink from the right costs 1 + 2 + 0."""
    names = ["s", "l1", "l2", "l3", "t", "r1"]
    ids = {n: i for i, n in enumerate(names)}
    cycle = [ids[x] for x in ("s", "l1", "l2", "l3", "t", "r1")]
    heights = [0, 1, 2, 3, 5, 4]
    chords = [(ids[a], ids[b]) for a, b in [("s", "t"), ("l1", "t"), ("l2", "t")]]
    return _from_cycle(names=names, cycle=cycle, heights=heights, chords=chords)


def corpus_profiles(count: int = 160) -> list[GenProfile]:
    out = []
    for seed in range(count):
        out.append(
            GenProfile(
                n_left=1 + seed % 7,
                n_right=1 + (seed // 7) % 6,
                polygon_bias=(seed % 5) / 4,
                seed=seed,
            )
        )
    return out


@pytest.fixture(scope="session")
def corpus() -> list[OTStDigraph]:
    return [random_ot(p) for p in corpus_profiles()]


@pytest.fixture(scope="session")
def oracle_corpus():
    """At least 500 seeded random instances with n <= 40 and at most 12
    polygons, solved and compared against the enumeration oracle."""
    instances = []
    records = []
    seed = 0
    t0 = time.perf_counter()
    while len(records) < 500:
        k = 1 + seed % 19
        m = 1 + (3 * seed // 7) % 19
        prof = GenProfile(
            n_left=k, n_right=m, polygon_bias=(seed % 11) / 10, seed=seed
        )
        seed += 1
        ot = random_ot(prof)
        d = decompose(ot)
        if d.polygon_count > 12:
            continue
        result = solve(ot)
        oracle = exhaustive_min_crossings(ot)
        instances.append(ot)
        records.append((ot, d, result, oracle))
    elapsed = time.perf_counter() - t0
    return records, elapsed


@pytest.fixture(scope="session")
def kernel_corpus(oracle_corpus) -> list[OTStDigraph]:
    """The oracle corpus plus polygon_stack(k) for k <= 8 and a rhombus-free
    chain (all vertices on one boundary chain)."""
    records, _ = oracle_corpus
    return [
        *(ot for ot, *_ in records),
        *(polygon_stack(k) for k in range(1, 9)),
        random_ot(GenProfile(n_left=0, n_right=30, polygon_bias=0.5, seed=7)),
    ]


# ---------------------------------------------------------------------------
# Brute-force checkers, independent of the library's algorithms


def brute_is_median(g: OTStDigraph, e) -> bool:
    """Definition-level search: some st-polygon subgraph has median ``e``,
    equivalently the five-edge rhombus pattern u->a->v, u->b->v, u->v
    exists with distinct apexes."""
    u, v = e
    edges = g.base.edges
    apexes = [
        w
        for w in range(g.base.n)
        if w not in (u, v) and (u, w) in edges and (w, v) in edges
    ]
    return len(apexes) >= 2


def all_polygons_with_median(g: OTStDigraph, e) -> list[tuple]:
    """Every vertex-range choice that forms a valid st-polygon subgraph
    with median ``e``; used to check maximality by enumeration."""
    u, v = e
    base = g.base
    edges = base.edges
    n, k, m = base.n, len(g.left), len(g.right)
    # Cycle position p is left-chain vertex p for 1 <= p <= k and
    # right-chain vertex n - p for p > k + 1.
    pu, pv = g.cycle_pos[u], g.cycle_pos[v]

    def span_options(chain, lo_min, hi_max):
        for lo in range(lo_min, hi_max + 1):
            for hi in range(lo, hi_max + 1):
                yield chain[lo - 1 : hi]

    lo_l = pu + 1 if 0 < pu <= k else 1
    lo_r = n - pu + 1 if pu > k + 1 else 1
    hi_l = pv - 1 if 0 < pv <= k else k
    hi_r = n - pv - 1 if pv > k + 1 else m
    found = []
    for left in span_options(g.left, lo_l, hi_l):
        for right in span_options(g.right, lo_r, hi_r):
            if not left or not right:
                continue
            lpath = [u, *left, v]
            rpath = [u, *right, v]
            if all((a, b) in edges for a, b in zip(lpath, lpath[1:])) and all(
                (a, b) in edges for a, b in zip(rpath, rpath[1:])
            ):
                found.append((left, right))
    return found


def all_topo_orders(g: EmbeddedDigraph):
    n = g.n
    indeg = [0] * n
    for (_, v) in g.edges:
        indeg[v] += 1
    order: list[int] = []
    placed = [False] * n

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for v in range(n):
            if indeg[v] == 0 and not placed[v]:
                placed[v] = True
                order.append(v)
                for w in g.out_neighbors[v]:
                    indeg[w] -= 1
                yield from rec()
                for w in g.out_neighbors[v]:
                    indeg[w] += 1
                order.pop()
                placed[v] = False

    yield from rec()


def permutation_oracle(ot: OTStDigraph):
    """Minimum crossings over ALL acyclic completions with at most one
    crossing per edge, by enumerating every topological order.

    Completely independent of the solver's structure: forced crossings
    are boundary interleavings; orders whose completion chords interleave
    each other (a forced cycle) or double-cross some edge are infeasible.
    """
    g = ot.base
    n = g.n
    cyc = ot.cycle_pos
    edges = sorted(g.edges)
    best = None
    for pi in all_topo_orders(g):
        ces = [(a, b) for a, b in zip(pi, pi[1:]) if (a, b) not in g.edges]
        if any(
            interleaves(cyc, n, ces[i], ces[j])
            for i in range(len(ces))
            for j in range(i + 1, len(ces))
        ):
            continue
        total = 0
        crossed: dict = {}
        for ce in ces:
            for e in edges:
                if interleaves(cyc, n, ce, e):
                    total += 1
                    crossed[e] = crossed.get(e, 0) + 1
        if any(c > 1 for c in crossed.values()):
            continue
        if best is None or total < best:
            best = total
    return best


def polygon_subgraph(ot: OTStDigraph, p: StPolygon) -> OTStDigraph:
    """Induced sub-digraph of one polygon, re-embedded as its own
    OT-st-digraph (the source's rotation array rotated to start at the
    polygon's own leftmost edge, per the format convention)."""
    verts = sorted(set(p.vertices()))
    new_id = {v: i for i, v in enumerate(verts)}
    keep = set(verts)
    base = ot.base
    names = tuple(base.names[v] for v in verts)
    edges = frozenset(
        (new_id[u], new_id[v])
        for (u, v) in base.edges
        if u in keep and v in keep
    )
    rotation = []
    for v in verts:
        row = [w for w in base.rotation[v] if w in keep]
        if v == p.source:
            i = row.index(p.left_chain[0])
            row = row[i:] + row[:i]
        rotation.append(tuple(new_id[w] for w in row))
    g = EmbeddedDigraph(
        names=names,
        s=new_id[p.source],
        t=new_id[p.sink],
        edges=edges,
        rotation=tuple(rotation),
    )
    validate_embedded(g)
    return classify_ot(g)
