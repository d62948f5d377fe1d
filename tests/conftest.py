"""Shared fixtures: canned instances, a random corpus, brute-force checkers."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import count, islice
from typing import Iterator

import pytest

from hpccm import (
    Decomposition,
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
from hpccm import oracle_gen
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
    return oracle_gen._from_cycle(
        names=names, cycle=cycle, heights=heights, chords=chords
    )


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
    return oracle_gen._from_cycle(
        names=names, cycle=cycle, heights=heights, chords=chords
    )


def wide_crossing_polygon(left: int, apex: int, right: int) -> OTStDigraph:
    """``five_crossing_polygon`` scaled: one polygon on chains u1..u<left>
    and v1..v<right>, chords out of s to u2..u<apex> and into t from
    u<apex>..u<left - 1>, the median (s, t) and a fan out of v1.  Entering
    from the left costs 1 + (left - apex) crossings, from the right
    2 + (apex - 1); (8, 4, 4) is ``five_crossing_polygon`` itself."""
    names = ["s", *(f"u{i}" for i in range(1, left + 1))]
    names += [*(f"v{j}" for j in range(1, right + 1)), "t"]
    n = len(names)
    s, t, v1 = 0, n - 1, left + 1
    cycle = [*range(left + 1), t, *range(left + right, left, -1)]
    chords = [(s, i) for i in range(2, apex + 1)] + [(i, t) for i in range(apex, left)]
    chords += [(s, t), *((v1, j) for j in range(v1 + 2, t)), (v1, t)]
    return oracle_gen._from_cycle(
        names=names, cycle=cycle, heights=list(range(n)), chords=chords
    )


def odd_names(n: int) -> tuple[str, ...]:
    """``n`` distinct names that the byte reader declines or that test its
    widths, in turn: one character (1 byte while n < 378), a quote, a
    backslash, non-ASCII, exactly 8 bytes, and more than 8 bytes."""
    kinds = (
        lambda i: chr(0x41 + i // 6),
        lambda i: f'"{i}',
        lambda i: f"\\{i}",
        lambda i: f"é☃{i}",
        lambda i: f"{i:08d}",
        lambda i: f"longer-than-8-{i}",
    )
    return tuple(kinds[i % 6](i) for i in range(n))


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


def oracle_draws() -> Iterator[tuple[GenProfile, OTStDigraph, Decomposition]]:
    """The oracle corpus's draws in order, each with its instance and
    decomposition: sizes and biases cycle, seeds count up, and draws of
    more than 12 polygons are skipped."""
    for seed in count():
        k = 1 + seed % 19
        m = 1 + (3 * seed // 7) % 19
        prof = GenProfile(
            n_left=k, n_right=m, polygon_bias=(seed % 11) / 10, seed=seed
        )
        ot = random_ot(prof)
        d = decompose(ot)
        if d.polygon_count <= 12:
            yield prof, ot, d


@pytest.fixture(scope="session")
def oracle_draw_list():
    """The first 500 oracle draws, made once, and the seconds they took."""
    t0 = time.perf_counter()
    draws = list(islice(oracle_draws(), 500))
    return draws, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_corpus(oracle_draw_list):
    """At least 500 seeded random instances with n <= 40 and at most 12
    polygons, solved and compared against the enumeration oracle; the
    elapsed time counts the draws too."""
    draws, elapsed = oracle_draw_list
    records = []
    t0 = time.perf_counter()
    for _, ot, d in draws:
        result = solve(ot)
        oracle = exhaustive_min_crossings(ot)
        records.append((ot, d, result, oracle))
    elapsed += time.perf_counter() - t0
    return records, elapsed


CHAIN_PROFILE = GenProfile(n_left=0, n_right=30, polygon_bias=0.5, seed=7)


@pytest.fixture(scope="session")
def kernel_corpus(oracle_corpus) -> list[OTStDigraph]:
    """The oracle corpus plus polygon_stack(k) for k <= 8 and a rhombus-free
    chain (all vertices on one boundary chain)."""
    records, _ = oracle_corpus
    return [
        *(ot for ot, *_ in records),
        *(polygon_stack(k) for k in range(1, 9)),
        random_ot(CHAIN_PROFILE),
    ]


@pytest.fixture(scope="session")
def kernel_profiles(oracle_draw_list) -> list[GenProfile]:
    """The profiles of the kernel corpus's random_ot draws."""
    draws, _ = oracle_draw_list
    return [prof for prof, *_ in draws] + [CHAIN_PROFILE]


def thinned(g: EmbeddedDigraph, deletions: int, seed: int) -> EmbeddedDigraph:
    """``g``, a valid st-digraph, with up to ``deletions`` interior edges
    (u, v) deleted, drawn by ``seed``, each only while u keeps another
    out-edge and v another in-edge: faces of four and more slots appear,
    and the graph stays a valid st-digraph with the same outer face."""
    nbr, twin = g.nbr, g.twin
    outer = {(nbr[twin[i]], nbr[i]) for i in g.outer}
    inner = [(u, v) for u, v in g.pairs() if (u, v) not in outer and (v, u) not in outer]
    outdeg = Counter(u for u, _ in g.pairs())
    indeg = Counter(v for _, v in g.pairs())
    gone = set()
    for u, v in random.Random(seed).sample(inner, len(inner)):
        if len(gone) < deletions and outdeg[u] > 1 and indeg[v] > 1:
            gone.add((u, v))
            outdeg[u] -= 1
            indeg[v] -= 1
    rows = (
        [w for w in nbr[g.off[v] : g.off[v + 1]] if (v, w) not in gone and (w, v) not in gone]
        for v in range(g.n)
    )
    edges = [e for e in g.pairs() if e not in gone]
    return EmbeddedDigraph.from_rows(g.names, g.s, g.t, edges, rows)


# ---------------------------------------------------------------------------
# Brute-force checkers, independent of the library's algorithms


def check_key_column(g, edges):
    """``g``'s key column is ``edges`` (a set of id pairs) as ascending
    keys u * n + v, and ``g.edges`` is that set."""
    keys = g.keys
    assert keys.typecode == "q" and g.m == len(keys) == len(edges)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert list(keys) == sorted(u * g.n + v for u, v in edges)
    assert g.edges == edges and list(g.pairs()) == sorted(edges)
    assert hash(g.edges) == hash(frozenset(edges)) and g.edges | set() == edges


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


def out_neighbors(g: EmbeddedDigraph) -> list[list[int]]:
    """Each vertex's out-neighbours, in rotation order."""
    return [
        [w for w in g.nbr[g.off[v] : g.off[v + 1]] if (v, w) in g.edges]
        for v in range(g.n)
    ]


def all_topo_orders(g: EmbeddedDigraph):
    n = g.n
    outs = out_neighbors(g)
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
                for w in outs[v]:
                    indeg[w] -= 1
                yield from rec()
                for w in outs[v]:
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
    rows = []
    for v in verts:
        row = [w for w in base.nbr[base.off[v] : base.off[v + 1]] if w in keep]
        if v == p.source:
            i = row.index(p.left_chain[0])
            row = row[i:] + row[:i]
        rows.append([new_id[w] for w in row])
    g = EmbeddedDigraph.from_rows(names, new_id[p.source], new_id[p.sink], edges, rows)
    validate_embedded(g)
    return classify_ot(g)
