"""The pairwise checkers, kept as test oracles for the library's verifiers.

``verify_solution`` compares each completion edge against every graph
edge (O(completion edges x m)) and ``validate_embedding`` compares every
pair of page arcs (O(m^2)), placing crossings at exact ``Fraction``
spine positions.  They check the same contracts as
:func:`hpccm.verify_solution` and :func:`hpccm.validate_embedding`, which
count and scan instead, and the tests require both versions to accept
and reject the same inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hpccm.book_embedding import BookEmbedding, PageArc
from hpccm.graph_model import DirectedEdge, EmbeddedDigraph, OTStDigraph
from hpccm.solver import HpCompletionResult, interleaves


def _crossing_sort_key(cyc: Sequence[int], n: int, ce: DirectedEdge):
    a, b = ce
    qa = cyc[a]
    rb = (cyc[b] - qa) % n

    def key(e: DirectedEdge) -> tuple[int, int]:
        rx = (cyc[e[0]] - qa) % n
        ry = (cyc[e[1]] - qa) % n
        if rx > ry:
            rx, ry = ry, rx
        # Separation order: forward-arc endpoint outward from the tail,
        # then backward-arc endpoint outward from the tail.
        return (rx, n - ry)

    return key


def verify_solution(g: OTStDigraph, r: HpCompletionResult) -> list[str]:
    """Check a completion result against the problem contract.

    Empty iff: the path is a hamiltonian s->t path whose non-edges are
    exactly the completion edges; every graph edge runs forward along the
    path (the crossing-extended digraph is then acyclic); every crossing
    list matches exactly the graph edges forced to cross its completion
    edge, in geometric order; and no graph edge is crossed twice.
    Violations are returned as messages, not raised.
    """
    base = g.base
    out: list[str] = []
    n = base.n
    path = r.path
    if len(path) != n or set(path) != set(range(n)):
        out.append("path is not a permutation of the vertices")
        return out
    if path[0] != base.s or path[-1] != base.t:
        out.append("path does not run from the source to the sink")
    rank = [0] * n
    for i, v in enumerate(path):
        rank[v] = i
    expected_completion = tuple(
        (a, b) for a, b in zip(path, path[1:]) if (a, b) not in base.edges
    )
    if tuple(r.completion_edges) != expected_completion:
        out.append(
            "completion edges are not exactly the consecutive path "
            "pairs missing from the graph"
        )
        return out
    if len(r.crossings) != len(r.completion_edges):
        out.append("crossing lists do not match completion edges")
        return out
    for (u, v) in sorted(base.edges):
        if rank[u] >= rank[v]:
            out.append(
                f"edge {base.name_edge((u, v))} runs backwards along the path"
            )
    if r.total_crossings != sum(len(c) for c in r.crossings):
        out.append("total_crossings does not equal the sum of list lengths")
    cyc = g.cycle_pos
    seen: dict[DirectedEdge, DirectedEdge] = {}
    for ce, lst in zip(r.completion_edges, r.crossings):
        forced = {
            e for e in base.edges if interleaves(cyc, n, ce, e)
        }
        if set(lst) != forced:
            missing = forced - set(lst)
            extra = set(lst) - forced
            out.append(
                f"completion edge {base.name_edge(ce)} crossing set mismatch"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; extra {sorted(extra)}" if extra else "")
            )
            continue
        if len(set(lst)) != len(lst):
            out.append(
                f"completion edge {base.name_edge(ce)} crosses an edge twice"
            )
        key = _crossing_sort_key(cyc, n, ce)
        if list(lst) != sorted(lst, key=key):
            out.append(
                f"completion edge {base.name_edge(ce)} crossings out of "
                f"geometric order"
            )
        for e in lst:
            x, y = e
            if not (rank[x] < rank[ce[0]] and rank[y] > rank[ce[1]]):
                out.append(
                    f"crossing of {base.name_edge(e)} with "
                    f"{base.name_edge(ce)} would create a cycle"
                )
            if e in seen:
                out.append(
                    f"edge {base.name_edge(e)} crossed by two completion edges"
                )
            seen[e] = ce
    return out


def _segments(
    b: BookEmbedding, rank: list[int]
) -> list[tuple[str, Fraction, Fraction, DirectedEdge]]:
    """Per-page arcs as (page, lo, hi, edge); split halves meet at their
    crossing's exact spine position."""
    per_gap: dict[int, int] = {}
    for c in b.crossings:
        per_gap[c.gap] = max(per_gap.get(c.gap, -1), c.rank_in_gap)
    segs = []
    for e, placement in b.assignment.items():
        lo, hi = Fraction(rank[e[0]]), Fraction(rank[e[1]])
        if isinstance(placement, PageArc):
            segs.append((placement.page, lo, hi, e))
        else:
            c = placement.crossing
            at = c.gap + Fraction(c.rank_in_gap + 1, per_gap[c.gap] + 2)
            segs.append((placement.lower_page, lo, at, e))
            segs.append((placement.upper_page, at, hi, e))
    return segs


def validate_embedding(g: EmbeddedDigraph, b: BookEmbedding) -> list[str]:
    """All violations of the book-embedding contract (empty iff valid).

    Checks: the spine is a topological order covering every vertex, the
    assignment covers exactly the edge set, split halves use opposite
    pages and cross strictly between their endpoints, crossings sit only
    in gaps whose spine pair is not an edge, ranks within a gap are
    0..k-1, and no two same-page arcs interleave.
    """
    out: list[str] = []
    n = g.n
    if sorted(b.spine) != list(range(n)):
        return ["spine is not a permutation of the vertices"]
    rank = [0] * n
    for i, v in enumerate(b.spine):
        rank[v] = i
    if set(b.assignment) != set(g.edges):
        return ["assignment does not cover exactly the edge set"]
    for (x, y) in sorted(g.edges):
        if rank[x] >= rank[y]:
            out.append(f"edge {g.name_edge((x, y))} is not upward on the spine")
    split_crossings = []
    for e, placement in b.assignment.items():
        if isinstance(placement, PageArc):
            if placement.page not in ("L", "R"):
                out.append(f"edge {g.name_edge(e)} has page {placement.page!r}")
            continue
        c = placement.crossing
        if placement.lower_page == placement.upper_page:
            out.append(f"split edge {g.name_edge(e)} uses a single page")
        if c.edge != e:
            out.append(f"split edge {g.name_edge(e)} carries a foreign crossing")
        if not (rank[e[0]] <= c.gap < rank[e[1]]):
            out.append(
                f"crossing of {g.name_edge(e)} at gap {c.gap} is outside "
                f"its spine span"
            )
        split_crossings.append(c)
    if sorted(split_crossings, key=lambda c: (c.gap, c.rank_in_gap)) != list(
        b.crossings
    ):
        out.append("crossings list does not match the split assignments")
    by_gap: dict[int, list[int]] = {}
    for c in b.crossings:
        by_gap.setdefault(c.gap, []).append(c.rank_in_gap)
    for gap, ranks in sorted(by_gap.items()):
        if sorted(ranks) != list(range(len(ranks))):
            out.append(f"gap {gap} ranks are not 0..{len(ranks) - 1}")
        if gap + 1 < n and (b.spine[gap], b.spine[gap + 1]) in g.edges:
            out.append(
                f"gap {gap} carries crossings although its spine pair is "
                f"an edge"
            )
    if out:
        return out
    segs = _segments(b, rank)
    for i in range(len(segs)):
        pi, ai, bi, ei = segs[i]
        for j in range(i + 1, len(segs)):
            pj, aj, bj, ej = segs[j]
            if pi != pj or ei == ej:
                continue
            if (ai < aj < bi < bj) or (aj < ai < bj < bi):
                out.append(
                    f"arcs of {g.name_edge(ei)} and {g.name_edge(ej)} "
                    f"interleave on page {pi}"
                )
    return out
