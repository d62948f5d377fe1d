"""Crossing-minimal acyclic hamiltonian-path completion for OT-st-digraphs.

Within a single st-polygon the completion set is always one edge: the
path walks one chain fully, jumps across (crossing the median, the chords
hanging off the sink on the walked side and the chords off the source on
the other) and walks the other chain.  Entering the polygon's sink from
the right therefore costs

    1 + #{left-chain chords into the sink} + #{source chords into the
    right chain}

and symmetrically from the left.  Over the whole decomposition a dynamic
program picks one entry side per polygon: free vertices and polygons
sharing at most one vertex just concatenate, while two polygons sharing a
limiting edge interact -- continuing on the chain of the shared sink
merges two completion edges into one that additionally crosses the shared
limiting edge (the "+1" junction case).

Costs, DP and reconstruction all run on the columns of the decomposition's
layout (:mod:`hpccm.core`); the records these functions return are built
from the columns on first read.  Reconstruction replays the chosen sides,
splicing paths exactly as the cost recurrences assume, and reports per
completion edge the ordered list of graph edges it crosses.  The
record-level reference builders the tests compare against live in
:mod:`hpccm.oracle_gen`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .core import (
    NUMPY_MIN_N,
    Deferred,
    Layout,
    backtrack,
    build_path,
    dp_kinds,
    dp_np,
    dp_py,
    hop_crossings,
)
from .decomposition import Decomposition, decompose
from .graph_model import DirectedEdge, GraphError, OTStDigraph, VertexId

Side = str  # 'L' or 'R'


class PolygonCosts(NamedTuple):
    """Crossing counts for the two entry sides of one polygon.

    ``edge_left``/``edge_right`` are the completion edges realizing each
    side when the polygon is solved in isolation.
    """

    cost_left: int
    cost_right: int
    edge_left: DirectedEdge
    edge_right: DirectedEdge


@dataclass(frozen=True)
class DpTable(Deferred):
    """Per element, the minimum crossings with the last polygon entered
    from the left / right, and the predecessor side each came from.

    :func:`dp_solve` keeps its flat result in ``columns`` (cost_l, cost_r,
    back_l, back_r with 0 = L, 1 = R), with the ``layout`` it was computed
    on, and builds the tuples on first read.
    """

    cost_l: tuple[int, ...]
    cost_r: tuple[int, ...]
    back_l: tuple[Optional[Side], ...]
    back_r: tuple[Optional[Side], ...]
    columns: tuple = field(compare=False, repr=False)
    layout: Layout = field(compare=False, repr=False)

    def _last(self) -> tuple[int, int]:
        return int(self.columns[0][-1]), int(self.columns[1][-1])

    @property
    def minimum(self) -> int:
        return min(self._last())

    @property
    def final_side(self) -> Side:
        last_l, last_r = self._last()
        return "L" if last_l <= last_r else "R"


@dataclass(frozen=True)
class HpCompletionResult(Deferred):
    path: tuple[VertexId, ...]
    completion_edges: tuple[DirectedEdge, ...]
    crossings: tuple[tuple[DirectedEdge, ...], ...]
    total_crossings: int


class LayoutCosts(SequenceABC):
    """:func:`all_costs` of a decomposition: the costs stay in the
    layout's columns and the PolygonCosts records are made on first
    read."""

    __slots__ = ("layout", "_items")

    def __init__(self, layout: Layout):
        self.layout = layout
        self._items: Optional[tuple[Optional[PolygonCosts], ...]] = None

    def _all(self) -> tuple[Optional[PolygonCosts], ...]:
        if self._items is None:
            a = self.layout.arrays
            n, cyc = a.n, a.cyc
            col = self.layout.lists()
            names = ("poly", "lo_l", "hi_l", "lo_r", "hi_r", "cost_l", "cost_r")
            self._items = tuple(
                PolygonCosts(
                    cost_left=cl,
                    cost_right=cr,
                    edge_left=(cyc[n - hi_r], cyc[lo_l]),
                    edge_right=(cyc[hi_l], cyc[n - lo_r]),
                )
                if poly
                else None
                for poly, lo_l, hi_l, lo_r, hi_r, cl, cr in zip(*map(col.get, names))
            )
        return self._items

    def __len__(self) -> int:
        return len(self.layout)

    def __getitem__(self, i):
        return self._all()[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._all())


def all_costs(d: Decomposition) -> Sequence[Optional[PolygonCosts]]:
    """Per-element costs; None for free vertices (their cost is 0)."""
    return LayoutCosts(d.layout)


def _check_made_from(d: Decomposition, made: object, what: str) -> None:
    """Reject costs or a DP table computed from another decomposition."""
    if getattr(made, "layout", None) is not d.layout:
        raise GraphError(
            "foreign-input", f"{what} not computed from this decomposition"
        )


def dp_solve(
    d: Decomposition, costs: Sequence[Optional[PolygonCosts]]
) -> DpTable:
    """Minimum crossings per prefix and entry side, with backpointers.

    Free vertices and polygons sharing at most one vertex take the best
    predecessor side unconditionally; a polygon sharing a limiting edge
    pays one extra crossing when the path keeps entering on the side of
    the shared sink.  Ties prefer the left predecessor.  ``costs`` must be
    ``all_costs(d)``; costs of another decomposition raise
    ``foreign-input``.
    """
    layout = d.layout
    _check_made_from(d, costs, "costs")
    kinds = dp_kinds(layout)
    if layout.np is not None:
        cols = dp_np(layout.cost_l, layout.cost_r, kinds, layout.np)
    else:
        cols = dp_py(layout.cost_l, layout.cost_r, kinds)
    return _dp_table(cols, layout)


def _dp_table(cols, layout: Layout) -> DpTable:
    def fill() -> dict:
        cost_l, cost_r, back_l, back_r = (
            c if isinstance(c, list) else c.tolist() for c in cols
        )

        def sides(back: list[int]) -> tuple[Optional[Side], ...]:
            return (None, *("R" if b else "L" for b in back[1:])) if back else ()

        return {
            "cost_l": tuple(cost_l),
            "cost_r": tuple(cost_r),
            "back_l": sides(back_l),
            "back_r": sides(back_r),
        }

    return DpTable.deferred(fill, columns=cols, layout=layout)


def reconstruct(
    d: Decomposition,
    table: DpTable,
    costs: Optional[Sequence[Optional[PolygonCosts]]] = None,
) -> HpCompletionResult:
    """Walk the DP backpointers and build the optimal completion.

    ``table`` (and ``costs``, if given) must come from ``d``; those of
    another decomposition raise ``foreign-input``.  Sides, path, hops and
    each hop's crossed slot ranges are computed here, and the total is the
    sum of the range lengths; on large instances only the slicing of the
    ranges and the tuples wait for the first read.
    """
    layout = d.layout
    _check_made_from(d, table, "DP table")
    if costs is not None:
        _check_made_from(d, costs, "costs")
    np = layout.np
    cost_l, cost_r, back_l, back_r = table.columns
    if np is not None:
        back_l, back_r = back_l.tolist(), back_r.tolist()
    sides = backtrack(back_l, back_r, 0 if cost_l[-1] <= cost_r[-1] else 1)
    pc = build_path(layout, sides)
    total = int(pc.counts.sum()) if np is not None else sum(pc.counts)
    if total != table.minimum:
        raise GraphError(
            "internal",
            f"reconstructed {total} crossings, dynamic program found "
            f"{table.minimum}",
        )

    def fill() -> dict:
        cyc = layout.arrays.cyc
        if np is not None:
            ids = np.frombuffer(cyc, dtype=np.intc)
            path = ids[pc.path].tolist()
            tails, heads = ids[pc.tails].tolist(), ids[pc.heads].tolist()
        else:
            path = list(map(cyc.__getitem__, pc.path))
            tails = list(map(cyc.__getitem__, pc.tails))
            heads = list(map(cyc.__getitem__, pc.heads))
        crossings = tuple(
            tuple((cyc[x], cyc[y]) for x, y in lst)
            for lst in hop_crossings(layout, sides, pc)
        )
        return {
            "path": tuple(path),
            "completion_edges": tuple(zip(tails, heads)),
            "crossings": crossings,
        }

    if layout.arrays.n < NUMPY_MIN_N:
        # Callers read small results whole at once: deferring would only
        # move the work.
        return HpCompletionResult(total_crossings=total, **fill())
    return HpCompletionResult.deferred(fill, total_crossings=total)


def solve(g: OTStDigraph, check: bool = True) -> HpCompletionResult:
    """Decompose, run the DP and reconstruct; optionally self-verify."""
    d = decompose(g)
    costs = all_costs(d)
    table = dp_solve(d, costs)
    result = reconstruct(d, table, costs)
    if check:
        violations = verify_solution(g, result)
        if violations:
            raise GraphError(
                "internal", "solver produced an invalid result: " + violations[0]
            )
    return result


# ---------------------------------------------------------------------------
# Verification


def interleaves(
    cyc: Sequence[int], n: int, ce: DirectedEdge, e: DirectedEdge
) -> bool:
    """Whether edge ``e`` must cross a curve joining ``ce``'s endpoints,
    i.e. their endpoints alternate around the outer boundary cycle."""
    a, b = ce
    x, y = e
    if x == a or x == b or y == a or y == b:
        return False
    qa = cyc[a]
    rb = (cyc[b] - qa) % n
    return ((cyc[x] - qa) % n < rb) != ((cyc[y] - qa) % n < rb)


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
    for (u, v) in base.edges:
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
