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

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import index, lt, sub
from typing import NamedTuple, Optional, Sequence

from .core import (
    Deferred,
    Layout,
    backtrack,
    build_path,
    crossing_columns,
    dp_kinds,
    dp_np,
    dp_py,
)
from .decomposition import Decomposition, decompose
from .graph_model import (
    DirectedEdge,
    GraphError,
    OtArrays,
    OTStDigraph,
    VertexId,
    backend,
)

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


@dataclass(frozen=True, eq=False)
class ResultColumns(Deferred):
    """A completion in the boundary-cycle positions of ``cyc`` (position ->
    vertex id): the path, completion edge i from ``tails[i]`` to
    ``heads[i]``, and the edges (xs[j], ys[j]) it crosses for j in
    ``starts[i]..starts[i + 1] - 1``.  Lists, or numpy arrays when the
    solver made them with numpy; -1 stands for an entry that names no
    vertex."""

    cyc: array
    path: Sequence[int]
    tails: Sequence[int]
    heads: Sequence[int]
    starts: Sequence[int]
    xs: Sequence[int]
    ys: Sequence[int]

    def lists(self) -> tuple[list[int], ...]:
        """``path``, ``tails``, ``heads``, ``starts``, ``xs`` and ``ys`` as
        lists of ints."""
        cols = (self.path, self.tails, self.heads, self.starts, self.xs, self.ys)
        return tuple(col if isinstance(col, list) else col.tolist() for col in cols)


@dataclass(frozen=True)
class HpCompletionResult(Deferred):
    """A completion: the hamiltonian path, its completion edges (the path
    steps that are no edges) and per completion edge the graph edges it
    crosses, in order from its tail.

    ``columns`` holds the same in positions (see :func:`result_columns`):
    a result :func:`reconstruct` makes keeps the columns it was made from
    and builds its tuples from them on first read.
    """

    path: tuple[VertexId, ...]
    completion_edges: tuple[DirectedEdge, ...]
    crossings: tuple[tuple[DirectedEdge, ...], ...]
    total_crossings: int
    columns: Optional[ResultColumns] = field(
        default=None, init=False, compare=False, repr=False
    )


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
    sum of the range lengths; the result's tuples, and with numpy its
    crossing columns, wait for the first read.
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
    given = dict(cyc=layout.arrays.cyc, path=pc.path, tails=pc.tails, heads=pc.heads)

    def crossings() -> dict:
        return dict(zip(("starts", "xs", "ys"), crossing_columns(layout, sides, pc)))

    if np is None:
        # Every reader of a result needs its crossings, and without numpy
        # the instance is small: deferring them would only move the work.
        cols = ResultColumns(**given, **crossings())
    else:
        cols = ResultColumns.deferred(crossings, **given)
    return HpCompletionResult.deferred(
        lambda: _records(cols), total_crossings=total, columns=cols
    )


def _records(c: ResultColumns) -> dict:
    """The tuples of a result, in vertex ids, from its columns."""
    path, tails, heads, starts, xs, ys = c.lists()
    path, tails, heads, xs, ys = (
        list(map(c.cyc.__getitem__, col)) for col in (path, tails, heads, xs, ys)
    )
    crossed = list(zip(xs, ys))
    return {
        "path": tuple(path),
        "completion_edges": tuple(zip(tails, heads)),
        "crossings": tuple(
            tuple(crossed[i:j]) for i, j in zip(starts, starts[1:])
        ),
    }


def result_columns(g: OTStDigraph, r: HpCompletionResult) -> ResultColumns:
    """``r`` in the boundary-cycle positions of ``g``: the columns the
    solver made ``r`` from, or else its tuples converted once and kept
    with it.  An entry that is no pair of vertex ids converts to (-1, -1),
    and a vertex that is no id to -1."""
    cyc = g.arrays.cyc
    c = r.columns
    if c is not None and (c.cyc is cyc or c.cyc == cyc):
        return c
    n, pos = g.n, g.cycle_pos

    def at(v) -> int:
        try:
            v = index(v)
        except TypeError:
            return -1
        return pos[v] if 0 <= v < n else -1

    def pair(e) -> tuple[int, int]:
        ok = isinstance(e, tuple) and len(e) == 2
        return (at(e[0]), at(e[1])) if ok else (-1, -1)

    ces = list(map(pair, r.completion_edges))
    lists = [list(map(pair, lst)) for lst in r.crossings]
    crossed = list(chain.from_iterable(lists))
    c = ResultColumns(
        cyc=cyc,
        path=list(map(at, r.path)),
        tails=[a for a, _ in ces],
        heads=[b for _, b in ces],
        starts=list(accumulate(map(len, lists), initial=0)),
        xs=[x for x, _ in crossed],
        ys=[y for _, y in crossed],
    )
    if r.columns is None:
        r.__dict__["columns"] = c
    return c


def solve(g: OTStDigraph, check: bool = True) -> HpCompletionResult:
    """Crossing-minimal acyclic hamiltonian path completion of ``g``.

    The minimum is over the acyclic completions in which no edge of ``g``
    is crossed twice (the paper's "at most one crossing per edge").  A
    completion that crosses some edge twice can have fewer crossings; it
    is not a candidate.  Decomposes, runs the DP and reconstructs; with
    ``check`` the answer goes through :func:`verify_solution`.
    """
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


def verify_solution(g: OTStDigraph, r: HpCompletionResult) -> list[str]:
    """Check a completion result against the problem contract.

    Empty iff: the path is a hamiltonian s->t path whose non-edges are
    exactly the completion edges; every graph edge runs forward along the
    path (the crossing-extended digraph is then acyclic); every crossing
    list matches exactly the graph edges forced to cross its completion
    edge, in geometric order; and no graph edge is crossed twice.
    Violations are returned as messages, not raised.  It does not check
    minimality: the minimum :func:`solve` finds is over the completions
    that cross no graph edge twice, and this is the contract a result
    must meet.

    Runs on the result's position columns (:func:`result_columns`), with
    numpy from ``NUMPY_MIN_N`` vertices on.  The edges forced to cross
    (a, b) join the open boundary arc from a to b to the rest of the cycle;
    they are counted on bracket depths (:func:`_forced_counts`), and a
    list holds them when it has as many distinct entries, each an edge
    that interleaves (a, b).  One pure body, :func:`_list_faults`, checks
    the lists and names what fails; with numpy, :func:`_lists_ok_np`
    checks them and the pure body runs only when a list fails.  Message
    text is built only for a list that fails.  A result that passed
    against ``g`` is not checked again.  O(m log m).
    """
    if r.__dict__.get("_verified") is g:
        return []
    base, n = g.base, g.base.n
    c = result_columns(g, r)
    np = backend(n)
    if np is None:
        cols = c.lists()
        path, tails, heads, starts, _, _ = cols
        claimed = tails, heads
    else:
        cols = path, tails, heads, starts, _, _ = tuple(
            np.asarray(col, dtype=np.int64)
            for col in (c.path, c.tails, c.heads, c.starts, c.xs, c.ys)
        )
        claimed = tails.tolist(), heads.tolist()
    rank = _path_ranks(np, path, n)
    if rank is None:
        return ["path is not a permutation of the vertices"]
    out: list[str] = []
    if path[0] != 0 or path[-1] != g.arrays.k + 1:
        out.append("path does not run from the source to the sink")
    if _missing_steps(np, g, path) != claimed:
        out.append(
            "completion edges are not exactly the consecutive path "
            "pairs missing from the graph"
        )
        return out
    if len(starts) != len(tails) + 1:
        out.append("crossing lists do not match completion edges")
        return out
    back = _backward(np, g, rank)
    out += [
        f"edge {base.name_edge(divmod(k, n))} runs backwards along the path"
        for k in back
    ]
    if r.total_crossings != starts[-1]:
        out.append("total_crossings does not equal the sum of list lengths")
    # A completion edge (a, b) whose reverse is an edge makes that edge run
    # backwards: the backward edges hold every edge joining its ends.
    forced = _forced_counts(np, g.arrays, tails, heads, back)
    if np is None:
        out += _list_faults(g, r, cols, rank, forced)
    elif not _lists_ok_np(np, g, cols, rank, forced):
        wrong = _list_faults(g, r, c.lists(), rank.tolist(), forced.tolist())
        if not wrong:
            raise GraphError(
                "internal", "the column check rejects a crossing list no message names"
            )
        out += wrong
    if not out:
        r.__dict__["_verified"] = g  # both are immutable
    return out


def _path_ranks(np, path, n: int):
    """Rank along ``path`` per position, or None unless ``path`` is a
    permutation of the positions."""
    if len(path) != n:
        return None
    if np is None:
        if set(path) != set(range(n)):
            return None
        rank = [0] * n
        for i, p in enumerate(path):
            rank[p] = i
        return rank
    if path.min() < 0 or path.max() >= n:
        return None
    rank = np.full(n, -1, dtype=np.int64)
    rank[path] = np.arange(n)
    return None if (rank < 0).any() else rank


def _missing_steps(np, g: OTStDigraph, path) -> tuple[list[int], list[int]]:
    """Tails and heads of the path steps that are no edges, looked up in
    the sorted edge keys.  Without numpy, a step along the boundary cycle
    in its direction (from s up the left chain, or down the right one) is
    an edge without a lookup."""
    a, keys = g.arrays, g.base.keys
    n, k, cyc = a.n, a.k, a.cyc
    if np is not None:
        ids = np.frombuffer(cyc, dtype=np.intc).astype(np.int64)
        step = ids[path[:-1]] * n + ids[path[1:]]
        keys = np.frombuffer(keys, dtype=np.int64)
        at = np.searchsorted(keys, step, side="right") - 1
        gaps = np.flatnonzero(keys[at] != step)
        return path[gaps].tolist(), path[gaps + 1].tolist()
    tails, heads = [], []
    for x, y in zip(path, path[1:]):
        if y - x == 1 and x <= k or x - y == 1 and x > k + 1 or x == 0 and y == n - 1:
            continue
        step = cyc[x] * n + cyc[y]
        if keys[bisect_right(keys, step) - 1] != step:
            tails.append(x)
            heads.append(y)
    return tails, heads


def _backward(np, g: OTStDigraph, rank) -> list[int]:
    """The edge keys, ascending, of the edges that do not run forward
    along the path whose positions have ranks ``rank``."""
    n, keys = g.n, g.base.keys
    if np is None:
        by_id = [rank[p] for p in g.cycle_pos]
        return [k for k in keys if by_id[k // n] >= by_id[k % n]]
    by_id = np.empty(n, dtype=np.int64)
    by_id[np.frombuffer(g.arrays.cyc, dtype=np.intc)] = rank
    keys = np.frombuffer(keys, dtype=np.int64)
    return keys[by_id[keys // n] >= by_id[keys % n]].tolist()


def _forced_counts(np, a: OtArrays, tails, heads, edges):
    """Per pair (a, b) of distinct positions, the number of edges that join
    the open boundary arc from a to b to the rest of the cycle less a and
    b.  ``edges`` holds, ascending, the keys of the edges that join the two
    ends of a pair (it may hold other edge keys too).

    Each edge is a chord of the boundary cycle and no two chords cross, so
    the slots read as brackets: each row read backwards, its slots to
    lower positions closing innermost first, then those to higher ones
    opening outermost first.  With D[p] the depth before row p (the edges
    over the gap below p) and B[p] the lowest depth within it (the edges
    strictly over p), the edges leaving an interval [lo, hi] number
    D[lo] + D[hi + 1] - 2 min(B[lo..hi]).  Of the interval strictly
    between x = min(a, b) and y = max(a, b) and of [x, y], one is the arc
    from a to b and the other the rest of the cycle less a and b; their
    two counts add up to twice the forced crossings plus the degrees of a
    and b less twice the edge joining a and b, if there is one.  That
    leaves B[x] + B[y] - M - min(M, B[x], B[y]), with M the minimum of B
    strictly between x and y, plus 1 if a and b are joined.  Cycle
    neighbours x + 1 = y have no arc between them and force nothing.

    A row lists its neighbours above it ascending, then those below it
    ascending (checked by :func:`~hpccm.graph_model.classify_ot`), and
    every row but the first and last has both, starting with its cycle
    successor and ending with its predecessor.  So between the first and
    last rows a slot holds less than the one before it exactly where a
    row's lower neighbours begin, and with U[p] the slots to higher
    positions before row p, B[p] = U[p] + U[p + 1] - off[p + 1] (``low``).
    """
    n, off, nbr, cyc = a.n, a.off, a.nbr, a.cyc
    lo, hi = off[1] + 1, off[n - 1]
    if np is None:
        if not tails:
            return []
        down = chain(
            off[1:2],
            compress(range(lo, hi), map(lt, nbr[lo:hi], nbr[lo - 1 : hi - 1])),
            off[n - 1 : n],
        )
        up = list(accumulate(map(sub, down, off), initial=0))
        low = [u + v - o for u, v, o in zip(up, up[1:], off[1:])]
        ends = [(p, q) if p < q else (q, p) for p, q in zip(tails, heads)]
        out = []
        for (x, y), m in zip(ends, _range_min_py(low, ends)):
            if m is None:
                out.append(0)
                continue
            bx, by = low[x], low[y]
            f = bx + by - m - (m if m < bx and m < by else min(bx, by))
            if edges:
                u, v = cyc[x], cyc[y]
                f += _has(edges, u * n + v) or _has(edges, v * n + u)
            out.append(f)
        return out
    off = np.frombuffer(off, dtype=np.intc).astype(np.int64)
    nbr = np.frombuffer(nbr, dtype=np.intc)
    down = np.concatenate(
        [off[1:2], lo + np.flatnonzero(nbr[lo:hi] < nbr[lo - 1 : hi - 1]), off[-2:-1]]
    )
    up = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(down - off[:-1], out=up[1:])
    low = up[:-1] + up[1:] - off[1:]
    x, y = np.minimum(tails, heads), np.maximum(tails, heads)
    wide = np.flatnonzero(y - x > 1)
    x, y = x[wide], y[wide]
    inner = _range_min_np(np, low, x + 1, y - 1)
    bx, by = low[x], low[y]
    ids = np.frombuffer(cyc, dtype=np.intc).astype(np.int64)
    u, v = ids[x], ids[y]
    joined = np.isin(u * n + v, edges) | np.isin(v * n + u, edges)
    out = np.zeros(len(tails), dtype=np.int64)
    out[wide] = bx + by - inner - np.minimum(inner, np.minimum(bx, by)) + joined
    return out


def _has(keys: Sequence[int], k: int) -> bool:
    """Whether the ascending ``keys`` hold ``k``."""
    i = bisect_left(keys, k)
    return i < len(keys) and keys[i] == k


def _range_min_py(vals: list[int], ends: list[tuple[int, int]]) -> list:
    """min(vals[x + 1..y - 1]) per (x, y) with x < y, None where x + 1 = y:
    one sweep up the values keeps a stack of the positions whose value is
    below every later one so far, bisected at each query's x + 1 once the
    sweep reaches its y - 1."""
    out: list = [None] * len(ends)
    at: list[int] = []
    mins: list[int] = []
    p = min(ends)[0] + 1
    for q in sorted(range(len(ends)), key=[y for _, y in ends].__getitem__):
        x, y = ends[q]
        if y - x < 2:
            continue
        while p < y:
            v = vals[p]
            while mins and mins[-1] >= v:
                mins.pop()
                at.pop()
            at.append(p)
            mins.append(v)
            p += 1
        out[q] = mins[bisect_left(at, x + 1)]
    return out


def _range_min_np(np, vals, lo, hi):
    """min(vals[lo..hi]) per query (lo <= hi), from the minima over runs of
    2^j values, one level at a time: a query of length in [2^j, 2^(j+1))
    is the smaller of two runs of level j.  Each level is one pass over the
    values, so this is a deliberate O(n log n) part of the default path:
    :func:`_range_min_py`'s sweep is linear, but each step depends on the
    stack the step before left, and has no vectorised form."""
    level = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1
    out = np.empty(len(lo), dtype=vals.dtype)
    run = vals
    for j in range(int(level.max(initial=-1)) + 1):
        if j:
            half = 1 << (j - 1)
            run = np.minimum(run[:-half], run[half:])
        sel = level == j
        out[sel] = np.minimum(run[lo[sel]], run[hi[sel] - (1 << j) + 1])
    return out


def _lists_ok_np(np, g: OTStDigraph, cols, rank, forced) -> bool:
    """Whether :func:`_list_faults` finds nothing, on arrays: each list as
    long as its forced crossings, of edges that interleave its completion
    edge (a, b), none listed twice, in separation order, and each with its
    tail before a and its head after b on the path."""
    n = g.n
    _, tails, heads, starts, xs, ys = cols
    lens = np.diff(starts)
    if not np.array_equal(lens, forced) or (np.minimum(xs, ys) < 0).any():
        return False
    own = np.repeat(np.arange(len(lens)), lens)
    a, b = tails[own], heads[own]
    ids = np.frombuffer(g.arrays.cyc, dtype=np.intc).astype(np.int64)
    keys = np.frombuffer(g.base.keys, dtype=np.int64)
    edge = ids[xs] * n + ids[ys]
    ox, oy, span = (xs - a) % n, (ys - a) % n, (b - a) % n
    lo, hi = np.minimum(ox, oy), np.maximum(ox, oy)
    gap = rank[a]
    key = lo * n - hi
    return bool(
        (keys[np.searchsorted(keys, edge, side="right") - 1] == edge).all()
        and len(np.unique(edge)) == len(edge)
        and ((0 < lo) & (lo < span) & (span < hi)).all()
        and ((rank[xs] < gap) & (rank[ys] > gap + 1)).all()
        and ((key[1:] >= key[:-1]) | (own[1:] != own[:-1])).all()
    )


def _list_faults(
    g: OTStDigraph, r: HpCompletionResult, cols, rank, forced
) -> list[str]:
    """The messages of the crossing lists in the pairwise oracle's order,
    empty iff all are right; ``cols`` as :meth:`ResultColumns.lists` and
    ``rank`` per position.  A list holds its ``forced`` crossings when its
    entries are as many distinct edges that interleave its completion edge
    (a, b); only a list that does not is compared with every edge, on the
    result's tuples, to name what is missing and extra.  Its edges must be
    distinct, in separation order (by the offset from a of the end on a's
    side, ascending, then by the other end's, descending), each with its
    tail before a and its head after b on the path, and crossed by no
    earlier completion edge."""
    base, n, keys, cyc = g.base, g.n, g.base.keys, g.arrays.cyc
    name = base.name_edge
    _, tails, heads, starts, xs, ys = cols
    cycle = range(n)  # interleaves on positions
    out: list[str] = []
    seen: set[int] = set()
    for h, (a, b, i, j, f) in enumerate(zip(tails, heads, starts, starts[1:], forced)):
        ce = cyc[a], cyc[b]
        listed: set[int] = set()
        late: list[str] = []
        held, ordered, last = True, True, 0
        for x, y in zip(xs[i:j], ys[i:j]):
            e = cyc[x] * n + cyc[y] if x >= 0 and y >= 0 else -1
            if keys[bisect_right(keys, e) - 1] != e or not interleaves(
                cycle, n, (a, b), (x, y)
            ):
                held = False
                break
            u, v = (x - a) % n, (y - a) % n
            order = u * n - v if u < v else v * n - u
            ordered, last = ordered and last <= order, order
            if not (rank[x] < rank[a] and rank[y] > rank[b]):
                late.append(
                    f"crossing of {name(divmod(e, n))} with {name(ce)} would "
                    "create a cycle"
                )
            if e in seen or e in listed:
                late.append(
                    f"edge {name(divmod(e, n))} crossed by two completion edges"
                )
            listed.add(e)
        if not held or len(listed) != f:
            ce, given = r.completion_edges[h], r.crossings[h]
            want = {e for e in base.pairs() if interleaves(g.cycle_pos, n, ce, e)}
            missing, extra = want - set(given), set(given) - want
            # An entry such as (1.0, 2) equals an edge but names no vertex.
            odd = [
                e for e, x, y in zip(given, xs[i:j], ys[i:j])
                if min(x, y) < 0 and e not in extra
            ]
            out.append(
                f"completion edge {name(ce)} crossing set mismatch"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; extra {sorted(extra)}" if extra else "")
                + (f"; not pairs of vertex ids {odd}" if odd else "")
            )
            continue
        if j - i != f:
            out.append(f"completion edge {name(ce)} crosses an edge twice")
        if not ordered:
            out.append(f"completion edge {name(ce)} crossings out of geometric order")
        out += late
        seen |= listed
    return out
