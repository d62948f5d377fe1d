"""Upward 2-page topological book embeddings of st-digraphs.

A hamiltonian-path completion with c crossings and an upward 2-page book
embedding with c spine crossings are two views of the same object: the
spine order is the hamiltonian path, graph edges go to the page matching
their side of the path in the planar embedding, and each crossing of a
completion edge becomes a spine crossing in the gap between the
completion edge's endpoints.  The reverse direction reads the completion
edges off consecutive spine pairs that are not graph edges.

Sides are read off boundary-cycle positions.  Every vertex lies on the
outer boundary cycle, so the cycle can be drawn convex with each
completion edge a straight chord; such a chord crosses exactly the edges
whose endpoints interleave its own around the cycle, the crossings that
:func:`~hpccm.solver.verify_solution` has just checked.  In that drawing
an edge (v, w) leaves v on the right of the path exactly when w's offset
(clockwise around the cycle from v) lies strictly between the offsets of
v's next and previous path vertices.  The source has no incoming and the
sink no outgoing path step; a missing step sits at offset 0, v's own
position, which faces the outer face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, count, repeat
from typing import NamedTuple, Optional, Union

from .core import Deferred
from .graph_model import (
    DirectedEdge,
    EmbeddedDigraph,
    GraphError,
    OTStDigraph,
    VertexId,
    backend,
    join_words,
    word_rows,
)
from .solver import HpCompletionResult, result_columns, verify_solution


@dataclass(frozen=True)
class SpineCrossing:
    """One crossing of a graph edge with the spine, strictly inside the
    gap between spine ranks ``gap`` and ``gap + 1``."""

    edge: DirectedEdge
    gap: int
    rank_in_gap: int


@dataclass(frozen=True)
class PageArc:
    page: str  # 'L' or 'R'


# The whole-arc placements, shared, by the low bits 2 p + f of a page code
# (p = 1 for page R at the lower end, f = 1 if the page changes on the
# way).  An arc whose page changes without a spine crossing, which no made
# embedding has, reads as page "LR" or "RL".
_BY_CODE = (PageArc("L"), PageArc("LR"), PageArc("R"), PageArc("RL"))


@dataclass(frozen=True)
class SplitArc:
    lower_page: str
    crossing: SpineCrossing
    upper_page: str


Placement = Union[PageArc, SplitArc]


class PageColumns(NamedTuple):
    """A book embedding as columns.  ``spine`` holds the vertex ids along
    the spine, and ``codes`` per edge, in key order, 4 (lo * n + hi) +
    2 p + f, with lo and hi the spine ranks of its ends, p = 1 if it
    leaves its lower end on page R and f = 1 if its page changes on the
    way.  Per spine crossing, in spine order: ``crossed`` its edge's
    lo * n + hi, ``gaps`` its gap and ``ranks`` its rank in the gap."""

    n: int
    spine: list[int]
    codes: list[int]
    crossed: list[int]
    gaps: list[int]
    ranks: list[int]


@dataclass(frozen=True)
class BookEmbedding(Deferred):
    """Spine order, a placement per edge and the spine crossings in spine
    order.  One :func:`to_book_embedding` makes keeps its ``columns`` and
    builds the records from them on first read."""

    names: tuple[str, ...]
    spine: tuple[VertexId, ...]
    assignment: dict[DirectedEdge, Placement]
    crossings: tuple[SpineCrossing, ...]
    columns: Optional[PageColumns] = field(
        default=None, init=False, compare=False, repr=False
    )


def to_book_embedding(g: OTStDigraph, r: HpCompletionResult) -> BookEmbedding:
    """Book embedding with the completion's path as spine order.

    Each graph edge crossed by a completion edge splits at a spine
    crossing in that completion edge's gap; crossings within one gap keep
    the order in which they occur along the completion edge.  Runs on the
    result's position columns once :func:`verify_solution` has accepted
    them.
    """
    violations = verify_solution(g, r)
    if violations:
        raise GraphError("invalid-solution", violations[0])
    cols = _pages(g, result_columns(g, r))
    _check_sides(g, cols)
    return BookEmbedding.deferred(
        lambda: _records(cols), names=g.base.names, columns=cols
    )


def _pages(g: OTStDigraph, c) -> PageColumns:
    """The page rule on position columns.  Each vertex v faces the path
    steps to its next and previous path vertices, at offsets o < i
    clockwise around the cycle from v (a missing step, at s and t, sits
    at offset 0, v's own position, in the outer face); an edge leaves v
    on page R exactly when its offset lies strictly between o and i.  A
    path edge is on page R at both ends."""
    n, pos, cyc = g.n, g.cycle_pos, g.arrays.cyc
    path, tails, _, starts, xs, ys = c.lists()
    rank = [0] * n  # per position
    for i, p in enumerate(path):
        rank[p] = i
    after, before = path[1:] + path[-1:], path[:1] + path[:-1]  # per rank
    vr = [rank[p] for p in pos]  # per vertex id
    nxt = [after[r] for r in vr]
    wide = [(before[r] - x) % n for r, x in zip(vr, nxt)]
    codes = [  # low bits 2 p + f: p = 1 for page R at u, f = 1 if it changes
        (vr[u] * n + vr[v]) * 4
        + (
            (3 if (pos[u] - nxt[v]) % n > wide[v] else 2)
            if (pos[v] - nxt[u]) % n < wide[u]
            else (1 if (pos[u] - nxt[v]) % n <= wide[v] else 0)
        )
        for u, v in map(divmod, g.base.keys, repeat(n))
    ]
    gaps: list[int] = []
    ranks: list[int] = []
    for t, i, j in zip(tails, starts, starts[1:]):
        gaps += [rank[t]] * (j - i)
        ranks += range(j - i)
    return PageColumns(
        n,
        [cyc[p] for p in path],
        codes,
        [rank[x] * n + rank[y] for x, y in zip(xs, ys)],
        gaps,
        ranks,
    )


def _check_sides(g: OTStDigraph, cols: PageColumns) -> None:
    """Raise ``internal`` unless exactly the crossed edges change pages."""
    codes = cols.codes
    if sorted([c >> 2 for c in codes if c & 1]) == sorted(cols.crossed):
        return
    crossed = set(cols.crossed)
    for e, c in zip(g.base.pairs(), codes):
        if c & 1 != (c >> 2 in crossed):
            name = g.base.name_edge(e)
            if c & 1:
                raise GraphError("internal", f"uncrossed edge {name} changes sides")
            raise GraphError("internal", f"crossed edge {name} keeps its side")


def _records(cols: PageColumns) -> dict:
    """Spine, placements and spine crossings that a made embedding's
    columns stand for: each code places the arc between the vertices at
    its spine ranks, and each crossing splits the arc whose code holds its
    key, from page p to page p xor f.  So a code of no edge, a split code
    without a crossing, a crossing of an arc whose code keeps its page and
    a crossing of no code each show as a fault that :func:`_record_faults`
    names."""
    n, spine = cols.n, cols.spine
    crossings = tuple(
        SpineCrossing(edge=(spine[k // n], spine[k % n]), gap=gap, rank_in_gap=j)
        for k, gap, j in zip(cols.crossed, cols.gaps, cols.ranks)
    )
    split = dict(zip(cols.crossed, crossings))
    assignment: dict[DirectedEdge, Placement] = {}
    for c in cols.codes:
        x = split.get(k := c >> 2)
        assignment[spine[k // n], spine[k % n]] = (
            _BY_CODE[c & 3]
            if x is None
            else SplitArc("LR"[c >> 1 & 1], x, "LR"[(c >> 1 ^ c) & 1])
        )
    return {"spine": tuple(spine), "assignment": assignment, "crossings": crossings}


# ---------------------------------------------------------------------------


def validate_embedding(g: EmbeddedDigraph, b: BookEmbedding) -> list[str]:
    """All violations of the book-embedding contract (empty iff valid).

    Checks: the spine is a topological order covering every vertex, the
    assignment covers exactly the edge set, split halves use opposite
    pages and cross strictly between their endpoints, crossings sit only
    in gaps whose spine pair is not an edge, ranks within a gap are
    0..k-1, and no two same-page arcs interleave.  An embedding that
    :func:`to_book_embedding` made is checked on its columns
    (:func:`_column_gaps`), and the records it stands for are built only
    to name what fails; one built by hand is checked on its records
    (:func:`_record_faults`).  O(m log m) plus O(C log C) for C crossings.
    """
    cols = b.columns
    if cols is None:
        return _record_faults(g, b)
    if _column_gaps(g, cols) is not None:
        return []
    out = _record_faults(g, b)
    if not out:
        raise GraphError(
            "internal", "the column check rejects an embedding no message names"
        )
    return out


def _column_gaps(g: EmbeddedDigraph, cols: PageColumns) -> Optional[list[int]]:
    """The column check: None if :func:`_record_faults` finds a fault in
    the records that ``cols`` stand for (:func:`_records`), else the gaps
    of the completion edges, the spine pairs that are no edges.

    Read off the columns: the spine is a permutation of the vertices; the
    crossings are in (gap, rank) order with ranks 0..k-1 in each gap; each
    edge's code holds lo * n + hi for the spine ranks lo < hi of its ends;
    the split codes are exactly the crossed ones; each crossing lies
    inside its edge's span, in a gap whose spine pair is no edge; and the
    arcs on each page nest (one sort and one stack scan on integer spine
    coordinates)."""
    n, spine, codes = g.n, cols.spine, cols.codes
    crossed, gaps, ranks = cols.crossed, cols.gaps, cols.ranks
    if cols.n != n or len(codes) != g.m or sorted(spine) != list(range(n)):
        return None
    first: dict[int, int] = {}  # per gap with crossings, its first index
    if (
        len(gaps) != len(crossed)
        or gaps != sorted(gaps)
        or ranks != [i - first.setdefault(gap, i) for i, gap in enumerate(gaps)]
        or (gaps and (gaps[0] < 0 or gaps[-1] >= n - 1))
    ):
        return None
    # Integer spine coordinates: each vertex, then its gap's crossings in
    # rank order, so crossing i sits at gaps[i] + i + 1.  Page R's copy of
    # the spine follows page L's, w further on.
    per = [1] * n
    for gap in gaps:
        per[gap] += 1
    at = list(accumulate(per, initial=0))
    w = at[n]
    on_r = [x + w for x in at]
    on = (at, at, on_r, on_r)  # by the low bits of a code: the lower end's page
    rank = sorted(range(n), key=spine.__getitem__)  # the inverse permutation
    joined = bytearray(n)  # per gap, 1 if an edge joins its spine pair
    split: list[int] = []
    arcs: list[tuple[int, int]] = []  # (lo, -hi): by left end, outer first
    for (u, v), c in zip(g.pairs(), codes):
        lo, hi = rank[u], rank[v]
        if c >> 2 != lo * n + hi or lo >= hi:
            return None
        if c & 1:
            split.append(c)
        elif hi - lo > 1:
            a = on[c & 3]
            arcs.append((a[lo], -a[hi]))
        else:  # a spine pair, which no crossing may split: nothing interleaves it
            joined[lo] = 1
    # The keys are distinct, so the split ones are the crossed ones once each.
    if sorted([c >> 2 for c in split]) != sorted(crossed):
        return None
    where = dict(zip(crossed, zip(gaps, count(1))))  # key: gap, index + 1
    for c in split:
        lo, hi = divmod(c >> 2, n)
        gap, i = where[c >> 2]
        if not lo <= gap < hi:
            return None
        if hi - lo == 1:
            joined[lo] = 1
        lower, upper = (on_r, at) if c & 2 else (at, on_r)
        x = gap + i  # the crossing, on page L's copy; a copy's [0] is its shift
        arcs += ((lower[lo], -lower[0] - x), (upper[0] + x, -upper[hi]))
    if any(joined[gap] for gap in first):
        return None
    # Sorted by left end, outer first, arcs nest exactly when each ends no
    # later than the innermost arc still open at its start; no arc of page
    # L is open on page R's copy.
    arcs.sort()
    stack = [2 * w]
    for lo, hi in arcs:
        while stack[-1] <= lo:
            stack.pop()
        if stack[-1] < -hi:
            return None
        stack.append(-hi)
    return [i for i in range(n - 1) if not joined[i]]


def _record_faults(g: EmbeddedDigraph, b: BookEmbedding) -> list[str]:
    """:func:`validate_embedding`'s messages from the records.  One sort
    and stack scan per page, on integer spine coordinates, names each arc
    that interleaves the innermost open arc where it starts."""
    out: list[str] = []
    n = g.n
    spine, assignment = b.spine, b.assignment  # b may be a Deferred: read once
    if sorted(spine) != list(range(n)):
        return ["spine is not a permutation of the vertices"]
    rank = [0] * n
    for i, v in enumerate(spine):
        rank[v] = i
    # As many assigned edges as edges, each edge assigned: the same set.
    if len(assignment) != g.m:
        return ["assignment does not cover exactly the edge set"]
    for e in g.pairs():
        if e not in assignment:
            return ["assignment does not cover exactly the edge set"]
        if rank[e[0]] >= rank[e[1]]:
            out.append(f"edge {g.name_edge(e)} is not upward on the spine")
    split_crossings = []
    for e, placement in assignment.items():
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
        if gap + 1 < n and (spine[gap], spine[gap + 1]) in assignment:
            out.append(
                f"gap {gap} carries crossings although its spine pair is "
                f"an edge"
            )
    if out:
        return out
    # Integer spine coordinates: each vertex, then its gap's crossings in
    # rank order.
    at = list(accumulate((1 + len(by_gap.get(i, ())) for i in range(n)), initial=0))
    pages: dict[str, list[tuple[int, int, DirectedEdge]]] = {}
    for e, placement in assignment.items():
        lo, hi = at[rank[e[0]]], at[rank[e[1]]]
        if isinstance(placement, PageArc):
            pages.setdefault(placement.page, []).append((lo, -hi, e))
        else:
            c = placement.crossing
            mid = at[c.gap] + c.rank_in_gap + 1
            pages.setdefault(placement.lower_page, []).append((lo, -mid, e))
            pages.setdefault(placement.upper_page, []).append((mid, -hi, e))
    # Sorted by left end, outer first, arcs nest exactly when each ends no
    # later than the innermost arc still open at its start.
    for page, arcs in pages.items():
        arcs.sort()
        stack: list[tuple[int, DirectedEdge]] = []
        for lo, neg_hi, e in arcs:
            while stack and stack[-1][0] <= lo:
                stack.pop()
            if stack and stack[-1][0] < -neg_hi:
                out.append(
                    f"arcs of {g.name_edge(stack[-1][1])} and {g.name_edge(e)} "
                    f"interleave on page {page}"
                )
            stack.append((-neg_hi, e))
    return out


def from_book_embedding(
    g: EmbeddedDigraph, b: BookEmbedding
) -> HpCompletionResult:
    """Read a completion back off a valid embedding: completion edges are
    the consecutive spine pairs missing from the graph, crossed in each
    gap bottom-to-top.  An embedding that :func:`to_book_embedding` made
    is checked and read on its columns, and builds no records."""
    cols = b.columns
    tails = None if cols is None else _column_gaps(g, cols)
    if tails is not None:
        return _read_columns(cols, tails)
    violations = validate_embedding(g, b)
    if violations:
        raise GraphError("invalid-embedding", violations[0])
    by_gap: dict[int, list[SpineCrossing]] = {}
    for c in b.crossings:
        by_gap.setdefault(c.gap, []).append(c)
    completion: list[DirectedEdge] = []
    crossings: list[tuple[DirectedEdge, ...]] = []
    spine, assignment = b.spine, b.assignment
    for i, (a, bb) in enumerate(zip(spine, spine[1:])):
        if (a, bb) in assignment:  # an edge: validate_embedding checked them
            continue
        completion.append((a, bb))
        lst = sorted(by_gap.get(i, []), key=lambda c: c.rank_in_gap)
        crossings.append(tuple(c.edge for c in lst))
    return HpCompletionResult(
        path=spine,
        completion_edges=tuple(completion),
        crossings=tuple(crossings),
        total_crossings=len(b.crossings),
    )


def _read_columns(cols: PageColumns, tails: list[int]) -> HpCompletionResult:
    """The completion of columns that :func:`_column_gaps` accepted, with
    completion edges over the gaps ``tails``: the crossings are in (gap,
    rank) order and only in those gaps."""
    n, spine, crossed = cols.n, cols.spine, cols.crossed
    end = dict(zip(cols.gaps, count(1)))  # past a gap's last crossing
    crossings: list[tuple[DirectedEdge, ...]] = []
    at = 0
    for i in tails:
        j = end.get(i, at)
        crossings.append(tuple((spine[k // n], spine[k % n]) for k in crossed[at:j]))
        at = j
    return HpCompletionResult(
        path=tuple(spine),
        completion_edges=tuple((spine[i], spine[i + 1]) for i in tails),
        crossings=tuple(crossings),
        total_crossings=len(crossed),
    )


# ---------------------------------------------------------------------------
# Renderers

_SPACING = 40
_MARGIN = 40


def _spine_y(position: float, n: int) -> float:
    return _MARGIN + (n - 1 - position) * _SPACING


def render_text(b: BookEmbedding) -> str:
    """Stable line-based description: spine order, then one line per edge,
    by the spine ranks of its ends.  Numpy lays out the large embeddings
    that :func:`to_book_embedding` makes (:func:`_render_np`)."""
    cols = b.columns
    np = None if cols is None else backend(cols.n)
    if np is not None:
        return _render_np(np, b.names, cols)
    spine = b.spine if cols is None else cols.spine
    n = len(spine)
    names = list(map(b.names.__getitem__, spine))
    arrow = [name + "->" for name in names]
    if cols is None:
        rank = {v: i for i, v in enumerate(spine)}
        lines = sorted(
            (rank[u] * n + rank[v], _placement_text(p))
            for (u, v), p in b.assignment.items()
        )
        body = [f"{arrow[k // n]}{names[k % n]} {text}\n" for k, text in lines]
    else:
        # The codes sort by the spine ranks of their edges' ends, and
        # their two low bits tell the placement.
        gaps = map("@gap({},{})/".format, cols.gaps, cols.ranks)
        split = dict(zip(cols.crossed, gaps))
        text = ("page=L", "split L{}R", "page=R", "split R{}L")
        body = [
            f"{arrow[(k := c >> 2) // n]}{names[k % n]} "
            f"{text[c & 3].format(split[k]) if c & 1 else text[c & 3]}\n"
            for c in sorted(cols.codes)
        ]
    return "spine: " + " ".join(names) + "\n" + "".join(body)


def _render_np(np, names: tuple[str, ...], cols: PageColumns) -> str:
    """:func:`render_text`'s text from the columns as word ids (see
    :func:`~hpccm.graph_model.join_words`): the names by spine rank, the
    glue, then each spine crossing's gap.  An edge's line is its ends'
    names around ``->`` and its placement text, and a split edge's two
    words more, its gap and its upper page.  The split edges' keys in
    order are the crossed keys in order (:func:`_check_sides`)."""
    n = cols.n
    glue = (
        "spine: ",
        " ",
        "\n",
        "->",
        " page=L\n",
        " split L",
        " page=R\n",
        " split R",
        "R\n",
        "L\n",
    )
    head, space, newline, arrow, *placed, upper_r, upper_l = range(n, n + len(glue))
    spine = word_rows(np, n, space, np.arange(n))
    spine[0] = head
    codes = np.sort(np.array(cols.codes, dtype=np.int64))
    low = codes & 3
    split = (low & 1).astype(np.bool_)
    start = 4 * np.arange(len(codes)) + 2 * (np.cumsum(split) - split)
    lines = np.empty(4 * len(codes) + 2 * len(cols.crossed), dtype=np.intp)
    lines[start], lines[start + 2] = np.divmod(codes >> 2, n)
    lines[start + 1] = arrow
    lines[start + 3] = np.array(placed)[low]
    at = start[split]
    lines[at + 4] = n + len(glue) + np.argsort(np.array(cols.crossed, dtype=np.int64))
    lines[at + 5] = np.where(low[split] == 1, upper_r, upper_l)
    words = list(map(names.__getitem__, cols.spine))
    words += glue
    words += map("@gap({},{})/".format, cols.gaps, cols.ranks)
    return join_words(np, words, np.concatenate((spine, [newline], lines)))


def _placement_text(p: Placement) -> str:
    if isinstance(p, PageArc):
        return f"page={p.page}"
    c = p.crossing
    return f"split {p.lower_page}@gap({c.gap},{c.rank_in_gap})/{p.upper_page}"


def render_svg(b: BookEmbedding) -> str:
    """Deterministic SVG: vertical spine, vertices at integer ranks, edges
    as half-circle arcs left/right, split edges as two arcs meeting at
    their crossing point on the spine."""
    spine, assignment, names = b.spine, b.assignment, b.names
    n = len(spine)
    rank = {v: i for i, v in enumerate(spine)}
    per_gap: dict[int, int] = {}
    for c in b.crossings:
        per_gap[c.gap] = max(per_gap.get(c.gap, -1), c.rank_in_gap)
    max_radius = _SPACING * (n - 1) / 2
    width = 2 * (max_radius + _MARGIN)
    height = 2 * _MARGIN + (n - 1) * _SPACING
    cx = width / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{cx:.1f}" y1="{_spine_y(n - 1, n):.1f}" '
        f'x2="{cx:.1f}" y2="{_spine_y(0, n):.1f}" stroke="#999" '
        f'stroke-dasharray="4 3"/>',
    ]

    def arc(lo: float, hi: float, page: str, color: str) -> str:
        y1, y2 = _spine_y(lo, n), _spine_y(hi, n)
        radius = abs(y1 - y2) / 2
        sweep = 1 if page == "R" else 0
        return (
            f'<path d="M {cx:.1f} {y1:.1f} A {radius:.2f} {radius:.2f} '
            f'0 0 {sweep} {cx:.1f} {y2:.1f}" fill="none" stroke="{color}"/>'
        )

    for e in sorted(assignment, key=lambda e: (rank[e[0]], rank[e[1]])):
        placement = assignment[e]
        lo, hi = rank[e[0]], rank[e[1]]
        if isinstance(placement, PageArc):
            parts.append(arc(lo, hi, placement.page, "#000"))
        else:
            c = placement.crossing
            at = c.gap + (c.rank_in_gap + 1) / (per_gap[c.gap] + 2)
            parts.append(arc(lo, at, placement.lower_page, "#c22"))
            parts.append(arc(at, hi, placement.upper_page, "#c22"))
            y = _spine_y(at, n)
            parts.append(
                f'<rect x="{cx - 2.5:.1f}" y="{y - 2.5:.1f}" width="5" '
                f'height="5" fill="#c22"/>'
            )
    for v in spine:
        y = _spine_y(rank[v], n)
        parts.append(f'<circle cx="{cx:.1f}" cy="{y:.1f}" r="3" fill="#000"/>')
        parts.append(
            f'<text x="{cx + 8:.1f}" y="{y + 4:.1f}" font-size="12" '
            f'font-family="monospace">{names[v]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
