"""Answer checks for the benchmark, written apart from the solver.

Each check is O(m) and uses only the graph and its boundary chains; none
calls into ``hpccm.solver`` or reuses its recurrences.  A check returns a
list of violations, empty when the answer is correct.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

Edge = tuple[int, int]


class Answer(NamedTuple):
    """A completion as the benchmark compares it: vertex ids throughout."""

    path: tuple[int, ...]
    completion_edges: tuple[Edge, ...]
    crossings: tuple[tuple[Edge, ...], ...]
    total: int


def as_answer(result) -> Answer:
    """Answer from an ``HpCompletionResult``."""
    return Answer(
        tuple(result.path),
        tuple(result.completion_edges),
        tuple(tuple(c) for c in result.crossings),
        result.total_crossings,
    )


def boundary_positions(ot) -> list[int]:
    """Position of each vertex on the boundary cycle s, left up, t, right
    down.  Every vertex of an outerplanar instance lies on it."""
    g = ot.base
    order = [g.s, *ot.left, g.t, *reversed(ot.right)]
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _interleaves(pos: list[int], n: int, a: int, b: int, e: Edge) -> bool:
    """Whether the endpoints of ``e`` alternate with a, b on the cycle."""
    x, y = e
    if x in (a, b) or y in (a, b):
        return False
    lo = pos[a]
    span = (pos[b] - lo) % n
    return ((pos[x] - lo) % n < span) != ((pos[y] - lo) % n < span)


def check_answer(ot, ans: Answer) -> list[str]:
    """The completion contract, one pass over the path and the edges."""
    g = ot.base
    n = g.n
    path = ans.path
    seen = [False] * n
    for v in path:
        if not 0 <= v < n or seen[v]:
            return ["path is not a permutation of the vertices"]
        seen[v] = True
    if len(path) != n:
        return ["path is not a permutation of the vertices"]
    out: list[str] = []
    if path[0] != g.s or path[-1] != g.t:
        out.append("path does not run from s to t")
    gaps = tuple((a, b) for a, b in zip(path, path[1:]) if (a, b) not in g.edges)
    if gaps != ans.completion_edges:
        out.append("completion edges are not the consecutive non-edge pairs")
    if len(ans.crossings) != len(ans.completion_edges):
        out.append("one crossing list per completion edge is expected")
        return out
    rank = [0] * n
    for i, v in enumerate(path):
        rank[v] = i
    backward = sum(1 for (u, v) in g.edges if rank[u] >= rank[v])
    if backward:
        out.append(f"{backward} graph edges run backwards along the path")
    pos = boundary_positions(ot)
    crossed: set[Edge] = set()
    listed = 0
    for (a, b), lst in zip(ans.completion_edges, ans.crossings):
        for e in lst:
            listed += 1
            if e not in g.edges:
                out.append(f"crossed pair {e} is not a graph edge")
            elif not _interleaves(pos, n, a, b, e):
                out.append(f"edge {e} does not interleave completion edge {(a, b)}")
            if e in crossed:
                out.append(f"edge {e} is crossed twice")
            crossed.add(e)
    if listed != ans.total:
        out.append(f"crossing lists hold {listed} edges, total says {ans.total}")
    return out


def compare(ans: Answer, ref: Answer, what: str) -> list[str]:
    return [] if ans == ref else [f"{what} differs from the reference answer"]


def _edge(g, label: str) -> Edge:
    tail, head = label.split("->")
    return (g.id_of[tail], g.id_of[head])


def parse_solve_output(g, text: str) -> Answer:
    """Read ``hpccm solve`` stdout back into vertex ids."""
    lines = text.splitlines()
    total = int(lines[0].removeprefix("crossings="))
    path = tuple(g.id_of[x] for x in lines[1].removeprefix("path=").split(","))
    ces = []
    crossings = []
    for line in lines[2:]:
        _, ce, _, lst = line.split(" ", 3)
        ces.append(_edge(g, ce))
        body = lst[1:-1]
        crossings.append(tuple(_edge(g, x) for x in body.split(",")) if body else ())
    return Answer(path, tuple(ces), tuple(crossings), total)


def check_embed_output(g, text: str, ref: Answer) -> list[str]:
    """``hpccm embed`` stdout against the reference completion: the spine
    is its path, every edge has one line, and exactly the crossed edges
    split, each in its completion edge's gap at its place in the list."""
    lines = text.splitlines()
    spine = tuple(g.id_of[x] for x in lines[0].removeprefix("spine: ").split())
    if spine != ref.path:
        return ["embedding spine is not the completion path"]
    rank = {v: i for i, v in enumerate(spine)}
    want = {}
    for ce, lst in zip(ref.completion_edges, ref.crossings):
        for j, e in enumerate(lst):
            want[e] = f"@gap({rank[ce[0]]},{j})/"
    out: list[str] = []
    seen: set[Edge] = set()
    for line in lines[1:]:
        label, placement = line.split(" ", 1)
        e = _edge(g, label)
        seen.add(e)
        if e in want:
            if want[e] not in placement or not placement.startswith("split "):
                out.append(f"edge {label} is not split at {want[e]}")
        elif placement not in ("page=L", "page=R"):
            out.append(f"edge {label} has placement {placement!r}")
    if len(lines) - 1 != g.m or seen != set(g.edges):
        out.append("embedding does not list every edge exactly once")
    return out


def check_check_output(g, text: str, ref: Answer, polygons: int) -> list[str]:
    """``hpccm check`` stdout: one rhombus per polygon median, and a
    hamiltonian path exactly when the minimum completion crosses nothing,
    in which case it is the completion path itself."""
    lines = text.splitlines()
    out: list[str] = []
    rhombi = sum(1 for line in lines if line.startswith("rhombus "))
    if rhombi != polygons:
        out.append(f"{rhombi} rhombi reported, decomposition has {polygons} polygons")
    last = lines[-1]
    if ref.total:
        if last != "hamiltonian: none":
            out.append("instance with crossings reported as hamiltonian")
    else:
        path = tuple(g.id_of[x] for x in last.removeprefix("hamiltonian: ").split(","))
        if path != ref.path:
            out.append("rhombus-free instance lacks its hamiltonian path")
    return out


def check_known(ref: Answer, expected: Optional[int]) -> list[str]:
    if expected is None or ref.total == expected:
        return []
    return [f"minimum is {ref.total}, known answer is {expected}"]
