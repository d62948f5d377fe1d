import pytest

from hpccm import (
    FreeVertex,
    GraphError,
    StPolygon,
    decompose,
    edge_sidedness,
    find_rhombi,
    is_median,
    maximal_polygon,
)
from tests.conftest import (
    all_polygons_with_median,
    brute_is_median,
    out_neighbors,
    polygon_subgraph,
)


def test_rhombus_median(rh):
    assert is_median(rh, (rh.base.s, rh.base.t)) is True


def test_boundary_edge_not_median(pfp):
    ids = {n: i for i, n in enumerate(pfp.base.names)}
    assert is_median(pfp, (ids["l1"], ids["l2"])) is False


def test_unknown_edge_raises(rh):
    # A pair of names, a wrong arity or an id out of range is no edge either.
    for e in [(1, 3), ("s", "t"), (0,), (0, 1, 2), (0, 7), (-1, 0)]:
        for query in (is_median, maximal_polygon, edge_sidedness):
            with pytest.raises(GraphError) as exc:
                query(rh, e)
            assert exc.value.kind == "unknown-edge", (query, e)


def test_is_median_matches_brute_force(corpus):
    # Definition-level oracle: an edge is a median iff some st-polygon
    # subgraph (equivalently the five-edge rhombus pattern) has it as
    # its median.
    for ot in corpus:
        if ot.base.n > 12:
            continue
        for e in sorted(ot.base.edges):
            assert is_median(ot, e) == brute_is_median(ot, e), (
                ot.base.names,
                e,
            )


def test_maximal_polygon_whole_rhombus(rh):
    p = maximal_polygon(rh, (rh.base.s, rh.base.t))
    assert sorted(p.vertices()) == [0, 1, 2, 3]
    assert p.lower_limit is None and p.upper_limit is None


def test_maximal_polygon_is_enumeration_maximum(corpus):
    # The O(1) rotation-arithmetic extraction must match the largest
    # polygon found by exhaustively trying every chain range.
    for ot in corpus:
        if ot.base.n > 14:
            continue
        for e in sorted(ot.base.edges):
            if not is_median(ot, e):
                assert not all_polygons_with_median(ot, e)
                continue
            p = maximal_polygon(ot, e)
            candidates = all_polygons_with_median(ot, e)
            assert candidates
            best = max(candidates, key=lambda lr: len(lr[0]) + len(lr[1]))
            assert p.left_chain == best[0] and p.right_chain == best[1]
            # Uniqueness of the maximum.
            top = [
                lr
                for lr in candidates
                if len(lr[0]) + len(lr[1]) == len(best[0]) + len(best[1])
            ]
            assert len(top) == 1


def test_not_a_median_raises(tri):
    with pytest.raises(GraphError):
        maximal_polygon(tri, (tri.base.s, tri.base.t))


def test_decompose_triangle_all_free(tri):
    d = decompose(tri)
    assert all(isinstance(el, FreeVertex) for el in d.elements)
    assert [el.vertex for el in d.elements] == [0, 1, 2]


def test_decompose_rhombus_single_polygon(rh):
    d = decompose(rh)
    assert len(d.elements) == 1
    assert isinstance(d.elements[0], StPolygon)
    assert d.shared == ()


def test_decompose_polygon_free_polygon(pfp):
    d = decompose(pfp)
    kinds = [
        "P" if isinstance(el, StPolygon) else "F" for el in d.elements
    ]
    assert kinds == ["P", "F", "P"]
    assert d.shared == (0, 0)
    names = pfp.base.names
    free = [el.vertex for el in d.elements if isinstance(el, FreeVertex)]
    assert [names[v] for v in free] == ["r2"]


def test_decompose_stack_two_shared(stack3):
    d = decompose(stack3)
    assert d.polygon_count == 3
    assert d.shared == (2, 2)


def test_shared_counts_match_vertex_intersections(corpus, pfp, stack3):
    for ot in [*corpus[:60], pfp, stack3]:
        d = decompose(ot)
        sets = [
            set(el.vertices()) if isinstance(el, StPolygon) else {el.vertex}
            for el in d.elements
        ]
        for i, count in enumerate(d.shared):
            assert len(sets[i] & sets[i + 1]) == count
            if count == 2:
                assert isinstance(d.elements[i], StPolygon)
                assert isinstance(d.elements[i + 1], StPolygon)


def test_polygons_area_disjoint(corpus):
    for ot in corpus[:60]:
        d = decompose(ot)
        polys = [el for el in d.elements if isinstance(el, StPolygon)]
        sets = [set(p.vertices()) for p in polys]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert len(sets[i] & sets[j]) <= 2


def test_vertex_coverage_accounting(corpus, pfp):
    # Each vertex appears once, except junction vertices shared by two
    # consecutive polygons: sum of sizes minus shared counts equals n.
    for ot in [*corpus[:60], pfp]:
        d = decompose(ot)
        total = sum(
            el.size if isinstance(el, StPolygon) else 1 for el in d.elements
        )
        assert total - sum(d.shared) == ot.base.n


def test_elements_ordered_by_reachability(corpus, pfp):
    # The representative order must agree with directed reachability:
    # each element's representative reaches the next one's.
    for ot in [*corpus[:40], pfp]:
        d = decompose(ot)
        g = ot.base
        reach = _reachability(g)
        reps = [
            el.source if isinstance(el, StPolygon) else el.vertex
            for el in d.elements
        ]
        for a, b in zip(reps, reps[1:]):
            assert reach[a][b]


def test_free_vertices_satisfy_junction_paths(corpus, pfp):
    # Free vertices between elements: reachable from the previous
    # element's sink and reaching the next element's source.
    for ot in [*corpus[:40], pfp]:
        d = decompose(ot)
        g = ot.base
        reach = _reachability(g)
        for i, el in enumerate(d.elements):
            if not isinstance(el, FreeVertex):
                continue
            v = el.vertex
            if i > 0:
                prev = d.elements[i - 1]
                prev_sink = (
                    prev.sink if isinstance(prev, StPolygon) else prev.vertex
                )
                assert reach[prev_sink][v]
            if i + 1 < len(d.elements):
                nxt = d.elements[i + 1]
                nxt_src = (
                    nxt.source if isinstance(nxt, StPolygon) else nxt.vertex
                )
                assert reach[v][nxt_src]


def _reachability(g):
    n = g.n
    outs = out_neighbors(g)
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        stack = [v]
        seen = [False] * n
        seen[v] = True
        while stack:
            x = stack.pop()
            reach[v][x] = True
            for w in outs[x]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return reach


def test_each_polygon_contains_exactly_one_rhombus(corpus, pfp, f9):
    for ot in [*corpus[:60], pfp, f9]:
        for el in decompose(ot).elements:
            if isinstance(el, StPolygon):
                sub = polygon_subgraph(ot, el)
                assert len(find_rhombi(sub.base)) == 1


def test_polygons_share_no_interior_face(corpus):
    for ot in corpus[:40]:
        d = decompose(ot)
        polys = [
            set(el.vertices())
            for el in d.elements
            if isinstance(el, StPolygon)
        ]
        from hpccm import faces

        for walk in faces(ot.base).interior:
            verts = {u for (u, _) in walk}
            assert sum(verts <= p for p in polys) <= 1


def test_decompose_deterministic(corpus):
    for ot in corpus[:20]:
        assert decompose(ot) == decompose(ot)
