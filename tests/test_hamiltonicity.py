from dataclasses import replace
from types import SimpleNamespace

import pytest

from hpccm import (
    GenProfile,
    GraphError,
    exhaustive_hamiltonian,
    find_rhombi,
    hamiltonian_path,
    random_ot,
)
from hpccm.graph_model import build_graph
from tests.conftest import brute_is_median


def test_rhombus_has_one_rhombus(rh):
    rhombi = find_rhombi(rh.base)
    assert len(rhombi) == 1
    r = rhombi[0]
    assert r.median == (rh.base.s, rh.base.t)
    assert {rh.base.names[r.left_apex], rh.base.names[r.right_apex]} == {"a", "b"}


def test_triangle_has_no_rhombus(tri):
    assert find_rhombi(tri.base) == ()


def test_generated_polygon_contains_one_rhombus(f9):
    assert len(find_rhombi(f9.base)) == 1


def test_rhombus_edges_exist(corpus):
    for ot in corpus[:40]:
        for r in find_rhombi(ot.base):
            edges = ot.base.edges
            u, v = r.median
            for e in [
                (u, r.left_apex),
                (r.left_apex, v),
                (u, r.right_apex),
                (r.right_apex, v),
                (u, v),
            ]:
                assert e in edges


def test_rhombi_reported_in_median_order(corpus):
    for ot in corpus[:40]:
        medians = [r.median for r in find_rhombi(ot.base)]
        assert medians == sorted(medians)


def test_non_triangulated_rejected():
    # Square face: s -> a -> t, s -> b -> t without any chord.
    g = build_graph(
        names=["s", "a", "b", "t"],
        source="s",
        sink="t",
        edges=[("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")],
        rotation={
            "s": ["a", "b"],
            "a": ["t", "s"],
            "b": ["s", "t"],
            "t": ["b", "a"],
        },
    )
    with pytest.raises(GraphError) as exc:
        find_rhombi(g)
    assert exc.value.kind == "non-triangular-face"


def test_hamiltonian_triangle(tri):
    names = tri.base.names
    path = hamiltonian_path(tri.base)
    assert path is not None
    assert [names[v] for v in path] == ["s", "v", "t"]


def test_hamiltonian_rhombus_none(rh):
    assert hamiltonian_path(rh.base) is None


def test_exhaustive_hamiltonian_examples(tri, rh):
    assert exhaustive_hamiltonian(tri.base) is True
    assert exhaustive_hamiltonian(rh.base) is False
    with pytest.raises(GraphError):
        exhaustive_hamiltonian(random_ot(GenProfile(7, 7, 0.5, 1)).base)


def test_hamiltonicity_characterization_small(corpus):
    # Hamiltonian path exists iff no rhombus, cross-checked with DFS.
    checked = 0
    for ot in corpus:
        g = ot.base
        if g.n > 12:
            continue
        path = hamiltonian_path(g)
        rhombi = find_rhombi(g)
        brute = exhaustive_hamiltonian(g)
        assert (path is not None) == (len(rhombi) == 0) == brute
        if path is not None:
            assert len(set(path)) == g.n
            assert all((a, b) in g.edges for a, b in zip(path, path[1:]))
        checked += 1
    assert checked >= 50


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_find_rhombi_constant_lookups_per_edge(f9):
    # One O(1) test per edge: three rotation-position lookups per side of
    # an edge, plus one walk around the outer face.
    g = replace(f9.base)  # a copy without cached properties
    counting = tuple(_CountingDict(pos) for pos in f9.base._rot_pos)
    g.__dict__["_rot_pos"] = counting
    assert find_rhombi(g) == find_rhombi(f9.base)
    assert sum(d.lookups for d in counting) <= 6 * g.m + g.n


def _interior_vertex_graph():
    """Outer cycle s-a-t-b with an interior vertex c joined to all four: a
    triangulated st-digraph that is not outerplanar."""
    return build_graph(
        names=["s", "a", "b", "c", "t"],
        source="s",
        sink="t",
        edges=[
            ("s", "a"), ("s", "b"), ("s", "c"), ("a", "c"),
            ("b", "c"), ("a", "t"), ("b", "t"), ("c", "t"),
        ],
        rotation={
            "s": ["a", "c", "b"],
            "a": ["t", "c", "s"],
            "b": ["t", "s", "c"],
            "c": ["t", "b", "s", "a"],
            "t": ["b", "c", "a"],
        },
    )


def test_non_outerplanar_rhombus_and_no_path():
    g = _interior_vertex_graph()
    ids = g.id_of
    (r,) = find_rhombi(g)
    assert r.median == (ids["s"], ids["c"])
    assert (r.left_apex, r.right_apex) == (ids["a"], ids["b"])
    # The definition: the medians are the edges with two distinct apexes.
    bare = SimpleNamespace(base=g)
    assert [e for e in sorted(g.edges) if brute_is_median(bare, e)] == [r.median]
    assert hamiltonian_path(g) is None
    assert exhaustive_hamiltonian(g) is False
