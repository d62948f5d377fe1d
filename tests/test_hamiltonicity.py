import random
from array import array
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
import hpccm.graph_model as gm
import hpccm.hamiltonicity as ham
from hpccm import parse_graph, polygon_stack
from hpccm.graph_model import build_graph
from tests.conftest import brute_is_median
from tests.test_graph_model import _pure_path_fails, _reversed, _single_mutations


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


def _square_graph():
    # Square face: s -> a -> t, s -> b -> t without any chord.
    return build_graph(
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


def test_non_triangulated_rejected():
    with pytest.raises(GraphError) as exc:
        find_rhombi(_square_graph())
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


class _CountingArray(array):
    """A slot array that counts its item reads."""

    reads = 0

    def __getitem__(self, key):
        _CountingArray.reads += 1
        return super().__getitem__(key)


def test_find_rhombi_constant_lookups_per_edge(f9):
    # O(1) per edge: each face step reads one slot of ``twin`` and one of
    # ``nbr``, and each slot is stepped from once in the face walk.
    base = f9.base
    slots = {name: _CountingArray("i", getattr(base, name)) for name in ("nbr", "twin")}
    g = replace(base, **slots)
    _CountingArray.reads = 0
    assert find_rhombi(g) == find_rhombi(base)
    assert 0 < _CountingArray.reads <= 6 * g.m + g.n


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


def _triangle_outer_graph():
    """K4 as a maximal planar st-digraph: outer face the triangle s, a, t,
    with c inside joined to all three.  s->a->t and s->c->t flank s->t, but
    only c's triangle is an interior face, so s->t is no median."""
    return build_graph(
        names=["s", "a", "c", "t"],
        source="s",
        sink="t",
        edges=[("s", "a"), ("s", "c"), ("s", "t"), ("a", "c"), ("a", "t"), ("c", "t")],
        rotation={
            "s": ["a", "c", "t"],
            "a": ["t", "c", "s"],
            "c": ["t", "s", "a"],
            "t": ["s", "c", "a"],
        },
    )


def test_outer_face_flanks_no_median():
    g = _triangle_outer_graph()
    assert find_rhombi(g) == ()
    assert [g.names[v] for v in hamiltonian_path(g)] == ["s", "a", "c", "t"]


def _rhombi_or_error(g):
    try:
        return find_rhombi(g)
    except GraphError as exc:
        return exc.kind, str(exc)


def test_numpy_rhombi_match_pure(corpus, monkeypatch):
    # With the threshold at 0 every graph goes through the numpy detector,
    # which must give the pure rows, and leave to the pure function only
    # the graphs it rejects, for it to name the face.
    pytest.importorskip("numpy")
    graphs = [ot.base for ot in corpus]
    graphs += [_interior_vertex_graph(), _triangle_outer_graph(), _square_graph()]
    for text in _single_mutations(corpus, 2600, seed=9):
        try:
            graphs.append(parse_graph(text))
        except GraphError:
            pass
    pure = list(map(_rhombi_or_error, graphs))
    raised = sum(isinstance(r[0], str) for r in pure if r)  # (kind, message)
    assert len(graphs) - len(corpus) >= 550 and raised >= 250, (len(graphs), raised)
    reference, calls = ham._rhombi_py, []

    def counted(g):
        calls.append(g)
        return reference(g)

    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    monkeypatch.setattr(ham, "_rhombi_py", counted)
    assert list(map(_rhombi_or_error, graphs)) == pure
    assert len(calls) == raised


def test_numpy_rhombi_at_size(monkeypatch):
    # At the default threshold a stack of 9999 polygons is read by numpy
    # alone, one rhombus per polygon.
    pytest.importorskip("numpy")
    g = polygon_stack(9999).base
    assert g.n >= gm.NUMPY_MIN_N
    pure = tuple(ham.Rhombus(u, v, a, b, (u, v)) for u, v, a, b in zip(*ham._rhombi_py(g)))
    monkeypatch.setattr(ham, "_rhombi_py", _pure_path_fails)
    rhombi = find_rhombi(g)
    assert len(rhombi) == 9999
    assert rhombi == pure


def _kahn_path(g):
    """:func:`hamiltonian_path` by Kahn elimination alone, the reference."""
    order, ambiguous = gm.kahn_order(g)
    if ambiguous or len(order) != g.n:
        return None
    if any((a, b) not in g.edges for a, b in zip(order, order[1:])):
        return None
    return tuple(order)


def _torus_grid_graph():
    """The triangle s, v, t beside a 3 x 3 torus grid whose edges point
    right and up, unvalidated: bimodal rows and one source and one sink,
    yet the grid is all cycles."""
    cell = [f"g{x}{y}" for x in range(3) for y in range(3)]
    edges = [("s", "v"), ("v", "t"), ("s", "t")]
    rotation = {"s": ["v", "t"], "v": ["t", "s"], "t": ["s", "v"]}
    for x in range(3):
        for y in range(3):
            right, up = f"g{(x + 1) % 3}{y}", f"g{x}{(y + 1) % 3}"
            left, down = f"g{(x - 1) % 3}{y}", f"g{x}{(y - 1) % 3}"
            edges += [(f"g{x}{y}", right), (f"g{x}{y}", up)]
            rotation[f"g{x}{y}"] = [right, down, left, up]
    return build_graph(["s", "v", "t", *cell], "s", "t", edges, rotation, validate=False)


def test_numpy_hamiltonian_matches_kahn(corpus, monkeypatch):
    # With the threshold at 0 every graph gets its order from numpy, which
    # must give Kahn's answer on every valid graph without declining.
    np = pytest.importorskip("numpy")
    graphs = [ot.base for ot in corpus]
    graphs += [_interior_vertex_graph(), _triangle_outer_graph(), _square_graph()]
    for text in _single_mutations(corpus, 2600, seed=9):
        try:
            graphs.append(parse_graph(text))
        except GraphError:
            pass
    chains = (GenProfile(0, k, polygon_bias=k % 5 / 4, seed=k) for k in range(1, 61))
    graphs += [ot.base for ot in map(random_ot, chains)]
    expected = list(map(_kahn_path, graphs))
    assert sum(path is not None for path in expected) >= 60
    order_np, declined = ham._order_np, []

    def recorded(np, g):
        found = order_np(np, g)
        if found is None:
            declined.append(g)
        return found

    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    monkeypatch.setattr(ham, "_order_np", recorded)
    assert list(map(hamiltonian_path, graphs)) == expected
    assert declined == []
    # A graph with a directed cycle has no topological order to vouch for.
    # The torus grid's rows pass every test of the tree; the triangle
    # s -> a -> b -> s gives s an in-edge; in draws with reversed edges the
    # tree may well be one, with an edge that points backward.
    cyclic = [_torus_grid_graph(), build_graph(
        ["s", "a", "b", "t"], "s", "t",
        [("s", "a"), ("a", "b"), ("b", "s"), ("b", "t"), ("s", "t")],
        {"s": ["a", "t", "b"], "a": ["b", "s"], "b": ["t", "s", "a"], "t": ["s", "b"]},
        validate=False,
    )]
    rng = random.Random(41)
    while len(cyclic) < 40:
        prof = GenProfile(rng.randint(1, 5), rng.randint(1, 5), rng.random(), rng.randrange(10**6))
        g = random_ot(prof).base
        inner = sorted(e for e in g.edges if g.s not in e and g.t not in e)
        g = _reversed(g, set(rng.sample(inner, min(len(inner), 2))))
        if len(gm.kahn_order(g)[0]) < g.n:
            cyclic.append(g)
    for g in cyclic:
        assert order_np(np, g) is None
        assert hamiltonian_path(g) is None


def test_numpy_hamiltonian_at_size():
    # At the default threshold large graphs get their order from numpy
    # alone: no Kahn pass runs.
    pytest.importorskip("numpy")
    chain = random_ot(GenProfile(0, gm.NUMPY_MIN_N, polygon_bias=0.5, seed=3)).base
    for g in (polygon_stack(9999).base, chain):
        assert g.n >= gm.NUMPY_MIN_N
        expected = _kahn_path(g)
        assert hamiltonian_path(g) == expected
        assert "kahn" not in g.__dict__
    assert expected is not None and len(expected) == chain.n
