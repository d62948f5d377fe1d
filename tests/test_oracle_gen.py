import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import hpccm.graph_model as gm
import hpccm.oracle_gen as og
from hpccm import (
    GenProfile,
    GraphError,
    classify_ot,
    decompose,
    exhaustive_min_crossings,
    five_crossing_polygon,
    polygon_stack,
    random_ot,
    rhombus,
    serialize_graph,
    solve,
    triangle,
)
import pytest

from conftest import check_key_column, fan_polygon, make_pfp


def test_profile_validation():
    with pytest.raises(ValueError):
        GenProfile(n_left=0, n_right=0)
    with pytest.raises(ValueError):
        GenProfile(n_left=1, n_right=1, polygon_bias=1.5)


def test_single_left_vertex_is_triangle():
    # A 3-cycle has exactly one triangulation.
    for seed in range(5):
        ot = random_ot(GenProfile(n_left=1, n_right=0, seed=seed))
        names = ot.base.names
        edges = {(names[u], names[v]) for (u, v) in ot.base.edges}
        assert edges == {("s", "l1"), ("l1", "t"), ("s", "t")}


def test_quadrilateral_both_triangulations_occur():
    shapes = set()
    for seed in range(40):
        ot = random_ot(GenProfile(n_left=1, n_right=1, seed=seed))
        names = ot.base.names
        ids = {n: i for i, n in enumerate(names)}
        if (ids["s"], ids["t"]) in ot.base.edges:
            shapes.add("median")
        else:
            shapes.add("crossing-chord")
    assert shapes == {"median", "crossing-chord"}


def test_generator_determinism():
    p = GenProfile(n_left=5, n_right=4, polygon_bias=0.3, seed=123)
    assert serialize_graph(random_ot(p).base) == serialize_graph(random_ot(p).base)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_generator_always_classifies(k, m, bias, seed):
    if k + m < 1:
        return
    ot = random_ot(GenProfile(n_left=k, n_right=m, polygon_bias=bias, seed=seed))
    # classify_ot ran inside random_ot; re-derive from the serialized form
    assert classify_ot(ot.base).left == ot.left


def test_validator_accepts_large_sample():
    # 1000 samples across sizes up to n = 40; classify_ot is the oracle
    # and raises on any invalid instance.
    count = 0
    for seed in range(1000):
        k = 1 + seed % 19
        m = 1 + (seed // 19) % 19
        ot = random_ot(
            GenProfile(n_left=k, n_right=m, polygon_bias=(seed % 10) / 9, seed=seed)
        )
        assert ot.base.n == k + m + 2 <= 40
        count += 1
    assert count == 1000


def test_bias_extremes_reach_polygons():
    # At either bias extreme, at least 1% of instances with n >= 4 contain
    # a polygon.
    for bias in (0.0, 1.0):
        hits = 0
        for seed in range(200):
            ot = random_ot(
                GenProfile(n_left=2, n_right=2, polygon_bias=bias, seed=seed)
            )
            if decompose(ot).polygon_count >= 1:
                hits += 1
        assert hits >= 2  # >= 1% of 200


def test_full_fan_bias_yields_single_polygon():
    for seed in range(20):
        ot = random_ot(GenProfile(n_left=3, n_right=3, polygon_bias=1.0, seed=seed))
        d = decompose(ot)
        assert d.polygon_count >= 1
        assert (ot.base.s, ot.base.t) in ot.base.edges


def test_exhaustive_examples(tri, rh):
    assert exhaustive_min_crossings(tri) == 0
    assert exhaustive_min_crossings(rh) == 1


def test_polygon_stack_structure():
    for count in (1, 2, 3, 6):
        ot = polygon_stack(count)
        d = decompose(ot)
        assert d.polygon_count == count
        assert all(c == 2 for c in d.shared)
        r = solve(ot)
        assert r.total_crossings == count
        if count <= 6:
            assert exhaustive_min_crossings(ot) == count


def test_five_crossing_polygon_costs(f9):
    from hpccm import all_costs

    d = decompose(f9)
    assert len(d.elements) == 1
    c = all_costs(d)[0]
    assert (c.cost_left, c.cost_right) == (5, 5)


def test_generator_reaches_five_crossing_shape():
    # Found by scanning seeds: a generated single polygon on chains (8, 4)
    # whose two single-edge completions both cost 5.
    from hpccm import all_costs

    ot = random_ot(GenProfile(n_left=8, n_right=4, polygon_bias=1.0, seed=385))
    d = decompose(ot)
    assert len(d.elements) == 1
    c = all_costs(d)[0]
    assert (c.cost_left, c.cost_right) == (5, 5)
    assert solve(ot).total_crossings == 5


def test_crossing_chords_rejected():
    # Two crossing chords of a pentagon give m = 2n - 3 edges, as many as
    # a triangulation has, but the rotations then trace no triangles.
    shape = dict(
        names=["s", "a", "b", "t", "c"],
        cycle=[0, 1, 2, 3, 4],
        heights=[0, 1, 2, 4, 3],
        chords=[(0, 2), (1, 3)],
    )
    unchecked = og._slots_py(**shape)
    assert unchecked.m == 2 * unchecked.n - 3
    with pytest.raises(GraphError):
        og._from_cycle(**shape)
    with pytest.raises(GraphError):
        classify_ot(unchecked)


# ---------------------------------------------------------------------------
# The numpy builder against the pure-Python one


def _pure_path_fails(*args):
    raise AssertionError("a pure-Python build step ran")


CROSSING_CHORDS = (
    ["s", "a", "b", "t", "c"], [0, 1, 2, 3, 4], [0, 1, 2, 4, 3], [(0, 2), (1, 3)]
)


def test_numpy_builder_matches_pure(kernel_profiles, monkeypatch):
    # Every instance the builders and the kernel corpus's draws make goes
    # through _from_cycle; with the threshold at 0 numpy builds it and
    # must give the pure path's graph and arrays, or its error.
    np = pytest.importorskip("numpy")
    inputs, build = [CROSSING_CHORDS], og._from_cycle

    def recorded(names, cycle, heights, chords):
        inputs.append((names, cycle, heights, chords))
        return build(names, cycle, heights, chords)

    monkeypatch.setattr(og, "_from_cycle", recorded)
    for make in (triangle, rhombus, five_crossing_polygon, make_pfp, fan_polygon):
        make()
    for k in range(1, 9):
        polygon_stack(k)
    for prof in kernel_profiles:
        random_ot(prof)
    monkeypatch.undo()

    def built(args):
        try:
            return build(*args)
        except GraphError as exc:
            return exc.kind, str(exc)

    pure = [built(args) for args in inputs]
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    for module, name in ((og, "_slots_py"), (gm, "_rank_py")):
        monkeypatch.setattr(module, name, _pure_path_fails)
    named = []
    for name in ("_cycle_py", "_arrays_py"):
        def naming(g, *args, name=name, reference=getattr(gm, name)):
            named.append((name, g.names))
            return reference(g, *args)

        monkeypatch.setattr(gm, name, naming)
    assert len(inputs) == 1 + 5 + 8 + len(kernel_profiles)
    assert isinstance(pure[0], tuple) and not isinstance(pure[1], tuple)
    for i, ref in enumerate(pure):
        ot = built(inputs[i])
        if isinstance(ref, tuple):
            assert ot == ref
            continue
        for name in ("names", "s", "t", "keys", "edges", "off", "nbr", "out", "twin"):
            assert getattr(ot.base, name) == getattr(ref.base, name), (i, name)
        g = ref.base
        out_slots = frozenset(
            (v, g.nbr[j]) for v in range(g.n) for j in range(g.off[v], g.off[v + 1]) if g.out[j]
        )
        check_key_column(g, out_slots)
        assert ot.base == g and hash(ot.base) == hash(g)
        for name in gm.OtArrays.__slots__:
            assert getattr(ot.arrays, name) == getattr(ref.arrays, name), (i, name)
    # Only the crossing chords reach a pure body, which names the error.
    # Their outer face is a 5-cycle and m = 7 = 2 * 5 - 3, so both outer
    # walks take them, and the positional arrays' check rejects them.
    names = tuple(CROSSING_CHORDS[0])
    assert named == [("_arrays_py", names)]
    monkeypatch.undo()
    g = og._slots_py(*CROSSING_CHORDS)
    cyc, k = gm._cycle_np(np, g)
    assert (list(cyc), k) == gm._cycle_py(g)


def test_numpy_builder_gives_the_pure_slots(monkeypatch):
    # What _slots_np itself returns, before classification: the key column
    # and the rows of _slots_py, on a stack and on draws of every bias.
    pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    built, slots_np = [], og._slots_np

    def compared(np, *args):
        g, ref = slots_np(np, *args), og._slots_py(*args)
        for name in ("keys", "off", "nbr"):
            assert getattr(g, name) == getattr(ref, name), (len(built), name)
        built.append(g.n)
        return g

    monkeypatch.setattr(og, "_slots_np", compared)
    polygon_stack(300)
    for i in range(20):
        random_ot(GenProfile(1 + 7 * i % 40, 1 + 11 * i % 30, (i % 5) / 4, seed=40 + i))
    assert len(built) == 21 and built[0] == 602


# sha256 of the files the generators write, as the pure-Python builder and
# a serializer sorting edge tuples wrote them.
GENERATED_SHA256 = {
    "stack9999": "a382c766a3eafc1659b1863380cddbac6a62343c92539186c90d1d8a9c479329",
    "bias0": "f5636f2c5bab7b6bb1f4cffc0cb93b66d6106fa328d5c432e73951917f8f7c34",
    "bias0.5": "dd499b82f4b8fe73f73492656280c5a7d4e81c28415cc398b71ab8fd3fd8803d",
    "bias1": "7e6ad73d68f3862a7cfda0a820ee4de60f16dac82ec3ae05f7dee47126298a4a",
}


@pytest.mark.parametrize("threshold", [None, 0])
def test_generated_files_are_pinned(threshold, monkeypatch):
    # At the default threshold the draws (n = 4000) are built and written
    # in pure Python and the stack (n = 20000) with numpy; at 0, all are.
    if threshold is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(gm, "NUMPY_MIN_N", threshold)
    instances = {
        "stack9999": polygon_stack(9999),
        "bias0": random_ot(GenProfile(1999, 1999, 0, seed=21)),
        "bias0.5": random_ot(GenProfile(1999, 1999, 0.5, seed=22)),
        "bias1": random_ot(GenProfile(1999, 1999, 1, seed=23)),
    }
    digests = {
        name: hashlib.sha256(serialize_graph(ot.base).encode()).hexdigest()
        for name, ot in instances.items()
    }
    assert digests == GENERATED_SHA256
