"""The positional kernel: numpy against pure Python, kernel records against
the record-level formulas, and the instance arrays themselves."""

import random
import sys
from dataclasses import replace

import pytest

import hpccm.graph_model as gm
from hpccm import (
    EmbeddedDigraph,
    GenProfile,
    GraphError,
    HpCompletionResult,
    StPolygon,
    all_costs,
    classify_ot,
    decompose,
    dp_solve,
    polygon_stack,
    random_ot,
    parse_graph,
    reconstruct,
    serialize_graph,
    solve,
    verify_solution,
)
from hpccm.core import backtrack, build_path, crossing_columns
from hpccm.decomposition import _decompose
from hpccm.oracle_gen import construct_path, polygon_costs


def _pipeline(ot, np):
    d = _decompose(ot, np)
    costs = all_costs(d)
    table = dp_solve(d, costs)
    return d, costs, table, reconstruct(d, table, costs)


def test_numpy_kernel_matches_pure(kernel_corpus):
    np = pytest.importorskip("numpy")
    for ot in kernel_corpus:
        d_py, c_py, t_py, r_py = _pipeline(ot, None)
        d_np, c_np, t_np, r_np = _pipeline(ot, np)
        assert d_np.layout.lists() == d_py.layout.lists()
        assert d_np.elements == d_py.elements
        assert d_np.shared == d_py.shared
        assert tuple(c_np) == tuple(c_py)
        assert (t_np.cost_l, t_np.cost_r) == (t_py.cost_l, t_py.cost_r)
        assert (t_np.back_l, t_np.back_r) == (t_py.back_l, t_py.back_r)
        assert r_np == r_py


def test_numpy_kernel_matches_pure_at_size():
    np = pytest.importorskip("numpy")
    for bias in (0.0, 0.5, 1.0):
        ot = random_ot(GenProfile(n_left=700, n_right=900, polygon_bias=bias, seed=11))
        assert _pipeline(ot, np)[1:] == _pipeline(ot, None)[1:]


def test_kernel_costs_match_record_formula(kernel_corpus):
    # The kernel counts chords by block lengths in the rotations; the
    # record formula sums the adjacency flags of each chain vertex.
    for ot in kernel_corpus:
        d = decompose(ot)
        costs = all_costs(d)
        for el, c in zip(d.elements, costs):
            assert c == (polygon_costs(el) if isinstance(el, StPolygon) else None)


def test_kernel_path_matches_record_construction(kernel_corpus):
    for ot in kernel_corpus:
        d = decompose(ot)
        costs = all_costs(d)
        table = dp_solve(d, costs)
        r = reconstruct(d, table, costs)
        sides = [None] * len(d.elements)
        cur = table.final_side
        for i in range(len(sides) - 1, -1, -1):
            sides[i] = cur
            cur = table.back_l[i] if cur == "L" else table.back_r[i]
        path, ces, crossings = construct_path(d, costs, sides)
        assert (r.path, r.completion_edges, r.crossings) == (path, ces, crossings)
        assert r.total_crossings == table.minimum


@pytest.mark.parametrize("numpy", [False, True])
def test_crossing_columns_check_every_hop(numpy):
    # Hop counts that are off in opposite directions keep the total; each
    # hop's own count still gives them away.
    np = pytest.importorskip("numpy") if numpy else None
    ot = polygon_stack(6)
    d = _decompose(ot, np)
    cost_l, cost_r, back_l, back_r = dp_solve(d, all_costs(d)).columns
    back_l, back_r = (list(map(int, back)) for back in (back_l, back_r))
    sides = backtrack(back_l, back_r, 0 if cost_l[-1] <= cost_r[-1] else 1)
    pc = build_path(d.layout, sides)
    assert len(pc.counts) >= 2
    crossing_columns(d.layout, sides, pc)
    counts = pc.counts.copy()
    counts[0] += 1
    counts[1] -= 1
    with pytest.raises(GraphError, match="hop from element") as err:
        crossing_columns(d.layout, sides, pc._replace(counts=counts))
    assert err.value.kind == "internal"


def test_pure_kernel_without_numpy(monkeypatch):
    # Without numpy every size runs the pure-Python kernel.
    monkeypatch.setitem(sys.modules, "numpy", None)
    ot = polygon_stack(gm.NUMPY_MIN_N)
    d = decompose(ot)
    assert d.layout.np is None
    assert solve(ot, check=False).total_crossings == gm.NUMPY_MIN_N


def test_backend_chosen_by_size():
    np = pytest.importorskip("numpy")
    assert gm.backend(gm.NUMPY_MIN_N - 1) is None
    assert gm.backend(gm.NUMPY_MIN_N) is np
    assert decompose(polygon_stack(gm.NUMPY_MIN_N)).layout.np is np


def test_arrays_same_for_any_row_start(corpus):
    # Rotations are cyclic: a base whose rows start anywhere (the source's
    # still at its leftmost edge) relabels to the same positional arrays.
    rng = random.Random(5)
    for ot in corpus[:40]:
        g = ot.base
        rows = []
        for v in range(g.n):
            row = list(g.nbr[g.off[v] : g.off[v + 1]])
            i = 0 if v == g.s else rng.randrange(len(row))
            rows.append(row[i:] + row[:i])
        turned = EmbeddedDigraph.from_rows(g.names, g.s, g.t, g.edges, rows)
        arrays = classify_ot(turned).arrays
        for name in ("cyc", "off", "nbr", "out", "rank"):
            assert getattr(arrays, name) == getattr(ot.arrays, name), name


def test_rank_is_topological_order(corpus):
    for ot in corpus:
        a = ot.arrays
        pos = ot.cycle_pos
        assert sorted(a.rank) == list(range(ot.n))
        for (u, v) in ot.base.edges:
            assert a.rank[pos[u]] < a.rank[pos[v]]


def test_out_flags_match_edges(corpus):
    for ot in corpus[:40]:
        a = ot.arrays
        for p in range(a.n):
            for i in range(a.off[p], a.off[p + 1]):
                edge = (a.cyc[p], a.cyc[a.nbr[i]])
                assert bool(a.out[i]) == (edge in ot.base.edges)


def test_parsed_instance_solves_like_generated(corpus):
    for ot in corpus[:30]:
        again = classify_ot(parse_graph(serialize_graph(ot.base)))
        assert solve(again) == solve(ot)


def test_deferred_result_behaves_like_a_record(stack3):
    # A solver-made result leaves its tuples to the first read.
    def deferred():
        return _pipeline(stack3, None)[3]

    r = deferred()
    assert "path" not in r.__dict__
    eager = HpCompletionResult(
        path=r.path,
        completion_edges=r.completion_edges,
        crossings=r.crossings,
        total_crossings=r.total_crossings,
    )
    assert deferred() == eager == solve(stack3)
    assert repr(deferred()) == repr(eager)
    broken = replace(deferred(), total_crossings=0)
    assert verify_solution(stack3, broken)
