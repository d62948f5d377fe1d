import pytest

from hpccm import (
    GraphError,
    StPolygon,
    all_costs,
    decompose,
    dp_solve,
    exhaustive_min_crossings,
    reconstruct,
    solve,
    verify_solution,
)
from hpccm.oracle_gen import crossed_edges, polygon_costs
from hpccm.solver import interleaves
from tests.conftest import fan_polygon, permutation_oracle


def _ids(ot):
    return {n: i for i, n in enumerate(ot.base.names)}


def test_polygon_costs_rhombus(rh):
    (p,) = decompose(rh).elements
    c = polygon_costs(p)
    assert (c.cost_left, c.cost_right) == (1, 1)


def test_polygon_costs_fan():
    ot = fan_polygon()
    (p,) = decompose(ot).elements
    c = polygon_costs(p)
    assert c.cost_right == 1 + 2 + 0
    assert c.cost_left == 1
    # Independent single-edge check: count boundary interleavings of the
    # two candidate completion edges.
    cyc = ot.cycle_pos
    n = ot.base.n
    for ce, expected in ((c.edge_right, c.cost_right), (c.edge_left, c.cost_left)):
        forced = sum(
            1 for e in ot.base.edges if interleaves(cyc, n, ce, e)
        )
        assert forced == expected


def test_polygon_costs_f9(f9):
    (p,) = decompose(f9).elements
    c = polygon_costs(p)
    assert (c.cost_left, c.cost_right) == (5, 5)


def test_cost_formula_chord_sensitivity():
    # Adding a chord from an inner left vertex to the sink raises the
    # right-entry cost by one and leaves the left-entry cost alone.
    base = dict(
        source=0,
        sink=5,
        median=(0, 5),
        left_chain=(1, 2),
        right_chain=(3,),
        lower_limit=None,
        upper_limit=None,
        src_adj_left=(True, False),
        src_adj_right=(True,),
        sink_adj_left=(False, True),
        sink_adj_right=(True,),
    )
    bare = polygon_costs(StPolygon(**base))
    chorded = polygon_costs(
        StPolygon(**{**base, "sink_adj_left": (True, True)})
    )
    assert chorded.cost_right == bare.cost_right + 1
    assert chorded.cost_left == bare.cost_left


def test_crossed_edges_rhombus(rh):
    (p,) = decompose(rh).elements
    assert crossed_edges(p, "L") == ((rh.base.s, rh.base.t),)
    assert crossed_edges(p, "R") == ((rh.base.s, rh.base.t),)


def test_crossed_edges_fan_order():
    ot = fan_polygon()
    ids = _ids(ot)
    (p,) = decompose(ot).elements
    lst = crossed_edges(p, "R")
    assert lst == (
        (ids["l2"], ids["t"]),
        (ids["l1"], ids["t"]),
        (ids["s"], ids["t"]),
    )


def test_dp_triangle(tri):
    d = decompose(tri)
    table = dp_solve(d, all_costs(d))
    assert table.minimum == 0


def test_dp_rhombus(rh):
    d = decompose(rh)
    table = dp_solve(d, all_costs(d))
    assert table.minimum == 1


def test_dp_two_shared_stack(stack3):
    d = decompose(stack3)
    table = dp_solve(d, all_costs(d))
    assert table.minimum == 3
    assert table.minimum == exhaustive_min_crossings(stack3)


def test_dp_junction_penalty():
    # Forcing both entries onto the shared side must cost one extra
    # crossing: on a 2-polygon stack the four side vectors split 3/2.
    from hpccm import polygon_stack
    from hpccm.oracle_gen import construct_path

    ot = polygon_stack(2)
    d = decompose(ot)
    costs = all_costs(d)
    cyc = ot.cycle_pos
    n = ot.base.n
    totals = {}
    for sides in (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")):
        path, ces, _ = construct_path(d, costs, list(sides))
        totals[sides] = sum(
            1
            for ce in ces
            for e in ot.base.edges
            if interleaves(cyc, n, ce, e)
        )
    # stack sinks are on the left chain: only L-after-L pays the penalty
    assert totals[("L", "L")] == 3
    assert totals[("L", "R")] == totals[("R", "L")] == totals[("R", "R")] == 2


def test_dp_inconsistent_decomposition(stack3):
    # A shared-edge junction whose sink is t cannot occur; the DP's join
    # classification (core.dp_kinds) rejects a layout claiming one.
    d = decompose(stack3)
    layout = d.layout
    junction = list(layout.shared).index(2)
    layout.snk[junction] = layout.arrays.k + 1
    with pytest.raises(GraphError) as exc:
        dp_solve(d, all_costs(d))
    assert exc.value.kind == "inconsistent-decomposition"


def test_foreign_costs_and_table_rejected(stack3):
    d, other = decompose(stack3), decompose(stack3)
    costs = all_costs(d)
    table = dp_solve(d, costs)
    calls = (
        lambda: dp_solve(other, costs),
        lambda: dp_solve(d, tuple(costs)),
        lambda: reconstruct(other, table),
        lambda: reconstruct(d, table, all_costs(other)),
    )
    for call in calls:
        with pytest.raises(GraphError) as exc:
            call()
        assert exc.value.kind == "foreign-input"


def test_reconstruct_rhombus(rh):
    r = solve(rh)
    names = rh.base.names
    assert [names[v] for v in r.path] in (["s", "a", "b", "t"], ["s", "b", "a", "t"])
    assert len(r.completion_edges) == 1
    assert r.crossings == (((rh.base.s, rh.base.t),),)
    assert r.total_crossings == 1


def test_reconstruct_triangle(tri):
    r = solve(tri)
    assert [tri.base.names[v] for v in r.path] == ["s", "v", "t"]
    assert r.completion_edges == ()
    assert r.total_crossings == 0


def test_solver_matches_oracle_and_verifies(corpus):
    for ot in corpus:
        r = solve(ot)
        assert verify_solution(ot, r) == []
        assert r.total_crossings == exhaustive_min_crossings(ot)


def test_reconstruct_total_matches_dp(corpus):
    for ot in corpus[:80]:
        d = decompose(ot)
        costs = all_costs(d)
        table = dp_solve(d, costs)
        r = reconstruct(d, table, costs)
        assert r.total_crossings == table.minimum


def test_solver_optimal_over_all_topological_orders(corpus, pfp):
    # Strongest check: the DP value equals the true optimum over every
    # acyclic completion with at most one crossing per edge.
    checked = 0
    for ot in [*corpus, pfp]:
        if ot.base.n > 9:
            continue
        expected = permutation_oracle(ot)
        assert expected is not None
        assert solve(ot).total_crossings == expected
        checked += 1
    assert checked >= 40


def test_pfp_instance(pfp):
    r = solve(pfp)
    assert r.total_crossings == 2
    assert verify_solution(pfp, r) == []


def test_verify_rejects_corruptions(rh):
    from dataclasses import replace

    r = solve(rh)
    broken = replace(r, path=tuple(reversed(r.path)))
    assert verify_solution(rh, broken)
    # spurious extra crossing
    broken = replace(
        r, crossings=((r.crossings[0][0], (0, 1)),), total_crossings=2
    )
    assert verify_solution(rh, broken)
    # dropped crossing
    broken = replace(r, crossings=((),), total_crossings=0)
    assert verify_solution(rh, broken)
    # wrong total
    broken = replace(r, total_crossings=5)
    assert verify_solution(rh, broken)


def test_verify_rejects_reordered_crossings(f9):
    from dataclasses import replace

    r = solve(f9)
    lst = r.crossings[0]
    swapped = (lst[1], lst[0], *lst[2:])
    broken = replace(r, crossings=(swapped, *r.crossings[1:]))
    out = verify_solution(f9, broken)
    assert any("geometric order" in v for v in out)


def test_single_polygon_minimum_is_side_minimum(corpus, f9):
    for ot in [*corpus, f9]:
        d = decompose(ot)
        if d.polygon_count != 1 or len(d.elements) != 1:
            continue
        c = all_costs(d)[0]
        assert solve(ot).total_crossings == min(c.cost_left, c.cost_right)


def test_oracle_polygon_limit(stack3):
    with pytest.raises(GraphError) as exc:
        exhaustive_min_crossings(stack3, max_polygons=2)
    assert exc.value.kind == "too-many-polygons"
