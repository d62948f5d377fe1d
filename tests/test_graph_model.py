import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpccm import (
    EmbeddedDigraph,
    GenProfile,
    GraphError,
    Sidedness,
    build_graph,
    classify_ot,
    edge_sidedness,
    faces,
    parse_graph,
    random_ot,
    serialize_graph,
)
from hpccm.graph_model import _FORMAT_KEYS

TRIANGLE_JSON = json.dumps(
    {
        "vertices": ["s", "v", "t"],
        "source": "s",
        "sink": "t",
        "edges": [["s", "v"], ["v", "t"], ["s", "t"]],
        "rotation": {"s": ["v", "t"], "v": ["t", "s"], "t": ["s", "v"]},
    }
)

RHOMBUS_JSON = json.dumps(
    {
        "vertices": ["s", "a", "b", "t"],
        "source": "s",
        "sink": "t",
        "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"], ["s", "t"]],
        "rotation": {
            "s": ["a", "t", "b"],
            "a": ["t", "s"],
            "b": ["s", "t"],
            "t": ["b", "s", "a"],
        },
    }
)


def test_parse_triangle():
    g = parse_graph(TRIANGLE_JSON)
    assert g.n == 3 and g.m == 3
    fs = faces(g)
    assert len(fs.walks) == 2
    assert len(fs.interior) == 1


def test_parse_rhombus():
    g = parse_graph(RHOMBUS_JSON)
    assert g.n == 4 and g.m == 5
    fs = faces(g)
    assert len(fs.interior) == 2


def test_two_sinks_rejected():
    bad = json.dumps(
        {
            "vertices": ["s", "a", "b"],
            "source": "s",
            "sink": "a",
            "edges": [["s", "a"], ["s", "b"]],
            "rotation": {"s": ["a", "b"], "a": ["s"], "b": ["s"]},
        }
    )
    with pytest.raises(GraphError) as exc:
        parse_graph(bad)
    assert exc.value.kind == "multi-sink"


def test_syntax_error_reports_position():
    with pytest.raises(GraphError) as exc:
        parse_graph('{"vertices": [,]}')
    assert exc.value.kind == "syntax"
    assert "line 1" in str(exc.value)


def _triangle_json(edges=None, rotation=None) -> str:
    data = json.loads(TRIANGLE_JSON)
    if edges is not None:
        data["edges"] = edges
    data["rotation"].update(rotation or {})
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, kind",
    [
        pytest.param(_triangle_json(edges=5), "schema", id="edges-int"),
        pytest.param(_triangle_json(rotation={"v": 7}), "schema", id="row-int"),
        pytest.param(_triangle_json(rotation={"s": "vt"}), "schema", id="row-string"),
        pytest.param(_triangle_json(rotation={"x": []}), "schema", id="unknown-key"),
        pytest.param("[" * 10**5, "syntax", id="deep-nesting"),
    ],
)
def test_malformed_input_is_a_graph_error(text, kind):
    with pytest.raises(GraphError) as exc:
        parse_graph(text)
    assert exc.value.kind == kind


_NAMES = st.sampled_from(["s", "v", "t", "x"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | _NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_NAMES | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            key: st.just(json.loads(TRIANGLE_JSON)[key]) | _JSON
            for key in _FORMAT_KEYS
        }
    )
)
def test_parse_graph_any_values_give_graph_or_graph_error(data):
    # Each key holds either the triangle's own value or any JSON value.
    try:
        g = parse_graph(json.dumps(data))
    except GraphError:
        return
    assert isinstance(g, EmbeddedDigraph)


def test_cycle_rejected():
    bad = json.dumps(
        {
            "vertices": ["s", "a", "b", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                ["s", "a"],
                ["a", "b"],
                ["b", "a"],
                ["b", "t"],
            ],
            "rotation": {
                "s": ["a"],
                "a": ["s", "b", "b"],
                "b": ["a", "a", "t"],
                "t": ["b"],
            },
        }
    )
    with pytest.raises(GraphError):
        parse_graph(bad)


def test_directed_cycle_rejected_as_cyclic():
    # One source, one sink, and the cycle a -> b -> c -> a between them.
    with pytest.raises(GraphError) as exc:
        build_graph(
            names=["s", "a", "b", "c", "t"],
            source="s",
            sink="t",
            edges=[("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "t")],
            rotation={
                "s": ["a"],
                "a": ["s", "b", "c"],
                "b": ["a", "c", "t"],
                "c": ["a", "b"],
                "t": ["b"],
            },
        )
    assert exc.value.kind == "cyclic"


def test_non_planar_rotation_rejected():
    # K4 with a rotation system that is not a planar embedding.
    g = {
        "vertices": ["s", "a", "b", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            ["s", "a"],
            ["s", "b"],
            ["s", "t"],
            ["a", "b"],
            ["a", "t"],
            ["b", "t"],
        ],
        "rotation": {
            "s": ["a", "b", "t"],
            "a": ["s", "b", "t"],
            "b": ["s", "a", "t"],
            "t": ["s", "a", "b"],
        },
    }
    with pytest.raises(GraphError) as exc:
        parse_graph(json.dumps(g))
    assert exc.value.kind in ("non-planar-rotation", "non-consecutive-in-out")


def test_sink_inside_rejected():
    # Outer triangle s, a, b with t inside, joined to all three: planar,
    # acyclic, one source and one sink, but t is not on the outer face.
    g = {
        "vertices": ["s", "a", "b", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            ["s", "a"], ["s", "b"], ["s", "t"], ["a", "b"], ["a", "t"], ["b", "t"],
        ],
        "rotation": {
            "s": ["a", "t", "b"],
            "a": ["b", "t", "s"],
            "b": ["s", "t", "a"],
            "t": ["b", "s", "a"],
        },
    }
    with pytest.raises(GraphError) as exc:
        parse_graph(json.dumps(g))
    assert exc.value.kind == "sink-not-on-outer-face"
    assert str(exc.value) == "sink t does not lie on the outer face"


def test_non_consecutive_in_out_rejected():
    # At vertex x the rotation interleaves incoming (s, a) and outgoing
    # (b, t) edges.
    g = {
        "vertices": ["s", "a", "b", "x", "t"],
        "source": "s",
        "sink": "t",
        "edges": [
            ["s", "a"],
            ["s", "x"],
            ["a", "x"],
            ["x", "b"],
            ["x", "t"],
            ["b", "t"],
        ],
        "rotation": {
            "s": ["a", "x"],
            "a": ["s", "x"],
            "b": ["x", "t"],
            "x": ["s", "b", "a", "t"],
            "t": ["x", "b"],
        },
    }
    with pytest.raises(GraphError) as exc:
        parse_graph(json.dumps(g))
    assert exc.value.kind == "non-consecutive-in-out"


def test_classify_rhombus_chains(rh):
    assert [rh.base.names[v] for v in rh.left] == ["a"]
    assert [rh.base.names[v] for v in rh.right] == ["b"]


def test_classify_triangle_chains(tri):
    names = tri.base.names
    chains = {tuple(names[v] for v in tri.left), tuple(names[v] for v in tri.right)}
    assert chains == {("v",), ()}


def test_interior_vertex_rejected():
    # Wheel: hub c inside triangle s,a,t; planar st-digraph but not
    # outerplanar.
    g = build_graph(
        names=["s", "a", "c", "t"],
        source="s",
        sink="t",
        edges=[
            ("s", "a"),
            ("a", "t"),
            ("s", "t"),
            ("s", "c"),
            ("c", "t"),
            ("a", "c"),
        ],
        rotation={
            "s": ["a", "c", "t"],
            "a": ["t", "c", "s"],
            "c": ["t", "s", "a"],
            "t": ["s", "c", "a"],
        },
    )
    with pytest.raises(GraphError) as exc:
        classify_ot(g)
    assert exc.value.kind in ("not-outerplanar", "non-triangular-face")


def test_st_polygon_interior_face_count(f9):
    # Euler: an n-vertex outerplanar triangulation has n - 2 interior faces.
    fs = faces(f9.base)
    assert len(fs.interior) == f9.base.n - 2


def test_edge_sidedness(pfp):
    names = pfp.base.names
    ids = {n: i for i, n in enumerate(names)}
    assert (
        edge_sidedness(pfp, (ids["l1"], ids["l2"]))
        is Sidedness.ONE_SIDED_LEFT
    )
    assert (
        edge_sidedness(pfp, (ids["r1"], ids["l2"])) is Sidedness.TWO_SIDED
    )
    assert (
        edge_sidedness(pfp, (ids["s"], ids["l2"])) is Sidedness.ONE_SIDED_LEFT
    )
    assert (
        edge_sidedness(pfp, (ids["l3"], ids["t"])) is Sidedness.ONE_SIDED_LEFT
    )
    with pytest.raises(GraphError):
        edge_sidedness(pfp, (ids["l1"], ids["r3"]))


def test_median_edge_sidedness_convention(rh):
    assert edge_sidedness(rh, (rh.base.s, rh.base.t)) is Sidedness.ONE_SIDED_LEFT


def test_serialize_round_trip(corpus):
    for ot in corpus[:60]:
        text = serialize_graph(ot.base)
        g2 = parse_graph(text)
        assert serialize_graph(g2) == text
        ot2 = classify_ot(g2)
        assert ot2.left == ot.left and ot2.right == ot.right


def test_edge_count_formula(corpus):
    for ot in corpus:
        n = ot.base.n
        if n >= 3:
            assert ot.base.m == 2 * n - 3


def test_rotation_blocks_single_runs(corpus):
    for ot in corpus[:40]:
        g = ot.base
        for v in range(g.n):
            rot = g.rotation[v]
            flags = [(v, w) in g.edges for w in rot]
            changes = sum(flags[i] != flags[i - 1] for i in range(len(rot)))
            assert changes in (0, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_euler_formula_on_random_instances(k, m, seed):
    ot = random_ot(GenProfile(n_left=k, n_right=m, polygon_bias=0.5, seed=seed))
    g = ot.base
    assert g.n - g.m + len(faces(g).walks) == 2
