import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import fields, replace
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpccm.graph_model as gm
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
    polygon_stack,
    random_ot,
    serialize_graph,
)
from hpccm.graph_model import _FORMAT_KEYS
from hpccm.hamiltonicity import rhombus_columns

from conftest import check_key_column, thinned

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


def _variant(base: str, rows=None, **keys) -> str:
    """``base`` with some rotation rows replaced, then top-level keys
    replaced (``None`` deletes one)."""
    data = json.loads(base)
    data["rotation"].update(rows or {})
    for key, value in keys.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return json.dumps(data)


def _case(text, kind, message, id):
    return pytest.param(text, kind, message, id=id)


T, R = TRIANGLE_JSON, RHOMBUS_JSON

# One input per message that parse_graph and classify_ot can raise on a
# parsed file, each a small edit of the triangle or the rhombus.
MALFORMED = [
    _case('{"vertices": [,]}', "syntax", "line 1 column 15: Expecting value", "json"),
    _case(
        "[" * 10**5,
        "syntax",
        "maximum recursion depth exceeded while decoding a JSON array from a "
        "unicode string",
        "deep-nesting",
    ),
    _case("[]", "schema", "top-level value must be an object", "not-object"),
    _case(_variant(T, sink=None), "schema", "missing key 'sink'", "missing-key"),
    _case(
        _variant(T, vertices=[]),
        "schema",
        "vertices must be a non-empty list of names",
        "no-vertices",
    ),
    _case(
        _variant(T, vertices=["s", "v", "t", "v"]),
        "schema",
        "duplicate vertex names",
        "duplicate-vertex",
    ),
    _case(_variant(T, source="x"), "schema", "unknown vertex 'x' in source", "source"),
    _case(_variant(T, sink=3), "schema", "unknown vertex 3 in sink", "sink"),
    _case(
        _variant(T, edges=[["s", "x"]]),
        "schema",
        "unknown vertex 'x' in edges",
        "edge-end",
    ),
    _case(_variant(T, edges=5), "schema", "edges must be a list of pairs", "edges-int"),
    _case(
        _variant(T, edges=[["s"]]), "schema", "edge entry ['s'] is not a pair", "pair"
    ),
    _case(_variant(T, edges=[["s", "s"]]), "schema", "self-loop at 's'", "self-loop"),
    _case(
        _variant(T, edges=[["s", "v"], ["s", "v"]]),
        "schema",
        "duplicate edge s->v",
        "duplicate-edge",
    ),
    _case(
        _variant(T, rotation=[]),
        "schema",
        "rotation must be an object",
        "rotation-list",
    ),
    _case(
        _variant(T, rotation={"s": ["v", "t"], "t": ["s", "v"]}),
        "schema",
        "rotation missing for vertex 'v'",
        "row-missing",
    ),
    _case(
        _variant(T, rows={"v": 7}),
        "schema",
        "rotation of 'v' must be a list",
        "row-int",
    ),
    _case(
        _variant(T, rows={"s": "vt"}),
        "schema",
        "rotation of 's' must be a list",
        "row-string",
    ),
    _case(
        _variant(T, rows={"s": ["v", "x"]}),
        "schema",
        "unknown vertex 'x' in rotation of 's'",
        "row-entry",
    ),
    _case(
        _variant(T, rows={"s": ["v", "t", "v"]}),
        "schema",
        "repeated neighbour in rotation of 's'",
        "row-repeat",
    ),
    _case(
        _variant(T, rows={"s": ["v"]}),
        "schema",
        "rotation of 's' does not list exactly its neighbours",
        "row-short",
    ),
    _case(
        _variant(R, rows={"a": ["t", "b"]}),
        "schema",
        "rotation of 'a' does not list exactly its neighbours",
        "row-wrong-entry",
    ),
    _case(
        _variant(T, rows={"s": ["v"], "t": ["v"]}),
        "schema",
        "rotation of 's' does not list exactly its neighbours",
        "edge-in-no-row",
    ),
    _case(
        _variant(R, rows={"a": ["t", "b", "s"], "b": ["s", "a", "t"]}),
        "schema",
        "rotation of 'a' does not list exactly its neighbours",
        "non-edge-in-rows",
    ),
    _case(
        _variant(T, rows={"x": []}),
        "schema",
        "rotation of unknown vertex 'x'",
        "unknown-key",
    ),
    _case(
        _variant(T, vertices=["s"], sink="s", edges=[], rotation={"s": []}),
        "too-small",
        "graph needs at least vertices s and t",
        "too-small",
    ),
    _case(
        _variant(T, edges=[["v", "s"], ["v", "t"], ["s", "t"]]),
        "multi-source",
        "expected s as the unique source, found ['v']",
        "multi-source",
    ),
    _case(
        _variant(T, edges=[["s", "v"], ["t", "v"], ["s", "t"]]),
        "multi-sink",
        "expected t as the unique sink, found ['v']",
        "multi-sink",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "c", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    ["s", "a"], ["s", "t"], ["a", "b"], ["c", "a"], ["b", "c"],
                    ["c", "t"],
                ],
                "rotation": {
                    "s": ["t", "a"],
                    "a": ["s", "c", "b"],
                    "b": ["a", "c"],
                    "c": ["b", "a", "t"],
                    "t": ["c", "s"],
                },
            }
        ),
        "cyclic",
        "graph contains a directed cycle",
        "cyclic",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "t"],
                "source": "s",
                "sink": "t",
                "edges": [["s", "a"], ["a", "b"], ["b", "a"], ["b", "t"]],
                "rotation": {"s": ["a"], "a": ["s", "b"], "b": ["a", "t"], "t": ["b"]},
            }
        ),
        "cyclic",
        "graph contains a directed cycle",
        "two-cycle",
    ),
    _case(
        _variant(T, edges=[["s", "v"], ["v", "t"], ["s", "t"], ["t", "v"]]),
        "multi-sink",
        "expected t as the unique sink, found []",
        "antiparallel",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "x", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    ["s", "a"], ["s", "x"], ["a", "x"], ["x", "b"], ["x", "t"],
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
        ),
        "non-consecutive-in-out",
        "vertex x: incoming/outgoing edges are interleaved in the rotation",
        "in-out",
    ),
    _case(
        _variant(R, rows={"s": ["a", "b", "t"]}),
        "non-planar-rotation",
        "rotation system is not a planar embedding: V-E+F = 4-5+1 != 2",
        "non-planar",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    ["s", "a"], ["s", "b"], ["s", "t"], ["a", "b"], ["a", "t"],
                    ["b", "t"],
                ],
                "rotation": {
                    "s": ["a", "t", "b"],
                    "a": ["b", "t", "s"],
                    "b": ["s", "t", "a"],
                    "t": ["b", "s", "a"],
                },
            }
        ),
        "sink-not-on-outer-face",
        "sink t does not lie on the outer face",
        "sink-inside",
    ),
    _case(
        _variant(R, rows={"s": ["b", "a", "t"]}),
        "not-outerplanar",
        "vertex a does not lie on the outer face",
        "inner-vertex",
    ),
    _case(
        _variant(
            T,
            edges=[["s", "v"], ["v", "t"]],
            rows={"s": ["v"], "v": ["t", "s"], "t": ["v"]},
        ),
        "not-outerplanar",
        "boundary chains overlap",
        "chains-overlap",
    ),
    _case(
        _variant(
            R,
            edges=[["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
            rows={"s": ["a", "b"], "t": ["b", "a"]},
        ),
        "non-triangular-face",
        "interior face (s,a,t,b) is not a triangle",
        "quadrilateral",
    ),
]


@pytest.mark.parametrize("text, kind, message", MALFORMED)
def test_malformed_input_is_a_graph_error(text, kind, message):
    with pytest.raises(GraphError) as exc:
        classify_ot(parse_graph(text))
    assert (exc.value.kind, str(exc.value)) == (kind, message)


# Messages that no parsed file can reach: parse_graph has checked that the
# rotations are a planar st-embedding with s and t on the outer face, so
# the outer face is two directed chains and m = 2n - 3 follows from
# triangular faces.  classify_ot still reports them on graphs built
# without validation.
UNVALIDATED = [
    _case(
        _variant(T, edges=[["s", "v"], ["t", "s"]], rows={"v": ["s"], "t": ["s"]}),
        "not-outerplanar",
        "outer boundary visits s 2 times",
        "source-twice",
    ),
    _case(
        _variant(T, edges=[["s", "v"]], rows={"s": ["v"], "v": ["s"], "t": []}),
        "not-outerplanar",
        "outer boundary reverses direction at v before reaching the sink",
        "right-reversed",
    ),
    _case(
        _variant(T, edges=[["t", "s"]], rows={"s": ["t"], "v": [], "t": ["s"]}),
        "not-outerplanar",
        "outer boundary dart t->s is not a reversed edge above the sink",
        "left-forward",
    ),
    _case(
        _variant(T, edges=[["s", "t"]], rows={"s": ["t"], "v": [], "t": ["s"]}),
        "not-outerplanar",
        "vertex v does not lie on the outer face",
        "isolated-vertex",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "a", "b", "t", "c"],
                "source": "s",
                "sink": "t",
                "edges": [
                    ["s", "a"], ["a", "b"], ["b", "t"], ["c", "t"], ["s", "c"],
                    ["s", "b"], ["a", "t"],
                ],
                "rotation": {
                    "s": ["a", "b", "c"],
                    "a": ["b", "t", "s"],
                    "b": ["t", "s", "a"],
                    "t": ["c", "a", "b"],
                    "c": ["s", "t"],
                },
            }
        ),
        "not-outerplanar",
        "rotation of b does not follow the boundary cycle, or one of its edges "
        "crosses another",
        "crossing-chords",
    ),
    _case(
        json.dumps(
            {
                "vertices": ["s", "l1", "r1", "r2", "r3", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    ["s", "l1"], ["s", "r1"], ["s", "t"], ["l1", "t"], ["r1", "r2"],
                    ["r3", "r1"], ["r1", "t"], ["r2", "r3"],
                ],
                "rotation": {
                    "s": ["l1", "t", "r1"],
                    "l1": ["t", "s"],
                    "r1": ["s", "t", "r3", "r2"],
                    "r2": ["r1", "r3"],
                    "r3": ["r2", "r1"],
                    "t": ["r1", "s", "l1"],
                },
            }
        ),
        "non-triangular-face",
        "8 edges, a triangulation has 9",
        "edge-count",
    ),
    _case(
        _variant(T, edges=[], rows={"s": [], "v": [], "t": []}),
        "not-outerplanar",
        "source s has no edge to fix the outer face",
        "source-row-empty",
    ),
]


@pytest.mark.parametrize("text, kind, message", UNVALIDATED)
def test_classify_unvalidated_graph_errors(text, kind, message):
    data = json.loads(text)
    g = build_graph(
        data["vertices"],
        data["source"],
        data["sink"],
        data["edges"],
        data["rotation"],
        validate=False,
    )
    with pytest.raises(GraphError) as exc:
        classify_ot(g)
    assert (exc.value.kind, str(exc.value)) == (kind, message)


def _single_mutations(corpus, count: int, seed: int):
    """``count`` graph files, each a corpus file with one random edit:
    drop, swap or repeat a rotation entry; flip an edge; drop an edge with
    its two rotation entries; add an edge between two non-adjacent
    vertices at random rotation slots; or rotate the source's row."""
    rng = random.Random(seed)
    for _ in range(count):
        data = json.loads(serialize_graph(rng.choice(corpus).base))
        rot, edges = data["rotation"], data["edges"]
        row = rot[rng.choice(data["vertices"])]
        op = rng.choice(("drop", "swap", "repeat", "flip", "cut", "join", "turn"))
        if op == "drop":
            row.pop(rng.randrange(len(row)))
        elif op == "swap":
            i, j = rng.sample(range(len(row)), 2)
            row[i], row[j] = row[j], row[i]
        elif op == "repeat":
            row.insert(rng.randrange(len(row) + 1), rng.choice(row))
        elif op == "flip":
            edges[rng.randrange(len(edges))].reverse()
        elif op == "cut":
            a, b = edges.pop(rng.randrange(len(edges)))
            rot[a].remove(b)
            rot[b].remove(a)
        elif op == "join":
            a, b = rng.sample(data["vertices"], 2)
            if b not in rot[a]:
                edges.append([a, b])
                rot[a].insert(rng.randrange(len(rot[a]) + 1), b)
                rot[b].insert(rng.randrange(len(rot[b]) + 1), a)
        else:
            src = rot[data["source"]]
            i = rng.randrange(1, len(src))
            rot[data["source"]] = src[i:] + src[:i]
        yield json.dumps(data)


SWEEP_DIGEST = "3f2a0adaf1bc3544ea97d1b6674bad08a68aed6528deaf481b2e3fc070ad1585"


def _sweep(corpus) -> tuple[set[str], str]:
    """The kinds met and the digest of the (kind, message) outcomes of 200
    single edits of corpus files."""
    outcomes = []
    for text in _single_mutations(corpus[:60], 200, seed=6):
        try:
            classify_ot(parse_graph(text))
            outcomes.append(["ok", ""])
        except GraphError as exc:
            outcomes.append([exc.kind, str(exc)])
    kinds = {kind for kind, _ in outcomes}
    return kinds, hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def test_single_mutation_sweep_errors_pinned(corpus):
    # The (kind, message) of 200 single edits of corpus files, as one
    # digest: any change to which check fires first, or to its wording,
    # changes it.
    kinds, digest = _sweep(corpus)
    assert len(kinds) >= 8, kinds
    assert digest == SWEEP_DIGEST


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


def test_chains_stored_once_on_the_cycle():
    # The chains are ranges of the boundary cycle, not fields of their own.
    assert [f.name for f in fields(gm.OTStDigraph)] == ["base", "arrays"]


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


def test_edge_sidedness(pfp, corpus):
    names = pfp.base.names
    ids = {n: i for i, n in enumerate(names)}
    for a, b in (("r1", "r2"), ("s", "r1"), ("r3", "t")):
        assert (
            edge_sidedness(pfp, (ids[a], ids[b])) is Sidedness.ONE_SIDED_RIGHT
        )
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
    # The tag read off the chains: the side of the endpoints that lie on
    # one, two-sided when they lie on both.
    one_chain = [
        random_ot(GenProfile(n_left=k, n_right=12 - k, polygon_bias=0.5, seed=3))
        for k in (0, 12)
    ]
    seen = set()
    for ot in [*corpus, *one_chain]:
        side = {**{v: "L" for v in ot.left}, **{v: "R" for v in ot.right}}
        for (u, v) in ot.base.edges:
            chains = {side[x] for x in (u, v) if x in side}
            expected = (
                Sidedness.TWO_SIDED
                if len(chains) == 2
                else Sidedness.ONE_SIDED_RIGHT
                if chains == {"R"}
                else Sidedness.ONE_SIDED_LEFT
            )
            assert edge_sidedness(ot, (u, v)) is expected
            seen.add(expected)
    assert seen == set(Sidedness)


def test_median_edge_sidedness_convention(rh):
    assert edge_sidedness(rh, (rh.base.s, rh.base.t)) is Sidedness.ONE_SIDED_LEFT


def test_serialize_round_trip(corpus):
    for ot in corpus[:60]:
        text = serialize_graph(ot.base)
        g2 = parse_graph(text)
        assert serialize_graph(g2) == text
        ot2 = classify_ot(g2)
        assert ot2.left == ot.left and ot2.right == ot.right


def test_serialize_is_indented_json_dumps(corpus):
    # The serializer writes json.dumps(..., indent=2) of the format object
    # itself; names that need escapes are quoted the same way.
    for ot in corpus[:40]:
        g = ot.base
        for names in (g.names, tuple(f'\u00e9"\\{x}\u2603 ' for x in g.names)):
            h = replace(g, names=names)
            data = {
                "vertices": list(names),
                "source": names[g.s],
                "sink": names[g.t],
                "edges": [[names[u], names[v]] for (u, v) in sorted(g.edges)],
                "rotation": {
                    names[v]: [names[w] for w in g.nbr[g.off[v] : g.off[v + 1]]]
                    for v in range(g.n)
                },
            }
            assert serialize_graph(h) == json.dumps(data, indent=2) + "\n"


def test_edge_count_formula(corpus):
    for ot in corpus:
        n = ot.base.n
        if n >= 3:
            assert ot.base.m == 2 * n - 3


def test_rotation_blocks_single_runs(corpus):
    for ot in corpus[:40]:
        g = ot.base
        for v in range(g.n):
            rot = g.nbr[g.off[v] : g.off[v + 1]]
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


# ---------------------------------------------------------------------------
# The numpy load path against the pure-Python one


def _pure_path_fails(*args):
    raise AssertionError("the pure-Python load path ran")


# from_rows on the triangle s, v, t with an edge given twice, and with an
# edge given with its reverse: the edge count, slots and verdict of
# validate_embedded, as at the frozenset edge set.  An edge end outside
# the ids must not alias another edge's key (1 * 3 - 1 and 0 * 3 + 3 are
# the keys of (0, 2) and (1, 0)): from_rows raises.
FROM_ROWS_CASES = {
    "repeated": (
        [(0, 1), (0, 1), (1, 2), (0, 2)],
        (3, [0, 2, 4, 6], [1, 2, 2, 0, 0, 1], [1, 1, 1, 0, 0, 0], [3, 4, 5, 0, 1, 2],
         "valid"),
    ),
    "with its reverse": (
        [(0, 1), (1, 0), (1, 2), (0, 2)],
        (4, [0, 2, 4, 6], [1, 2, 2, 0, 0, 1], [1, 1, 1, 1, 0, 0], [3, 4, 5, 0, 1, 2],
         "multi-source", "expected s as the unique source, found []"),
    ),
    "end below 0": (
        [(0, 1), (1, 2), (1, -1)],
        ("schema", "rotation of 's' does not list exactly its neighbours"),
    ),
    "end past n - 1": (
        [(0, 1), (1, 2), (0, 2), (0, 3)],
        ("schema", "rotation of 's' does not list exactly its neighbours"),
    ),
}


def _from_rows_outcome(edges):
    try:
        g = EmbeddedDigraph.from_rows(("s", "v", "t"), 0, 2, edges, [[1, 2], [2, 0], [0, 1]])
    except GraphError as exc:
        return (exc.kind, str(exc))
    check_key_column(g, frozenset(edges))
    slots = (g.m, list(g.off), list(g.nbr), list(g.out), list(g.twin))
    try:
        gm.validate_embedded(g)
    except GraphError as exc:
        return slots + (exc.kind, str(exc))
    return slots + ("valid",)


def test_numpy_load_matches_pure(kernel_corpus, monkeypatch):
    # With the threshold at 0 every graph loads through numpy, which must
    # accept each valid file itself and give the pure path's arrays and
    # key column; equal graphs compare equal and hash alike.
    pytest.importorskip("numpy")
    draws = (GenProfile(700, 900, polygon_bias=b, seed=11) for b in (0, 0.5, 1))
    instances = [*kernel_corpus, *map(random_ot, draws)]
    texts = [serialize_graph(ot.base) for ot in instances]
    pure = [classify_ot(parse_graph(text)) for text in texts]
    stacks = [polygon_stack(k) for k in range(1, 9)]
    for text, ref in zip(texts, pure):
        data = json.loads(text)
        ids = ref.base.id_of
        check_key_column(ref.base, frozenset((ids[u], ids[v]) for u, v in data["edges"]))
    for edges, expected in FROM_ROWS_CASES.values():
        assert _from_rows_outcome(edges) == expected
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    for edges, expected in FROM_ROWS_CASES.values():
        assert _from_rows_outcome(edges) == expected
    for name in ("_read_py", "_pair_py", "_validate_py", "_cycle_py", "_arrays_py", "_rank_py"):
        monkeypatch.setattr(gm, name, _pure_path_fails)
    for text, ref in zip(texts, pure):
        ot = classify_ot(parse_graph(text))
        for name in ("off", "nbr", "out", "twin", "keys", "edges"):
            assert getattr(ot.base, name) == getattr(ref.base, name), name
        assert ot.base == ref.base and hash(ot.base) == hash(ref.base)
        for name in gm.OtArrays.__slots__:
            assert getattr(ot.arrays, name) == getattr(ref.arrays, name), name
    for k, ref in enumerate(stacks, 1):
        ot = polygon_stack(k)  # built by numpy and classified
        assert ot.base == ref.base and hash(ot.base) == hash(ref.base)
        for name in gm.OtArrays.__slots__:
            assert getattr(ot.arrays, name) == getattr(ref.arrays, name), name


def test_numpy_load_names_the_same_errors(corpus, monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    for case in MALFORMED:
        text, kind, message = case.values
        with pytest.raises(GraphError) as exc:
            classify_ot(parse_graph(text))
        assert (exc.value.kind, str(exc.value)) == (kind, message), case.id
    for case in UNVALIDATED:
        text, kind, message = case.values
        data = json.loads(text)
        g = build_graph(*(data[key] for key in _FORMAT_KEYS), validate=False)
        with pytest.raises(GraphError) as exc:
            classify_ot(g)
        assert (exc.value.kind, str(exc.value)) == (kind, message), case.id
    assert _sweep(corpus)[1] == SWEEP_DIGEST


def _pairing(g: EmbeddedDigraph, rng) -> dict:
    """The slots (n, keys, off, nbr) of ``g`` as given and after each named
    edit of its rows and keys, around a random dart v -> w."""
    n = g.n
    rows = [list(g.nbr[g.off[v] : g.off[v + 1]]) for v in range(n)]
    v, x = rng.sample(range(n), 2)
    w = rng.choice(rows[v])
    both = (v * n + w, w * n + v)  # the edge between v and w, both ways

    def slots(edit=None, extra=()):
        edited = [row[:] for row in rows]
        if edit is not None:
            edit(edited)
        off = array("i", accumulate(map(len, edited), initial=0))
        keys = array("q", sorted({*g.keys, *extra}))
        return n, keys, off, array("i", chain.from_iterable(edited))

    def swap(r):
        i = rng.randrange(len(r[v]))
        j = rng.choice([j for j, y in enumerate(r[x]) if y != r[v][i]])
        r[v][i], r[x][j] = r[x][j], r[v][i]

    def loop(r):
        r[v][r[v].index(w)] = v

    def moved(r):  # the reverse dart becomes a second v -> w
        r[w].remove(v)
        r[v].append(w)

    def twice(r):
        r[v].append(w)
        r[w].append(v)

    return {
        "as given": slots(),
        "row shuffled": slots(lambda r: rng.shuffle(r[v])),
        "swap": slots(swap),
        "reverse dart dropped": slots(lambda r: r[v].remove(w)),
        "self-loop": slots(loop),
        "self-loop edge": slots(loop, [v * n + v]),
        "self-loop added": slots(lambda r: r[v].append(v), [v * n + v]),
        "reverse dart in the dart's row": slots(moved),
        "edge with its reverse": slots(extra=both),
        "edge with its reverse, darts twice": slots(twice, both),
    }


def test_numpy_pairing_gives_the_pure_pairing_or_declines(kernel_corpus, monkeypatch):
    # One sort of the slots by undirected key pairs the twins; on every
    # valid row set it must give _pair_py's out flags and twins, and on
    # edited rows _pair_py's pair or None, never another pair.
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    draws = [GenProfile(1 + 7 * i % 40, 1 + 11 * i % 30, (i % 5) / 4, seed=70 + i) for i in range(30)]
    draws += [GenProfile(300, 400, b, seed=71) for b in (0, 0.5, 1)]
    graphs = [ot.base for ot in (*kernel_corpus, *map(random_ot, draws))]
    rng = random.Random(19)
    paired = Counter()
    for g in graphs:
        for name, (n, keys, off, nbr) in _pairing(g, rng).items():
            try:
                ref = gm._pair_py(g.names, keys, off, nbr)
            except GraphError as exc:
                ref = (exc.kind, str(exc))
            got = gm._pair_np(np, n, keys, off, nbr)
            assert got is None or got == ref, name
            paired[name, got is None, isinstance(ref, tuple) and isinstance(ref[0], str)] += 1
            if name in ("as given", "row shuffled"):
                assert got == ref
            if name == "as given":
                assert got == (g.out, g.twin)
    # _pair_py pairs an edge with its reverse and an added self-loop; the
    # numpy pairing declines them.  Every other edit is an error.
    accepted = {"as given", "row shuffled", "edge with its reverse", "self-loop added"}
    assert {name for name, _, error in paired if not error} == accepted
    assert all(paired[name, True, True] for name, *_ in paired if name not in accepted)


def test_bulk_reader_reads_every_valid_file(kernel_corpus, monkeypatch):
    # The bulk reader serves every size; the file-order reader only runs,
    # after it declines, to name an error.
    texts = [
        serialize_graph(ot.base)
        for ot in (*kernel_corpus, polygon_stack(199), polygon_stack(9999))
    ]
    pure = [parse_graph(text) for text in texts]
    monkeypatch.setattr(gm, "_read_py", _pure_path_fails)
    for text, ref in zip(texts, pure):
        g = parse_graph(text)
        assert g == ref
        for name in ("off", "nbr", "out", "twin"):
            assert getattr(g, name) == getattr(ref, name), name


def test_large_file_solves_without_numpy():
    # Without numpy a file above the threshold runs the whole user path in
    # pure Python, read by the bulk reader.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import hpccm.graph_model as gm\n"
        "from hpccm import classify_ot, from_book_embedding, parse_graph, "
        "polygon_stack, serialize_graph, solve, to_book_embedding\n"
        "def fail(*args):\n"
        "    raise AssertionError('the file-order reader ran')\n"
        "gm._read_py = fail\n"
        "k = gm.NUMPY_MIN_N // 2\n"
        "text = serialize_graph(polygon_stack(k).base)\n"
        "ot = classify_ot(parse_graph(text))\n"
        "assert ot.n >= gm.NUMPY_MIN_N\n"
        "r = solve(ot)\n"
        "assert r.total_crossings == k\n"
        "assert from_book_embedding(ot.base, to_book_embedding(ot, r)) == r\n"
        "print(sys.modules['numpy'], [m for m in sys.modules if m[:6] == 'numpy.'])\n"
    )
    src = str(Path(gm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "None []\n", "")


def test_small_instances_leave_numpy_unimported():
    # numpy costs about 10 MiB of memory; below the threshold the whole
    # user path runs without importing it.
    code = (
        "import sys\n"
        "from hpccm import classify_ot, parse_graph, polygon_stack, "
        "serialize_graph, solve, to_book_embedding\n"
        "from hpccm.graph_model import NUMPY_MIN_N\n"
        "ot = polygon_stack(NUMPY_MIN_N // 2 - 2)\n"
        "text = serialize_graph(ot.base)\n"
        "ot = classify_ot(parse_graph(text))\n"
        "assert ot.n == NUMPY_MIN_N - 2\n"
        "to_book_embedding(ot, solve(ot))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(gm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


# ---------------------------------------------------------------------------
# Acyclicity from the faces


def _reversed(g: EmbeddedDigraph, flip) -> EmbeddedDigraph:
    """``g`` with the edges of ``flip`` reversed, unvalidated."""
    edges = [(v, u) if (u, v) in flip else (u, v) for (u, v) in g.edges]
    rows = (g.nbr[g.off[v] : g.off[v + 1]] for v in range(g.n))
    return EmbeddedDigraph.from_rows(g.names, g.s, g.t, edges, rows)


def _passes_all_but_kahn(g: EmbeddedDigraph) -> bool:
    """Whether the pure checks pass when Kahn's pass is told the graph is
    acyclic."""
    h = replace(g)
    h.__dict__["kahn"] = (range(g.n), False)
    try:
        gm._validate_py(h)
    except GraphError:
        return False
    return True


def test_face_switches_decide_acyclicity():
    # Reversing one to six edges off s and t in small draws: the numpy
    # checks, which run no Kahn pass, accept exactly the graphs the pure
    # checks accept.
    np = pytest.importorskip("numpy")
    rng = random.Random(41)
    accepted = cyclic_otherwise_valid = 0
    for _ in range(2000):
        prof = GenProfile(rng.randint(1, 5), rng.randint(1, 5), rng.random(), rng.randrange(10**6))
        g = random_ot(prof).base
        inner = sorted(e for e in g.edges if g.s not in e and g.t not in e)
        if not inner:
            continue
        h = _reversed(g, set(rng.sample(inner, min(len(inner), rng.randint(1, 6)))))
        try:
            gm._validate_py(h)
            valid = True
        except GraphError as exc:
            valid = False
            cyclic_otherwise_valid += exc.kind == "cyclic" and _passes_all_but_kahn(h)
        assert gm._valid_np(np, h) == valid, prof
        accepted += valid
    assert accepted >= 20 and cyclic_otherwise_valid >= 30, (accepted, cyclic_otherwise_valid)


def test_face_switches_decide_acyclicity_beyond_triangles():
    # As above, on draws with interior edges deleted first, so that the
    # faces _valid_np labels by pointer jumping meet the reversed edges.
    np = pytest.importorskip("numpy")
    rng = random.Random(42)
    accepted = cyclic_otherwise_valid = 0
    for _ in range(1000):
        prof = GenProfile(rng.randint(2, 6), rng.randint(2, 6), rng.random(), rng.randrange(10**6))
        g = thinned(random_ot(prof).base, rng.randint(1, 4), rng.randrange(10**6))
        inner = sorted(e for e in g.edges if g.s not in e and g.t not in e)
        if g.m == 2 * g.n - 3 or not inner:
            continue
        h = _reversed(g, set(rng.sample(inner, min(len(inner), rng.randint(1, 3)))))
        try:
            gm._validate_py(h)
            valid = True
        except GraphError as exc:
            valid = False
            cyclic_otherwise_valid += exc.kind == "cyclic" and _passes_all_but_kahn(h)
        assert gm._valid_np(np, h) == valid, prof
        accepted += valid
    assert accepted >= 10 and cyclic_otherwise_valid >= 30, (accepted, cyclic_otherwise_valid)


def test_cycle_in_a_second_component_rejected(monkeypatch):
    # The triangle s, v, t plus a 3 x 3 grid on a torus whose edges point
    # right and up: one source, one sink, bimodal rows, V - E + F = 2 and
    # two switches on every face, yet the grid is all cycles.
    pytest.importorskip("numpy")
    cell = [f"g{x}{y}" for x in range(3) for y in range(3)]
    edges = [("s", "v"), ("v", "t"), ("s", "t")]
    rotation = {"s": ["v", "t"], "v": ["t", "s"], "t": ["s", "v"]}
    for x in range(3):
        for y in range(3):
            right, up = f"g{(x + 1) % 3}{y}", f"g{x}{(y + 1) % 3}"
            left, down = f"g{(x - 1) % 3}{y}", f"g{x}{(y - 1) % 3}"
            edges += [(f"g{x}{y}", right), (f"g{x}{y}", up)]
            rotation[f"g{x}{y}"] = [right, down, left, up]
    names = ["s", "v", "t", *cell]
    g = build_graph(names, "s", "t", edges, rotation, validate=False)
    assert _passes_all_but_kahn(g)
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    with pytest.raises(GraphError) as exc:
        gm.validate_embedded(g)
    assert (exc.value.kind, str(exc.value)) == ("cyclic", "graph contains a directed cycle")


def test_large_cycle_rejected_by_numpy_without_kahn(monkeypatch):
    # A valid file above the threshold loads with no Kahn pass; with two
    # edges reversed (l3 -> l2 -> r1 -> l3 is then a cycle, and every
    # other check passes) the numpy checks reject it.
    pytest.importorskip("numpy")
    g = polygon_stack(gm.NUMPY_MIN_N // 2).base
    text = serialize_graph(g)
    assert "kahn" not in parse_graph(text).__dict__
    data = json.loads(text)
    for edge in data["edges"]:
        if edge in (["l2", "l3"], ["r1", "l2"]):
            edge.reverse()
    ids = g.id_of
    assert _passes_all_but_kahn(_reversed(g, {(ids["l2"], ids["l3"]), (ids["r1"], ids["l2"])}))
    verdicts, valid_np = [], gm._valid_np

    def recorded(np, g):
        verdicts.append(valid_np(np, g))
        return verdicts[-1]

    monkeypatch.setattr(gm, "_valid_np", recorded)
    with pytest.raises(GraphError) as exc:
        parse_graph(json.dumps(data))
    assert (exc.value.kind, str(exc.value)) == ("cyclic", "graph contains a directed cycle")
    assert verdicts == [False]


def test_faces_of_four_and_more_slots_validate_at_numpy_size():
    # polygon_stack(9999) with 2000 interior edges deleted has faces of
    # four to seven slots, which _valid_np labels by pointer jumping: it
    # accepts the graph at the default threshold, and rejects it with one
    # edge flipped into a cycle.
    np = pytest.importorskip("numpy")
    g = thinned(polygon_stack(9999).base, 2000, 1)
    sizes = Counter(map(len, faces(g).walks))
    assert g.n >= gm.NUMPY_MIN_N and g.m == 2 * g.n - 3 - 2000
    assert sizes[4] > 100 and sizes[5] > 10 and sizes[6] + sizes[7] > 0, sizes
    assert gm._valid_np(np, g)
    gm._validate_py(g)
    # r_i -> l_{i+2} reversed closes a cycle through r_{i+1}.
    ids = g.id_of
    i = next(
        i
        for i in range(1, 9998)
        if all(
            g.has_edge((ids[u], ids[v]))
            for u, v in [(f"r{i}", f"l{i + 2}"), (f"r{i}", f"r{i + 1}"), (f"r{i + 1}", f"l{i + 2}")]
        )
    )
    h = _reversed(g, {(ids[f"r{i}"], ids[f"l{i + 2}"])})
    assert len(h.kahn[0]) < h.n
    assert not gm._valid_np(np, h)
    with pytest.raises(GraphError):
        gm._validate_py(h)


@pytest.mark.parametrize("count", [9, gm.NUMPY_MIN_N // 2])
def test_each_graph_walks_its_outer_face_once(monkeypatch, count):
    # parse_graph's validation, classify_ot and rhombus_columns share one
    # outer walk per graph object; a graph built without validation walks
    # it on first use.
    calls, walk = [], gm.outer_walk

    def counted(g, nxt):
        calls.append(g)
        return walk(g, nxt)

    text = serialize_graph(polygon_stack(count).base)
    monkeypatch.setattr(gm, "outer_walk", counted)
    g = parse_graph(text)
    classify_ot(g)
    rhombus_columns(g)
    assert len(calls) == 1 and calls[0] is g
    if gm.backend(g.n) is None:
        return  # the pure classify_ot and rhombi walk their own faces
    data = json.loads(text)
    h = build_graph(*(data[key] for key in _FORMAT_KEYS), validate=False)
    classify_ot(h)
    rhombus_columns(h)
    assert len(calls) == 2 and calls[1] is h


# ---------------------------------------------------------------------------
# The collector pause


def test_parse_graph_pauses_the_collector_at_size(monkeypatch):
    # From the threshold on, the load after json.loads runs with the
    # cyclic collector off, and parse_graph leaves it as it found it: after
    # a load, after an error raised inside the pause, and when the caller
    # had it off.  Below the threshold it stays on.
    pytest.importorskip("numpy")
    text = serialize_graph(polygon_stack(9999).base)
    data = json.loads(text)
    data["edges"].append(data["edges"][0])
    twice = json.dumps(data)
    small = serialize_graph(polygon_stack(9).base)
    seen, validate = [], gm.validate_embedded

    def recorded(g):
        seen.append(gc.isenabled())
        validate(g)

    monkeypatch.setattr(gm, "validate_embedded", recorded)
    assert gc.isenabled()
    assert parse_graph(text).n >= gm.NUMPY_MIN_N
    assert gc.isenabled() and seen == [False]
    with pytest.raises(GraphError) as exc:
        parse_graph(twice)
    assert exc.value.kind == "schema" and str(exc.value).startswith("duplicate edge")
    assert gc.isenabled()
    parse_graph(small)
    assert gc.isenabled() and seen == [False, True]
    gc.disable()
    try:
        parse_graph(text)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The byte reader against json.loads


def _json_graph(text: str):
    """The graph json.loads's object gives before validation (None where
    the file-order reader would raise), or the error raised building it."""
    try:
        data, names = gm._load_json(text)
        return gm._read_bulk(data, names, {name: i for i, name in enumerate(names)})
    except GraphError as exc:
        return (exc.kind, str(exc))


def _byte_graph(np, text: str):
    """The byte reader's graph, None, or the error raised building it."""
    try:
        return gm._read_bytes(np, text)
    except GraphError as exc:
        return (exc.kind, str(exc))


def _declined_or_same(np, text: str) -> bool:
    """Whether the byte reader reads ``text``; where it does, json.loads
    must accept the text and give the same graph or the same error."""
    got = _byte_graph(np, text)
    if got is None:
        return False
    ref = _json_graph(text)
    assert ref is not None and got == ref, text[:200]
    if isinstance(got, EmbeddedDigraph):
        for name in ("names", "s", "t", "keys", "off", "nbr", "out", "twin"):
            assert getattr(got, name) == getattr(ref, name), name
    return True


def test_byte_reader_reads_every_generated_file(kernel_corpus, monkeypatch):
    # With the threshold at 0 every file in serialize_graph's layout is
    # read by the byte reader itself, in the canonical and in json.dumps's
    # default whitespace, and gives json.loads's graph: its arrays, its
    # key column, and the same OtArrays after classification.
    pytest.importorskip("numpy")
    draws = (GenProfile(700, 900, polygon_bias=b, seed=13) for b in (0, 0.5, 1))
    small = (GenProfile(1 + i % 7, 1 + i % 5, (i % 5) / 4, seed=i) for i in range(40))
    instances = [*kernel_corpus, *map(random_ot, draws), *map(random_ot, small)]
    texts = [serialize_graph(ot.base) for ot in instances]
    texts += [json.dumps(json.loads(text)) for text in texts[::7]]
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    with monkeypatch.context() as m:
        m.setattr(gm, "_read_bytes", lambda np, text: None)
        refs = [classify_ot(parse_graph(text)) for text in texts]
    for name in ("_read_bulk", "_read_py"):
        monkeypatch.setattr(gm, name, _pure_path_fails)
    for text, ref in zip(texts, refs):
        ot = classify_ot(parse_graph(text))
        for name in ("names", "s", "t", "keys", "off", "nbr", "out", "twin", "edges"):
            assert getattr(ot.base, name) == getattr(ref.base, name), name
        assert ot.base == ref.base and hash(ot.base) == hash(ref.base)
        for name in gm.OtArrays.__slots__:
            assert getattr(ot.arrays, name) == getattr(ref.arrays, name), name
        check_key_column(ot.base, frozenset(ref.base.edges))


def _renamed(text: str, names: list[str]) -> str:
    """``text`` (serialize_graph's) with its vertices renamed in order."""
    g = parse_graph(text)
    return serialize_graph(replace(g, names=tuple(names)))


def _mutations(text: str) -> dict[str, str]:
    """Named edits of ``text``, serialize_graph's layout of a graph whose
    vertex names include "s", "l1" and "t"."""
    data = json.loads(text)
    names, dumps, rot = data["vertices"], json.dumps, data["rotation"]
    n = len(names)
    comma = _renamed(text, ["a,b", *map(str, range(1, n))])
    g = parse_graph(text)
    u, w = next((u, w) for u in range(n) for w in range(u) if not g.has_edge((w, u)))
    head, tail = text.split('  "edges"', 1)
    out = {
        "compact": dumps(data, separators=(",", ":")),
        "default spacing": dumps(data),
        "tabs and CRLF": text.replace("  ", "\t").replace("\n", "\r\n"),
        "space around": " \n" + text + " \t\r\n",
        "8-byte names": _renamed(text, [f"{i:08d}" for i in range(n)]),
        "8-byte names sharing 7": _renamed(text, [f"abcdefg{chr(48 + i)}" for i in range(n)]),
        "empty name": _renamed(text, ["", *(f"v{i}" for i in range(1, n))]),
        "printable names": _renamed(text, ["~!@#$%^&", "a'b", "(x)", *map(str, range(3, n))]),
        "DEL in a name": text.replace('"l1"', '"l\x7f"'),
        "rows swapped": text.replace('"s"', '"#"').replace('"t"', '"s"').replace('"#"', '"t"'),
        # Declined, whether json.loads reads the same graph or not:
        "escape": text.replace('"l1"', '"\\u006c1"'),
        "escaped quote": text.replace('"l1"', '"l\\"1"'),
        "sorted keys": dumps(data, sort_keys=True, indent=2),
        "rows reordered": dumps({**data, "rotation": dict(reversed(rot.items()))}, indent=2),
        "duplicate key": text.replace('  "sink"', '  "sink": "t",\n  "sink"'),
        "duplicate row": text.replace('    "s": [', '    "s": ["l1"],\n    "s": ['),
        "extra key": text.replace('  "sink"', '  "x": "t",\n  "sink"'),
        "number for a name": head + tail.replace('"l1"', "1", 1),
        "null for a name": head + tail.replace('"l1"', "null", 1),
        "true for the sink": text.replace('"sink": "t"', '"sink": true'),
        "name list for a name": text.replace('"sink": "t"', '"sink": ["t"]'),
        "9-byte names": _renamed(text, [f"{i:09d}" for i in range(n)]),
        "9-byte names sharing 8": _renamed(text, [f"abcdefgh{chr(48 + i)}" for i in range(n)]),
        "space in a name": _renamed(text, ["a b", *map(str, range(1, n))]),
        "comma in a name": _renamed(text, ["a,b", *map(str, range(1, n))]),
        "comma in a name, letters outside": comma.replace("\n  ", " x" * comma.count("a,b"), 1),
        "name twice": _renamed(text, [names[w] if v == u else names[v] for v in range(n)]),
        "bracket in a name": _renamed(text, ["a]", *map(str, range(1, n))]),
        "non-ASCII name": _renamed(text, ["é", *map(str, range(1, n))]),
        "control byte in a name": text.replace('"l1"', '"l\x011"'),
        "tab in a name": text.replace('"l1"', '"l\t1"'),
        "control byte outside": text.replace(",\n", ",\x0b\n", 1),
        "BOM": "﻿" + text,
        "trailing letter": text + "x",
        "trailing brace": text + "}",
        "trailing list": text + "[]",
        "missing comma": text.replace('",\n    "', '"\n    "', 1),
        "double comma": text.replace('",\n    "', '",,\n    "', 1),
        "trailing comma": text.replace('"\n  ],', '",\n  ],', 1),
        "empty row": dumps({**data, "rotation": {**rot, "l1": []}}, indent=2),
        "no edges": dumps({**data, "edges": []}, indent=2),
        "nested row": text.replace('    "s": [', '    "s": [[[]],', 1),
        "unterminated": text[: text.rindex('"')],
        "vertex list opened twice": text.replace('"vertices": [', '"vertices": [[', 1),
        "edges cut short": text[: text.index('  "edges"')] + '"edges": [["s"]}}',
        "rotation cut": text[: text.index('  "rotation"')] + '"rotation"]}}',
        "last row cut": text[: text.rindex(f'"{names[-1]}": [')] + f'"{names[-1]}"]}}}}',
        "top-level list": f"[{text}]",
        # Declined by the checks shared with json.loads's reader:
        "self-loop": text.replace('[\n      "s",\n      "l1"', '[\n      "s",\n      "s"', 1),
        "edge twice": text.replace(
            '  "edges": [\n', '  "edges": [\n    [\n      "s",\n      "l1"\n    ],\n', 1
        ),
        "unknown vertex": head + tail.replace('"l1"', '"zz"', 1),
    }
    return out


ACCEPTED_MUTATIONS = {
    "compact", "default spacing", "tabs and CRLF", "space around", "8-byte names",
    "8-byte names sharing 7", "empty name", "printable names", "DEL in a name",
    "rows swapped",
}


def test_byte_reader_gives_json_loads_graph_or_declines(monkeypatch):
    # On edited texts the byte reader gives the graph json.loads's object
    # gives, the same error, or declines; it never reads a text json.loads
    # rejects or reads differently.  Then parse_graph names the same error
    # either way, and the pinned error digests hold.
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    bases = [serialize_graph(polygon_stack(3).base)]
    bases += [serialize_graph(random_ot(GenProfile(3, 4, b, seed=5)).base) for b in (0, 1)]
    for text in bases:
        read = {name for name, edited in _mutations(text).items() if _declined_or_same(np, edited)}
        assert read == ACCEPTED_MUTATIONS, read ^ ACCEPTED_MUTATIONS
    rng = random.Random(16)
    flips = b'",:[]{}\\\x00\x01\x7f\xe9' + b" \n\t\r0az" * 3
    read = 0
    for _ in range(1500):
        raw = bytearray(rng.choice(bases).encode())
        for _ in range(rng.randint(1, 3)):
            raw[rng.randrange(len(raw))] = rng.choice(flips)
        text = raw.decode("latin-1")
        read += _declined_or_same(np, text)
        with monkeypatch.context() as m:
            m.setattr(gm, "_read_bytes", lambda np, text: None)
            ref = _parse_outcome(text)
        assert _parse_outcome(text) == ref, text
    assert 80 <= read <= 750, read


def _parse_outcome(text: str):
    try:
        g = parse_graph(text)
    except GraphError as exc:
        return (exc.kind, str(exc))
    return tuple(getattr(g, name) for name in ("names", "s", "t", "keys", "off", "nbr"))


def test_declined_large_file_loads_with_the_collector_paused(monkeypatch):
    # A file that counts as large by its layout but that the byte reader
    # declines (an escaped name) goes through json.loads with the cyclic
    # collector off, and parse_graph turns it back on after.
    pytest.importorskip("numpy")
    text = serialize_graph(polygon_stack(gm.NUMPY_MIN_N // 2).base)
    escaped = text.replace('"l1"', '"\\u006c1"')
    seen, load = [], gm._load_json

    def recorded(text):
        seen.append(gc.isenabled())
        return load(text)

    monkeypatch.setattr(gm, "_load_json", recorded)
    assert gc.isenabled()
    assert parse_graph(escaped) == parse_graph(text)
    assert seen == [False] and gc.isenabled()


def test_colliding_names_decline_within_the_probe_bound(monkeypatch):
    # With the hash multiplier at 0 every word's first slot is slot 0: the
    # k-th word is placed in round k and found by k probes.  Up to _PROBES
    # words still map; one more makes the name map decline, and
    # parse_graph then reads json.loads's graph.
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    small = serialize_graph(polygon_stack(8).base)  # n = 18
    large = serialize_graph(polygon_stack(gm._PROBES // 2).base)  # n = _PROBES + 2
    ref = parse_graph(large)
    monkeypatch.setattr(gm, "_HASH", 0)
    words = np.arange(1, gm._PROBES + 2, dtype=np.uint64)
    table = gm._name_table(np, words[:-1])
    assert sorted(table[: gm._PROBES]) == list(range(gm._PROBES))
    assert (table[gm._PROBES :] == -1).all()
    ids = gm._name_ids(np, table, words[:-1], words[-2::-1])
    assert ids.tolist() == list(reversed(range(gm._PROBES)))
    assert gm._name_ids(np, table, words[:-1], words[-1:]) is None
    assert gm._name_table(np, words) is None
    for dup in (words[:3], words[:40]):
        assert gm._name_table(np, np.append(dup, dup[1])) is None
    assert _declined_or_same(np, small)
    assert gm._read_bytes(np, large) is None
    seen, load = [], gm._load_json

    def recorded(text):
        seen.append(len(text))
        return load(text)

    monkeypatch.setattr(gm, "_load_json", recorded)
    g = parse_graph(large)
    assert seen == [len(large)] and g == ref
    for name in ("names", "s", "t", "keys", "off", "nbr", "out", "twin"):
        assert getattr(g, name) == getattr(ref, name), name
