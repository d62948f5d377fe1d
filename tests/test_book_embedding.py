import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import islice

import pytest

import hpccm.book_embedding as be
import hpccm.graph_model as gm
from hpccm import (
    BookEmbedding,
    EmbeddedDigraph,
    GraphError,
    OTStDigraph,
    PageArc,
    SplitArc,
    classify_ot,
    edge_sidedness,
    from_book_embedding,
    hamiltonian_path,
    is_median,
    maximal_polygon,
    parse_graph,
    polygon_stack,
    render_svg,
    render_text,
    serialize_graph,
    solve,
    to_book_embedding,
    validate_embedding,
    verify_solution,
)
from hpccm.hamiltonicity import rhombus_columns


def test_triangle_embedding(tri):
    b = to_book_embedding(tri, solve(tri))
    assert [tri.base.names[v] for v in b.spine] == ["s", "v", "t"]
    assert b.crossings == ()
    assert all(isinstance(p, PageArc) for p in b.assignment.values())


def test_rhombus_embedding(rh):
    b = to_book_embedding(rh, solve(rh))
    names = [rh.base.names[v] for v in b.spine]
    assert names in (["s", "a", "b", "t"], ["s", "b", "a", "t"])
    median = (rh.base.s, rh.base.t)
    placement = b.assignment[median]
    assert isinstance(placement, SplitArc)
    assert placement.crossing.gap == 1  # strictly between the two apexes
    assert placement.lower_page != placement.upper_page
    assert len(b.crossings) == 1


def test_f9_five_distinct_spine_crossings(f9):
    r = solve(f9)
    b = to_book_embedding(f9, r)
    assert len(b.crossings) == 5 == r.total_crossings
    assert len({c.edge for c in b.crossings}) == 5


def test_crossing_count_equivalence(corpus):
    for ot in corpus:
        r = solve(ot)
        b = to_book_embedding(ot, r)
        assert len(b.crossings) == r.total_crossings
        assert validate_embedding(ot.base, b) == []


def test_round_trip(corpus, pfp, stack3, f9):
    for ot in [*corpus[:80], pfp, stack3, f9]:
        r = solve(ot)
        b = to_book_embedding(ot, r)
        r2 = from_book_embedding(ot.base, b)
        assert r2.path == r.path
        assert r2.completion_edges == r.completion_edges
        assert r2.crossings == r.crossings
        assert r2.total_crossings == r.total_crossings
        assert verify_solution(ot, r2) == []


def test_upwardness_is_topological_order(corpus):
    for ot in corpus[:40]:
        b = to_book_embedding(ot, solve(ot))
        rank = {v: i for i, v in enumerate(b.spine)}
        assert all(rank[u] < rank[v] for (u, v) in ot.base.edges)


class _Unreadable(tuple):
    """A table that fails on any read."""

    def __getitem__(self, key):
        raise AssertionError("rotation read after classification")

    def __iter__(self):
        raise AssertionError("rotation read after classification")

    def __len__(self):
        raise AssertionError("rotation read after classification")


def test_ot_layers_read_no_rotations(corpus, pfp, stack3, f9):
    # After classify_ot the cycle positions are the only geometry: the
    # book embedding and the median tests give the same answers on a copy
    # whose rotation slots cannot be read.
    for ot in [*corpus[:40], pfp, stack3, f9]:
        slots = dict.fromkeys(("off", "nbr", "out", "twin"), _Unreadable())
        base = replace(ot.base, **slots)
        blind = OTStDigraph(base=base, arrays=ot.arrays)
        r = solve(ot)
        assert to_book_embedding(blind, r) == to_book_embedding(ot, r)
        for e in sorted(ot.base.edges):
            assert is_median(blind, e) == is_median(ot, e)
            if is_median(ot, e):
                assert maximal_polygon(blind, e) == maximal_polygon(ot, e)


def _every_layer(text: str) -> tuple:
    """The answers of every layer a user runs on a graph file, from the
    parse to the per-edge queries."""
    g = parse_graph(text)
    ot = classify_ot(g)
    r = solve(ot)  # checked by verify_solution
    b = to_book_embedding(ot, r)
    assert validate_embedding(g, b) == []
    back = from_book_embedding(g, b)
    medians = [e for e in g.pairs() if is_median(ot, e)]
    return (
        r, back, render_text(b), serialize_graph(g),
        rhombus_columns(g), hamiltonian_path(g),
        [edge_sidedness(ot, e) for e in g.pairs()],
        medians, [maximal_polygon(ot, e) for e in medians],
    )


def _edges_read(self):
    raise AssertionError("a layer read EmbeddedDigraph.edges")


def test_layers_read_no_edge_tuples(kernel_corpus, monkeypatch):
    # The key column is the edge set: with ``edges`` raising on read, every
    # layer gives the same answers, at the default threshold (numpy for the
    # stack of 9999 polygons only) and with numpy for all.
    texts = [serialize_graph(ot.base) for ot in kernel_corpus]
    texts.append(serialize_graph(polygon_stack(9999).base))
    expected = list(map(_every_layer, texts))
    monkeypatch.setattr(EmbeddedDigraph, "edges", property(_edges_read))
    assert list(map(_every_layer, texts)) == expected
    pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    assert list(map(_every_layer, texts)) == expected


def test_validate_rejects_page_flip(rh):
    b = to_book_embedding(rh, solve(rh))
    flipped = dict(b.assignment)
    for e, placement in flipped.items():
        if isinstance(placement, SplitArc):
            flipped[e] = replace(placement, upper_page=placement.lower_page)
            break
    bad = BookEmbedding(
        names=b.names,
        spine=b.spine,
        assignment=flipped,
        crossings=b.crossings,
    )
    assert any("single page" in v for v in validate_embedding(rh.base, bad))


def test_validate_rejects_interleaving(f9):
    b = to_book_embedding(f9, solve(f9))
    tampered = dict(b.assignment)
    changed = 0
    for e, placement in tampered.items():
        if isinstance(placement, PageArc) and placement.page == "L":
            tampered[e] = PageArc("R")
            changed += 1
    assert changed  # the instance does have left-page arcs
    bad = BookEmbedding(
        names=b.names, spine=b.spine, assignment=tampered, crossings=b.crossings
    )
    assert any("interleave" in v for v in validate_embedding(f9.base, bad))


def test_validate_rejects_downward_spine(rh):
    b = to_book_embedding(rh, solve(rh))
    bad = BookEmbedding(
        names=b.names,
        spine=tuple(reversed(b.spine)),
        assignment=b.assignment,
        crossings=b.crossings,
    )
    assert validate_embedding(rh.base, bad)


def test_validate_rejects_crossing_outside_span(rh):
    b = to_book_embedding(rh, solve(rh))
    median = (rh.base.s, rh.base.t)
    placement = b.assignment[median]
    moved = replace(placement, crossing=replace(placement.crossing, gap=3))
    assignment = dict(b.assignment)
    assignment[median] = moved
    bad = BookEmbedding(
        names=b.names,
        spine=b.spine,
        assignment=assignment,
        crossings=(moved.crossing,),
    )
    assert any("outside" in v for v in validate_embedding(rh.base, bad))


def test_from_book_rejects_invalid(rh):
    b = to_book_embedding(rh, solve(rh))
    bad = BookEmbedding(
        names=b.names,
        spine=tuple(reversed(b.spine)),
        assignment=b.assignment,
        crossings=b.crossings,
    )
    with pytest.raises(GraphError) as exc:
        from_book_embedding(rh.base, bad)
    assert exc.value.kind == "invalid-embedding"


def test_render_text_format(rh):
    b = to_book_embedding(rh, solve(rh))
    text = render_text(b)
    lines = text.splitlines()
    assert lines[0] == "spine: s b a t"
    assert "s->t split L@gap(1,0)/R" in lines
    assert all(
        ("page=" in line) or ("split" in line) for line in lines[1:]
    )


def test_render_svg_deterministic_and_wellformed(f9):
    b = to_book_embedding(f9, solve(f9))
    svg1 = render_svg(b)
    svg2 = render_svg(to_book_embedding(f9, solve(f9)))
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    # one arc per unsplit edge, two per split edge
    splits = sum(
        1 for p in b.assignment.values() if isinstance(p, SplitArc)
    )
    assert len(paths) == len(b.assignment) + splits


@pytest.mark.parametrize(
    "split, message",
    [(0, "uncrossed edge {} changes sides"), (1, "crossed edge {} keeps its side")],
)
def test_check_sides_names_a_flipped_split_bit(stack3, monkeypatch, split, message):
    # The page rule's codes must change sides exactly on the crossed edges;
    # one flipped split bit is named by its edge.
    pages, flipped = be._pages, []

    def flipping(g, c):
        cols = pages(g, c)
        i = next(i for i, code in enumerate(cols.codes) if code & 1 == split)
        flipped.append(next(islice(g.base.pairs(), i, None)))
        codes = list(cols.codes)
        codes[i] ^= 1
        return cols._replace(codes=codes)

    monkeypatch.setattr(be, "_pages", flipping)
    with pytest.raises(GraphError) as err:
        to_book_embedding(stack3, solve(stack3))
    assert err.value.kind == "internal"
    assert str(err.value) == message.format(stack3.base.name_edge(flipped[0]))


def test_render_text_from_records_matches_columns(corpus, stack3, f9, pfp):
    # An embedding given as records (replace keeps no columns) prints as
    # the one to_book_embedding made from its columns.
    split = 0
    for ot in (*corpus, stack3, f9, pfp):
        b = to_book_embedding(ot, solve(ot))
        records = replace(b)
        assert b.columns is not None and records.columns is None
        assert render_text(records) == render_text(b)
        split += len(records.crossings)
    assert split >= 100
