import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from hpccm import (
    BookEmbedding,
    GraphError,
    OTStDigraph,
    PageArc,
    SplitArc,
    from_book_embedding,
    is_median,
    maximal_polygon,
    render_svg,
    render_text,
    solve,
    to_book_embedding,
    validate_embedding,
    verify_solution,
)


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


def test_ot_layers_read_no_rotations(corpus, pfp, stack3, f9):
    # After classify_ot the cycle positions are the only geometry: the
    # book embedding and the median tests give the same answers on a copy
    # whose rotations cannot be read.
    for ot in [*corpus[:40], pfp, stack3, f9]:
        base = replace(ot.base, rotation=_Unreadable())
        base.__dict__["_rot_pos"] = _Unreadable()
        blind = OTStDigraph(base=base, left=ot.left, right=ot.right, arrays=ot.arrays)
        r = solve(ot)
        assert to_book_embedding(blind, r) == to_book_embedding(ot, r)
        for e in sorted(ot.base.edges):
            assert is_median(blind, e) == is_median(ot, e)
            if is_median(ot, e):
                assert maximal_polygon(blind, e) == maximal_polygon(ot, e)


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
