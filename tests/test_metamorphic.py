"""Metamorphic properties on instances far beyond the oracles' range.

Generated instances always number their vertices the same way, so these
tests feed the parser files whose vertex order is shuffled, files whose
embedding is mirrored, and files whose edges are reversed, and compare
the answers.
"""

import json
import random

import pytest

from hpccm import (
    GenProfile,
    classify_ot,
    parse_graph,
    polygon_stack,
    random_ot,
    serialize_graph,
    solve,
)


@pytest.fixture(scope="module")
def large():
    """polygon_stack(9999) and three random_ot draws with n = 4000 (bias 0,
    bias 1, one chain): each one's file, chains and answer."""
    instances = [
        polygon_stack(9999),
        random_ot(GenProfile(1999, 1999, 0.0, seed=11)),
        random_ot(GenProfile(1999, 1999, 1.0, seed=12)),
        random_ot(GenProfile(0, 3998, 0.5, seed=13)),
    ]
    return [(serialize_graph(ot.base), ot, solve(ot)) for ot in instances]


def _load_and_solve(data: dict):
    ot = classify_ot(parse_graph(json.dumps(data)))
    return ot, solve(ot)


def test_shuffled_vertex_ids_keep_the_answer(large):
    # Renumbering the vertices (the order of the file's vertex list) keeps
    # the crossing count and the path, up to the renaming.
    for k, (text, ot, r) in enumerate(large):
        data = json.loads(text)
        random.Random(k).shuffle(data["vertices"])
        shuffled, answer = _load_and_solve(data)
        names = shuffled.base.names
        assert names != ot.base.names
        assert answer.total_crossings == r.total_crossings
        assert [names[v] for v in answer.path] == [ot.base.names[v] for v in r.path]


def test_mirrored_embedding_keeps_the_minimum(large):
    # Reversing every rotation list mirrors the drawing: the chains swap
    # sides, and the source's list still starts at its leftmost edge.
    for text, ot, r in large:
        data = json.loads(text)
        for row in data["rotation"].values():
            row.reverse()
        mirror, answer = _load_and_solve(data)
        assert (mirror.left, mirror.right) == (ot.right, ot.left)
        assert answer.total_crossings == r.total_crossings


def test_reversed_edges_keep_the_minimum(large, corpus):
    # Reversing every edge and swapping s and t turns the drawing upside
    # down; reversing every rotation list mirrors it back, so the left
    # chain stays on the left, now read top down.  The new source's list
    # must start at its leftmost edge: the old left chain's top, or the
    # old source when that chain is empty.
    small = [(serialize_graph(ot.base), ot, solve(ot)) for ot in corpus]
    for text, ot, r in large + small:
        data = json.loads(text)
        for edge in data["edges"]:
            edge.reverse()
        data["source"], data["sink"] = data["sink"], data["source"]
        for row in data["rotation"].values():
            row.reverse()
        first = ot.base.names[ot.left[-1]] if ot.left else data["sink"]
        row = data["rotation"][data["source"]]
        i = row.index(first)
        row[:] = row[i:] + row[:i]
        flipped, answer = _load_and_solve(data)
        assert (flipped.left, flipped.right) == (ot.left[::-1], ot.right[::-1])
        assert answer.total_crossings == r.total_crossings
