"""The pure-Python load and rhombus bodies against their old forms in
``tests/reference_load.py``: the same result, or the same error kind and
message, on the kernel corpus and on small draws given one edit each."""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import replace

import pytest

import hpccm.graph_model as gm
import hpccm.hamiltonicity as ham
from hpccm import (
    EmbeddedDigraph,
    GenProfile,
    GraphError,
    build_graph,
    classify_ot,
    polygon_stack,
    random_ot,
)
from hpccm.hamiltonicity import rhombus_columns

from tests import reference_load as ref
from tests.conftest import thinned
from tests.test_hamiltonicity import (
    _interior_vertex_graph,
    _square_graph,
    _triangle_outer_graph,
)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the kind and message it raises."""
    try:
        return "ok", fn(*args)
    except GraphError as exc:
        return "error", exc.kind, str(exc)


def _fields(arrays: gm.OtArrays) -> tuple:
    return tuple(getattr(arrays, name) for name in gm.OtArrays.__slots__)


def _validated(fn, g: EmbeddedDigraph, kahn):
    """``fn(g)`` on a fresh copy of ``g`` whose Kahn pass is ``kahn``'s."""
    h = replace(g)
    h.__dict__["kahn"] = kahn(h)
    return _outcome(fn, h)


def _fresh(fn, g: EmbeddedDigraph):
    """``fn(g)``'s outcome on a fresh copy of ``g``, with no outer walk
    stored, and on ``g`` itself, which may have one; both must agree."""
    outcome = _outcome(fn, replace(g))
    assert _outcome(fn, g) == outcome
    return outcome


def _compare(g: EmbeddedDigraph) -> dict[str, tuple]:
    """Each rewritten body's outcome on ``g``, asserted equal to the old
    one's; returns the outcomes by body."""
    seen = {
        "pair": (gm._pair_py, ref._pair_py, (g.names, g.keys, g.off, g.nbr)),
        "kahn": (gm.kahn_order, ref.kahn_order, (g,)),
    }
    outcomes = {}
    for name, (new, old, args) in seen.items():
        outcomes[name] = _outcome(new, *args)
        assert outcomes[name] == _outcome(old, *args), name
    outcomes["validate"] = _validated(gm._validate_py, g, gm.kahn_order)
    assert outcomes["validate"] == _validated(ref._validate_py, g, ref.kahn_order)
    for name, new, old in [
        ("cycle", gm._cycle_py, ref._cycle_py),
        ("rhombi", ham._rhombi_py, ref._rhombi_py),
    ]:
        outcomes[name] = _fresh(new, g)
        assert outcomes[name] == _fresh(old, g), name
    cycle = outcomes["cycle"]
    if cycle[0] == "ok":
        new = _outcome(gm._arrays_py, g, *cycle[1])
        old = _outcome(ref._arrays_py, g, *cycle[1])
        if new[0] == "ok":
            new, old = (new[0], _fields(new[1])), (old[0], _fields(old[1]))
        assert new == old
        outcomes["arrays"] = new
    return outcomes


def test_rewritten_bodies_match_the_old_ones_on_the_kernel_corpus(kernel_corpus):
    for ot in kernel_corpus:
        outcomes = _compare(ot.base)
        assert outcomes["validate"] == ("ok", None)
        assert outcomes["arrays"][0] == "ok"


def _as_names(g: EmbeddedDigraph):
    """The arguments of :func:`build_graph` that give ``g``."""
    names = g.names
    edges = [(names[u], names[v]) for u, v in g.pairs()]
    rows = {
        names[v]: [names[w] for w in g.nbr[g.off[v] : g.off[v + 1]]] for v in range(g.n)
    }
    return list(names), names[g.s], names[g.t], edges, rows


def _edited(g: EmbeddedDigraph, rng: random.Random) -> EmbeddedDigraph:
    """``g`` given one edit, unvalidated."""
    names, s, t, edges, rows = _as_names(g)
    long_rows = [rows[v] for v in names if len(rows[v]) > 1]
    row = rng.choice(long_rows)
    edit = rng.choice(["swap", "swap2", "reverse", "rotate", "flip", "mirror", "st"])
    if edit.startswith("swap"):
        # Two rows with interleaved in/out blocks: the first one is named.
        for row in rng.sample(long_rows, min(len(long_rows), int(edit[4:] or 1))):
            i, j = rng.sample(range(len(row)), 2)
            row[i], row[j] = row[j], row[i]
    elif edit == "reverse":
        row.reverse()
    elif edit == "rotate":
        r = rng.randrange(1, len(row))
        row[:] = row[r:] + row[:r]
    elif edit == "flip":
        i = rng.randrange(len(edges))
        edges[i] = edges[i][::-1]
    elif edit == "mirror":
        for v in names:
            rows[v].reverse()
    else:
        s, t = t, s
    return build_graph(names, s, t, edges, rows, validate=False)


def test_rewritten_bodies_match_the_old_ones_on_edited_draws():
    rng = random.Random(20)
    kinds: Counter = Counter()
    for _ in range(500):
        prof = GenProfile(
            rng.randint(0, 6), rng.randint(1, 6), rng.random(), rng.randrange(10**6)
        )
        g = _edited(random_ot(prof).base, rng)
        for name, outcome in _compare(g).items():
            kinds[name, outcome[1] if outcome[0] == "error" else "ok"] += 1
    # The edits reach every error the bodies name, and some pass.
    for name, kind in [
        ("cycle", "not-outerplanar"),
        ("cycle", "ok"),
        ("rhombi", "non-triangular-face"),
        ("rhombi", "ok"),
        ("validate", "multi-source"),
        ("validate", "multi-sink"),
        ("validate", "cyclic"),
        ("validate", "non-consecutive-in-out"),
        ("validate", "non-planar-rotation"),
        ("validate", "sink-not-on-outer-face"),
        ("validate", "ok"),
        ("arrays", "not-outerplanar"),
        ("arrays", "ok"),
    ]:
        assert kinds[name, kind] >= 3, (name, kind, kinds)


def _edited_draws():
    """The 500 edited draws of the test above, in its order."""
    rng = random.Random(20)
    for _ in range(500):
        prof = GenProfile(
            rng.randint(0, 6), rng.randint(1, 6), rng.random(), rng.randrange(10**6)
        )
        yield _edited(random_ot(prof).base, rng)


def _loaded(g: EmbeddedDigraph) -> tuple:
    """What :func:`classify_ot` and :func:`rhombus_columns` give on ``g``."""
    ot = _outcome(classify_ot, g)
    if ot[0] == "ok":
        ot = (ot[0], ot[1].base, _fields(ot[1].arrays))
    return ot, _outcome(rhombus_columns, g)


def test_numpy_validation_matches_pure_on_edited_draws(monkeypatch):
    # With the threshold at 0 every numpy body runs on the edited draws:
    # _valid_np accepts exactly what _validate_py accepts, and the walk it
    # stores changes nothing classify_ot and rhombus_columns give, against
    # a copy that walks its outer face on first use.
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    verdicts: Counter = Counter()
    for g in _edited_draws():
        checked, fresh = replace(g), replace(g)
        valid = gm._valid_np(np, checked)
        assert valid == (_validated(gm._validate_py, g, gm.kahn_order)[0] == "ok")
        verdicts[valid] += 1
        assert "outer" not in fresh.__dict__
        assert _loaded(checked) == _loaded(fresh)
    assert verdicts[True] >= 3 and verdicts[False] >= 3, verdicts


def test_the_first_interleaved_row_is_named(kernel_corpus):
    # Two rows of at least two in- and two out-edges each, interleaved.
    named = 0
    for ot in kernel_corpus:
        names, s, t, edges, rows = _as_names(ot.base)
        edge_set = set(edges)
        sides = {
            v: (
                [w for w in rows[v] if (v, w) in edge_set],
                [w for w in rows[v] if (w, v) in edge_set],
            )
            for v in names
        }
        mixed = [v for v in names if min(map(len, sides[v])) >= 2]
        if len(mixed) < 2:
            continue
        for v in mixed[-2:]:
            outs, ins = sides[v]
            rows[v] = [outs[0], ins[0], outs[1], ins[1], *outs[2:], *ins[2:]]
        g = build_graph(names, s, t, edges, rows, validate=False)
        message = f"vertex {mixed[-2]}: incoming/outgoing edges are interleaved"
        outcome = ("error", "non-consecutive-in-out", f"{message} in the rotation")
        assert _compare(g)["validate"] == outcome
        named += 1
    assert named >= 20, named


def _rows_edits(g: EmbeddedDigraph, rng: random.Random):
    """The slots of ``g`` as (keys, off, nbr) after each edit that breaks
    or stretches the pairing: a dropped dart, a dart listed twice, a dart
    to another vertex, and an edge given with its reverse."""
    n = g.n
    rows = [list(g.nbr[g.off[v] : g.off[v + 1]]) for v in range(n)]
    v = rng.choice([u for u in range(n) if len(rows[u]) > 1])
    i = rng.randrange(len(rows[v]))
    u, w = divmod(rng.choice(g.keys), n)
    for edit in range(4):
        edited, keys = [row[:] for row in rows], list(g.keys)
        if edit == 0:
            del edited[v][i]
        elif edit == 1:
            edited[v].append(edited[v][i])
        elif edit == 2:
            edited[v][i] = rng.choice([x for x in range(n) if x not in (v, rows[v][i])])
        else:
            keys = sorted(keys + [w * n + u])
        off = array("i", [0])
        for row in edited:
            off.append(off[-1] + len(row))
        nbr = array("i", [x for row in edited for x in row])
        yield array("q", keys), off, nbr


def test_pairing_matches_the_old_one_on_edited_rows(kernel_corpus):
    rng = random.Random(21)
    outcomes: Counter = Counter()
    for ot in kernel_corpus[::5]:
        g = ot.base
        if g.n < 4:
            continue
        for keys, off, nbr in _rows_edits(g, rng):
            new = _outcome(gm._pair_py, g.names, keys, off, nbr)
            assert new == _outcome(ref._pair_py, g.names, keys, off, nbr)
            outcomes[new[0]] += 1
    assert outcomes["ok"] >= 50 and outcomes["error"] >= 200, outcomes


# ---------------------------------------------------------------------------
# The rhombi and the boundary split


def _directed_square():
    """The square of :func:`_square_graph` with its edges turned into the
    cycle s -> b -> t -> a -> s, unvalidated: the interior face's darts all
    run against their edges, so only the twins of the out-slots reach it."""
    return build_graph(
        names=["s", "a", "b", "t"],
        source="s",
        sink="t",
        edges=[("s", "b"), ("b", "t"), ("t", "a"), ("a", "s")],
        rotation={"s": ["a", "b"], "a": ["t", "s"], "b": ["s", "t"], "t": ["b", "a"]},
        validate=False,
    )


def _rhombus_inputs(oracle_corpus) -> list[EmbeddedDigraph]:
    """The oracle corpus, random_ot draws up to n = 300, polygon_stack(k)
    for k <= 60 and the hand-built graphs."""
    rng = random.Random(25)
    records, _ = oracle_corpus
    graphs = [ot.base for ot, *_ in records]
    for seed in range(60):
        prof = GenProfile(rng.randint(0, 149), rng.randint(1, 149), rng.random(), seed)
        graphs.append(random_ot(prof).base)
    graphs += [polygon_stack(k).base for k in range(1, 61)]
    graphs += [_square_graph(), _interior_vertex_graph(), _triangle_outer_graph()]
    return graphs + [_directed_square()]


def _thinned_inputs(graphs: list[EmbeddedDigraph]) -> list[EmbeddedDigraph]:
    """Each tenth graph of ``graphs`` with a few interior edges deleted."""
    return [thinned(g, 1 + i % 5, i) for i, g in enumerate(graphs[::10]) if g.m > 3]


def test_rhombi_and_cycle_match_the_old_face_walks(oracle_corpus):
    # One pass over the out-slots gives the old face walk's columns, or
    # names the same first non-triangular face; the split of the stored
    # outer walk gives the old walk's cycle or error.
    graphs = _rhombus_inputs(oracle_corpus)
    thin = _thinned_inputs(graphs)
    kinds: Counter = Counter()
    for g in graphs + thin:
        rhombi = _fresh(ham._rhombi_py, g)
        assert rhombi == _fresh(ref._rhombi_py, g)
        assert _fresh(gm._cycle_py, g) == _fresh(ref._cycle_py, g)
        kinds[rhombi[1] if rhombi[0] == "error" else len(rhombi[1][0]) > 0] += 1
    assert kinds[True] >= 500 and kinds[False] >= 5, kinds
    assert kinds["non-triangular-face"] >= len(thin) + 2, (kinds, len(thin))


def test_pure_rhombi_match_numpy(oracle_corpus, monkeypatch):
    # With the threshold at 0, _rhombi_np gives the pure pass's columns on
    # every graph it accepts, and declines exactly those the pure pass
    # rejects.
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    graphs = _rhombus_inputs(oracle_corpus)
    declined = 0
    for g in graphs + _thinned_inputs(graphs):
        pure = _outcome(ham._rhombi_py, replace(g))
        columns = ham._rhombi_np(np, replace(g))
        if columns is None:
            assert pure[0] == "error"
            declined += 1
        else:
            assert pure == ("ok", columns)
    assert declined >= 20, declined
