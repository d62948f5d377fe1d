"""The linear-time verifiers against the pairwise oracles in
``tests/pairwise_checks.py``: agreement on the oracle corpus, a mutation
gate over six kinds of corrupted answers, and guards against a quadratic
path coming back."""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

import hpccm.graph_model as gm
import hpccm.solver
from hpccm import (
    BookEmbedding,
    GenProfile,
    GraphError,
    HpCompletionResult,
    PageArc,
    SpineCrossing,
    SplitArc,
    five_crossing_polygon,
    from_book_embedding,
    polygon_stack,
    random_ot,
    rhombus,
    solve,
    to_book_embedding,
    validate_embedding,
    verify_solution,
)
from hpccm.solver import interleaves
from tests import pairwise_checks as pairwise
from tests.pairwise_checks import _crossing_sort_key
from tests.conftest import all_topo_orders, fan_polygon, make_pfp


@pytest.fixture(scope="module")
def gate_instances(corpus):
    """Stacks (many completion edges, one crossing each), the fan-heavy
    polygon, pfp, and the first corpus instances whose answer has two
    completion edges and a list of at least two crossings."""
    fixed = [
        polygon_stack(2),
        polygon_stack(3),
        polygon_stack(6),
        five_crossing_polygon(),
        make_pfp(),
        fan_polygon(),
    ]
    varied = [
        ot
        for ot in corpus
        if len(solve(ot).completion_edges) >= 2
        and max(map(len, solve(ot).crossings)) >= 2
    ]
    return fixed + varied[:4]


def _answers(oracle_corpus):
    records, _ = oracle_corpus
    instances = [ot for ot, *_ in records]
    instances += [polygon_stack(k) for k in range(1, 9)]
    instances += [rhombus(), five_crossing_polygon(), make_pfp()]
    return [(ot, solve(ot, check=False)) for ot in instances]


def _with_lists(r: HpCompletionResult, i: int, lst) -> HpCompletionResult:
    crossings = list(r.crossings)
    crossings[i] = tuple(lst)
    return replace(
        r,
        crossings=tuple(crossings),
        total_crossings=sum(len(c) for c in crossings),
    )


def _longest(r: HpCompletionResult) -> int:
    return max(range(len(r.crossings)), key=lambda i: len(r.crossings[i]))


# Corruptions of a completion result; each returns None where it does not
# apply.


def drop_crossing(ot, r):
    i = _longest(r) if r.crossings else None
    if i is None or not r.crossings[i]:
        return None
    return _with_lists(r, i, r.crossings[i][1:])


def extra_crossing(ot, r):
    if not r.crossings:
        return None
    i = _longest(r)
    a, b = r.completion_edges[i]
    extra = next(e for e in sorted(ot.base.edges) if a in e or b in e)
    return _with_lists(r, i, (*r.crossings[i], extra))


def swap_order(ot, r):
    for i, lst in enumerate(r.crossings):
        if len(lst) >= 2:
            return _with_lists(r, i, (lst[1], lst[0], *lst[2:]))
    return None


def reverse_path(ot, r):
    return replace(r, path=tuple(reversed(r.path)))


def reverse_edge(ot, r):
    if not r.completion_edges:
        return None
    (a, b), *rest = r.completion_edges
    return replace(r, completion_edges=((b, a), *rest))


def duplicate_crossing(ot, r):
    """The same length as the forced set, one entry twice, one missing."""
    i = _longest(r) if r.crossings else None
    if i is None or len(r.crossings[i]) < 2:
        return None
    lst = r.crossings[i]
    return _with_lists(r, i, (lst[0], *lst[:-1]))


def foreign_crossing(ot, r):
    """The same length as the forced set, one entry not forced."""
    i = _longest(r) if r.crossings else None
    if i is None or not r.crossings[i]:
        return None
    a, b = r.completion_edges[i]
    other = next(e for e in sorted(ot.base.edges) if a in e or b in e)
    return _with_lists(r, i, (other, *r.crossings[i][1:]))


def no_edge_crossing(entry):
    """The corruption that puts ``entry``, which is no edge given by vertex
    ids, first in the longest list in place of a forced edge."""

    def corrupt(ot, r):
        i = _longest(r) if r.crossings else None
        if i is None or not r.crossings[i]:
            return None
        return _with_lists(r, i, (entry, *r.crossings[i][1:]))

    return corrupt


def _honest(ot, order) -> HpCompletionResult:
    """The completion along a topological order with every forced
    crossing listed in geometric order."""
    g, cyc, n = ot.base, ot.cycle_pos, ot.base.n
    ces = tuple((a, b) for a, b in zip(order, order[1:]) if (a, b) not in g.edges)
    lists = tuple(
        tuple(
            sorted(
                (e for e in g.edges if interleaves(cyc, n, ce, e)),
                key=_crossing_sort_key(cyc, n, ce),
            )
        )
        for ce in ces
    )
    return HpCompletionResult(
        path=tuple(order),
        completion_edges=ces,
        crossings=lists,
        total_crossings=sum(map(len, lists)),
    )


def crossed_twice(ot, r):
    """A complete, well-ordered answer along another topological order
    that crosses some edge twice."""
    for order in all_topo_orders(ot.base):
        honest = _honest(ot, order)
        crossed = [e for lst in honest.crossings for e in lst]
        if len(crossed) != len(set(crossed)):
            return honest
    return None


def reversed_order(ot, r):
    """The complete, well-ordered answer along the path reversed: every
    path step runs backwards, some of them along boundary edges."""
    return _honest(ot, tuple(reversed(r.path)))


RESULT_CORRUPTIONS = {
    "dropped crossing": drop_crossing,
    "extra crossing": extra_crossing,
    "swapped order": swap_order,
    "reversed path": reverse_path,
    "reversed edge": reverse_edge,
    "crossed twice": crossed_twice,
    "reversed order": reversed_order,
}


# Corruptions of a book embedding.


def _embedding(b: BookEmbedding, assignment, crossings=None) -> BookEmbedding:
    return BookEmbedding(
        names=b.names,
        spine=b.spine,
        assignment=assignment,
        crossings=b.crossings if crossings is None else crossings,
    )


def flip_split_page(ot, b):
    assignment = dict(b.assignment)
    for e, p in assignment.items():
        if isinstance(p, SplitArc):
            assignment[e] = replace(p, upper_page=p.lower_page)
            return _embedding(b, assignment)
    return None


def flip_pages(ot, b):
    """Every arc kept whole moves to page R."""
    assignment = {
        e: PageArc("R") if isinstance(p, PageArc) else p
        for e, p in b.assignment.items()
    }
    return _embedding(b, assignment)


def reverse_spine(ot, b):
    return replace(b, spine=tuple(reversed(b.spine)))


def drop_spine_crossing(ot, b):
    if not b.crossings:
        return None
    return _embedding(b, b.assignment, b.crossings[1:])


def swap_gap_ranks(ot, b):
    """Two crossings of one gap trade ranks."""
    for c, d in zip(b.crossings, b.crossings[1:]):
        if c.gap == d.gap:
            c2 = replace(c, rank_in_gap=d.rank_in_gap)
            d2 = replace(d, rank_in_gap=c.rank_in_gap)
            assignment = dict(b.assignment)
            assignment[c.edge] = replace(assignment[c.edge], crossing=c2)
            assignment[d.edge] = replace(assignment[d.edge], crossing=d2)
            crossings = tuple(
                sorted(
                    (c2 if x == c else d2 if x == d else x for x in b.crossings),
                    key=lambda x: (x.gap, x.rank_in_gap),
                )
            )
            return _embedding(b, assignment, crossings)
    return None


def split_uncrossed(ot, b):
    """An uncrossed arc gets a spine crossing in its lowest gap."""
    for e, p in b.assignment.items():
        lo = b.spine.index(e[0])
        if isinstance(p, PageArc) and b.spine.index(e[1]) > lo + 1:
            c = SpineCrossing(edge=e, gap=lo, rank_in_gap=0)
            assignment = dict(b.assignment)
            assignment[e] = SplitArc("L", c, "R")
            crossings = tuple(
                sorted((*b.crossings, c), key=lambda x: (x.gap, x.rank_in_gap))
            )
            return _embedding(b, assignment, crossings)
    return None


EMBEDDING_CORRUPTIONS = {
    "page flip": flip_split_page,
    "reversed path": reverse_spine,
    "dropped crossing": drop_spine_crossing,
    "swapped order": swap_gap_ranks,
}


def _pairs(messages: list[str]) -> set[frozenset]:
    """The unordered arc pairs named by interleaving messages."""
    out = set()
    for m in messages:
        if "interleave" in m:
            names = m.split("arcs of ", 1)[1].split(" interleave")[0]
            out.add(frozenset(names.split(" and ")))
    return out


def _assert_same_verdict(g, b):
    new = validate_embedding(g, b)
    old = pairwise.validate_embedding(g, b)
    assert bool(new) == bool(old)
    # Only the interleaving messages may differ: the scan names a subset
    # of the pairs the pairwise loop lists.
    assert [m for m in new if "interleave" not in m] == [
        m for m in old if "interleave" not in m
    ]
    assert _pairs(new) <= _pairs(old)
    return new


def test_checkers_agree_with_pairwise_oracles(oracle_corpus):
    answers = _answers(oracle_corpus)
    assert len(answers) >= 511
    result_kinds = [*RESULT_CORRUPTIONS.values(), duplicate_crossing, foreign_crossing]
    result_kinds.remove(crossed_twice)  # enumerates orders; see the gate
    embedding_kinds = [*EMBEDDING_CORRUPTIONS.values(), flip_pages, split_uncrossed]
    rejected = 0
    for ot, r in answers:
        assert verify_solution(ot, r) == pairwise.verify_solution(ot, r) == []
        for corrupt in result_kinds:
            bad = corrupt(ot, r)
            if bad is not None:
                assert verify_solution(ot, bad) == pairwise.verify_solution(ot, bad)
        b = to_book_embedding(ot, r)
        assert _assert_same_verdict(ot.base, b) == []
        for corrupt in embedding_kinds:
            bad = corrupt(ot, b)
            if bad is not None:
                rejected += bool(_assert_same_verdict(ot.base, bad))
    assert rejected > len(answers)


@pytest.mark.parametrize("kind", sorted(RESULT_CORRUPTIONS))
def test_mutation_gate_results(kind, gate_instances):
    _gate_results(kind, gate_instances)


@pytest.mark.parametrize("kind", sorted(RESULT_CORRUPTIONS))
def test_mutation_gate_results_with_numpy(kind, gate_instances, monkeypatch):
    # The array forms of the checks name the same violations.
    pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    _gate_results(kind, gate_instances)


def _gate_results(kind, gate_instances):
    corrupt = RESULT_CORRUPTIONS[kind]
    applied = 0
    for ot in gate_instances:
        bad = corrupt(ot, solve(ot))
        if bad is None:
            continue
        applied += 1
        new = verify_solution(ot, bad)
        assert new, (kind, ot.base.n)
        assert new == pairwise.verify_solution(ot, bad)
        if kind == "crossed twice":
            assert any("crossed by two completion edges" in v for v in new)
    assert applied >= 3


@pytest.mark.parametrize("kind", sorted(EMBEDDING_CORRUPTIONS))
def test_mutation_gate_embeddings(kind, gate_instances):
    corrupt = EMBEDDING_CORRUPTIONS[kind]
    applied = 0
    for ot in gate_instances:
        bad = corrupt(ot, to_book_embedding(ot, solve(ot)))
        if bad is None:
            continue
        applied += 1
        assert _assert_same_verdict(ot.base, bad), (kind, ot.base.n)
    assert applied >= 3


def test_interleaving_pages_named(gate_instances):
    # Flipping whole arcs onto one page makes arcs interleave on several
    # instances; the scan names such a pair wherever the pairwise loop does.
    named = 0
    for ot in gate_instances:
        bad = flip_pages(ot, to_book_embedding(ot, solve(ot)))
        if _pairs(pairwise.validate_embedding(ot.base, bad)):
            assert _pairs(_assert_same_verdict(ot.base, bad))
            named += 1
    assert named >= 3


def test_list_rejected_without_message_is_internal(monkeypatch):
    # The numpy gate and the pure body that names the failures must agree:
    # a list the gate rejects and no message names would otherwise pass
    # as valid.
    pytest.importorskip("numpy")
    monkeypatch.setattr(gm, "NUMPY_MIN_N", 0)
    ot = polygon_stack(3)
    bad = drop_crossing(ot, solve(ot))
    monkeypatch.setattr(hpccm.solver, "_list_faults", lambda *args: [])
    with pytest.raises(GraphError, match="no message names") as err:
        verify_solution(ot, bad)
    assert err.value.kind == "internal"


@pytest.mark.parametrize("numpy_min_n", [None, 0])
def test_crossing_entries_that_are_no_edges(monkeypatch, numpy_min_n):
    # Such an entry has no positions in the columns, so its list fails the
    # check and is named from the result's tuples: the entry prints as it
    # was given, as in the pairwise oracle.
    if numpy_min_n is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(gm, "NUMPY_MIN_N", numpy_min_n)
    for ot in (polygon_stack(3), five_crossing_polygon()):
        r, n = solve(ot), ot.n
        for entry in ((n, n + 1), ("a", "b"), (-1, 2), (0, 0)):
            bad = no_edge_crossing(entry)(ot, r)
            new = verify_solution(ot, bad)
            assert new == pairwise.verify_solution(ot, bad)
            assert any(f"; extra [{entry!r}]" in m for m in new), new
        # A float vertex equals the edge it replaces, so the entry is
        # neither missing nor extra; the message names it on its own.
        (x, y) = r.crossings[_longest(r)][0]
        entry = (float(x), y)
        new = verify_solution(ot, no_edge_crossing(entry)(ot, r))
        name = ot.base.name_edge(r.completion_edges[_longest(r)])
        assert new == [
            f"completion edge {name} crossing set mismatch; "
            f"not pairs of vertex ids [{entry!r}]"
        ]


def listed_twice(r):
    """The longest list with its first entry given twice, in order."""
    i = _longest(r)
    return _with_lists(r, i, r.crossings[i][:1] + r.crossings[i])


# Results whose shape is wrong before any list is compared, and a list
# holding one forced edge twice: each with the message it must give.
SHAPE_FAULTS = [
    (lambda r: replace(r, path=r.path[:-1]), "path is not a permutation"),
    (lambda r: replace(r, path=(r.path[1], *r.path[1:])), "path is not a permutation"),
    (lambda r: replace(r, path=(*r.path[:-1], len(r.path))), "path is not a permutation"),
    (lambda r: replace(r, path=(*r.path[:-1], "t")), "path is not a permutation"),
    (lambda r: replace(r, crossings=r.crossings[:-1]), "crossing lists do not match"),
    (lambda r: replace(r, crossings=(*r.crossings, ())), "crossing lists do not match"),
    (listed_twice, "crosses an edge twice"),
]


@pytest.mark.parametrize("numpy_min_n", [None, 0])
def test_shape_faults_named_as_pairwise(monkeypatch, numpy_min_n):
    if numpy_min_n is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(gm, "NUMPY_MIN_N", numpy_min_n)
    for ot in (polygon_stack(3), five_crossing_polygon(), make_pfp()):
        r = solve(ot)
        for corrupt, message in SHAPE_FAULTS:
            bad = corrupt(r)
            new = verify_solution(ot, bad)
            assert new == pairwise.verify_solution(ot, bad)
            assert any(message in m for m in new), (message, new)


def test_embedding_shape_faults_named_as_pairwise(stack3):
    b = to_book_embedding(stack3, solve(stack3))
    edges = list(b.assignment)
    (e, split), (f, arc) = (
        next((e, p) for e, p in b.assignment.items() if isinstance(p, kind))
        for kind in (SplitArc, PageArc)
    )
    swapped = {**b.assignment, e[::-1]: arc}
    del swapped[e]
    foreign = replace(split, crossing=replace(split.crossing, edge=f))
    cases = [
        (replace(b, spine=b.spine[:-1]), "spine is not a permutation"),
        (replace(b, spine=(*b.spine[:-1], b.spine[0])), "spine is not a permutation"),
        (_embedding(b, {x: b.assignment[x] for x in edges[1:]}), "does not cover"),
        (_embedding(b, swapped), "does not cover"),
        (_embedding(b, {**b.assignment, f: PageArc("X")}), "has page 'X'"),
        (_embedding(b, {**b.assignment, e: foreign}), "carries a foreign crossing"),
    ]
    for bad, message in cases:
        new = _assert_same_verdict(stack3.base, bad)
        assert any(message in m for m in new), (message, new)


def test_verify_calls_interleaves_once_per_crossing(monkeypatch):
    ot = polygon_stack(2000)
    r = solve(ot, check=False)
    calls = 0
    plain = hpccm.solver.interleaves

    def counting(*args):
        nonlocal calls
        calls += 1
        return plain(*args)

    monkeypatch.setattr(hpccm.solver, "interleaves", counting)
    assert verify_solution(ot, r) == []
    assert 0 < calls <= r.total_crossings


def test_default_solve_and_round_trip_at_ten_thousand_vertices():
    ot = polygon_stack(5000)
    t0 = time.perf_counter()
    r = solve(ot)
    back = from_book_embedding(ot.base, to_book_embedding(ot, r))
    elapsed = time.perf_counter() - t0
    assert back == r
    assert r.total_crossings == 5000
    assert elapsed < 10.0, f"{elapsed:.1f} s"


def _forced_cases(oracle_corpus):
    """(instance, pairs of positions a, b) whose forced crossings are
    counted: every completion edge of the oracle corpus's answers and of
    polygon_stack(1..8), and in 50 small random_ot draws both orders of
    every pair on opposite chains, so that the arc from a to b runs over
    position 0 as often as not, and of every pair of cycle neighbours."""
    records, _ = oracle_corpus
    cases = []
    for ot in [*(ot for ot, *_ in records), *map(polygon_stack, range(1, 9))]:
        pos = ot.cycle_pos
        r = solve(ot, check=False)
        cases.append((ot, [(pos[a], pos[b]) for a, b in r.completion_edges]))
    rng = random.Random(15)
    for _ in range(50):
        prof = GenProfile(
            rng.randint(1, 8), rng.randint(1, 8), rng.random(), rng.getrandbits(32)
        )
        ot = random_ot(prof)
        k, n = ot.arrays.k, ot.n
        chains = [(p, q) for p in range(1, k + 1) for q in range(k + 2, n)]
        steps = [(p, p + 1) for p in range(n - 1)] + [(0, n - 1)]
        cases.append((ot, [pair for p, q in chains + steps for pair in ((p, q), (q, p))]))
    return cases


@pytest.mark.parametrize("numpy_min_n", [None, 0])
def test_forced_counts_match_interleaving_edges(oracle_corpus, monkeypatch, numpy_min_n):
    # The bracket-depth count of the edges forced to cross (a, b) against
    # the edges interleaves names, with the pure-Python form at the
    # default threshold and the numpy one with numpy for all sizes.
    if numpy_min_n is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(gm, "NUMPY_MIN_N", numpy_min_n)
    counted = joined = 0
    for ot, pairs in _forced_cases(oracle_corpus):
        if not pairs:
            continue
        n, cyc, keys = ot.n, ot.arrays.cyc, ot.base.keys
        np = gm.backend(n)
        tails, heads = ([p for p, _ in pairs], [q for _, q in pairs])
        if np is not None:
            tails, heads = np.array(tails), np.array(heads)
        got = hpccm.solver._forced_counts(np, ot.arrays, tails, heads, keys)
        brute = [
            sum(interleaves(ot.cycle_pos, n, (cyc[p], cyc[q]), e) for e in ot.base.pairs())
            for p, q in pairs
        ]
        assert list(got) == brute, ot.base.names
        counted += len(pairs)
        joined += sum(
            ot.base.has_edge((cyc[p], cyc[q])) or ot.base.has_edge((cyc[q], cyc[p]))
            for p, q in pairs
        )
    assert counted > 2000
    assert joined > 500
