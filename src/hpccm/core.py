"""Positional kernel: decomposition, costs, DP and path as flat columns.

Everything here works on :class:`~hpccm.graph_model.OtArrays`, i.e. on
boundary-cycle positions (0 the source, 1..k the left chain bottom to
top, k + 1 the sink, k + 2..n - 1 the right chain top to bottom), and
produces plain columns; the record types of the public API are made from
these columns on first read.

Two interchangeable implementations run each bulk step: a numpy one for
large instances and a pure-Python one, which is the reference and serves
small instances and installs without numpy.
:func:`~hpccm.graph_model.backend` picks one from the instance size alone.

Facts about an OT-st-digraph the kernel relies on, per row (clockwise from
the cycle successor):

* an edge (u, v) is a median exactly when it is a chord (neither the first
  nor the last slot of its row) and both rotation neighbours w of v at u
  satisfy rank(u) < rank(w) < rank(v), i.e. u -> w -> v;
* a row's incoming slots list the right-chain tails top to bottom, then
  the source, then the left-chain tails bottom to top; its outgoing slots
  the left-chain heads bottom to top, then the sink, then the right-chain
  heads top to bottom.  So the limiting edges of a median's polygon sit
  at the ends of these blocks, and every chord of the polygon into its
  sink (out of its source) is counted by the length of one chain part of
  the sink's incoming (source's outgoing) block.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph_model import GraphError, OtArrays


class Deferred:
    """Mixin for a frozen dataclass whose fields may be computed on first read.

    ``deferred(fill, **given)`` makes an instance holding only the
    ``given`` fields; the first read of any other field calls ``fill()``
    once, which returns the rest.  Instances made the ordinary way hold
    every field from the start; either kind compares, prints and
    ``dataclasses.replace``-s the same.
    """

    __slots__ = ()

    @classmethod
    def deferred(cls, fill, **given):
        obj = object.__new__(cls)
        obj.__dict__.update(given, _fill=fill)
        return obj

    def __getattr__(self, name):
        fill = self.__dict__.get("_fill")
        if fill is None or name not in self.__dataclass_fields__:
            raise AttributeError(name)
        values = fill()
        self.__dict__.update(values)
        self.__dict__.pop("_fill", None)
        return values[name]


class Layout:
    """The st-polygon decomposition as columns, one entry per element in
    decomposition order (numpy arrays when ``np`` is set, lists otherwise).

    ``poly`` is 1 for a polygon and 0 for a free vertex.  A polygon has
    source ``src`` and sink ``snk``; its left chain is the positions
    ``lo_l..hi_l`` and its right chain the right-chain indices
    ``lo_r..hi_r`` (positions n - lo_r down to n - hi_r).  ``low`` is the
    head of its lower limiting edge (source, low) and ``up`` the tail of
    its upper one (up, sink), -1 where the polygon reaches s or t.
    ``cost_l``/``cost_r`` are its entry-side costs.  The chords a hop
    entering on side L crosses are the rotation slots ``l_in0..l_in1 - 1``
    of the sink's incoming block and ``l_out0..l_out1 - 1`` of the
    source's outgoing block (``r_in*``/``r_out*`` for side R); so
    ``cost_l`` is ``l_in1 - l_in0 + l_out1 - l_out0 + 1``, the 1 for the
    median.  A free vertex has ``src == snk`` equal to its position and
    zeros or -1 elsewhere.
    ``shared`` holds the shared-vertex count of each consecutive pair.
    """

    COLUMNS = (
        "poly", "src", "snk", "lo_l", "hi_l", "lo_r", "hi_r", "low", "up",
        "cost_l", "cost_r", "l_in0", "l_in1", "l_out0", "l_out1", "r_in0",
        "r_in1", "r_out0", "r_out1",
    )
    __slots__ = ("arrays", "np", "shared", *COLUMNS)

    def __init__(self, arrays: OtArrays, np, columns: Sequence, shared):
        self.arrays = arrays
        self.np = np
        for name, col in zip(self.COLUMNS, columns):
            setattr(self, name, col)
        self.shared = shared

    def __len__(self) -> int:
        return len(self.poly)

    def lists(self, *names: str) -> dict[str, list[int]]:
        """The named columns (default: all) as lists of ints."""
        out = {}
        for name in names or (*self.COLUMNS, "shared"):
            col = getattr(self, name)
            out[name] = col.tolist() if self.np is not None else list(col)
        return out


def decompose_arrays(a: OtArrays, np=None) -> Layout:
    """Median scan, polygon limits, costs, element order and shared counts."""
    return _layout_np(a, np) if np is not None else _layout_py(a)


# ---------------------------------------------------------------------------
# Pure-Python kernel (the reference)


def _outdeg(a: OtArrays, p: int) -> int:
    return sum(a.out[a.off[p] : a.off[p + 1]])


def _chain_counts(a: OtArrays, i0: int, i1: int) -> tuple[int, int]:
    """Left- and right-chain neighbours in the slots ``i0..i1 - 1``."""
    k = a.k
    nl = nr = 0
    for q in a.nbr[i0:i1]:
        if 0 < q <= k:
            nl += 1
        elif q > k + 1:
            nr += 1
    return nl, nr


def is_median_slot(a: OtArrays, i: int, u: int) -> bool:
    """Whether outgoing slot ``i`` of row ``u`` holds a median edge."""
    if not (a.off[u] < i < a.off[u + 1] - 1):
        return False
    rank, nbr = a.rank, a.nbr
    ru, rv = rank[u], rank[nbr[i]]
    return ru < rank[nbr[i - 1]] < rv and ru < rank[nbr[i + 1]] < rv


def polygon_columns(a: OtArrays, u: int, v: int) -> tuple[int, ...]:
    """Layout columns (from ``src`` on) of the maximal polygon with median
    (u, v), in positions."""
    n, k = a.n, a.k
    t = k + 1
    off, nbr, cyc = a.off, a.nbr, a.cyc
    # u's outgoing block o0..o1 - 1 and v's incoming block i0..i1 - 1.
    od = _outdeg(a, u)
    o0, o1 = (off[u], off[u] + od) if u <= k else (off[u + 1] - od, off[u + 1])
    od = _outdeg(a, v)
    i0, i1 = (off[v] + od, off[v + 1]) if v <= k else (off[v], off[v + 1] - od)
    low = up = -1
    if u == 0:
        lo_l = lo_r = 1
    else:
        if u <= k:  # last outgoing slot
            low = nbr[o1 - 1]
            lo_l, lo_r = u + 1, n - low
            two_sided = low > t
        else:  # first outgoing slot
            low = nbr[o0]
            lo_l, lo_r = low, n - u + 1
            two_sided = 0 < low <= k
        if not two_sided:
            raise GraphError(
                "internal",
                f"lower limiting edge {(cyc[u], cyc[low])} is not two-sided",
            )
    if v == t:
        hi_l, hi_r = k, n - k - 2
    else:
        if v <= k:  # first incoming slot
            up = nbr[i0]
            hi_l, hi_r = v - 1, n - up
            two_sided = up > t
        else:  # last incoming slot
            up = nbr[i1 - 1]
            hi_l, hi_r = up, n - v - 1
            two_sided = 0 < up <= k
        if not two_sided:
            raise GraphError(
                "internal",
                f"upper limiting edge {(cyc[up], cyc[v])} is not two-sided",
            )
    if lo_l > hi_l or lo_r > hi_r:
        raise GraphError(
            "internal", f"degenerate polygon for median {(cyc[u], cyc[v])}"
        )
    # The incoming block is right chain, source, left chain; the outgoing
    # block left chain, sink, right chain.  A hop crosses one chain part of
    # each block less its outer end slot (a limiting or boundary edge) and
    # less the median, which it crosses separately.
    out_l, out_r = _chain_counts(a, o0, o1)
    in_l, in_r = _chain_counts(a, i0, i1)
    u_left, u_right = 0 < u <= k, u > t
    v_left, v_right = v <= k, v > t
    l_in0, l_in1 = i0 + 1, i0 + in_r - u_right
    l_out0, l_out1 = o0 + 1, o0 + out_l - v_left
    r_in0, r_in1 = i1 - in_l + u_left, i1 - 1
    r_out0, r_out1 = o1 - out_r + v_right, o1 - 1
    cost_l = l_in1 - l_in0 + l_out1 - l_out0 + 1
    cost_r = r_in1 - r_in0 + r_out1 - r_out0 + 1
    return (
        u, v, lo_l, hi_l, lo_r, hi_r, low, up, cost_l, cost_r,
        l_in0, l_in1, l_out0, l_out1, r_in0, r_in1, r_out0, r_out1,
    )


def _layout_py(a: OtArrays) -> Layout:
    n = a.n
    off, nbr, out, rank = a.off, a.nbr, a.out, a.rank
    elements = []
    for u in range(n):
        for i in range(off[u] + 1, off[u + 1] - 1):
            if out[i] and is_median_slot(a, i, u):
                elements.append((1, *polygon_columns(a, u, nbr[i])))
    covered = bytearray(n)
    for (_, u, v, lo_l, hi_l, lo_r, hi_r, *_) in elements:
        covered[u] = covered[v] = 1
        covered[lo_l : hi_l + 1] = b"\x01" * (hi_l - lo_l + 1)
        covered[n - hi_r : n - lo_r + 1] = b"\x01" * (hi_r - lo_r + 1)
    if len({el[1] for el in elements}) != len(elements):
        raise GraphError("internal", "decomposition representatives collide")
    free = (p for p in range(n) if not covered[p])
    elements += [(0, p, p, 0, 0, 0, 0, -1, -1, *[0] * 10) for p in free]
    elements.sort(key=lambda el: rank[el[1]])
    shared = []
    for x, y in zip(elements, elements[1:]):
        if not (x[0] and y[0]):
            shared.append(0)
        elif x[8] >= 0 and x[8] == y[1] and y[7] == x[2]:
            shared.append(2)
        else:
            shared.append(1 if x[2] == y[1] else 0)
    columns = [list(col) for col in zip(*elements)] or [[]] * len(Layout.COLUMNS)
    return Layout(a, None, columns, shared)


# ---------------------------------------------------------------------------
# numpy kernel


def _layout_np(a: OtArrays, np) -> Layout:
    n, k = a.n, a.k
    t = k + 1
    off = np.frombuffer(a.off, dtype=np.intc).astype(np.int64)
    nbr = np.frombuffer(a.nbr, dtype=np.intc).astype(np.int64)
    out = np.frombuffer(a.out, dtype=np.bool_)
    rank = np.frombuffer(a.rank, dtype=np.intc)
    deg = np.diff(off)
    row = np.repeat(np.arange(n, dtype=np.int64), deg)
    outdeg = np.bincount(row[out], minlength=n)

    # Median scan over the outgoing chord slots.
    idx = np.flatnonzero(out)
    r = row[idx]
    idx = idx[(idx > off[r]) & (idx < off[r + 1] - 1)]
    u = row[idx]
    v = nbr[idx]
    ru, rv = rank[u], rank[v]
    w1, w2 = rank[nbr[idx - 1]], rank[nbr[idx + 1]]
    med = (ru < w1) & (w1 < rv) & (ru < w2) & (w2 < rv)
    u, v = u[med], v[med]

    # Limiting edges and chain ranges.
    u_s, u_left, u_right = u == 0, (u > 0) & (u <= k), u > t
    v_t, v_left, v_right = v == t, v <= k, v > t
    od_u, od_v = outdeg[u], outdeg[v]
    # u's outgoing block ob0..ob1 - 1 and v's incoming block ib0..ib1 - 1.
    ob0 = np.where(u <= k, off[u], off[u + 1] - od_u)
    ob1 = ob0 + od_u
    ib0 = np.where(v_left, off[v] + od_v, off[v])
    ib1 = np.where(v_left, off[v + 1], off[v + 1] - od_v)
    low = np.where(u_left, nbr[ob1 - 1], nbr[ob0])
    low[u_s] = -1
    up = np.where(v_left, nbr[ib0], nbr[ib1 - 1])
    up[v_t] = -1
    bad = (u_left & (low <= t)) | (u_right & ((low < 1) | (low > k)))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GraphError(
            "internal",
            f"lower limiting edge {(a.cyc[u[i]], a.cyc[low[i]])} is not two-sided",
        )
    bad = (v_left & (up <= t)) | (v_right & ((up < 1) | (up > k)))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GraphError(
            "internal",
            f"upper limiting edge {(a.cyc[up[i]], a.cyc[v[i]])} is not two-sided",
        )
    lo_l = np.where(u_s, 1, np.where(u_left, u + 1, low))
    lo_r = np.where(u_s, 1, np.where(u_left, n - low, n - u + 1))
    hi_l = np.where(v_t, k, np.where(v_left, v - 1, up))
    hi_r = np.where(v_t, n - k - 2, np.where(v_left, n - up, n - v - 1))
    bad = (lo_l > hi_l) | (lo_r > hi_r)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GraphError(
            "internal", f"degenerate polygon for median {(a.cyc[u[i]], a.cyc[v[i]])}"
        )

    # Crossed slot ranges and costs, as in polygon_columns, from the chain
    # parts of the blocks: left-chain slots by a prefix sum over the slots,
    # and the right-chain part as the rest of the block less the sink (out
    # of the source) or the source (into the sink) when adjacent.
    cs_l = np.zeros(len(nbr) + 1, dtype=np.int32)
    np.cumsum((nbr > 0) & (nbr <= k), out=cs_l[1:])
    to_s = np.zeros(n, dtype=np.int64)
    to_s[nbr[off[0] : off[1]]] = 1
    to_t = np.zeros(n, dtype=np.int64)
    to_t[nbr[off[t] : off[t + 1]]] = 1
    out_l = cs_l[ob1] - cs_l[ob0]
    out_r = od_u - out_l - to_t[u]
    in_l = cs_l[ib1] - cs_l[ib0]
    in_r = ib1 - ib0 - in_l - to_s[v]
    l_in0, l_in1 = ib0 + 1, ib0 + in_r - u_right
    l_out0, l_out1 = ob0 + 1, ob0 + out_l - v_left
    r_in0, r_in1 = ib1 - in_l + u_left, ib1 - 1
    r_out0, r_out1 = ob1 - out_r + v_right, ob1 - 1
    cost_l = l_in1 - l_in0 + l_out1 - l_out0 + 1
    cost_r = r_in1 - r_in0 + r_out1 - r_out0 + 1

    # Free vertices: positions no polygon covers.
    starts = np.bincount(np.concatenate([lo_l, n - hi_r]), minlength=n + 1)
    ends = np.bincount(np.concatenate([hi_l, n - lo_r]) + 1, minlength=n + 1)
    covered = np.cumsum((starts - ends)[:n]) > 0
    covered[u] = True
    covered[v] = True
    free = np.flatnonzero(~covered)
    if len(u) and np.bincount(u).max() > 1:
        raise GraphError("internal", "decomposition representatives collide")

    # Element order: by the rank of the representative (ranks are distinct).
    rep = np.concatenate([u, free])
    by_rank = np.full(n, -1, dtype=np.int64)
    by_rank[rank[rep]] = np.arange(len(rep))
    order = by_rank[by_rank >= 0]
    nf = len(free)
    zeros, minus = np.zeros(nf, dtype=np.int64), np.full(nf, -1, dtype=np.int64)
    columns = [
        np.concatenate([np.ones(len(u), dtype=np.int64), zeros])[order],
        rep[order],
        np.concatenate([v, free])[order],
        *(
            np.concatenate([col, fill])[order]
            for col, fill in (
                (lo_l, zeros), (hi_l, zeros), (lo_r, zeros), (hi_r, zeros),
                (low, minus), (up, minus), (cost_l, zeros), (cost_r, zeros),
                (l_in0, zeros), (l_in1, zeros), (l_out0, zeros), (l_out1, zeros),
                (r_in0, zeros), (r_in1, zeros), (r_out0, zeros), (r_out1, zeros),
            )
        ),
    ]
    poly, src, snk = columns[0], columns[1], columns[2]
    low_o, up_o = columns[7], columns[8]
    both = (poly[:-1] == 1) & (poly[1:] == 1)
    two = both & (up_o[:-1] >= 0) & (up_o[:-1] == src[1:]) & (low_o[1:] == snk[:-1])
    one = both & ~two & (snk[:-1] == src[1:])
    shared = 2 * two + one
    return Layout(a, np, columns, shared)


# ---------------------------------------------------------------------------
# Dynamic program over flat columns
#
# Per element the DP keeps the best crossing count with the last polygon
# entered from the left (L) and from the right (R).  ``kinds`` says how an
# element joins its predecessor: 1 = freely (free vertex, first element,
# or at most one shared vertex), 2 / 3 = over a shared limiting edge whose
# sink, the previous polygon's, is on the left / right chain.  Free
# vertices have costs 0.  Backpointers are 0 for L and 1 for R.


def dp_py(cl: Sequence[int], cr: Sequence[int], kinds: Sequence[int]):
    """Columns (cost_l, cost_r, back_l, back_r) by the plain recurrence."""
    e = len(kinds)
    L, R = [0] * e, [0] * e
    BL, BR = [0] * e, [0] * e
    if not e:
        return L, R, BL, BR
    pl, pr = L[0], R[0] = cl[0], cr[0]
    for i in range(1, e):
        a, b, kd = cl[i], cr[i], kinds[i]
        if kd == 1:
            best, side = (pl, 0) if pl <= pr else (pr, 1)
            pl, pr = best + a, best + b
            BL[i] = BR[i] = side
            L[i], R[i] = pl, pr
            continue
        # Keeping to the shared sink's side costs one more crossing.
        x, y = pl + (kd == 2), pr
        nl, BL[i] = (x + a, 0) if x <= y else (y + a, 1)
        x, y = pl, pr + (kd == 3)
        nr, BR[i] = (x + b, 0) if x <= y else (y + b, 1)
        pl, pr = L[i], R[i] = nl, nr
    return L, R, BL, BR


def dp_np(cl, cr, kinds, np):
    """The same columns from the difference D = cost_l - cost_r alone.

    Only D carries state from one element to the next: a free join sets
    D = delta (= cl - cr), a join over a limiting edge with a left sink
    sets D = delta + [D' < 0] and with a right sink D = delta - [D' > 0].
    That one loop runs in Python; cost_r is then a prefix sum and the
    backpointers are sign tests on the previous D.
    """
    ds = []
    append = ds.append
    d = 0
    for x, kd in zip((cl - cr).tolist(), kinds.tolist()):
        if kd == 2:
            d = x + (d < 0)
        elif kd == 3:
            d = x - (d > 0)
        else:
            d = x
        append(d)
    D = np.array(ds, dtype=np.int64)
    e = len(ds)
    if not e:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    prev = D[:-1]
    k2, k3 = kinds[1:] == 2, kinds[1:] == 3
    R = np.empty(e, dtype=np.int64)
    R[0] = cr[0]
    np.cumsum(cr[1:] + np.minimum(prev, k3.astype(np.int64)), out=R[1:])
    R[1:] += cr[0]
    BL = np.zeros(e, dtype=np.int64)
    BR = np.zeros(e, dtype=np.int64)
    BL[1:] = prev > -k2.astype(np.int64)
    BR[1:] = prev > k3.astype(np.int64)
    return R + D, R, BL, BR


def dp_kinds(layout: Layout):
    """Join kind of every element (see the DP notes above)."""
    np, k = layout.np, layout.arrays.k
    if np is not None:
        kinds = np.ones(len(layout), dtype=np.int64)
        two = layout.shared == 2
        prev_snk = layout.snk[:-1][two]
        if (prev_snk == k + 1).any():
            raise GraphError(
                "inconsistent-decomposition", "junction sink is not on a boundary chain"
            )
        kinds[1:][two] = np.where(prev_snk <= k, 2, 3)
        return kinds
    kinds = [1] * len(layout)
    for i, sh in enumerate(layout.shared):
        if sh == 2:
            s = layout.snk[i]
            if s == k + 1:
                raise GraphError(
                    "inconsistent-decomposition",
                    "junction sink is not on a boundary chain",
                )
            kinds[i + 1] = 2 if s <= k else 3
    return kinds


def backtrack(back_l: list[int], back_r: list[int], final: int) -> bytearray:
    """Entry side (0 = L, 1 = R) of every element along the backpointers."""
    e = len(back_l)
    sides = bytearray(e)
    cur = final
    for i in range(e - 1, 0, -1):
        sides[i] = cur
        cur = back_r[i] if cur else back_l[i]
    if e:
        sides[0] = cur
    return sides


# ---------------------------------------------------------------------------
# Path construction
#
# The path is a sequence of pieces: single vertices and stretches of one
# chain (arithmetic runs of positions).  Per element i there are four
# piece slots with sort key 4i + slot: 0 the source (or the free vertex),
# 1 the chain walked first, 2 the chain walked after the completion hop,
# 3 the sink.  A polygon joined over a shared limiting edge (junction
# vertex t' = the previous sink, near chain = the one starting at t',
# far chain = the other) takes one of three forms:
#
#   a. entered on the far side: walk near[1:], hop, far, sink;
#   b. entered on the near side after a previous far-side entry: the
#      previous sink t' moves after this source: far, hop, near, sink;
#   c. both on the near side: the far chain goes right after this source,
#      which ends the previous polygon's first chain, and the previous hop
#      now leaves the far chain's top, crossing the shared limiting edge
#      as well; near[1:] and the sink follow at the end.
#
# Form c puts the far chain at key 4j + 1 of the root j, the last polygon
# with a hop of its own; a stable sort by key then yields the path.  Every
# root has one completion hop, into the first vertex of its slot 2.


class PathColumns(NamedTuple):
    """The constructed path and its completion hops, in positions.

    ``path`` is the spine; hop h leaves ``tails[h]`` for ``heads[h]`` and
    crosses the edges of elements ``roots[h]``..(the element before the
    next non-merged one), ``counts[h]`` edges in all.  ``merged[i]`` is 1
    when element i's hop merged into the previous polygon's (form c).
    Per element, ``into`` and ``out_of`` are the slot ranges (start, end)
    of the crossed chords into its sink and out of its source on its
    entry side (see :class:`Layout`).
    """

    path: Sequence[int]
    roots: Sequence[int]
    tails: Sequence[int]
    heads: Sequence[int]
    counts: Sequence[int]
    merged: Sequence[int]
    into: tuple[Sequence[int], Sequence[int]]
    out_of: tuple[Sequence[int], Sequence[int]]


def crossing_columns(layout: Layout, sides: Sequence[int], pc: PathColumns):
    """The edges each hop crosses, in order from its tail, as flat position
    columns ``(starts, xs, ys)``: hop h crosses the edges (xs[j], ys[j]) for
    j in ``starts[h]..starts[h + 1] - 1``.

    A polygon entered on side L crosses the chords into its sink from the
    right chain (its ``into`` slots in row order), the median, then the
    chords out of its source into the left chain, outermost first (its
    ``out_of`` slots in reverse); side R mirrors this.  A merged hop
    (form c) crosses, newest polygon first, each polygon's edges and the
    limiting edge it shares with the one before.  Only slices the ranges
    :func:`build_path` computed.
    """
    if layout.np is not None:
        return _crossings_np(layout, sides, pc)
    nbr, src, snk, low = layout.arrays.nbr, layout.src, layout.snk, layout.low
    (in0, in1), (out0, out1) = pc.into, pc.out_of
    merged = pc.merged
    starts, xs, ys = [0], [], []
    for j, count in zip(pc.roots, pc.counts):
        last = j
        while last + 1 < len(merged) and merged[last + 1]:
            last += 1
        for i in range(last, j - 1, -1):
            u, v = src[i], snk[i]
            into, out_of = nbr[in0[i] : in1[i]], nbr[out0[i] : out1[i]]
            if sides[i]:
                into = into[::-1]
            else:
                out_of = out_of[::-1]
            xs += into
            xs += [u] * (len(out_of) + 1)
            ys += [v] * (len(into) + 1)
            ys += out_of
            if i > j:
                xs.append(u)
                ys.append(low[i])
        starts.append(len(xs))
        if starts[-1] - starts[-2] != count:
            raise GraphError(
                "internal",
                f"hop from element {j} crosses {starts[-1] - starts[-2]} "
                f"edges, not {count}",
            )
    return starts, xs, ys


def _crossings_np(layout: Layout, sides, pc: PathColumns):
    """:func:`crossing_columns` on arrays: the polygons in hop order
    (newest first within a hop), then each crossing's slot by its offset
    in its polygon's run: ``into``, the median, ``out_of``, the shared
    limiting edge."""
    np = layout.np
    nbr = np.frombuffer(layout.arrays.nbr, dtype=np.intc)
    e = len(layout)
    merged = pc.merged.astype(bool)
    poly = layout.poly == 1
    ids = np.arange(e, dtype=np.int64)
    root_of = np.maximum.accumulate(np.where(poly & ~merged, ids, -1))
    at = np.flatnonzero(poly)
    at = at[np.lexsort((-at, root_of[at]))]
    (in0, in1), (out0, out1) = pc.into, pc.out_of
    right = np.frombuffer(bytes(sides), dtype=np.uint8)[at] == 1
    n_in, n_out = (in1 - in0)[at], (out1 - out0)[at]
    size = n_in + n_out + 1 + merged[at]
    starts = np.zeros(len(pc.counts) + 1, dtype=np.int64)
    np.cumsum(pc.counts, out=starts[1:])
    # Each hop's polygons follow one another, from its root on.
    first = np.flatnonzero(np.diff(root_of[at], prepend=-1))
    got = np.add.reduceat(size, first) if len(at) else size
    wrong = np.flatnonzero(got != pc.counts)
    if len(wrong):
        h = wrong[0]
        raise GraphError(
            "internal",
            f"hop from element {pc.roots[h]} crosses {got[h]} edges, "
            f"not {pc.counts[h]}",
        )
    el = np.repeat(np.arange(len(at)), size)
    w = np.arange(len(el), dtype=np.int64) - (np.cumsum(size) - size)[el]
    at, right, n_in, n_out = at[el], right[el], n_in[el], n_out[el]
    xs, ys = layout.src[at], layout.snk[at]
    into = w < n_in
    slot = np.where(right, in1[at] - 1 - w, in0[at] + w)[into]
    xs[into] = nbr[slot]
    t = w - n_in - 1
    out_of = (t >= 0) & (t < n_out)
    slot = np.where(right, out0[at] + t, out1[at] - 1 - t)[out_of]
    ys[out_of] = nbr[slot]
    shared = t == n_out
    ys[shared] = layout.low[at][shared]
    return starts, xs, ys


def build_path(layout: Layout, sides) -> PathColumns:
    return _path_np(layout, sides) if layout.np is not None else _path_py(layout, sides)


def _path_py(layout: Layout, sides: Sequence[int]) -> PathColumns:
    n, k = layout.arrays.n, layout.arrays.k
    col = layout.lists()
    poly, src, snk = col["poly"], col["src"], col["snk"]
    lo_l, hi_l, lo_r, hi_r = col["lo_l"], col["hi_l"], col["lo_r"], col["hi_r"]
    shared = col["shared"]
    e = len(poly)
    in0, in1, out0, out1 = (
        [r if side else l for l, r, side in zip(col["l" + x], col["r" + x], sides)]
        for x in ("_in0", "_in1", "_out0", "_out1")
    )
    pieces: list[tuple[int, int, int, int, int]] = []  # key, slot, start, count, step
    roots: list[int] = []
    counts: list[int] = []
    merged = bytearray(e)
    root = -1
    for i in range(e):
        if not poly[i]:
            pieces.append((4 * i, 0, src[i], 1, 1))
            continue
        side = sides[i]
        if in1[i] < in0[i] or out1[i] < out0[i]:
            raise GraphError("internal", f"negative crossing range at element {i}")
        cost = in1[i] - in0[i] + out1[i] - out0[i] + 1
        lc = (lo_l[i], hi_l[i] - lo_l[i] + 1, 1)
        rc = (n - lo_r[i], hi_r[i] - lo_r[i] + 1, -1)
        jt = shared[i - 1] if i else 0
        if jt <= 1:
            if jt == 0:
                pieces.append((4 * i, 0, src[i], 1, 1))
            first, second = (rc, lc) if side == 0 else (lc, rc)
        else:
            near_side = 0 if snk[i - 1] <= k else 1
            near, far = (lc, rc) if near_side == 0 else (rc, lc)
            near1 = (near[0] + near[2], near[1] - 1, near[2])
            if side != near_side:  # form a
                first, second = near1, far
            elif sides[i - 1] != near_side:  # form b
                if pieces.pop()[1:3] != (3, snk[i - 1]):
                    raise GraphError("internal", "junction sink not at path end")
                first, second = far, near
            else:  # form c
                merged[i] = 1
                pieces.append((4 * root + 1, 1, *far))
                pieces.append((4 * i + 2, 2, *near1))
                pieces.append((4 * i + 3, 3, snk[i], 1, 1))
                counts[-1] += cost + 1
                continue
        root = i
        roots.append(i)
        counts.append(cost)
        pieces.append((4 * i + 1, 1, *first))
        pieces.append((4 * i + 2, 2, *second))
        pieces.append((4 * i + 3, 3, snk[i], 1, 1))
    pieces.sort(key=lambda pc: pc[0])
    path: list[int] = []
    head_at: dict[int, int] = {}
    for key, slot, start, count, step in pieces:
        if slot == 2 and key // 4 not in head_at:
            head_at[key // 4] = len(path)
        path.extend(range(start, start + count * step, step))
    if len(path) != n:
        raise GraphError("internal", f"path visits {len(path)} of {n} vertices")
    at = [head_at[j] for j in roots]
    tails = [path[h - 1] for h in at]
    heads = [path[h] for h in at]
    return PathColumns(
        path, roots, tails, heads, counts, merged, (in0, in1), (out0, out1)
    )


def _path_np(layout: Layout, sides) -> PathColumns:
    np = layout.np
    n, k = layout.arrays.n, layout.arrays.k
    e = len(layout)
    sides = np.frombuffer(bytes(sides), dtype=np.uint8).astype(np.int64)
    poly = layout.poly == 1
    jt = np.zeros(e, dtype=np.int64)
    jt[1:] = layout.shared
    near_side = np.zeros(e, dtype=np.int64)
    near_side[1:] = layout.snk[:-1] > k
    prev_side = np.zeros(e, dtype=np.int64)
    prev_side[1:] = sides[:-1]
    junction = poly & (jt == 2)
    form_a = junction & (sides != near_side)
    form_b = junction & (sides == near_side) & (prev_side != near_side)
    form_c = junction & (sides == near_side) & (prev_side == near_side)
    ids = np.arange(e, dtype=np.int64)
    is_root = poly & ~form_c
    root_of = np.maximum.accumulate(np.where(is_root, ids, -1))

    lc = (layout.lo_l, layout.hi_l - layout.lo_l + 1, np.full(e, 1))
    rc = (n - layout.lo_r, layout.hi_r - layout.lo_r + 1, np.full(e, -1))

    def pick(mask, x, y):
        return tuple(np.where(mask, p, q) for p, q in zip(x, y))

    walked, other = pick(sides == 0, rc, lc), pick(sides == 0, lc, rc)
    near, far = pick(near_side == 0, lc, rc), pick(near_side == 0, rc, lc)
    near1 = (near[0] + near[2], near[1] - 1, near[2])
    first = pick(form_a, near1, pick(form_b | form_c, far, walked))
    second = pick(form_a, far, pick(form_b, near, pick(form_c, near1, other)))

    ones = np.ones(e, dtype=np.int64)
    start = np.stack([layout.src, first[0], second[0], layout.snk], axis=1)
    step = np.stack([ones, first[2], second[2], ones], axis=1)
    count = np.zeros((e, 4), dtype=np.int64)
    count[:, 0] = ~poly | (jt == 0)
    count[:, 1] = np.where(poly, first[1], 0)
    count[:, 2] = np.where(poly, second[1], 0)
    next_b = np.zeros(e, dtype=bool)
    next_b[:-1] = form_b[1:]
    count[:, 3] = poly & ~next_b
    key = 4 * ids[:, None] + np.arange(4, dtype=np.int64)
    key[form_c, 1] = 4 * root_of[form_c] + 1

    flat_count = count.ravel()
    kept = np.flatnonzero(flat_count)
    order = kept[np.argsort(key.ravel()[kept], kind="stable")]
    cnt = flat_count[order]
    first_at = np.cumsum(cnt) - cnt
    if int(cnt.sum()) != n:
        raise GraphError("internal", f"path visits {int(cnt.sum())} of {n} vertices")
    piece = np.repeat(np.arange(len(order)), cnt)
    within = np.arange(n, dtype=np.int64) - first_at[piece]
    path = start.ravel()[order][piece] + step.ravel()[order][piece] * within
    at_flat = np.zeros(4 * e, dtype=np.int64)
    at_flat[order] = first_at
    roots = np.flatnonzero(is_root)
    at = at_flat[4 * roots + 2]
    left = sides == 0
    in0, in1, out0, out1 = (
        np.where(left, getattr(layout, "l" + x), getattr(layout, "r" + x))
        for x in ("_in0", "_in1", "_out0", "_out1")
    )
    bad = poly & ((in1 < in0) | (out1 < out0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GraphError("internal", f"negative crossing range at element {i}")
    cost = in1 - in0 + out1 - out0 + 1 + form_c
    counts = np.bincount(root_of[poly], weights=cost[poly], minlength=e)[roots]
    return PathColumns(
        path, roots, path[at - 1], path[at], counts.astype(np.int64),
        form_c.astype(np.uint8), (in0, in1), (out0, out1),
    )
