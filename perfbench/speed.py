"""Machine-speed reference for the benchmark's timings.

On a machine shared with other tenants the speed of one core can change
by half for seconds to minutes at a time (it shows in CPU time as much as
in wall time, so it is contention, not stolen time).  Every timing of a
run moves with it, so a whole run can read a quarter faster or slower than
the one before it with no change to the code.

``reference_s`` times a fixed piece of pure-Python work that does not touch
hpccm: dicts, sets, lists, small objects and a sort, the operations the
graph code is made of.  The benchmark times it before and after each group
of samples and reports every sample scaled to the speed at which this work
takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / reference time around the sample

A change to hpccm cannot change the reference work, so it shows in the
scaled figure in full; a change of machine speed moves both times alike
and drops out.
"""

from __future__ import annotations

import time

# Seconds the reference work takes at the reference speed.  The scale is
# arbitrary; this value is about its time on a 2-vCPU x86-64 guest.
REFERENCE_S = 0.03
_N = 20000


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


def _work() -> int:
    succ = {i: ((i * 7919) % _N, (i * 104729) % _N) for i in range(_N)}
    items = [_Item(i, -i) for i in range(_N)]
    seen: set[int] = set()
    order = []
    for i in range(_N):
        for j in succ[i]:
            if j not in seen:
                seen.add(j)
                order.append((j, items[j].key + items[i].weight))
    order.sort()
    return len(order)


def reference_s() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference work took ``reference``,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / reference
