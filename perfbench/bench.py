"""One workload run of the hpccm benchmark; ``run.py`` starts it as a child.

The run generates the workload's instance files with the public
generators, checks a reference answer for each file, then repeats rounds
of the user paths until ``--seconds`` are spent:

  setup      generate, serialize and write the files again (setup_s)
  load       classify_ot(parse_graph(text)) on the main files
  core       solve(ot, check=False) on each freshly loaded instance
  check      ``hpccm check FILE`` through hpccm.cli.run
  solve      ``hpccm solve FILE``
  embed      ``hpccm embed FILE``
  roundtrip  from_book_embedding(g, to_book_embedding(ot, result))
  pipeline   parse, classify, solve, to/from book embedding per small
             instance (instances_per_s)

The structure of every instance is fixed per workload, so the counts that
describe the inputs repeat exactly; ``--seed`` picks the vertex names
written to the files.  Every answer is checked outside the timed region
by ``checks``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, each timing the mean of its samples scaled by
``speed`` to a reference machine speed; with ``--trace 1`` the per-layer
ones from spans around each public call.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hpccm import (  # noqa: E402
    GenProfile,
    all_costs,
    classify_ot,
    cli,
    decompose,
    dp_solve,
    exhaustive_min_crossings,
    faces,
    find_rhombi,
    from_book_embedding,
    hamiltonian_path,
    parse_graph,
    polygon_stack,
    random_ot,
    reconstruct,
    render_text,
    serialize_graph,
    solve,
    to_book_embedding,
    verify_solution,
)
from hpccm.graph_model import GraphError  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, maxrss_mib  # noqa: E402

OUT = ROOT / "perfbench" / "out"
MIN_ROUNDS = 3
MIN_PASS_S = 0.25
ORACLE_POLYGONS = 12  # the acceptance oracle corpus keeps n <= 40, <= 12 polygons
EXHAUSTIVE = -1  # expected answer: ask exhaustive_min_crossings

# Sizes per workload: full runs, and the self-test's tiny runs.
SIZES = {
    False: {"verify_k": 199, "core_k": 9999, "large_n": 4000, "batch": 190,
            "small": 38, "small_stacks": 8},
    True: {"verify_k": 12, "core_k": 60, "large_n": 60, "batch": 12,
           "small": 6, "small_stacks": 3},
}

# Workload reasons, metric names and units live in BENCHMARK.json only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

# The inputs of the full-size runs, summed over each workload's main files,
# and n, m and polygons summed over its small set.  A run whose generated
# files differ from these fails its "inputs" operation; each workload's
# ``why`` in BENCHMARK.json quotes its n and m.
PINNED_KEYS = (
    "graph.n", "graph.m", "decomposition.polygons", "decomposition.free_vertices",
    "decomposition.shared_edge_junctions", "solver.completion_edges",
    "solver.crossings", "solver.verify_pairs", "book_embedding.segment_pairs",
    "small_set.graph.n", "small_set.graph.m", "small_set.decomposition.polygons",
)
PINNED = {name: dict(zip(PINNED_KEYS, values)) for name, values in {
    "stack_verify": (400, 797, 199, 0, 198, 199, 199, 158603, 495510, 867, 1596, 91),
    "stack_core": (20000, 39997, 9999, 0, 9998, 9999, 9999, 399930003, 1249775010, 867, 1596, 92),
    "random_large": (12000, 23991, 8, 4000, 6, 5, 32, 39985, 96172262, 867, 1596, 92),
    "small_batch": (4187, 7780, 298, 107, 99, 286, 617, 11294, 202217, 4187, 7780, 298),
}.items()}


class Instance(NamedTuple):
    name: str
    generator: str  # span name of the generator call
    make: Callable
    expected: Optional[int]  # known minimum, EXHAUSTIVE, or None


class Workload(NamedTuple):
    name: str
    main: list[Instance]
    small: list[Instance]
    on_small: frozenset[str]  # commands run on the small set, not main


def stack(k: int) -> Instance:
    """polygon_stack(k) costs exactly k."""
    return Instance(f"stack{k}", "oracle_gen.polygon_stack",
                    lambda: polygon_stack(k), k)


def rand(name: str, prof: GenProfile, expected: Optional[int] = None) -> Instance:
    return Instance(name, "oracle_gen.random_ot", lambda: random_ot(prof), expected)


def small_set(rng: random.Random, draws: int, stacks: int) -> list[Instance]:
    """Small instances drawn like the acceptance oracle corpus (sizes cycle
    through the same schedule; the structure comes from ``rng``), plus the
    stacks k = 1..``stacks``.  Draws beyond the oracle's polygon limit are
    skipped, as the corpus skips them."""
    out = []
    j = 0
    while len(out) < draws:
        prof = GenProfile(
            n_left=1 + j % 19,
            n_right=1 + (3 * j // 7) % 19,
            polygon_bias=(j % 11) / 10,
            seed=rng.getrandbits(63),
        )
        j += 1
        if decompose(random_ot(prof)).polygon_count <= ORACLE_POLYGONS:
            out.append(rand(f"small{len(out)}", prof, EXHAUSTIVE))
    return out + [stack(k) for k in range(1, stacks + 1)]


def make_workload(name: str, tiny: bool) -> Workload:
    """The workload's instances; their structure depends on nothing else."""
    z = SIZES[tiny]
    rng = random.Random(name)
    if name == "small_batch":
        batch = small_set(rng, z["batch"], z["small_stacks"])
        return Workload(name, batch, batch, frozenset())
    small = small_set(rng, z["small"], z["small_stacks"])
    if name == "stack_verify":
        return Workload(name, [stack(z["verify_k"])], small, frozenset())
    if name == "stack_core":
        # At this size the quadratic verifiers inside solve, embed and the
        # round trip would take hours.
        return Workload(name, [stack(z["core_k"])], small,
                        frozenset({"solve", "embed", "roundtrip"}))
    if name == "random_large":
        half = z["large_n"] // 2 - 1
        main = [
            rand("bias0", GenProfile(half, half, 0.0, rng.getrandbits(63))),
            rand("bias1", GenProfile(half, half, 1.0, rng.getrandbits(63))),
            rand("chain", GenProfile(0, 2 * half, 0.5, rng.getrandbits(63)), 0),
        ]
        # validate_embedding is quadratic in m, so the round trip uses the
        # small set.
        return Workload(name, main, small, frozenset({"roundtrip"}))
    raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WHY)}")


class Ref(NamedTuple):
    """Checked reference answer for one instance file, with the instance
    it was computed on (used only for checking, never timed)."""

    ot: object
    answer: checks.Answer
    counts: dict


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``hpccm ARGV`` in this process; exit status and captured stdout."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.run(argv)
    except Exception as exc:  # a traceback is a failed operation
        return -1, repr(exc)
    return rc, buf.getvalue()


def relabel(g, seed: int, name: str):
    """``g`` with its vertices renamed by a permutation drawn from ``seed``.
    Vertex ids, edges and rotations stay as generated, so every count and
    every answer up to names is the same for every seed."""
    labels = random.Random(f"{seed}-{name}").sample(range(g.n), g.n)
    return dataclasses.replace(g, names=tuple(f"v{x}" for x in labels))


class Bench:
    def __init__(self, wl: Workload, tracer: Tracer, seed: int):
        self.wl = wl
        self.tr = tracer
        self.seed = seed
        self.dir = OUT / wl.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: dict[str, Ref] = {}
        self.texts: dict[str, str] = {}
        # Checks wait here while the first traced round runs, so that its
        # spans see the process's first rise in RSS.
        self.deferred: Optional[list] = None

    # -- bookkeeping ------------------------------------------------------

    def judge(self, what: str, check: Callable[..., list[str]], *args) -> None:
        """Count one operation, checked by ``check(*args)``: now, or once
        ``flush`` runs when checks are deferred."""
        if self.deferred is not None:
            self.deferred.append((what, check, args))
        else:
            self._count(what, check(*args))

    def flush(self) -> None:
        deferred, self.deferred = self.deferred, None
        for what, check, args in deferred:
            self._count(what, check(*args))

    def _count(self, what: str, problems: list[str]) -> None:
        """One operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")

    def path(self, inst: Instance) -> str:
        return str(self.dir / f"{inst.name}.json")

    def instances(self) -> list[Instance]:
        seen = {}
        for inst in self.wl.main + self.wl.small:
            seen.setdefault(inst.name, inst)
        return list(seen.values())

    def group(self, command: str) -> list[Instance]:
        return self.wl.small if command in self.wl.on_small else self.wl.main

    # -- setup and reference answers --------------------------------------

    def setup(self) -> float:
        """Generate, serialize and write every instance file (the
        ``hpccm gen`` path); returns the seconds it took, renaming the
        vertices left out.  Each repetition must write the same files as
        the first."""
        self.dir.mkdir(parents=True, exist_ok=True)
        tr = self.tr
        texts = {}
        dt = 0.0
        gc.collect()
        with tr.span("setup"):
            for inst in self.instances():
                t0 = time.perf_counter()
                ot = tr.call(inst.generator, inst.make)
                t1 = time.perf_counter()
                g = relabel(ot.base, self.seed, inst.name)
                t2 = time.perf_counter()
                text = tr.call("graph_model.serialize_graph", serialize_graph, g)
                with open(self.path(inst), "w", encoding="utf-8") as fh:
                    fh.write(text)
                dt += t1 - t0 + time.perf_counter() - t2
                texts[inst.name] = text
        if not self.texts:
            self.texts = texts
        self.judge("setup", self._same_inputs, texts)
        return dt

    def _same_inputs(self, texts: dict[str, str]) -> list[str]:
        return [] if texts == self.texts else ["inputs changed between setups"]

    def reference(self) -> None:
        """Solve every file once, untimed, and check the answer against the
        independent checks and the known minimum."""
        for inst in self.instances():
            ot = classify_ot(parse_graph(self.texts[inst.name]))
            r = solve(ot, check=False)
            d = decompose(ot)
            ans = checks.as_answer(r)
            expected = inst.expected
            if expected == EXHAUSTIVE:
                expected = exhaustive_min_crossings(ot)
            self._count(f"reference {inst.name}",
                        checks.check_answer(ot, ans) + checks.check_known(ans, expected))
            m = ot.base.m
            segments = m + ans.total  # each crossed edge splits in two
            counts = {
                "graph.n": ot.n,
                "graph.m": m,
                "decomposition.polygons": d.polygon_count,
                "decomposition.free_vertices": len(d.elements) - d.polygon_count,
                "decomposition.shared_edge_junctions": sum(1 for c in d.shared if c == 2),
                "solver.completion_edges": len(ans.completion_edges),
                "solver.crossings": ans.total,
                "solver.verify_pairs": len(ans.completion_edges) * m,
                "book_embedding.segment_pairs": segments * (segments - 1) // 2,
            }
            self.refs[inst.name] = Ref(ot, ans, counts)

    def main_counts(self) -> dict:
        total: dict[str, int] = defaultdict(int)
        for inst in self.wl.main:
            for k, v in self.refs[inst.name].counts.items():
                total[k] += v
        return total

    def input_counts(self) -> dict:
        """The counts PINNED fixes for this workload."""
        counts = dict(self.main_counts())
        for key in ("graph.n", "graph.m", "decomposition.polygons"):
            counts[f"small_set.{key}"] = sum(self.refs[i.name].counts[key]
                                             for i in self.wl.small)
        return counts

    def input_problems(self) -> list[str]:
        pinned = PINNED[self.wl.name]
        got = self.input_counts()
        problems = [f"{k} = {got.get(k)}, pinned {v}" for k, v in pinned.items()
                    if got.get(k) != v]
        if f"n={pinned['graph.n']} m={pinned['graph.m']}" not in WHY[self.wl.name]:
            problems.append("BENCHMARK.json does not quote the pinned n and m")
        return problems

    # -- timed passes ------------------------------------------------------
    # Each pass times one loop over its files, after a collection; answers
    # are checked after the clock stops.

    def load_pass(self, insts: list[Instance]) -> tuple[float, list]:
        tr = self.tr
        texts = [self.texts[i.name] for i in insts]
        ots = []
        gc.collect()
        t0 = time.perf_counter()
        for text in texts:
            with tr.span("load"):
                try:
                    g = tr.call("graph_model.parse_graph", parse_graph, text)
                    ots.append(tr.call("graph_model.classify_ot", classify_ot, g))
                except Exception as exc:  # a raising call is a failed operation
                    ots.append(exc)
                    continue
                if tr.enabled:
                    tr.call("graph_model.faces", faces, g, replay=True)
        dt = time.perf_counter() - t0
        for inst, ot in zip(insts, ots):
            self.judge(f"load {inst.name}", self._load_problems, inst, ot)
        return dt, ots

    def _load_problems(self, inst: Instance, ot) -> list[str]:
        if isinstance(ot, Exception):
            return [repr(ot)]
        ref = self.refs[inst.name].ot
        same = (ot.base.edges, ot.left, ot.right) == (ref.base.edges, ref.left, ref.right)
        return [] if same else ["loaded instance differs from the reference"]

    def _solve_parts(self, ot, verify: bool):
        tr = self.tr
        d = tr.call("decomposition.decompose", decompose, ot)
        costs = tr.call("solver.all_costs", all_costs, d)
        table = tr.call("solver.dp_solve", dp_solve, d, costs)
        r = tr.call("solver.reconstruct", reconstruct, d, table, costs)
        if verify:
            bad = tr.call("solver.verify_solution", verify_solution, ot, r)
            if bad:
                raise GraphError("internal", bad[0])
        return r

    def core_pass(self, insts: list[Instance], ots: list) -> float:
        for ot in ots:
            if not isinstance(ot, Exception) and "_median_tables" in ot.__dict__:
                raise RuntimeError("core_s sample would reuse cached median tables")
        tr = self.tr
        results = []
        gc.collect()
        t0 = time.perf_counter()
        for ot in ots:
            if isinstance(ot, Exception):
                results.append(ot)
                continue
            with tr.span("core"):
                try:
                    if tr.enabled:
                        results.append(self._solve_parts(ot, verify=False))
                    else:
                        results.append(solve(ot, check=False))
                except Exception as exc:  # a raising call is a failed operation
                    results.append(exc)
        dt = time.perf_counter() - t0
        for inst, ot, r in zip(insts, ots, results):
            self.judge(f"core {inst.name}", self._result_problems, inst, ot, r)
        return dt

    def _result_problems(self, inst: Instance, ot, r) -> list[str]:
        if isinstance(r, Exception):
            return [repr(r)]
        ans = checks.as_answer(r)
        ref = self.refs[inst.name].answer
        return checks.check_answer(ot, ans) + checks.compare(ans, ref, "result")

    def cli_pass(self, command: str, insts: list[Instance]) -> float:
        tr = self.tr
        outs = []
        gc.collect()
        t0 = time.perf_counter()
        for inst in insts:
            path = self.path(inst)
            with tr.span(command):
                with tr.span("cli.run"):
                    outs.append(run_cli([command, path]))
                if tr.enabled:
                    self._replay(command, self.texts[inst.name])
        dt = time.perf_counter() - t0
        for inst, (rc, text) in zip(insts, outs):
            self.judge(f"{command} {inst.name}", self._cli_problems, command, inst, rc, text)
        return dt

    def _replay(self, command: str, text: str) -> None:
        """The public calls ``hpccm COMMAND`` makes, each in its own span."""
        tr = self.tr
        g = tr.call("graph_model.parse_graph", parse_graph, text, replay=True)
        if command == "check":
            tr.call("hamiltonicity.find_rhombi", find_rhombi, g, replay=True)
            tr.call("hamiltonicity.hamiltonian_path", hamiltonian_path, g, replay=True)
            return
        ot = tr.call("graph_model.classify_ot", classify_ot, g, replay=True)
        with tr.span("solver.solve", replay=True):
            r = self._solve_parts(ot, verify=True)
        if command == "embed":
            b = tr.call("book_embedding.to_book_embedding", to_book_embedding, ot, r,
                        replay=True)
            tr.call("book_embedding.render_text", render_text, b, replay=True)

    def _cli_problems(self, command: str, inst: Instance, rc: int, text: str) -> list[str]:
        if rc != 0:
            return [f"exit status {rc}"]
        ref = self.refs[inst.name]
        g = ref.ot.base
        try:
            if command == "solve":
                ans = checks.parse_solve_output(g, text)
                return checks.check_answer(ref.ot, ans) + checks.compare(ans, ref.answer, "output")
            if command == "embed":
                return checks.check_embed_output(g, text, ref.answer)
            return checks.check_check_output(g, text, ref.answer,
                                             ref.counts["decomposition.polygons"])
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def roundtrip_pass(self, insts: list[Instance]) -> float:
        tr = self.tr
        pairs = self.solved_fresh(insts)
        backs = []
        gc.collect()
        t0 = time.perf_counter()
        for ot, r in pairs:
            if isinstance(r, Exception):
                backs.append(r)
                continue
            with tr.span("roundtrip"):
                try:
                    b = tr.call("book_embedding.to_book_embedding", to_book_embedding, ot, r)
                    backs.append(tr.call("book_embedding.from_book_embedding",
                                         from_book_embedding, ot.base, b))
                except Exception as exc:  # a raising call is a failed operation
                    backs.append(exc)
        dt = time.perf_counter() - t0
        for inst, (ot, _), back in zip(insts, pairs, backs):
            self.judge(f"roundtrip {inst.name}", self._result_problems, inst, ot, back)
        return dt

    def solved_fresh(self, insts: list[Instance]) -> list:
        """Freshly loaded and solved instances, untimed, for the round trip."""
        out = []
        for inst in insts:
            ot = classify_ot(parse_graph(self.texts[inst.name]))
            out.append((ot, solve(ot, check=False)))
        return out

    def pipeline_pass(self, insts: list[Instance]) -> float:
        """Seconds to take every instance through parse, classify, solve
        (verified), to_book_embedding and from_book_embedding."""
        tr = self.tr
        texts = [self.texts[i.name] for i in insts]
        outs = []
        gc.collect()
        t0 = time.perf_counter()
        for text in texts:
            with tr.span("pipeline"):
                try:
                    g = tr.call("graph_model.parse_graph", parse_graph, text)
                    ot = tr.call("graph_model.classify_ot", classify_ot, g)
                    if tr.enabled:
                        with tr.span("solver.solve"):
                            r = self._solve_parts(ot, verify=True)
                    else:
                        r = solve(ot)
                    b = tr.call("book_embedding.to_book_embedding", to_book_embedding, ot, r)
                    back = tr.call("book_embedding.from_book_embedding",
                                   from_book_embedding, g, b)
                    outs.append((ot, r, back))
                except Exception as exc:  # a raising call is a failed operation
                    outs.append((None, exc, exc))
        dt = time.perf_counter() - t0
        for inst, (ot, r, back) in zip(insts, outs):
            self.judge(f"pipeline {inst.name}", self._pipeline_problems, inst, ot, r, back)
        return dt

    def _pipeline_problems(self, inst: Instance, ot, r, back) -> list[str]:
        problems = self._result_problems(inst, ot, r)
        if not problems and checks.as_answer(back) != checks.as_answer(r):
            problems = ["round trip changed the answer"]
        return problems

    def round(self, min_pass_s: float) -> dict[str, list[tuple[float, float]]]:
        """Samples of every end-to-end metric measured in rounds, each as
        (seconds, reference seconds).  Each pass runs at least once, and
        again until it has taken ``min_pass_s``; the reference work is timed
        before and after each such group of passes, and the group's samples
        get the mean of the two."""
        wl = self.wl
        out: dict[str, list[tuple[float, float]]] = defaultdict(list)
        before = speed.reference_s()

        def repeat(fn: Callable[[], dict[str, float]]) -> None:
            nonlocal before
            group = defaultdict(list)
            stop = time.perf_counter() + min_pass_s
            while True:
                for k, v in fn().items():
                    group[k].append(v)
                if time.perf_counter() >= stop:
                    break
            after = speed.reference_s()
            for k, vs in group.items():
                out[k] += [(v, (before + after) / 2) for v in vs]
            before = after

        repeat(lambda: {"setup_s": self.setup()})
        repeat(self.load_and_core)
        for command in ("check", "solve", "embed"):
            repeat(lambda: {f"{command}_s": self.cli_pass(command, self.group(command))})
        repeat(lambda: {"roundtrip_s": self.roundtrip_pass(self.group("roundtrip"))})
        repeat(lambda: {"pipeline_s": self.pipeline_pass(wl.small)})
        return out

    def load_and_core(self) -> dict[str, float]:
        load_s, ots = self.load_pass(self.wl.main)
        return {"load_s": load_s, "core_s": self.core_pass(self.wl.main, ots)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans


def layer_metrics(tr: Tracer, counts: dict, overheads: list[float],
                  references: dict[str, float]) -> dict:
    """Every per-layer metric BENCHMARK.json names, by the suffix of its
    name: ``.s`` self time of a call, ``.self_s`` CLI overhead estimate,
    ``.rss_growth_mib`` rise of ``ru_maxrss``, otherwise an input count.
    Times are per round, scaled by the round's reference time like the
    end-to-end ones, and the median over rounds is reported."""

    def per_round(seconds: dict[str, float]) -> float:
        return statistics.median(speed.scaled(v, references[g]) for g, v in seconds.items())

    own = tr.self_times()
    by_name: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    rss: dict[str, float] = defaultdict(float)
    replayed: dict[int, float] = defaultdict(float)  # command span -> replays
    for sp in tr.spans:
        by_name[sp.name][sp.group] += own[sp.sid]
        rss[sp.name] += sp.rss_out - sp.rss_in
        if sp.replay and sp.parent is not None:
            replayed[sp.parent] += sp.duration
    cli_self: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in tr.spans:
        if sp.name == "cli.run":
            cmd = tr.spans[sp.parent]
            cli_self[cmd.name][cmd.group] += sp.duration - replayed[cmd.sid]
    values = {"trace.overhead_frac": statistics.median(overheads)}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.endswith(".self_s"):
            values[name] = per_round(cli_self[name.split(".")[1]])
        elif name.endswith(".rss_growth_mib"):
            values[name] = rss[name.removesuffix(".rss_growth_mib")]
        elif name.endswith(".s"):
            values[name] = per_round(by_name[name.removesuffix(".s")])
        elif name in counts:
            values[name] = counts[name]
    return values


def round_reference(samples: dict[str, list[tuple[float, float]]]) -> float:
    """Median reference time of a round's samples."""
    return statistics.median(c for vs in samples.values() for _, c in vs)


def total_seconds(samples: dict[str, list[tuple[float, float]]],
                  untimed: float = 0.0) -> float:
    """Scaled sum of a round's samples, less ``untimed`` seconds spent
    inside them."""
    pairs = [x for vs in samples.values() for x in vs]
    return (sum(speed.scaled(*x) for x in pairs)
            - speed.scaled(untimed, round_reference(samples)))


def replay_seconds(tr: Tracer, group: str) -> float:
    """Time spent in replayed calls, which no untraced round makes."""
    return sum(sp.duration for sp in tr.spans if sp.group == group and sp.replay)


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes, and a single round")
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.tiny)
    traced = bool(args.trace)
    tr = Tracer(enabled=False)  # traced rounds switch it on
    bench = Bench(wl, tr, args.seed)
    min_rounds = 1 if args.tiny else MIN_ROUNDS

    bench.setup()
    if traced:
        bench.deferred = []
    else:
        bench.reference()

    samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
    overheads: list[float] = []
    references: dict[str, float] = {}  # traced round -> its reference time
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start + longest <= args.seconds:
        t0 = time.perf_counter()
        if traced:
            # Traced pass first, so its spans see the first rise in RSS;
            # then the same round untraced, for the overhead: the timed
            # passes of each, replayed calls taken out of the traced ones.
            tr.enabled = True
            tr.group = f"round{rounds}"
            traced_samples = bench.round(0.0)
            references[tr.group] = round_reference(traced_samples)
            t_traced = total_seconds(traced_samples, replay_seconds(tr, tr.group))
            tr.enabled = False
            if bench.deferred is not None:
                bench.reference()
                bench.flush()
            overheads.append(t_traced / total_seconds(bench.round(0.0)) - 1.0)
        else:
            for k, v in bench.round(MIN_PASS_S).items():
                samples[k].extend(v)
        longest = max(longest, time.perf_counter() - t0)
        rounds += 1
    peak = maxrss_mib()
    if not args.tiny:
        bench.judge("inputs", bench.input_problems)

    if traced:
        values = layer_metrics(tr, bench.main_counts(), overheads, references)
        tr.dump(str(OUT / f"{wl.name}-seed{args.seed}-spans.json"))
        section = "per_layer"
    else:
        values = {k: statistics.fmean(speed.scaled(*x) for x in v)
                  for k, v in samples.items()}
        values["instances_per_s"] = len(wl.small) / values["pipeline_s"]
        values["peak_rss_mib"] = peak
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[section]}

    fail_frac = bench.failed / bench.attempted
    for name, m in metrics.items():
        xs = samples.get("pipeline_s" if name == "instances_per_s" else name)
        note = ""
        if xs:  # unscaled: the median of the samples as measured
            note = f" n={len(xs)} unscaled {statistics.median(v for v, _ in xs):.6g} s"
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s}" + note)
    print(f"{'fail_frac':44s} {fail_frac:>16.6g} ratio  of {bench.attempted} operations")
    for p in bench.problems:
        print(f"FAILED {p}", file=sys.stderr)

    record = {
        "workload": wl.name,
        "why": WHY[wl.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "rounds": rounds,
        "inputs": {
            "counts": bench.input_counts(),
            "main": {i.name: bench.refs[i.name].counts for i in wl.main},
            "small_set": len(wl.small),
            "commands_on_small_set": sorted(wl.on_small) + ["pipeline"],
        },
        "reference_s": speed.REFERENCE_S,
        "samples": samples,  # [seconds, reference seconds] per sample
        "metrics": metrics,
        "fail_frac": fail_frac,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
    }
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
