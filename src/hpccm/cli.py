"""Command-line interface.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 invalid input, 2 internal verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from . import book_embedding as be
from . import decomposition as dec
from . import graph_model as gm
from . import hamiltonicity as ham
from . import oracle_gen as og
from . import solver as sv


def _load_ot(path: str) -> gm.OTStDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return gm.classify_ot(gm.parse_graph(text))


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    g = gm.parse_graph(text)
    # parse_graph checked n - m + F = 2, so F - 1 = m - n + 1.
    print(f"n={g.n} m={g.m} interior-faces={g.m - g.n + 1}")
    print("st-digraph: ok")
    try:
        ot = gm.classify_ot(g)
    except gm.GraphError as exc:
        print(f"outerplanar-triangulated: no ({exc.kind}: {exc})")
        return 0
    left = ",".join(g.names[v] for v in ot.left)
    right = ",".join(g.names[v] for v in ot.right)
    print("outerplanar-triangulated: yes")
    print(f"left=[{left}] right=[{right}]")
    return 0


def _cmd_check_file(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        g = gm.parse_graph(fh.read())
    for r in ham.find_rhombi(g):
        print(
            f"rhombus median={g.name_edge(r.median)} "
            f"left={g.names[r.left_apex]} right={g.names[r.right_apex]}"
        )
    path = ham.hamiltonian_path(g)
    if path is None:
        print("hamiltonian: none")
    else:
        print("hamiltonian: " + ",".join(g.names[v] for v in path))
    return 0


def _cmd_check_random(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    checked = mismatches = skipped = 0
    max_polys = 0
    t0 = time.perf_counter()
    while checked < args.random:
        k = rng.randint(1, max(1, (args.max_n - 2) // 2))
        m = rng.randint(1, max(1, args.max_n - 2 - k))
        prof = og.GenProfile(
            n_left=k,
            n_right=m,
            polygon_bias=rng.random(),
            seed=rng.getrandbits(63),
        )
        ot = og.random_ot(prof)
        d = dec.decompose(ot)
        if d.polygon_count > args.max_polygons:
            skipped += 1
            continue
        result = sv.solve(ot)
        oracle = og.exhaustive_min_crossings(ot)
        checked += 1
        max_polys = max(max_polys, d.polygon_count)
        if result.total_crossings != oracle or sv.verify_solution(ot, result):
            mismatches += 1
            print(f"MISMATCH profile={prof}", file=sys.stderr)
    dt = time.perf_counter() - t0
    print("instances  mismatches  skipped  max-polygons  seconds")
    print(
        f"{checked:9d}  {mismatches:10d}  {skipped:7d}  {max_polys:12d}  "
        f"{dt:7.2f}"
    )
    return 2 if mismatches else 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    names = ot.base.names
    d = dec.decompose(ot)
    for el in d.elements:
        if isinstance(el, dec.FreeVertex):
            print(f"F {names[el.vertex]}")
        else:
            left = ",".join(names[v] for v in el.left_chain)
            right = ",".join(names[v] for v in el.right_chain)
            print(
                f"P {names[el.source]} {names[el.sink]} "
                f"median={ot.base.name_edge(el.median)} "
                f"left=[{left}] right=[{right}]"
            )
    print("shared: " + " ".join(str(c) for c in d.shared))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    result = sv.solve(ot)
    _print_solution(ot, result)
    return 0


def _print_solution(ot: gm.OTStDigraph, result: sv.HpCompletionResult) -> None:
    names = ot.base.names
    print(f"crossings={result.total_crossings}")
    print("path=" + ",".join(names[v] for v in result.path))
    for ce, lst in zip(result.completion_edges, result.crossings):
        crossed = ",".join(ot.base.name_edge(e) for e in lst)
        print(f"add {names[ce[0]]}->{names[ce[1]]} crosses [{crossed}]")


def _cmd_embed(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    b = be.to_book_embedding(ot, sv.solve(ot))
    sys.stdout.write(be.render_text(b))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    b = be.to_book_embedding(ot, sv.solve(ot))
    svg = be.render_svg(b)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(svg)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    prof = og.GenProfile(
        n_left=args.left,
        n_right=args.right,
        polygon_bias=args.bias,
        seed=args.seed,
    )
    ot = og.random_ot(prof)
    text = gm.serialize_graph(ot.base)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    print("          n   polygons   seconds      ratio")
    prev: Optional[float] = None
    for size in sizes:
        count = max(1, (size - 2) // 2)
        ot = og.polygon_stack(count, validate=False)
        t0 = time.perf_counter()
        d = dec.decompose(ot)
        costs = sv.all_costs(d)
        table = sv.dp_solve(d, costs)
        result = sv.reconstruct(d, table, costs)
        dt = time.perf_counter() - t0
        ratio = "" if prev is None else f"{dt / prev:10.2f}"
        print(
            f"{ot.base.n:11d} {d.polygon_count:10d} {dt:9.3f} {ratio:>10}"
        )
        assert result.total_crossings == table.minimum
        prev = dt
    return 0


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = argparse.ArgumentParser(
        prog="hpccm",
        description=(
            "Crossing-minimal acyclic hamiltonian path completion and "
            "2-page topological book embeddings for outerplanar "
            "triangulated st-digraphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file's invariants")
    p.add_argument("file")

    p = sub.add_parser(
        "check",
        help="report rhombi and hamiltonicity of a file, or run random "
        "oracle-vs-solver batches",
    )
    p.add_argument("file", nargs="?")
    p.add_argument("--random", type=int, default=0, metavar="N")
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--max-polygons", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decompose", help="print the polygon decomposition")
    p.add_argument("file")

    p = sub.add_parser("solve", help="crossing-minimal completion of a file")
    p.add_argument("file")

    p = sub.add_parser("embed", help="book embedding, text form")
    p.add_argument("file")

    p = sub.add_parser("render", help="book embedding, SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", type=float, default=0.5)
    p.add_argument("-o", "--output")

    p = sub.add_parser("bench", help="timing table on stacked-polygon chains")
    p.add_argument("--sizes", default="10000,100000,1000000")

    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "decompose": _cmd_decompose,
        "solve": _cmd_solve,
        "embed": _cmd_embed,
        "render": _cmd_render,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        if args.command == "check":
            if args.random:
                return _cmd_check_random(args)
            if not args.file:
                print("check: need FILE or --random N", file=sys.stderr)
                return 1
            return _cmd_check_file(args)
        return handlers[args.command](args)
    except gm.GraphError as exc:
        print(f"error [{exc.kind}]: {exc}", file=sys.stderr)
        return 2 if exc.kind == "internal" else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
