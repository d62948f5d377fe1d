"""Command-line interface.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 invalid input (a usage error included), 2 internal
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from typing import Sequence

from . import book_embedding as be
from . import decomposition as dec
from . import graph_model as gm
from . import hamiltonicity as ham
from . import oracle_gen as og
from . import solver as sv


def _parse(path: str) -> gm.EmbeddedDigraph:
    # parse_graph decodes the bytes as text mode would, where it must.
    with open(path, "rb") as fh:
        return gm.parse_graph(fh.read())


def _load_ot(path: str) -> gm.OTStDigraph:
    return gm.classify_ot(_parse(path))


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _parse(args.file)
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
    g = _parse(args.file)
    columns = (map(g.names.__getitem__, col) for col in ham.rhombus_columns(g))
    line = "rhombus median={}->{} left={} right={}\n".format
    sys.stdout.write("".join(map(line, *columns)))
    path = ham.hamiltonian_path(g)
    if path is None:
        print("hamiltonian: none")
    else:
        print("hamiltonian: " + ",".join(g.names[v] for v in path))
    return 0


def _cmd_check_random(args: argparse.Namespace) -> int:
    import random

    if args.random < 0 or args.max_n < 4 or args.max_polygons < 0:
        # The smallest draw has n = 4; a negative bound would skip them all.
        print(
            "check: need --random N >= 0, --max-n >= 4 and --max-polygons >= 0",
            file=sys.stderr,
        )
        return 1
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
        result = sv.solve(ot)  # verified; an invalid result raises
        oracle = og.exhaustive_min_crossings(ot)
        checked += 1
        max_polys = max(max_polys, d.polygon_count)
        if result.total_crossings != oracle:
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
    """The answer from its position columns, each mapped to names once,
    written in one call."""
    path, tails, heads, starts, xs, ys = sv.result_columns(ot, result).lists()
    at = list(map(ot.base.names.__getitem__, ot.arrays.cyc))  # name per position
    path, tails, heads, xs, ys = (
        list(map(at.__getitem__, col)) for col in (path, tails, heads, xs, ys)
    )
    crossed = list(map("{}->{}".format, xs, ys))
    adds = [
        f"add {a}->{b} crosses [{','.join(crossed[i:j])}]\n"
        for a, b, i, j in zip(tails, heads, starts, starts[1:])
    ]
    sys.stdout.write(
        f"crossings={result.total_crossings}\npath={','.join(path)}\n" + "".join(adds)
    )


def _cmd_embed(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    b = be.to_book_embedding(ot, sv.solve(ot, check=False))  # it verifies
    sys.stdout.write(be.render_text(b))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    ot = _load_ot(args.file)
    b = be.to_book_embedding(ot, sv.solve(ot, check=False))  # it verifies
    return _write(be.render_svg(b), args.output)


def _cmd_gen(args: argparse.Namespace) -> int:
    prof = og.GenProfile(
        n_left=args.left,
        n_right=args.right,
        polygon_bias=args.bias,
        seed=args.seed,
    )
    return _write(gm.serialize_graph(og.random_ot(prof).base), args.output)


def _write(text: str, output: str | None) -> int:
    """Write ``text`` to the file ``output``, or to stdout without one."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as invalid input,
    rather than argparse's 2, which here means a verification failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing fills a new
    namespace each time, so calls share no state."""
    parser = _Parser(
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
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    args = _parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "decompose": _cmd_decompose,
        "solve": _cmd_solve,
        "embed": _cmd_embed,
        "render": _cmd_render,
        "gen": _cmd_gen,
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
        # The commands embed only the solver's own answers.
        return 2 if exc.kind in ("internal", "invalid-solution") else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The ``hpccm`` command: :func:`run` with the cyclic garbage collector
    off.  One command leaves few garbage cycles, all freed at exit, while
    the collector's passes over the parsed file and the result's tuples
    took about a third of ``hpccm solve`` at n = 10^6."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sys.exit(run(sys.argv[1:]))
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    main()
