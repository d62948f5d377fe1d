import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hpccm
from hpccm import rhombus, serialize_graph, triangle, five_crossing_polygon
from hpccm import cli
from hpccm import graph_model as gm
from hpccm.cli import _parser, run

SRC = str(Path(hpccm.__file__).resolve().parents[1])


@pytest.fixture()
def rhombus_file(tmp_path):
    path = tmp_path / "rhombus.json"
    path.write_text(serialize_graph(rhombus().base), encoding="utf-8")
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(serialize_graph(triangle().base), encoding="utf-8")
    return str(path)


@pytest.fixture()
def f9_file(tmp_path):
    path = tmp_path / "polygon.json"
    path.write_text(serialize_graph(five_crossing_polygon().base), encoding="utf-8")
    return str(path)


def test_solve_rhombus(rhombus_file, capsys):
    assert run(["solve", rhombus_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "crossings=1"
    assert out[1] in ("path=s,b,a,t", "path=s,a,b,t")
    assert out[2].startswith("add ") and "crosses [s->t]" in out[2]


def test_solve_triangle(triangle_file, capsys):
    assert run(["solve", triangle_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "crossings=0"
    assert out[1] == "path=s,v,t"
    assert len(out) == 2


def test_check_and_solve_five_crossing(f9_file, capsys):
    assert run(["check", f9_file]) == 0
    out = capsys.readouterr().out
    assert out.count("rhombus median=") == 1
    assert "hamiltonian: none" in out
    assert run(["solve", f9_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "crossings=5"


def test_check_triangle_hamiltonian(triangle_file, capsys):
    assert run(["check", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "rhombus" not in out
    assert "hamiltonian: s,v,t" in out


def test_validate(rhombus_file, capsys):
    assert run(["validate", rhombus_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n=4 m=5 interior-faces=2"
    assert "outerplanar-triangulated: yes" in out
    assert "left=[a] right=[b]" in out


def test_decompose_listing(rhombus_file, capsys):
    assert run(["decompose", rhombus_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "P s t median=s->t left=[a] right=[b]"
    assert out[1] == "shared: "


def test_embed(rhombus_file, capsys):
    assert run(["embed", rhombus_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("spine: s ")
    assert "split" in out


def test_render_to_file(rhombus_file, tmp_path, capsys):
    out_path = tmp_path / "out.svg"
    assert run(["render", rhombus_file, "-o", str(out_path)]) == 0
    capsys.readouterr()
    data = out_path.read_text(encoding="utf-8")
    assert data.startswith("<?xml") and "<svg" in data


def test_gen_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert run(
        ["gen", "--left", "3", "--right", "2", "--seed", "9", "-o", str(out_path)]
    ) == 0
    capsys.readouterr()
    assert run(["validate", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "outerplanar-triangulated: yes" in out


def test_gen_deterministic(capsys):
    assert run(["gen", "--left", "4", "--right", "4", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--left", "4", "--right", "4", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_check_random_batch(capsys):
    assert run(["check", "--random", "25", "--max-n", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mismatches" in out
    assert " 0 " in out.splitlines()[1] or "0" in out.splitlines()[1].split()


def test_check_random_rejects_limits_it_cannot_meet(capsys):
    # No draw has fewer than 4 vertices or a negative polygon count, and a
    # negative batch is no batch: each fails at once with exit 1 and one
    # line.  --max-polygons -1 used to loop forever, so that call is timed.
    done = []
    argv = ["check", "--random", "2", "--max-polygons", "-1"]
    worker = threading.Thread(target=lambda: done.append(run(argv)), daemon=True)
    worker.start()
    worker.join(10)
    assert done == [1]
    outputs = [capsys.readouterr()]
    for argv in (
        ["check", "--random", "2", "--max-n", "3"],
        ["check", "--random", "-1"],
    ):
        assert run(argv) == 1
        outputs.append(capsys.readouterr())
    for got in outputs:
        assert got.out == "" and got.err.count("\n") == 1
        assert got.err.startswith("check: need --random N >= 0, --max-n >= 4")


def test_usage_errors_exit_1_and_help_0():
    # Exit status 2 is kept for verification failures; a usage error is
    # invalid input like any other.
    env = {**os.environ, "PYTHONPATH": SRC}
    main = [sys.executable, "-c", "from hpccm.cli import main; main()"]
    for argv, rc in (
        (["solve"], 1),
        (["check", "--random", "x"], 1),
        (["--help"], 0),
        (["check", "--help"], 0),
    ):
        done = subprocess.run([*main, *argv], capture_output=True, text=True, env=env)
        assert done.returncode == rc, argv
        if rc:
            assert done.stdout == "" and "error:" in done.stderr
        else:
            assert done.stdout.startswith("usage: hpccm") and done.stderr == ""


def test_missing_file_error(capsys):
    assert run(["solve", "/nonexistent/graph.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_graph_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["s", "a", "b"],
                "source": "s",
                "sink": "a",
                "edges": [["s", "a"], ["s", "b"]],
                "rotation": {"s": ["a", "b"], "a": ["s"], "b": ["s"]},
            }
        ),
        encoding="utf-8",
    )
    assert run(["solve", str(path)]) == 1
    assert "multi-sink" in capsys.readouterr().err


def _text_mode_outcome(path: str):
    """The exit code and stderr of a command that reads ``path`` in text
    mode: UTF-8 with universal newlines."""
    try:
        with open(path, encoding="utf-8") as fh:
            gm.parse_graph(fh.read())
    except gm.GraphError as exc:
        return 1, f"error [{exc.kind}]: {exc}\n"
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    return 0, ""


# Edits of the triangle's file, each with the exit code and stderr of
# `hpccm solve` on it.
ENCODING_CASES = {
    "undecodable byte": (
        lambda text: text.encode().replace(b'"v"', b'"v\xff"', 1),
        1, "error: 'utf-8' codec can't decode byte 0xff in position 33: invalid start byte\n",
    ),
    "UTF-8 BOM": (
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        1, "error [syntax]: line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
    ),
    "lone CR, syntax error": (
        lambda text: text.replace('"s",', '"s"', 1).replace("\n", "\r").encode(),
        1, "error [syntax]: line 4 column 5: Expecting ',' delimiter\n",
    ),
    "CRLF, syntax error": (
        lambda text: text.replace('"s",', '"s"', 1).replace("\n", "\r\n").encode(),
        1, "error [syntax]: line 4 column 5: Expecting ',' delimiter\n",
    ),
    "lone CR": (lambda text: text.replace("\n", "\r").encode(), 0, ""),
}


@pytest.mark.parametrize("threshold", [None, 0])
@pytest.mark.parametrize("case", ENCODING_CASES)
def test_file_bytes_read_as_in_text_mode(case, threshold, tmp_path, capsys, monkeypatch):
    # The CLI reads a file as bytes; the byte reader takes them as they
    # are (at 0 it runs on this small file), and every other route decodes
    # them as text mode did, so exit codes and errors stay the same.
    # json.loads(bytes) would skip the BOM instead.
    if threshold is not None:
        pytest.importorskip("numpy")
        monkeypatch.setattr(gm, "NUMPY_MIN_N", threshold)
    edit, code, err = ENCODING_CASES[case]
    path = tmp_path / "g.json"
    path.write_bytes(edit(serialize_graph(triangle().base)))
    assert run(["solve", str(path)]) == code
    got = capsys.readouterr()
    assert got.err == err
    assert got.out == ("" if code else "crossings=0\npath=s,v,t\n")
    assert _text_mode_outcome(str(path)) == (code, err)


def test_stdout_byte_stable(rhombus_file, capsys):
    run(["solve", rhombus_file])
    first = capsys.readouterr().out
    run(["solve", rhombus_file])
    assert capsys.readouterr().out == first


def test_solve_and_embed_print_from_columns(tmp_path, capsys, monkeypatch):
    # solve and embed print from the result's position columns: with the
    # builders of the result's tuples and of the embedding's records
    # raising, both exit 0 with the same bytes, below and above the numpy
    # threshold.
    import hpccm.book_embedding
    import hpccm.graph_model as gm
    import hpccm.solver
    from hpccm import polygon_stack

    expected = {}
    for k in (20, gm.NUMPY_MIN_N // 2):
        ot = polygon_stack(k)
        path = tmp_path / f"stack{k}.json"
        path.write_text(serialize_graph(ot.base), encoding="utf-8")
        for command in ("solve", "embed"):
            assert run([command, str(path)]) == 0
            expected[command, str(path)] = capsys.readouterr().out
    assert ot.n >= gm.NUMPY_MIN_N

    def built(*args):
        raise AssertionError("built the tuples or records")

    monkeypatch.setattr(hpccm.solver, "_records", built)
    monkeypatch.setattr(hpccm.book_embedding, "_records", built)
    for (command, path), out in expected.items():
        assert run([command, path]) == 0
        assert capsys.readouterr().out == out


def test_embed_reports_invalid_solver_answer_as_internal(f9_file, capsys, monkeypatch):
    # embed and render leave the check to to_book_embedding; an answer it
    # rejects is still a verification failure, exit status 2.
    from dataclasses import replace

    import hpccm.solver

    solve = hpccm.solver.solve

    def dropping(ot, check=True):
        r = solve(ot, check=check)
        return replace(r, crossings=(r.crossings[0][1:],), total_crossings=4)

    monkeypatch.setattr(hpccm.solver, "solve", dropping)
    for argv in (["embed", f9_file], ["render", f9_file]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [invalid-solution]: completion edge ")
        assert "crossing set mismatch; missing" in err


def test_parser_reused_without_leaking_between_calls(f9_file, capsys):
    # One parser serves every run() of a process; each call must still see
    # only its own options and defaults, as a fresh process does.  The
    # last column of check --random is its running time, left out.
    commands = [
        ["solve", f9_file],
        ["check", "--random", "3", "--max-n", "10", "--seed", "4"],
        ["gen", "--left", "3", "--right", "2", "--seed", "9"],
        ["check", f9_file],
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    main = [sys.executable, "-c", "from hpccm.cli import main; main()"]
    for argv in commands:
        assert _parser() is _parser()
        rc = run(argv)
        got = capsys.readouterr()
        fresh = subprocess.run([*main, *argv], capture_output=True, text=True, env=env)
        got_out, fresh_out = got.out, fresh.stdout
        if argv[1] == "--random":
            got_out, fresh_out = (x.rsplit(None, 1)[0] for x in (got_out, fresh_out))
        assert (rc, got_out, got.err) == (fresh.returncode, fresh_out, fresh.stderr)


def test_main_runs_without_the_collector(f9_file, capsys, monkeypatch):
    # The console script runs its command with the cyclic collector off
    # and switches it back on after, also when the command exits early.
    seen, run_command = [], cli.run

    def recorded(argv):
        seen.append(gc.isenabled())
        return run_command(argv)

    monkeypatch.setattr(cli, "run", recorded)
    for argv, code in (([f9_file], 0), (["--no-such-option"], 1), ([], 1)):
        monkeypatch.setattr(sys, "argv", ["hpccm", "check", *argv])
        assert gc.isenabled()
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        assert gc.isenabled()
    assert seen == [False, False, False]
    assert "hamiltonian: none" in capsys.readouterr().out


# sha256 of the exit code and stdout of validate, check, decompose, solve
# and embed on every file of _digest_files, in order (see _cli_digest).
CLI_DIGEST = "914f65f42b4f7e0412628bf50d8dfe458d7dd5e85a72fb098b18398ede287427"


def _digest_files(tmp_path, corpus):
    """The 160 corpus draws, the polygon_stack(9999) file (n = 20000) and
    a rhombus-free chain of n = 20000, written as graph files."""
    from hpccm import GenProfile, polygon_stack, random_ot

    graphs = [
        *corpus,
        polygon_stack(9999),
        random_ot(GenProfile(n_left=0, n_right=19998, polygon_bias=0.5, seed=7)),
    ]
    for i, ot in enumerate(graphs):
        path = tmp_path / f"g{i}.json"
        path.write_text(serialize_graph(ot.base), encoding="utf-8")
        yield str(path)


def _cli_digest(paths, capsys) -> str:
    digest = hashlib.sha256()
    for path in paths:
        for command in ("validate", "check", "decompose", "solve", "embed"):
            code = run([command, path])
            digest.update(f"{command} {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_cli_output_digest(tmp_path, corpus, capsys):
    # The byte-stable stdout contract over the corpus and both numpy-sized
    # families: any change to what a command prints, or to its exit code,
    # changes the digest.
    assert _cli_digest(_digest_files(tmp_path, corpus), capsys) == CLI_DIGEST
