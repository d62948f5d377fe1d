import json

import pytest

from hpccm import rhombus, serialize_graph, triangle, five_crossing_polygon
from hpccm.cli import run


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


def test_bench_small(capsys):
    assert run(["bench", "--sizes", "100,1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3


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


def test_stdout_byte_stable(rhombus_file, capsys):
    run(["solve", rhombus_file])
    first = capsys.readouterr().out
    run(["solve", rhombus_file])
    assert capsys.readouterr().out == first
