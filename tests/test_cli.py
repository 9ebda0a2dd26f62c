import json
import math
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

from qsnake import cli, render, verify
from qsnake.cli import main
from qsnake.kasteleyn import kasteleyn_matrix, verify_kasteleyn
from qsnake.laurent import LaurentPoly
from qsnake.qrational import all_routes, cf_expand, fibonacci_number, q_rational
from qsnake.render import ascii_render, graph_json, svg_render, tikz_render
from qsnake.snake import SnakeGraph, far_corner, snake_graph

from oracles import kasteleyn_to_json, poly_from_json

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"

# stdout and exit code of each command, each captured before a refactor of
# the code it runs; the bytes must never change
GOLDEN_COMMANDS = [
    ("compute 29 12", 0),
    ("compute 29 12 --format json", 0),
    ("compute 1 1", 0),
    ("compute 1 1 --format json", 0),
    ("compute 13 3 --all-routes", 0),
    ("compute 13 3 --all-routes --format json", 0),
    ("snake 179 74 --render ascii", 0),
    ("snake 179 74 --render svg", 0),
    ("snake 179 74 --render tikz", 0),
    ("snake 179 74 --render json", 0),
    ("matchings 5 2", 0),
    ("kasteleyn 13 3", 0),
    ("fibonacci 7", 0),
    ("fibonacci 40", 0),
    ("verify --max-r 12", 0),
]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command, expected_code", GOLDEN_COMMANDS)
def test_cli_bytes_golden(capsys, command, expected_code):
    argv = command.split()
    golden = GOLDEN_DIR / ("-".join(a.lstrip("-") for a in argv) + ".out")
    code, out = run(capsys, *argv)
    assert code == expected_code
    assert out.encode("utf-8") == golden.read_bytes()


def test_compute_text(capsys):
    code, out = run(capsys, "compute", "29", "12")
    assert code == 0
    assert "1 + 3q + 5q^2 + 6q^3 + 6q^4 + 5q^5 + 2q^6 + q^7" in out
    code, out = run(capsys, "compute", "1", "1")
    assert code == 0 and "(1) / (1)" in out


def test_compute_json_round_trip(capsys):
    code, out = run(capsys, "compute", "13", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["cf"] == [4, 3]
    num = poly_from_json(blob["num"])
    assert num == LaurentPoly(0, (1, 2, 3, 3, 2, 1, 1))
    assert poly_from_json(blob["den"]) == LaurentPoly(0, (1, 1, 1))


def test_compute_json_is_json_dumps(capsys, monkeypatch):
    # the compute writer against json.dumps(blob, indent=2) of the same blob,
    # with each distinct polynomial rendered once and none hashed (the
    # writer finds a rendered one by identity, then by equality): with
    # --all-routes the routes' numerator and denominator, the continuant
    # being the numerator at another indent; lists past cli.JSON_CHUNK
    # coefficients are written in pieces
    to_json, rendered = LaurentPoly.to_json, []

    def counting(self):
        rendered.append(self)
        return to_json(self)

    def refuse_hash(self):
        raise AssertionError("the JSON writer hashed a polynomial")

    for r, s in [(1, 1), (2, 1), (13, 3), (29, 12), (10**5 + 1, 2), (832040, 514229)]:
        cf = list(cf_expand(r, s))
        qr = q_rational(r, s)
        rendered.clear()
        with monkeypatch.context() as m:
            m.setattr(LaurentPoly, "to_json", counting)
            m.setattr(LaurentPoly, "__hash__", refuse_hash)
            code, out = run(capsys, "compute", str(r), str(s), "--format", "json")
        assert sorted(map(str, rendered)) == sorted(map(str, {qr.num, qr.den})), (r, s)
        blob = {"r": r, "s": s, "cf": cf, "num": qr.num.to_json(), "den": qr.den.to_json()}
        assert code == 0 and out == json.dumps(blob, indent=2) + "\n", (r, s)
        table = all_routes(tuple(cf))
        rendered.clear()
        with monkeypatch.context() as m:
            m.setattr(LaurentPoly, "to_json", counting)
            m.setattr(LaurentPoly, "__hash__", refuse_hash)
            code, out = run(capsys, "compute", str(r), str(s), "--all-routes", "--format", "json")
        matrix = table.fractions["matrix"]
        assert sorted(map(str, rendered)) == sorted(map(str, {matrix.num, matrix.den})), (r, s)
        blob = {"r": r, "s": s, "cf": cf,
                "routes": {k: {"num": v.num.to_json(), "den": v.den.to_json()}
                           for k, v in table.fractions.items()},
                "continuant_num": table.continuant.to_json(), "agree": table.agree}
        assert code == 0 and out == json.dumps(blob, indent=2) + "\n", (r, s)
    assert len(qr.num.coeffs) < cli.JSON_CHUNK < len(q_rational(10**5 + 1, 2).num.coeffs)
    for value in [{}, [], {"a": []}, {"a": {}, "b\n\"": [-3, 0, 10**40]},
                  {"t": True, "f": False, "n": None, "x": "q^-1 + 2", "y": -7}]:
        assert cli._json(value) == json.dumps(value, indent=2), value
        assert cli._json(value, "    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


def test_compute_all_routes(capsys):
    code, out = run(capsys, "compute", "13", "3", "--all-routes")
    assert code == 0
    assert "all routes identical" in out
    assert out.count("1 + 2q + 3q^2 + 3q^3 + 2q^4 + q^5 + q^6") == 4


def test_compute_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "4", "2"])
    assert exc.value.code == 2
    assert "error: 4/2 is not in lowest terms" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "3", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "2", "3"])
    assert exc.value.code == 2


def test_snake_ascii_golden(capsys):
    code, out = run(capsys, "snake", "2", "1", "--render", "ascii")
    assert code == 0
    assert out == ("+-----+\n"
                   "|q    |\n"
                   "+-----+\n")


def test_snake_svg(capsys, tmp_path):
    code, out = run(capsys, "snake", "179", "74", "--render", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert 'stroke="blue"' in out and 'stroke="red"' in out
    assert out.count("<line") == 34  # 3d + 1 edges for the 11-box snake
    # --out writes the bytes stdout gets, in each render
    for fmt in ("ascii", "svg", "tikz", "json"):
        code, out = run(capsys, "snake", "179", "74", "--render", fmt)
        target = tmp_path / f"pic.{fmt}"
        assert run(capsys, "snake", "179", "74", "--render", fmt, "--out", str(target)) == (0, "")
        assert code == 0 and target.read_bytes() == out.encode("utf-8"), fmt


def test_snake_tikz(capsys):
    code, out = run(capsys, "snake", "29", "12", "--render", "tikz")
    assert code == 0
    assert out.startswith("\\begin{tikzpicture}")
    assert "node[left]{$q$}" in out
    assert "node[below]{$q^{-1}$}" in out
    assert out.count("\\draw") == 22  # 3*7 + 1 edges


def test_snake_json_round_trip(capsys):
    code, out = run(capsys, "snake", "5", "2", "--render", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["boxes"] == [[0, 0], [1, 0], [2, 0]]
    assert len(blob["edges"]) == 10
    g = snake_graph((2, 2))
    rebuilt = {tuple(map(tuple, (e["u"], e["v"]))): e["weight_exp"]
               for e in blob["edges"]}
    assert rebuilt == g.weight_exp


def test_matchings_json(capsys):
    code, out = run(capsys, "matchings", "5", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 5
    assert poly_from_json(blob["statistic"]) == LaurentPoly(-1, (1, 2, 1, 1))
    exps = sorted(m["weight_exp"] for m in blob["matchings"])
    assert exps == [-1, 0, 0, 1, 2]


def test_kasteleyn_json(capsys):
    code, out = run(capsys, "kasteleyn", "13", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["size"] == 7 and blob["verified"] is True
    assert blob["scalar_exponent"] == 2
    det = poly_from_json(blob["det"])
    assert det == blob["sign"] * LaurentPoly(-2, (1, 2, 3, 3, 2, 1, 1))


def test_kasteleyn_json_is_the_dense_blob(capsys):
    # the row-by-row writer against json.dumps of the dense matrix
    for r, s in [(1, 1), (2, 1), (13, 3), (61, 27), (34, 21)]:
        code, out = run(capsys, "kasteleyn", str(r), str(s))
        report = verify_kasteleyn(r, s)
        blob = kasteleyn_to_json(report.matrix)
        blob.update({"det": report.det.to_json(), "det_text": report.det.text(),
                     "sign": report.sign, "scalar_exponent": report.scalar,
                     "verified": report.ok})
        assert code == 0 and out == json.dumps(blob, indent=2) + "\n", (r, s)


def test_fibonacci_table(capsys):
    code, out = run(capsys, "fibonacci", "7")
    assert code == 0
    assert "1 + 3q + 4q^2 + 5q^3 + 4q^4 + 3q^5 + q^6" in out
    assert "A123245" in out and "A079487" in out
    code, out = run(capsys, "fibonacci", "1")
    assert code == 0 and "(1) / (1)" in out


def test_verify_small(capsys):
    code, out = run(capsys, "verify", "--max-r", "2")
    assert code == 0
    assert "pairs checked: 1" in out
    assert "all checks passed" in out


def test_verify_deterministic_across_jobs(capsys):
    _, serial = run(capsys, "verify", "--max-r", "12", "--jobs", "1")
    _, parallel = run(capsys, "verify", "--max-r", "12", "--jobs", "2")
    assert serial == parallel


def test_verify_env_jobs(capsys, monkeypatch):
    monkeypatch.setenv("QSNAKE_JOBS", "2")
    code, out = run(capsys, "verify", "--max-r", "8")
    assert code == 0 and "all checks passed" in out


def test_bad_env_jobs_is_a_verify_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QSNAKE_JOBS", "abc")
    code, out = run(capsys, "compute", "3", "2")
    assert code == 0 and "[3/2]_q" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-r", "8"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_jobs_bound_is_inclusive(capsys, monkeypatch):
    # patched small: never start an over-bound pool
    monkeypatch.setattr(cli, "MAX_JOBS", 2)
    assert run(capsys, "verify", "--max-r", "5", "--jobs", "2")[0] == 0
    for jobs in ("3", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-r", "5", "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs must be between 1 and 2, got {jobs}" in capsys.readouterr().err
    monkeypatch.setenv("QSNAKE_JOBS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-r", "5"])
    assert exc.value.code == 2
    assert "QSNAKE_JOBS must be between 1 and 2, got 0" in capsys.readouterr().err


def test_max_r_bound_is_inclusive(capsys, monkeypatch):
    # patched small: never start an over-bound sweep
    monkeypatch.setattr(cli, "MAX_VERIFY_R", 12)
    code, out = run(capsys, "verify", "--max-r", "12")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / "verify-max-r-12.out").read_bytes()

    def refuse(pair):
        raise AssertionError("checked a pair of an over-bound sweep")

    monkeypatch.setattr(verify, "check_pair", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-r", "13"])
    assert exc.value.code == 2
    assert "--max-r must be at most 12, got 13" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-r", "1"])
    assert exc.value.code == 2
    assert "--max-r must be >= 2" in capsys.readouterr().err


def test_snake_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing" / "x.svg", tmp_path):
        for fmt in ("svg", "json"):
            with pytest.raises(SystemExit) as exc:
                main(["snake", "5", "2", "--render", fmt, "--out", str(path)])
            assert exc.value.code == 2
            assert f"cannot write {str(path)!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_matchings_refuses_snakes_above_the_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matchings", "1500", "1"])
    assert exc.value.code == 2
    assert "at most 600 boxes" in capsys.readouterr().err


def test_matching_edge_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_MATCHING_EDGES", 20)
    assert run(capsys, "matchings", "5", "2")[0] == 0  # 5 matchings of 4 edges

    def refuse(g):
        raise AssertionError("enumerated an over-bound snake")

    monkeypatch.setattr(cli, "enumerate_matchings", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["matchings", "7", "3"])  # [2, 3]: 7 matchings of 5 edges
    assert exc.value.code == 2
    assert "at most 20 edges; 7/3 has 7 matchings of 5 edges" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "compute 1000000000000000000000 1",  # used to raise OverflowError
    "compute 100000000000 1",  # used to raise MemoryError
    "snake 100000000 1",  # used to raise MemoryError
    "matchings 1000001 1",
    "kasteleyn 1000001 1000000",  # [1, 1000000]
])
def test_pairs_above_the_cf_sum_bound_are_usage_errors(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "sums to more than 1000000" in capsys.readouterr().err


def test_cf_sum_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CF_SUM", 7)
    assert run(capsys, "compute", "13", "3")[0] == 0  # [4, 3]
    with pytest.raises(SystemExit) as exc:
        main(["compute", "16", "3"])  # [5, 3]
    assert exc.value.code == 2


def test_compute_cost_bound_is_inclusive(capsys, monkeypatch):
    # the cost is len(cf) * sum(cf) * r.bit_length()
    monkeypatch.setattr(cli, "MAX_COMPUTE_COST", 56)
    assert run(capsys, "compute", "13", "3")[0] == 0  # [4, 3]: 2 * 7 * 4
    for extra in ([], ["--all-routes"], ["--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "16", "3", *extra])  # [5, 3]: 2 * 8 * 5
        assert exc.value.code == 2
        assert "limited to a cost of 56" in capsys.readouterr().err
    # the Fibonacci ratio with 8000 quotients ran for most of a minute
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:
        main(["compute", str(fibonacci_number(8002)), str(fibonacci_number(8001))])
    assert exc.value.code == 2
    assert "costs 355564440000" in capsys.readouterr().err


def test_kasteleyn_box_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_KASTELEYN_BOXES", 6)
    assert run(capsys, "kasteleyn", "13", "3")[0] == 0  # [4, 3]: 6 boxes
    with pytest.raises(SystemExit) as exc:
        main(["kasteleyn", "16", "3"])  # [5, 3]: 7 boxes
    assert exc.value.code == 2
    assert "at most 6 boxes, got 7" in capsys.readouterr().err


def test_ascii_canvas_bound_is_inclusive(capsys, monkeypatch):
    # the one box of 2/1 is the 7 x 3 grid of test_snake_ascii_golden
    monkeypatch.setattr(render, "MAX_ASCII_CELLS", 21)
    assert run(capsys, "snake", "2", "1", "--render", "ascii")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["snake", "3", "1", "--render", "ascii"])  # 13 x 3
    assert exc.value.code == 2
    assert "limited to 21 cells, this snake needs 39" in capsys.readouterr().err
    # only the ascii render has a canvas
    assert run(capsys, "snake", "3", "1", "--render", "svg")[0] == 0


def test_ascii_refusal_reads_no_edge(capsys, monkeypatch):
    # the canvas is sized from the last box, so an oversize snake is refused
    # before its weight map, its edges or its vertices are built
    def refuse(self):
        raise AssertionError("read the weight map of a refused snake")

    monkeypatch.setattr(SnakeGraph, "weight_exp", property(refuse))
    monkeypatch.setattr(render, "MAX_ASCII_CELLS", 6)
    # the boxless 1/1 (7 x 1), a column of two boxes (7 x 5), a row of two (13 x 3)
    for r, s, cells in [(1, 1, 7), (3, 2, 35), (3, 1, 39)]:
        with pytest.raises(SystemExit) as exc:
            main(["snake", str(r), str(s), "--render", "ascii"])
        assert exc.value.code == 2
        assert f"limited to 6 cells, this snake needs {cells}" in capsys.readouterr().err
        # the command refuses before any snake exists; the render keeps its own check
        with pytest.raises(ValueError, match=f"limited to 6 cells, this snake needs {cells}"):
            ascii_render(snake_graph(cf_expand(r, s)))


def test_ascii_refusal_builds_no_snake(capsys, monkeypatch):
    # the far corner is counted from the continued fraction, so an oversize
    # picture is refused before the box path exists
    def refuse(cf):
        raise AssertionError("built the snake of a refused picture")

    monkeypatch.setattr(cli, "snake_graph", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["snake", "1000000", "1", "--render", "ascii"])  # at MAX_CF_SUM
    assert exc.value.code == 2
    assert "limited to 10000000 cells" in capsys.readouterr().err
    monkeypatch.setattr(render, "MAX_ASCII_CELLS", 6)
    for r, s, cells in [(1, 1, 7), (3, 2, 35), (3, 1, 39), (13, 3, 175)]:
        with pytest.raises(SystemExit) as exc:
            main(["snake", str(r), str(s), "--render", "ascii"])
        assert exc.value.code == 2
        assert f"limited to 6 cells, this snake needs {cells}" in capsys.readouterr().err


def test_render_extent_is_the_far_vertex():
    for r in range(1, 41):
        for s in range(1, r + 1):
            if math.gcd(r, s) == 1:
                cf = cf_expand(r, s)
                g = snake_graph(cf)
                far = (max(x for x, _ in g.vertices), max(y for _, y in g.vertices))
                assert render._extent(g) == far, (r, s)
                assert far_corner(cf) == far, (r, s)


@pytest.mark.parametrize("command", ["compute 13 3", "kasteleyn 61 27",
                                     "snake 179 74 --render svg",
                                     "snake 179 74 --render json"])
def test_a_closed_stdout_pipe_exits_141_quietly(command):
    # the read end is closed before the child starts, so its first write
    # fails whatever the timing; 141 is 128 + SIGPIPE, as a shell reports it
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from qsnake.cli import main; sys.exit(main())",
                               *command.split()],
                              stdout=write, stderr=subprocess.PIPE, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == b"", proc.stderr


def test_render_box_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RENDER_BOXES", 6)
    for fmt in ("svg", "tikz", "json"):
        assert run(capsys, "snake", "13", "3", "--render", fmt)[0] == 0  # [4, 3]: 6 boxes

    def refuse(cf):
        raise AssertionError("built an over-bound snake")

    monkeypatch.setattr(cli, "snake_graph", refuse)
    for fmt in ("svg", "tikz", "json"):
        with pytest.raises(SystemExit) as exc:
            main(["snake", "16", "3", "--render", fmt])  # [5, 3]: 7 boxes
        assert exc.value.code == 2
        assert f"the {fmt} render is limited to snakes of at most 6 boxes, got 7" \
            in capsys.readouterr().err


def test_fibonacci_row_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_FIBONACCI_ROWS", 7)
    assert run(capsys, "fibonacci", "7")[0] == 0
    for n in ("8", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["fibonacci", n])
        assert exc.value.code == 2
        assert "n must be between 1 and 7" in capsys.readouterr().err


def test_fibonacci_table_builds_one_band(capsys, count_calls):
    calls = count_calls(kasteleyn_matrix)
    assert run(capsys, "fibonacci", "7")[0] == 0
    assert calls["kasteleyn_matrix"] == 1


def test_renders_are_pure():
    g = snake_graph((4, 3))
    assert ascii_render(g) == ascii_render(g)
    assert svg_render(g) == svg_render(g)
    assert tikz_render(g) == tikz_render(g)
    # the edges are a generator of records, compared as the list they make
    blobs = [graph_json(g) for _ in range(2)]
    for blob in blobs:
        assert isinstance(blob["edges"], Iterator)
        blob["edges"] = list(blob["edges"])
    assert blobs[0] == blobs[1]
