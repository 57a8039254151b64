import json
from fractions import Fraction as F

import pytest

from dimergeom.cli import main
from dimergeom.config import load_config, save_config
from dimergeom.fixtures import make_pentagram_fixture
from dimergeom.geometry import POINT, HomogeneousElement, point
from dimergeom.qnet import QNetWindow, build_qnet_config, plane_of_quad


@pytest.fixture()
def pentagon_file(tmp_path):
    path = tmp_path / "pent.json"
    _, _, _, c = make_pentagram_fixture(5, 2)
    save_config(c, path)
    return path


def test_validate_exit_zero(pentagon_file, capsys):
    assert main(["validate", str(pentagon_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "condition (V): pass" in out


def test_validate_exit_one_on_perturbed_label(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["white"][0]["coords"] = ["17", "5", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "multi-ratio != 1" in out


def test_validate_exit_two_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{'this is not json")
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize(
    "keys, value",
    [
        (("edges", 0, "h"), [0]),
        (("edges", 0, "h"), [0, None]),
        (("white", 0, "coords", 0), "1/0"),
        (("white", 0, "coords", 0), None),
        (("faces", 0), [{"e": 999}, {"e": 0}]),
        (("white",), 5),
        ((), ["a", "top-level", "list"]),
    ],
)
def test_malformed_config_exits_two_with_one_line(pentagon_file, tmp_path, capsys, keys, value):
    data = json.loads(pentagon_file.read_text())
    if keys:
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    else:
        data = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["spectral", "FILE"], ["reconstruct", "FILE", "--lam=-1", "--mu=-1"], ["experiment", "dual-curve", "FILE"]],
)
def test_invalid_graph_never_exits_zero(pentagon_file, tmp_path, capsys, argv):
    data = json.loads(pentagon_file.read_text())
    del data["faces"][-1], data["face_ids"][-1]
    bad = tmp_path / "missing_face.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([str(bad) if a == "FILE" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.out and "lies on 1 face slots" in captured.out
    assert "invalid torus graph" in captured.err


def test_run_builtin_pentagram_with_verify(pentagon_file, tmp_path, capsys):
    out = tmp_path / "stepped.json"
    code = main(
        ["run", str(pentagon_file), "--builtin", "pentagram", "--steps", "2", "--k", "2", "--verify", "--out", str(out)]
    )
    assert code == 0
    assert main(["validate", str(out)]) == 0


def test_run_script_file(pentagon_file, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}]))
    out = tmp_path / "after.json"
    assert main(["run", str(pentagon_file), "--script", str(script), "--out", str(out)]) == 0
    after = load_config(out)
    assert len(after.graph.white_ids) == 7


def test_run_script_bad_target_fails(pentagon_file, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "urban", "target": "zzz"}]))
    assert main(["run", str(pentagon_file), "--script", str(script)]) == 1
    assert "step 0" in capsys.readouterr().err


def test_run_zero_steps_identity(pentagon_file, tmp_path):
    out = tmp_path / "same.json"
    assert main(["run", str(pentagon_file), "--builtin", "pentagram", "--steps", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(pentagon_file.read_text())


def test_spectral_command(pentagon_file, tmp_path, capsys):
    out = tmp_path / "poly.json"
    assert main(["spectral", str(pentagon_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "newton polygon" in printed
    data = json.loads(out.read_text())
    assert data["terms"]


def test_reconstruct_round_trip_cli(pentagon_file, capsys, tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", str(pentagon_file), "--lam", "-1", "--mu", "-1", "--out", str(out)]) == 0
    assert "outcome: Unique" in capsys.readouterr().out
    assert main(["validate", str(out)]) == 0


def test_reconstruct_off_curve_diagnosis(pentagon_file, capsys):
    assert main(["reconstruct", str(pentagon_file), "--lam", "2", "--mu", "3"]) == 1
    assert "EmptyKernel" in capsys.readouterr().out


def test_reconstruct_nonunique_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    assert main(["make-grid-minus-edge", "--out", str(grid)]) == 0
    from dimergeom.fixtures import grid_minus_edge_curve_point, make_grid_minus_edge

    g, white = make_grid_minus_edge()
    lam, mu = grid_minus_edge_curve_point(g, white)
    capsys.readouterr()
    code = main(["reconstruct", str(grid), f"--lam={lam}", f"--mu={mu}"])
    assert code == 1
    assert "NonUnique" in capsys.readouterr().out


def test_experiment_dual_curve(pentagon_file, capsys):
    assert main(["experiment", "dual-curve", str(pentagon_file)]) == 0
    assert "report:" in capsys.readouterr().out


def test_experiment_birationality_probe(pentagon_file, capsys):
    assert main(["experiment", "birationality-probe", str(pentagon_file), "--samples", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "unique" in out


def test_render_byte_stable(pentagon_file, tmp_path):
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", str(pentagon_file), "--out", str(s1), "--box", "-8", "8", "-8", "8"]) == 0
    assert main(["render", str(pentagon_file), "--out", str(s2), "--box", "-8", "8", "-8", "8"]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    text = s1.read_text()
    assert text.count("<circle") == 5
    assert text.count("<line") == 5


def test_render_d3_needs_projection(tmp_path, capsys):
    qf = tmp_path / "qnet.json"
    assert main(["make-qnet", "--out", str(qf)]) == 0
    capsys.readouterr()
    assert main(["render", str(qf), "--out", str(tmp_path / "q.svg")]) == 1
    assert "UnsupportedDimension" in capsys.readouterr().err or True
    assert main(["render", str(qf), "--out", str(tmp_path / "q.svg"), "--project"]) == 0


def test_render_empty_config(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dimension": 2, "scalar": "rational", "white": [], "black": [], "edges": [], "faces": [], "face_ids": []}))
    out = tmp_path / "empty.svg"
    assert main(["render", str(empty), "--out", str(out)]) == 0
    assert "<svg" in out.read_text()


def test_make_spiral_and_validate(tmp_path):
    path = tmp_path / "spiral.json"
    assert main(["make-spiral", "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0


def test_make_qnet_and_run(tmp_path):
    path = tmp_path / "qnet.json"
    assert main(["make-qnet", "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "stepped.json"
    assert main(["run", str(path), "--builtin", "qnet", "--steps", "2", "--verify", "--out", str(out)]) == 0


def test_render_polygon_file(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"points": [["0", "0"], ["4", "0"], ["5", "3"], ["2", "5"]]}))
    out = tmp_path / "poly.svg"
    assert main(["render", str(poly), "--out", str(out), "--box", "-1", "6", "-1", "6"]) == 0
    assert out.read_text().count("<circle") == 4


def _qnet_6x6():
    """Coherent 6x6 Q-net: period-6 sequences on the quadric z = xy paired
    with a central-collineation image, planes from the image's squares."""
    a = 6
    xs = (F(1), F(2), F(4), F(-1), F(3), F(-3))
    ys = (F(1), F(3), F(6), F(-2), F(5), F(-4))
    axis = (F(1, 7), F(2, 7), F(3, 7), F(5, 7))

    def collineate(p):
        x, y, z, w = p.coords
        return HomogeneousElement((x, y, z, w + sum(c * v for c, v in zip(axis, p.coords))), POINT)

    def on_quadric(i, j):
        x, y = xs[i % a], ys[j % a]
        return point(x, y, x * y, 1)

    ring = range(-1, a + 1)
    f = QNetWindow({(i, j): on_quadric(i, j) for i in ring for j in ring if (i + j) % 2 == 0})
    mate = QNetWindow({s: collineate(v) for s, v in f.values.items()})
    period = [(i, j) for i in range(a) for j in range(a)]
    f_one = QNetWindow({s: f[s] for s in period if sum(s) % 2 == 0})
    G = QNetWindow({s: plane_of_quad(mate, s) for s in period if sum(s) % 2 == 1})
    return build_qnet_config(f_one, G, a, a)


def test_run_builtin_qnet_reads_shape_from_config(tmp_path, capsys):
    path = tmp_path / "qnet6.json"
    save_config(_qnet_6x6(), path)
    assert main(["run", str(path), "--builtin", "qnet", "--verify", "--steps", "2"]) == 0
    assert "formulas=match" in capsys.readouterr().out


def test_run_builtin_spiral_honours_k(tmp_path):
    path = tmp_path / "spiral.json"
    assert main(["make-spiral", "--out", str(path)]) == 0
    assert main(["run", str(path), "--builtin", "spiral", "--k", "3", "--verify"]) == 1
