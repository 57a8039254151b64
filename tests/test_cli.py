import ast
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimergeom import cli, pentagram, torusgraph
from dimergeom.cli import main
from dimergeom.config import (
    DoubleCircuitConfig,
    cohomology_class,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from dimergeom.errors import GeometryError, InputError
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_fixture
from dimergeom.geometry import POINT, HomogeneousElement, point
from dimergeom.moves import script_from_json
from dimergeom.qnet import QNetWindow, build_qnet_config, plane_of_quad
from dimergeom.scalars import float_coords, parse_scalar
from dimergeom.torusgraph import canonical_basis_cycles
from helpers import with_walks


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
        (("basis_cycles", "z1", 0), 999),
        (("face_ids",), ["d0"]),
        (("dimension",), 3),
        (("face_ids", 0), {}),
        (("scalar",), "complex"),
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


def test_validate_rejects_basis_of_determinant_zero(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["basis_cycles"]["z2"] = data["basis_cycles"]["z1"]
    bad = tmp_path / "bad_basis.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert "has determinant 0" in capsys.readouterr().out


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


def test_run_verify_names_the_step_that_disagrees_with_the_formula(pentagon_file, monkeypatch, capsys):
    # the direct formula moves one white label: the moves' step 1 disagrees
    formula = pentagram.formula

    def moved_label(c):
        out = formula(c)
        v, x = next(iter(out.white_labels.items()))
        moved = point(x.coords[0] + x.coords[2], *x.coords[1:])
        assert moved != x
        return DoubleCircuitConfig(out.graph, out.d, {**out.white_labels, v: moved}, out.black_labels)

    monkeypatch.setattr(pentagram, "formula", moved_label)
    argv = ["run", str(pentagon_file), "--builtin", "pentagram", "--steps", "2", "--verify"]
    err = "domain error: step 1 disagrees with the direct-formula dynamics\n"
    assert _exit_and_error(argv, capsys) == (1, err)


def test_validate_reports_edges_between_unknown_vertices(tmp_path, capsys):
    # the period lattice is read over the edges between vertices the
    # spanning tree reached; edge 1 joins two unknown ones
    path = tmp_path / "unknown.json"
    edges = [{"w": "W", "b": "B", "h": [0, 0]}, {"w": "X", "b": "Y", "h": [1, 0]}]
    data = {"dimension": 2, "white": [{"id": "W"}], "black": [{"id": "B"}], "edges": edges, "faces": []}
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "INVALID: white=1 black=1 edges=2 faces=0 euler=0\n"
        "  - edge 1: unknown white vertex 'X'\n"
        "  - edge 1: unknown black vertex 'Y'\n"
        "  - edge 0 lies on 0 face slots, expected 2\n"
        "  - edge 1 lies on 0 face slots, expected 2\n"
        "  - period lattice rank 0 != 2\n"
    )


@pytest.mark.parametrize(
    "make, builtin, steps",
    [
        (["make-pentagram", "--n", "7", "--k", "2"], "pentagram", 3),
        (["make-spiral"], "spiral", 4),
        (["make-qnet"], "qnet", 2),
    ],
)
def test_run_builtin_keeps_basis_cycles(tmp_path, monkeypatch, make, builtin, steps):
    # the moves rewrite the stored basis cycles, so the class of a stepped
    # file needs no walk search
    start, out = tmp_path / "start.json", tmp_path / "stepped.json"
    assert main([*make, "--out", str(start)]) == 0
    assert main(["run", str(start), "--builtin", builtin, "--steps", str(steps), "--out", str(out)]) == 0
    assert "basis_cycles" in json.loads(out.read_text())
    c = load_config(out)
    expected = cohomology_class(with_walks(c, *canonical_basis_cycles(c.graph)))
    assert expected == cohomology_class(load_config(start))

    def no_walks(*args, **kwargs):
        raise AssertionError("find_walk called for a stepped configuration")

    monkeypatch.setattr(torusgraph, "find_walk", no_walks)
    assert cohomology_class(c) == expected


def test_run_script_file(pentagon_file, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}]))
    out = tmp_path / "after.json"
    assert main(["run", str(pentagon_file), "--script", str(script), "--out", str(out)]) == 0
    after = load_config(out)
    assert len(after.graph.white_ids) == 7


def test_a_move_cannot_add_a_face_under_an_id_in_use(tmp_path, capsys):
    # renewing d0 adds the face d0:inner; a file that already has a face
    # of that id is valid, and the script fails before it writes anything
    p, dup, script, out = (tmp_path / name for name in ("p.json", "dup.json", "s.json", "o.json"))
    assert main(["make-pentagram", "--n", "7", "--k", "2", "--out", str(p)]) == 0
    data = json.loads(p.read_text())
    data["face_ids"] = ["d0:inner" if f == "d1" else f for f in data["face_ids"]]
    dup.write_text(json.dumps(data))
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}]))
    assert main(["validate", str(dup)]) == 0
    err = "domain error: script step 0 failed: face id 'd0:inner' already in use\n"
    assert _exit_and_error(["run", str(dup), "--script", str(script), "--out", str(out)], capsys) == (1, err)
    assert not out.exists()


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


def test_dual_curve_of_a_float_copy_is_equal(tmp_path, capsys):
    # the two float curves differ in their last bits; the verdict reads
    # each coefficient pair with the float zero test, as the exact file is read
    verdicts = []
    for scalar in ("rational", "float"):
        path = tmp_path / f"{scalar}.json"
        path.write_text(json.dumps({**HEPTAGRAM, "scalar": scalar}))
        assert main(["experiment", "dual-curve", str(path)]) == 0
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
    assert verdicts == ["report: the two normalized polynomials are equal after normalization"] * 2


def test_dual_curve_names_a_missing_black_label_as_validate_does(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    assert main(["make-grid-minus-edge", "--out", str(grid)]) == 0
    capsys.readouterr()
    err = "domain error: black vertex B0x1: missing or invalid hyperplane label\n"
    assert _exit_and_error(["experiment", "dual-curve", str(grid)], capsys) == (1, err)
    assert _exit_and_error(["validate", str(grid)], capsys)[1] == err


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
    assert capsys.readouterr().err == "domain error: cannot render d=3 without a projection\n"
    assert main(["render", str(qf), "--out", str(tmp_path / "q.svg"), "--project"]) == 0


def test_render_and_probe_labels_past_the_float_range(tmp_path, capsys):
    # 30 pentagram steps give coordinates of some 400 digits; both commands
    # read them as floats after an exact power-of-two scaling
    p, p30, svg = tmp_path / "p.json", tmp_path / "p30.json", tmp_path / "p30.svg"
    assert main(["make-pentagram", "--n", "7", "--k", "2", "--out", str(p)]) == 0
    assert main(["run", str(p), "--builtin", "pentagram", "--steps", "30", "--out", str(p30)]) == 0
    big = max(abs(x) for e in load_config(p30).white_labels.values() for x in e.coords)
    assert big > sys.float_info.max
    capsys.readouterr()
    assert main(["render", str(p30), "--out", str(svg)]) == 0
    assert main(["experiment", "birationality-probe", str(p30), "--samples", "2"]) == 0
    out, err = capsys.readouterr()
    assert "report: sampled outcomes over 2 curve points" in out and err == ""
    assert svg.read_text().count("<line") == 7


def test_probe_reads_a_label_rescaled_past_the_float_range(tmp_path, capsys):
    # P0 times 10^400 is the same point of P^2, and the gauge change scales
    # the curve past the float range: the probe divides it back exactly
    p, big = tmp_path / "p.json", tmp_path / "big.json"
    assert main(["make-pentagram", "--n", "7", "--k", "2", "--out", str(p)]) == 0
    data = json.loads(p.read_text())
    p0 = next(w for w in data["white"] if w["id"] == "P0")
    p0["coords"] = [str(F(x) * 10**400) for x in p0["coords"]]
    big.write_text(json.dumps(data))
    reports = []
    for path in (p, big):
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["experiment", "birationality-probe", str(path), "--samples", "3"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1] == ("report: sampled outcomes over 3 curve points: {'unique': 3}\n", "")


def test_float_coords_convert_labels_in_range_as_float_does():
    for coords in ((F(1, 3), F(-7), F(10**300)), (0.5, -2.0, 1e300), (F(1, 10**320), F(0), F(1))):
        assert float_coords(coords) == tuple(map(float, coords))
    assert float_coords((F(3) * 2**2000, F(-1) * 2**1999, F(0))) == (1.5, -0.25, 0.0)
    assert float_coords((F(1, 2**1200), F(3, 2**1201), F(0))) == (1.0, 1.5, 0.0)


def test_render_draws_the_labelled_vertices_only(tmp_path):
    grid, svg = tmp_path / "grid.json", tmp_path / "grid.svg"
    assert main(["make-grid-minus-edge", "--out", str(grid)]) == 0
    assert main(["render", str(grid), "--out", str(svg), "--box", "-50", "50", "-50", "50"]) == 0
    assert svg.read_text().count("<circle") == len(load_config(grid).white_labels) > 0


def test_render_empty_config(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dimension": 2, "scalar": "rational", "white": [], "black": [], "edges": [], "faces": [], "face_ids": []}))
    out = tmp_path / "empty.svg"
    assert main(["render", str(empty), "--out", str(out)]) == 0
    assert "<svg" in out.read_text()


def test_spectral_commands_on_empty_config(tmp_path, capsys):
    """The 0 x 0 Kasteleyn determinant is the constant 1."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dimension": 2, "white": [], "black": [], "edges": [], "faces": []}))
    assert main(["spectral", str(empty)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == '{"terms": [{"dl": 0, "dm": 0, "coeff": "1"}]}'
    assert main(["experiment", "dual-curve", str(empty)]) == 0
    assert main(["experiment", "birationality-probe", str(empty), "--samples", "2"]) == 0
    printed = capsys.readouterr()
    assert "Traceback" not in out + err + printed.out + printed.err


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


def test_chained_spiral_runs_read_the_window_from_the_file(tmp_path):
    s0, s1, s2, direct = (tmp_path / f"{n}.json" for n in ("s0", "s1", "s2", "direct"))
    assert main(["make-spiral", "--out", str(s0)]) == 0
    assert main(["run", str(s0), "--builtin", "spiral", "--out", str(s1)]) == 0
    assert main(["run", str(s1), "--builtin", "spiral", "--out", str(s2)]) == 0
    assert main(["run", str(s0), "--builtin", "spiral", "--steps", "2", "--out", str(direct)]) == 0
    assert s2.read_bytes() == direct.read_bytes()


def test_run_builtin_pentagram_reads_k_from_the_file(tmp_path, capsys):
    path = tmp_path / "p83.json"
    assert main(["make-pentagram", "--n", "8", "--k", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--builtin", "pentagram", "--verify"]) == 0
    assert "verify step 1: formulas=match" in capsys.readouterr().out


@pytest.mark.parametrize("make, builtin", [(["make-pentagram", "--n", "7"], "pentagram"), (["make-spiral"], "spiral")])
def test_a_k_mismatch_exits_one_before_any_move(tmp_path, capsys, monkeypatch, make, builtin):
    from dimergeom import moves

    def no_moves(*args, **kwargs):
        raise AssertionError("a step ran")

    path, out = tmp_path / "start.json", tmp_path / "out.json"
    assert main([*make, "--out", str(path)]) == 0
    monkeypatch.setattr(moves, "step_on_config", no_moves)
    capsys.readouterr()
    assert main(["run", str(path), "--builtin", builtin, "--k", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "domain error: --k 3 does not match the configuration's k = 2\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "make, mutate, builtin",
    [
        (["make-pentagram", "--n", "7"], None, "spiral"),
        (["make-spiral"], None, "pentagram"),
        (["make-qnet"], None, "pentagram"),
        (["make-qnet"], None, "spiral"),
        (["make-pentagram", "--n", "7"], ("P3", "Px"), "pentagram"),
        (["make-spiral"], ("q3", "qx"), "spiral"),
        (["make-pentagram", "--n", "7"], ('"id": "q2", "coords"', '"id": "q2", "none"'), "pentagram"),
        (["make-spiral"], ('"id": "P0", "coords"', '"id": "P0", "none"'), "spiral"),
    ],
    ids=["pentagram-as-spiral", "spiral-as-pentagram", "qnet-as-pentagram", "qnet-as-spiral",
         "id-Px", "id-qx", "unlabelled-q2", "unlabelled-P0"],
)
def test_files_of_another_shape_exit_one_with_one_line(tmp_path, capsys, make, mutate, builtin):
    # mutate is a text replacement in the written file: an id renamed, or a
    # vertex's coords key renamed away so that it carries no label
    path = tmp_path / "start.json"
    assert main([*make, "--out", str(path)]) == 0
    if mutate:
        text = json.dumps(json.loads(path.read_text()))
        assert mutate[0] in text
        path.write_text(text.replace(mutate[0], mutate[1]))
    capsys.readouterr()
    assert main(["run", str(path), "--builtin", builtin, "--verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1


def test_a_spiral_file_under_pentagram_is_named_a_spiral(tmp_path, capsys):
    path = tmp_path / "spiral.json"
    assert main(["make-spiral", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--builtin", "pentagram", "--verify"]) == 1
    assert capsys.readouterr().err == "domain error: hexagon faces ['h0', 'h4', 'h5']: a spiral, not a pentagram\n"


@pytest.mark.parametrize("builtin, family", [("pentagram", "pentagram"), ("spiral", "spiral"), ("qnet", "Q-net")])
def test_the_empty_configuration_exits_one_under_each_family(tmp_path, capsys, builtin, family):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dimension": 2, "white": [], "black": [], "edges": [], "faces": [], "face_ids": []}))
    assert main(["validate", str(empty)]) == 0
    capsys.readouterr()
    assert main(["run", str(empty), "--builtin", builtin, "--verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert family in err


@pytest.mark.parametrize("make, how", [("make-qnet", ["--builtin", "qnet"]), ("make-pentagram", ["--script", "SCRIPT"])])
def test_k_exits_two_where_there_is_no_diagonal_parameter(tmp_path, capsys, monkeypatch, make, how):
    from dimergeom import moves

    def no_moves(*args, **kwargs):
        raise AssertionError("a move ran")

    path, script, out = tmp_path / "start.json", tmp_path / "script.json", tmp_path / "out.json"
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}]))
    assert main([make, "--out", str(path)]) == 0
    monkeypatch.setattr(moves, "step_on_config", no_moves)
    monkeypatch.setattr(moves, "apply_script", no_moves)
    capsys.readouterr()
    argv = ["run", str(path), *(str(script) if a == "SCRIPT" else a for a in how), "--k", "3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --k applies to --builtin pentagram and spiral only\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "FILE", "--lam=0", "--mu=-1"],
        ["reconstruct", "FILE", "--lam=-1", "--mu=0"],
        ["run", "FILE", "--builtin", "pentagram", "--steps", "-1"],
        ["run", "FILE", "--builtin", "pentagram", "--script", "FILE"],
    ],
)
def test_bad_arguments_exit_two_with_one_line(pentagon_file, capsys, argv):
    capsys.readouterr()
    assert main([str(pentagon_file) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["validate", "spectral"])
def test_duplicate_face_ids_are_invalid(pentagon_file, tmp_path, capsys, cmd):
    data = json.loads(pentagon_file.read_text())
    data["face_ids"][1] = data["face_ids"][0]
    bad = tmp_path / "duplicate_face.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([cmd, str(bad)]) == 1
    assert "duplicate face ids" in capsys.readouterr().out


@pytest.mark.parametrize("side, violation", [("white", "duplicate vertex ids"), ("black", "ids in both colors: ['P0']")])
def test_a_vertex_id_given_twice_is_invalid(pentagon_file, tmp_path, capsys, side, violation):
    data = json.loads(pentagon_file.read_text())
    data[side].append(dict(data["white"][0]))  # a second entry with the id P0
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert f"  - {violation}\n" in capsys.readouterr().out


def test_a_file_that_is_not_utf8_exits_two_naming_it(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"dimension": 2, "white": [{"id": "\u00e9"}]}'.encode("latin-1"))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text (") and err.count("\n") == 1


@pytest.mark.parametrize("how", [["--builtin", "pentagram"], ["--script", "SCRIPT"]])
def test_verify_names_the_first_violation_of_a_bad_input(tmp_path, capsys, how):
    # P0's first coordinate moved by 1: the input already fails (F) at d0,
    # d5 and s6, so the failure is the input's, not step 1's
    path, script, out = tmp_path / "p.json", tmp_path / "script.json", tmp_path / "o.json"
    assert main(["make-pentagram", "--n", "7", "--k", "2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["white"][0]["coords"][0] = str(F(data["white"][0]["coords"][0]) + 1)
    path.write_text(json.dumps(data))
    script.write_text(json.dumps(README_SCRIPT))
    capsys.readouterr()
    assert main(["run", str(path), *(str(script) if a == "SCRIPT" else a for a in how), "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "domain error: input fails verification: face d0: multi-ratio != 1 (is 329/307)\n"
    assert captured.out == "" and not out.exists()


def test_verify_names_the_first_violation_after_a_step(pentagon_file, tmp_path, capsys, monkeypatch):
    from dimergeom import pentagram

    def bad_step(c):
        # a step that moves P0's first coordinate by 1 breaks (F)
        c = pentagram.pentagram_step_on_config(c, 2)
        p0 = c.white_labels["P0"]
        moved = HomogeneousElement((p0.coords[0] + 1, *p0.coords[1:]), POINT)
        return type(c)(c.graph, c.d, {**c.white_labels, "P0": moved}, c.black_labels)

    monkeypatch.setattr(pentagram, "step", bad_step)
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main(["run", str(pentagon_file), "--builtin", "pentagram", "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "domain error: verification failed after step 1: face d3: multi-ratio != 1 (is 391/386)\n"
    assert captured.out == "" and not out.exists()


def test_run_validates_the_graph(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["face_ids"][1] = data["face_ids"][0]
    bad = tmp_path / "duplicate_face.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main(["run", str(bad), "--builtin", "pentagram", "--steps", "0", "--out", str(out)]) == 1
    assert "duplicate face ids" in capsys.readouterr().out
    assert not out.exists()


_ADD2 = {"op": "add2", "target": "q1", "partition": [0, 2]}


@pytest.mark.parametrize(
    "script",
    [
        5,
        [5],
        ["x"],
        [{"target": "d0"}],
        [{"op": "flip", "target": "d0"}],
        [{"op": "urban", "target": 0}],
        [{"op": "urban"}],
        [{**_ADD2, "label": "123"}],
        [{**_ADD2, "label": ["1", "2"]}],
        [{**_ADD2, "label": ["1", "2", "3", "4"]}],
        [{**_ADD2, "label": ["1", "2", "3"], "partition": ["a", "b"]}],
    ],
)
def test_malformed_script_exits_two_with_one_line(pentagon_file, tmp_path, capsys, script):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main(["run", str(pentagon_file), "--script", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _exit_and_error(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("scalar", ["rational", "float"])
def test_boolean_coordinates_exit_two_naming_the_value(pentagon_file, tmp_path, capsys, scalar):
    # a JSON true is not the number 1: not as a label coordinate, not in
    # an add2 label
    data = json.loads(pentagon_file.read_text())
    data["scalar"] = scalar
    data["white"][1]["coords"][0] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{**_ADD2, "label": [True, "2", "3"]}]))
    reason = "bad scalar True: a boolean is not a number"
    for argv, place in (
        (["validate", str(bad)], "point P1"),
        (["run", str(pentagon_file), "--script", str(script)], "script step 0: add2 label"),
    ):
        assert _exit_and_error(argv, capsys) == (2, f"error: {place}: {reason}\n")


def test_float_values_past_the_float_range_exit_two_naming_the_value(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["scalar"] = "float"
    floats = tmp_path / "float.json"
    floats.write_text(json.dumps(data))
    script, out = tmp_path / "script.json", tmp_path / "o.json"
    script.write_text(json.dumps([{**_ADD2, "label": ["1e400", "2", "3"]}]))
    for argv, place in (
        (["reconstruct", str(floats), "--lam=1e400", "--mu=1"], ""),
        (["run", str(floats), "--script", str(script), "--out", str(out)], "script step 0: add2 label: "),
    ):
        assert _exit_and_error(argv, capsys) == (2, f"error: {place}bad scalar '1e400'\n")
    assert not out.exists()


def test_malformed_label_scalar_names_the_vertex(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["black"][3]["coords"][1] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert _exit_and_error(["validate", str(bad)], capsys) == (2, "error: hyperplane q3: bad scalar 'x'\n")


@pytest.mark.parametrize("cmd", ["validate", "spectral"])
@pytest.mark.parametrize("side, vertex", [("white", "point P0"), ("black", "hyperplane q0")])
@pytest.mark.parametrize("coords", ["601", 7, {"x": "1"}])
def test_coords_that_are_no_list_exit_two_naming_the_vertex(pentagon_file, tmp_path, capsys, cmd, side, vertex, coords):
    # a string of d + 1 digits is not read one character at a time
    data = json.loads(pentagon_file.read_text())
    data[side][0]["coords"] = coords
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    err = f"error: {vertex}: coords must be a list, got {coords!r}\n"
    assert _exit_and_error([cmd, str(bad)], capsys) == (2, err)


@pytest.mark.parametrize("cmd", ["validate", "spectral"])
@pytest.mark.parametrize("value", [[1, 2], "z", {"z1": [0]}, {"z1": 3, "z2": [0]}, [], 0, "", {}])
def test_malformed_basis_cycles_exit_two_naming_the_field(pentagon_file, tmp_path, capsys, cmd, value):
    data = json.loads(pentagon_file.read_text())
    data["basis_cycles"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    err = "error: basis_cycles: expected an object with z1 and z2 edge lists\n"
    assert _exit_and_error([cmd, str(bad)], capsys) == (2, err)


def test_malformed_add2_scalar_names_the_script_step(pentagon_file, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}, {**_ADD2, "label": ["1", "x", "3"]}]))
    err = "error: script step 1: add2 label: bad scalar 'x'\n"
    assert _exit_and_error(["run", str(pentagon_file), "--script", str(script)], capsys) == (2, err)


def test_malformed_points_scalar_names_the_entry(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[1, 2], [3, "x"]]}))
    svg = tmp_path / "points.svg"
    err = "error: points entry 1: bad scalar 'x'\n"
    assert _exit_and_error(["render", str(points), "--out", str(svg)], capsys) == (2, err)
    assert not svg.exists()


def test_all_zero_labels_exit_two_naming_the_entry(pentagon_file, tmp_path, capsys):
    data = json.loads(pentagon_file.read_text())
    data["black"][2]["coords"] = ["0", "0", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["validate", str(bad)], ["run", str(bad), "--builtin", "pentagram"]):
        assert _exit_and_error(argv, capsys) == (2, "error: hyperplane q2: all coordinates vanish: ['0', '0', '0']\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "urban", "target": "d0"}, {**_ADD2, "label": ["0", "0", "0"]}]))
    err = "error: script step 1: add2 label: all coordinates vanish: ['0', '0', '0']\n"
    assert _exit_and_error(["run", str(pentagon_file), "--script", str(script)], capsys) == (2, err)
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[1, 2], [0, 0, 0]]}))
    svg = tmp_path / "points.svg"
    err = "error: points entry 1: all coordinates vanish: [0, 0, 0]\n"
    assert _exit_and_error(["render", str(points), "--out", str(svg)], capsys) == (2, err)
    assert not svg.exists()


@pytest.mark.parametrize("side", ["white", "black"])
@pytest.mark.parametrize("value", [True, 5, None, 1.5])
def test_non_string_vertex_ids_exit_two_naming_the_entry(pentagon_file, tmp_path, capsys, side, value):
    # an id that is no string is malformed input, not an invalid graph, and
    # never reaches the renderer's sort of the vertex ids
    data = json.loads(pentagon_file.read_text())
    data[side][0]["id"] = value
    bad, svg = tmp_path / "bad.json", tmp_path / "bad.svg"
    bad.write_text(json.dumps(data))
    err = f"error: {side} entry 0: id must be a string, got {value!r}\n"
    for argv in (
        ["validate", str(bad)],
        ["render", str(bad), "--out", str(svg)],
        ["spectral", str(bad)],
        ["run", str(bad), "--builtin", "pentagram"],
    ):
        assert _exit_and_error(argv, capsys) == (2, err)
    assert not svg.exists()


def test_spectral_on_float_data(tmp_path, capsys):
    """A float copy of the Q-net fixture gives float coefficients with the
    exact support and Newton polygon, each within 1e-12 relative."""
    _, _, c = make_qnet_fixture()
    exact_file, float_file = tmp_path / "exact.json", tmp_path / "float.json"
    save_config(c, exact_file)
    data = config_to_dict(c)
    data["scalar"] = "float"
    float_file.write_text(json.dumps(data))
    outputs = []
    for path in (exact_file, float_file):
        capsys.readouterr()
        assert main(["spectral", str(path)]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    (exact_json, exact_polygon), (float_json, float_polygon) = outputs
    exact = {(t["dl"], t["dm"]): F(t["coeff"]) for t in json.loads(exact_json)["terms"]}
    approx = {(t["dl"], t["dm"]): t["coeff"] for t in json.loads(float_json)["terms"]}
    assert float_polygon == exact_polygon and set(approx) == set(exact)
    for key, want in exact.items():
        assert "/" not in approx[key] and abs(float(approx[key]) - want) <= 1e-12 * abs(want)


README_SCRIPT = [
    {"op": "urban", "target": "d0"},
    {"op": "add2", "target": "q1", "label": ["1", "2", "3"], "partition": [0, 2]},
    {"op": "remove2", "target": "q1~"},
]


def test_readme_move_script_runs(pentagon_file, tmp_path):
    # add2 at a black vertex takes a point label; remove2 undoes the split
    script = tmp_path / "script.json"
    script.write_text(json.dumps(README_SCRIPT))
    out = tmp_path / "after.json"
    assert main(["run", str(pentagon_file), "--script", str(script), "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, child in items for p in _leaf_paths(child, path + (key,))]
    return [path]


HEPTAGRAM = config_to_dict(make_pentagram_fixture(7, 2)[3])


def _run_quietly(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


LEAF_VALUES = [None, 0, -1, 1e300, "x", [], {}, "1/0"]


def _mutated(data, path, value):
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@settings(max_examples=40, deadline=None)
@given(
    path=st.sampled_from(_leaf_paths(HEPTAGRAM)),
    value=st.sampled_from(LEAF_VALUES),
    cmd=st.sampled_from([["validate"], ["spectral"], ["run", "--builtin", "pentagram", "--steps", "1"]]),
)
def test_mutated_leaf_exits_cleanly(path, value, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "mutated.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(_mutated(HEPTAGRAM, path, value), fh)
        assert _run_quietly([cmd[0], bad, *cmd[1:]]) in (0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(_leaf_paths(README_SCRIPT)), value=st.sampled_from(LEAF_VALUES + ["d1", "P0", "q1"]))
def test_mutated_script_leaf_exits_cleanly(path, value):
    pentagon = config_to_dict(make_pentagram_fixture(5, 2)[3])
    with tempfile.TemporaryDirectory() as tmp:
        config, script = os.path.join(tmp, "pent.json"), os.path.join(tmp, "script.json")
        for name, data in ((config, pentagon), (script, _mutated(README_SCRIPT, path, value))):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        assert _run_quietly(["run", config, "--script", script]) in (0, 1, 2)


@pytest.mark.parametrize(
    "path, value, err",
    [
        (("white", 0), ["P0"], "white entry 0: expected an object with an id, got ['P0']"),
        (("white",), {"id": "P0"}, "white: expected a list, not dict"),
        (("faces", 0), {"e": 1}, "face d0: expected a list of vertex ids or of edge refs, got {'e': 1}"),
        (("edges", 0), "P0q0", "edge 0: expected an object with w, b and h, got 'P0q0'"),
        (("face_ids",), "d0d1", "face_ids must be a list of strings"),
        (("faces", 0), "P0q0P2q4", "face d0: expected a list of vertex ids or of edge refs, got 'P0q0P2q4'"),
        (("face_ids",), [], "0 face_ids for 14 faces"),
    ],
    ids=["white-entry-list", "white-object", "face-object", "edge-string", "face-ids-string", "face-string", "face-ids-empty"],
)
def test_malformed_structures_exit_two_naming_the_field(tmp_path, capsys, path, value, err):
    bad = tmp_path / "heptagram.json"
    bad.write_text(json.dumps(_mutated(HEPTAGRAM, path, value)))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("edges", 0, "h"), [0.5, 0], "edge 0 h"),
        (("edges", 0, "h"), [0, 0, 7], "edge 0 h"),
        (("edges", 0, "h"), [True, 0], "edge 0 h"),
        (("edges", 0, "h"), ["1", 0], "edge 0 h"),
        (("dimension",), 2.9, "dimension"),
        (("dimension",), "2", "dimension"),
        (("basis_cycles", "z1", 0), HEPTAGRAM["basis_cycles"]["z1"][0] + 0.5, "basis_cycles z1"),
        (("faces", 0), [{"e": 0.5}, {"e": 0}], "face d0 edge refs"),
    ],
)
def test_non_integer_numbers_exit_two_naming_the_field(tmp_path, capsys, path, value, field):
    bad = tmp_path / "heptagram.json"
    bad.write_text(json.dumps(_mutated(HEPTAGRAM, path, value)))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ") and err.count("\n") == 1


def test_domain_key_error_is_not_an_input_error(pentagon_file, monkeypatch):
    # exit 2 is for malformed input only; a KeyError inside the engine is a
    # bug and must surface as one
    def broken(c):
        raise KeyError("inside check_V")

    monkeypatch.setattr(cli, "check_V", broken)
    with pytest.raises(KeyError, match="inside check_V"):
        main(["validate", str(pentagon_file)])


def test_input_errors_are_value_errors():
    assert issubclass(InputError, ValueError) and not issubclass(InputError, GeometryError)
    with pytest.raises(InputError):
        config_from_dict({"dimension": "x", "white": [], "black": [], "edges": []})
    with pytest.raises(InputError):
        script_from_json([{"op": "flip", "target": "d0"}])
    with pytest.raises(InputError):
        parse_scalar("1/0")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "FILE", "--builtin", "spiral", "--k", "0"],
        ["render", "FILE", "--out", "SVG", "--box", "nan", "1", "0", "1"],
        ["make-pentagram", "--params", "1/0", "--out", "SVG"],
        ["experiment", "birationality-probe", "FILE", "--samples", "0"],
        ["experiment", "birationality-probe", "FILE", "--samples", "-1"],
        ["render", "FILE", "--out", "SVG", "--box", "0", "1e-320", "0", "1"],  # an infinite pixel height
        ["render", "FILE", "--out", "SVG", "--box", "0", "1", "0", "1e-300"],  # a pixel height of 0
    ],
)
def test_bad_values_exit_two(pentagon_file, tmp_path, capsys, argv):
    svg = tmp_path / "out.svg"
    capsys.readouterr()
    assert main([str(pentagon_file) if a == "FILE" else str(svg) if a == "SVG" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


@pytest.mark.parametrize("n, k", [(5, 5), (5, 0), (7, 14), (7, 1)])
def test_make_pentagram_checks_k_before_the_geometry(tmp_path, capsys, n, k):
    out = tmp_path / "pent.json"
    assert main(["make-pentagram", "--n", str(n), "--k", str(k), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"domain error: need 2 <= k <= n-2, got k={k}, n={n}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "GRID", "--builtin", "qnet"],
        ["run", "FILE", "--builtin", "qnet"],
        ["run", "EMPTY", "--builtin", "spiral"],
        ["experiment", "dual-curve", "GRID"],
    ],
)
def test_wrong_shapes_are_domain_errors(pentagon_file, tmp_path, capsys, argv):
    grid, empty, svg = (str(tmp_path / n) for n in ("grid.json", "empty.json", "out.svg"))
    assert main(["make-grid-minus-edge", "--out", grid]) == 0
    with open(empty, "w", encoding="utf-8") as fh:
        json.dump({"dimension": 2, "white": [], "black": [], "edges": []}, fh)
    paths = {"FILE": str(pentagon_file), "GRID": grid, "EMPTY": empty, "SVG": svg}
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("domain error: ")


@settings(max_examples=20, deadline=None)
@given(
    lam=st.one_of(st.just(F(0)), st.fractions(-6, 6, max_denominator=9)),
    mu=st.one_of(st.just(F(0)), st.fractions(-6, 6, max_denominator=9)),
)
def test_reconstruct_any_rational_point_exits_cleanly(lam, mu):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "heptagram.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(HEPTAGRAM, fh)
        assert _run_quietly(["reconstruct", path, f"--lam={lam}", f"--mu={mu}"]) in (0, 1, 2)


# runs cli.main in a fresh interpreter, then prints the modules it loaded
_LOADED_MODULES = (
    "import sys\n"
    "from dimergeom import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(sorted(m for m in sys.modules if m.startswith('dimergeom') or m == 'numpy'))\n"
    "sys.exit(code)\n"
)
_NOT_FOR_VALIDATE = ("moves", "spectral", "laurent", "render", "fixtures", "pentagram", "qnet", "spiral", "numpy")
_NOT_FOR_QNET = ("moves", "spectral", "pentagram", "spiral", "render")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["validate", "FILE"], _NOT_FOR_VALIDATE),
        (["validate", "BROKEN"], _NOT_FOR_VALIDATE),
        (["render", "FILE", "--out", "SVG"], ("moves", "spectral", "laurent")),
        (["make-pentagram", "--n", "7", "--out", "OUT"], ("moves", "spectral", "qnet", "spiral", "render")),
        (["make-qnet", "--out", "OUT"], _NOT_FOR_QNET),
        (["make-grid-minus-edge", "--out", "OUT"], _NOT_FOR_QNET),
        (["run", "SPIRAL", "--builtin", "spiral", "--verify", "--out", "OUT"], ("fixtures", "spectral")),
        (["run", "QNET", "--builtin", "qnet", "--verify"], ("pentagram", "spiral", "spectral", "fixtures")),
        (["experiment", "birationality-probe", "FILE", "--samples", "2"], ("numpy", "moves", "render", "fixtures")),
    ],
    ids=[
        "validate", "malformed", "render", "make-pentagram", "make-qnet", "make-grid-minus-edge", "run-spiral",
        "run-qnet", "birationality-probe",
    ],
)
def test_each_command_imports_only_what_it_runs(pentagon_file, tmp_path, argv, unused):
    broken = tmp_path / "broken.json"
    broken.write_text("{'this is not json")
    paths = {"FILE": pentagon_file, "BROKEN": broken, "SVG": tmp_path / "out.svg", "OUT": tmp_path / "out.json"}
    for name in {"SPIRAL", "QNET"}.intersection(argv):
        paths[name] = tmp_path / f"{name.lower()}.json"
        assert main([f"make-{name.lower()}", "--out", str(paths[name])]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *(str(paths.get(a, a)) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == (2 if "BROKEN" in argv else 0), proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert "dimergeom.cli" in loaded
    assert [m for m in unused if m in loaded or f"dimergeom.{m}" in loaded] == []
