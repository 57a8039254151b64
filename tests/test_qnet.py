from fractions import Fraction as F

import pytest

from dimergeom.config import (
    DoubleCircuitConfig,
    check_F,
    check_V,
    cohomology_class,
)
from dimergeom.errors import BadParameters, CoincidentLines, NotQNet, NotQStarNet
from dimergeom.fixtures import (
    QNET_A,
    QNET_B,
    make_qnet_fixture,
    make_qnet_windows,
)
from dimergeom.geometry import HYPERPLANE, HomogeneousElement, point, proj_equal
from dimergeom.qnet import (
    QNetWindow,
    build_qnet_config,
    build_qnet_graph,
    build_qnet_tile_graph,
    config_plane_window,
    config_point_window,
    dual_laplace,
    dual_laplace_transposed,
    laplace,
    laplace_transposed,
    periodic_extension,
    plane_of_quad,
    qnet_step_on_config,
    qstar_points,
    _config_white_parity,
)
from dimergeom import qnet, torusgraph
from dimergeom.torusgraph import validate_graph
from helpers import class_equal, is_f_transform, is_qnet, make_window_fixture


def linear_net(span=range(-3, 5)):
    return QNetWindow(
        {(i, j): point(i, j, i * j, 1) for i in span for j in span if (i + j) % 2 == 0}
    )


def test_separable_net_is_qnet():
    # all quads lie in the planes z = j x + i y - i j
    assert is_qnet(linear_net()) == []


def test_laplace_infinite_point_example():
    f = linear_net()
    out = laplace(f)
    assert proj_equal(out[(1, 0)], point(1, -1, -1, 0))
    assert is_qnet(out) == []


def test_laplace_output_parity_flips():
    f = linear_net()
    assert f.parity == 0
    assert laplace(f).parity == 1


def test_planar_net_degenerates_at_second_transform():
    # f(i,j) = (i, j, 0): the first transform exists (parallel side lines
    # meet at infinity) and is constant; the second hits coincident lines
    f = QNetWindow(
        {(i, j): point(i, j, 0, 1) for i in range(-4, 6) for j in range(-4, 6) if (i + j) % 2 == 0}
    )
    out = laplace(f)
    vals = {str(v) for v in out.values.values()}
    assert vals == {"(1:-1:0:0)"}
    with pytest.raises(CoincidentLines):
        laplace(out)


def test_coincident_lines_name_the_measured_rank():
    constant = QNetWindow({(i, j): point(1, -1, 0, 0) for i in range(-2, 3) for j in range(-2, 3) if (i + j) % 2})
    with pytest.raises(CoincidentLines, match=r"degenerate side points \(side spans of rank 1 and 1\)"):
        laplace(constant)
    # distinct points on one line: the side lines are that line
    collinear = QNetWindow({(i, j): point(i + 2 * j, 0, 0, 1) for i in range(-2, 3) for j in range(-2, 3) if (i + j) % 2 == 0})
    with pytest.raises(CoincidentLines, match=r"the two lines coincide \(meet has rank 2\)"):
        laplace(collinear)


def test_not_qnet_rejected():
    vals = {(i, j): point(i, j, i * j, 1) for i in range(-2, 4) for j in range(-2, 4) if (i + j) % 2 == 0}
    vals[(0, 0)] = point(5, 7, 11, 1)  # off the quadric: breaks coplanarity
    w = QNetWindow(vals)
    assert is_qnet(w) != []
    with pytest.raises(NotQNet):
        laplace(w)


@pytest.mark.parametrize(
    "transform, planes, message",
    [
        (laplace, True, "laplace acts on point windows; use dual_laplace for planes"),
        (laplace_transposed, True, "laplace_transposed acts on point windows"),
        (dual_laplace, False, "dual_laplace acts on plane windows"),
        (dual_laplace_transposed, False, "dual_laplace_transposed acts on plane windows"),
    ],
)
def test_laplace_transforms_refuse_the_other_kind(transform, planes, message):
    f, G, _ = make_qnet_fixture()
    with pytest.raises(BadParameters) as err:
        transform(G if planes else f)
    assert str(err.value) == message


def test_mixed_parity_window_rejected():
    with pytest.raises(BadParameters):
        QNetWindow({(0, 0): point(1, 1, 1, 1), (1, 0): point(1, 2, 3, 1)})


def test_qstar_points_and_dual_laplace_lemma():
    # plane window dual to a Q-net; the evolution lemma:
    # qstar(dual_laplace(G)) == laplace(qstar(G))
    f, g_mate = make_qnet_windows(range(-5, 7), range(-5, 7))
    G = QNetWindow(
        {
            (i, j): plane_of_quad(g_mate, (i, j))
            for i in range(-4, 6)
            for j in range(-4, 6)
            if (i + j) % 2 == 1
        }
    )
    gs = qstar_points(G)
    assert is_qnet(gs) == []
    assert all(proj_equal(gs[s], g_mate[s]) for s in gs.sites())
    lhs = qstar_points(dual_laplace(G))
    rhs = laplace(gs)
    shared = sorted(set(lhs.sites()) & set(rhs.sites()))
    assert shared
    assert all(proj_equal(lhs[s], rhs[s]) for s in shared)


def test_qstar_failure_reported():
    # four planes in general position share no point
    vals = {
        (0, 1): HomogeneousElement((F(1), F(0), F(0), F(0)), HYPERPLANE),
        (1, 0): HomogeneousElement((F(0), F(1), F(0), F(0)), HYPERPLANE),
        (2, 1): HomogeneousElement((F(0), F(0), F(1), F(0)), HYPERPLANE),
        (1, 2): HomogeneousElement((F(1), F(1), F(1), F(1)), HYPERPLANE),
    }
    G = QNetWindow(vals)
    with pytest.raises(NotQStarNet):
        qstar_points(G)


def test_f_transform_pair():
    f, g = make_qnet_windows()
    assert is_f_transform(f, g)


def test_f_transform_broken_by_perturbation():
    f, g = make_qnet_windows()
    vals = dict(g.values)
    some = next(iter(vals))
    vals[some] = point(3, 1, 4, 1)
    assert not is_f_transform(f, QNetWindow(vals))


def test_two_layers_of_3d_net_are_f_transforms():
    # layers t and t+1 of the cube-consistent net: f, and its mate
    f, g = make_qnet_windows()
    assert is_qnet(f) == [] and is_qnet(g) == []
    assert is_f_transform(f, g)


def test_window_fixture_survives_four_laplace_steps():
    f, g = make_window_fixture(7)
    hit_infinity = False
    for step in range(4):
        assert is_qnet(f) == [] and is_qnet(g) == []
        assert is_f_transform(f, g)
        f, g = laplace(f), laplace(g)
        hit_infinity = hit_infinity or any(
            v.coords[3] == 0 for v in f.values.values()
        )
    assert is_qnet(f) == [] and is_qnet(g) == []
    assert is_f_transform(f, g)
    assert hit_infinity  # at least one intersection at infinity occurred


def test_build_qnet_config_valid():
    f, G, c = make_qnet_fixture()
    assert validate_graph(c.graph).ok
    assert check_V(c).ok and check_F(c).ok


def test_condition_V_iff_nets():
    f, G, c = make_qnet_fixture()
    wl = dict(c.white_labels)
    wl["W0x0"] = point(9, 1, 17, 1)  # breaks the coplanarity around it
    broken = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
    assert not check_V(broken).ok


def test_condition_F_iff_f_transform():
    f, G, c = make_qnet_fixture()
    bl = dict(c.black_labels)
    some = next(iter(bl))
    bl[some] = HomogeneousElement((F(1), F(2), F(3), F(40)), HYPERPLANE)
    broken = DoubleCircuitConfig(c.graph, c.d, c.white_labels, bl)
    rep = check_F(broken)
    assert not rep.ok


def test_step_script_realizes_laplace_both_parities():
    f, G, c = make_qnet_fixture()
    a, b = QNET_A, QNET_B
    for step_parity_choice in ("down", "up"):
        fwin = periodic_extension(config_point_window(c), a, b, 1)
        Gwin = periodic_extension(config_plane_window(c), a, b, 1)
        wp = _config_white_parity(c)
        parity = (1 - wp) if step_parity_choice == "down" else wp
        nxt = qnet_step_on_config(c, a, b, parity)
        assert validate_graph(nxt.graph).ok
        assert check_V(nxt).ok and check_F(nxt).ok
        if step_parity_choice == "down":
            fl, Gl = laplace(fwin), dual_laplace(Gwin)
        else:
            fl, Gl = laplace_transposed(fwin), dual_laplace_transposed(Gwin)
        w1, p1 = config_point_window(nxt), config_plane_window(nxt)
        assert all(proj_equal(w1[s], fl[s]) for s in w1.sites())
        assert all(proj_equal(p1[s], Gl[s]) for s in p1.sites())


def test_four_alternating_steps_on_torus():
    _, _, c = make_qnet_fixture()
    cls = cohomology_class(c)
    cur = c
    for _ in range(4):
        cur = qnet.step(cur)
        assert check_V(cur).ok and check_F(cur).ok
        assert class_equal(cohomology_class(cur), cls)


def test_periodicity_validation():
    f, G, _ = make_qnet_fixture()
    vals = dict(f.values)
    vals[(0 + QNET_A, 0)] = point(1, 2, 3, 5)  # contradicts periodic repeat of (0,0)
    bad = QNetWindow(vals)
    with pytest.raises(BadParameters):
        build_qnet_config(bad, G, QNET_A, QNET_B)


def test_graph_shape_bounds():
    with pytest.raises(BadParameters):
        build_qnet_graph(3, 4)
    with pytest.raises(BadParameters):
        build_qnet_graph(4, 2)


def test_step_renames_against_the_tile_graph_without_cover_walks(monkeypatch):
    tile, g = build_qnet_tile_graph(6, 4, 1), build_qnet_graph(6, 4, 1)
    assert tile.basis_cycles is None
    assert (tile.white_ids, tile.black_ids, tile.edges, tile.faces) == (g.white_ids, g.black_ids, g.edges, g.faces)

    def no_search(*args):
        raise AssertionError("a Q-net step searched the cover for a walk")

    _, _, c = make_qnet_fixture()
    monkeypatch.setattr(torusgraph, "find_walk", no_search)
    assert qnet_step_on_config(c, QNET_A, QNET_B, 0).graph.basis_cycles is not None


def test_laplace_commutes_with_projective_maps():
    import random

    from dimergeom import linalg

    rng = random.Random(5)
    while True:
        M = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if linalg.det(M) != 0:
            break

    def act(p):
        return HomogeneousElement(
            tuple(sum(M[i][j] * p.coords[j] for j in range(4)) for i in range(4)), p.kind
        )

    f = linear_net(range(-3, 5))
    mapped = QNetWindow({k: act(v) for k, v in f.values.items()})
    lhs = laplace(mapped)
    rhs = laplace(f)
    assert all(proj_equal(lhs[s], act(rhs[s])) for s in rhs.sites())
