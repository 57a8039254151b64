import math
import random
from fractions import Fraction as F

import pytest

from dimergeom.config import check_F, check_V, labels_projectively_equal
from dimergeom.errors import BadParameters, DegenerateIntersection, SizeMismatch
from dimergeom.fixtures import make_pentagram_fixture
from dimergeom.geometry import affine_point, point, proj_equal
from dimergeom.pentagram import (
    LineList,
    Polygon,
    build_pentagram_config,
    dual_pentagram_map,
    is_inscribed,
    lines_from_vertices,
    pentagram_map,
    pentagram_step_on_config,
    vertices_from_lines,
)
from dimergeom.torusgraph import validate_graph


def test_regular_pentagon_maps_to_regular_pentagon():
    n = 5
    verts = [affine_point(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]
    P = Polygon(tuple(verts))
    P1 = pentagram_map(P, 2)
    # image vertices lie on a common circle, shrunk by the exact factor
    radii = [math.hypot(float(v.coords[0] / v.coords[2]), float(v.coords[1] / v.coords[2])) for v in P1.vertices]
    assert max(radii) - min(radii) < 1e-9
    # regular pentagon: T contracts by 1/golden^2-ish factor; just check
    # the image is again regular (equal side lengths)
    def aff(v):
        return (float(v.coords[0] / v.coords[2]), float(v.coords[1] / v.coords[2]))

    sides = []
    for i in range(n):
        a, b = aff(P1[i]), aff(P1[i + 1])
        sides.append(math.hypot(a[0] - b[0], a[1] - b[1]))
    assert max(sides) - min(sides) < 1e-9
    assert radii[0] < 1.0


def test_k_out_of_range():
    P = Polygon(tuple(affine_point(i, i * i) for i in range(5)))
    with pytest.raises(BadParameters):
        pentagram_map(P, 1)
    with pytest.raises(BadParameters):
        pentagram_map(P, 4)


def test_degenerate_intersection_reported():
    P = Polygon((affine_point(0, 0), affine_point(1, 0), affine_point(0, 0), affine_point(1, 0), affine_point(2, 2)))
    with pytest.raises(DegenerateIntersection):
        pentagram_map(P, 2)


def test_is_inscribed_size_mismatch():
    P = Polygon(tuple(affine_point(i, i * i) for i in range(5)))
    Q = Polygon(tuple(affine_point(i, i) for i in range(6)))
    with pytest.raises(SizeMismatch):
        is_inscribed(Q, P)


def test_circumscribed_pair_inscribed_and_perturbation():
    P, Q, q, c = make_pentagram_fixture(5, 2)
    assert is_inscribed(Q, P)
    moved = list(Q.vertices)
    moved[2] = affine_point(F(9), F(4))
    assert not is_inscribed(Polygon(tuple(moved)), P)


@pytest.mark.parametrize("nk", [(5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 2), (9, 4)])
def test_inscription_preserved_by_iterates(nk):
    n, k = nk
    P, Q, _, _ = make_pentagram_fixture(n, k, seed=n + k)
    Pm, Qm = P, Q
    for m in range(6):
        assert is_inscribed(Qm, Pm)
        Pm, Qm = pentagram_map(Pm, k), pentagram_map(Qm, k)


def test_dual_map_compatibility():
    # vertices of the mapped lines equal the mapped vertices
    _, Q, q, _ = make_pentagram_fixture(6, 2, seed=9)
    k = 2
    q1 = dual_pentagram_map(q, k)
    V1 = vertices_from_lines(q1, k)
    V0 = vertices_from_lines(q, k)
    V0m = pentagram_map(V0, k)
    assert all(proj_equal(V1[i], V0m[i]) for i in range(len(V1)))


def test_dual_map_repeated_lines_degenerate():
    l = lines_from_vertices(Polygon(tuple(affine_point(i, i * i) for i in range(5))), 2)
    bad = LineList((l[0],) * 5)
    with pytest.raises(DegenerateIntersection):
        dual_pentagram_map(bad, 2)


def test_build_config_counts_and_conditions():
    P, Q, q, c = make_pentagram_fixture(5, 2)
    rep = validate_graph(c.graph)
    assert rep.ok and (rep.n_white, rep.n_edges, rep.n_faces) == (5, 20, 10)
    assert check_V(c).ok  # automatic in the plane
    assert check_F(c).ok


def test_check_F_iff_double_inscription():
    # break the inscription: coherence fails exactly at the faces that
    # encode the broken incidences
    P, Q, q, c = make_pentagram_fixture(5, 2)
    Qbad = list(Q.vertices)
    Qbad[0] = affine_point(F(11, 2), F(7, 3))
    qbad = lines_from_vertices(Polygon(tuple(Qbad)), 2)
    cbad = build_pentagram_config(P, qbad, 2)
    rep = check_F(cbad)
    assert not rep.ok
    assert len(rep.failures) >= 2


def test_face_types_decompose_the_two_inscriptions():
    # Q randomly inscribed in P: the side tiles (inscription of Q in P)
    # all pass while the diagonal tiles (inscription of the images) fail
    rng = random.Random(6)
    P, _, _, _ = make_pentagram_fixture(5, 2)
    from dimergeom.geometry import HomogeneousElement

    Qv = []
    for i in range(5):
        a, b = P[i], P[i + 1]
        t = F(rng.randint(1, 9), rng.randint(10, 19))
        Qv.append(HomogeneousElement(tuple(x + t * (y - x) for x, y in zip(a.coords, b.coords)), a.kind))
    Q = Polygon(tuple(Qv))
    assert is_inscribed(Q, P)
    q = lines_from_vertices(Q, 2)
    c = build_pentagram_config(P, q, 2)
    rep = check_F(c)
    assert not rep.ok
    assert all(f.startswith("d") for f in rep.failures)
    assert len(rep.failures) == 5
    # and the images are indeed not inscribed
    assert not is_inscribed(pentagram_map(Q, 2), pentagram_map(P, 2))


def test_step_script_advances_labels():
    for n, k in ((5, 2), (7, 3)):
        P, Q, q, c = make_pentagram_fixture(n, k, seed=2 * n + k)
        c1 = pentagram_step_on_config(c, k)
        exp = build_pentagram_config(pentagram_map(P, k), dual_pentagram_map(q, k), k)
        assert labels_projectively_equal(c1, exp)
        assert check_V(c1).ok and check_F(c1).ok


def test_two_steps_keep_coherence():
    P, Q, q, c = make_pentagram_fixture(6, 4, seed=3)
    c2 = pentagram_step_on_config(pentagram_step_on_config(c, 4), 4)
    assert check_V(c2).ok and check_F(c2).ok
    P2 = pentagram_map(pentagram_map(P, 4), 4)
    q2 = dual_pentagram_map(dual_pentagram_map(q, 4), 4)
    assert labels_projectively_equal(c2, build_pentagram_config(P2, q2, 4))


def test_script_on_non_coherent_config_still_applies():
    # moves apply combinatorially; the failure count is whatever it is
    P, Q, q, c = make_pentagram_fixture(5, 2)
    from dimergeom.config import DoubleCircuitConfig
    from dimergeom.geometry import hyperplane

    bl = dict(c.black_labels)
    bl["q0"] = hyperplane(1, 1, 1000)  # far from every fixture point
    broken = DoubleCircuitConfig(c.graph, c.d, c.white_labels, bl)
    assert check_V(broken).ok  # degrees are all d+2: circuits are generic
    assert not check_F(broken).ok
    stepped = pentagram_step_on_config(broken, 2)
    assert validate_graph(stepped.graph).ok
    rep = check_F(stepped)
    assert isinstance(rep.failures, list)


def test_dynamics_commute_with_projective_maps():
    rng = random.Random(11)
    P, Q, q, _ = make_pentagram_fixture(7, 2, seed=8)
    # random invertible rational matrix
    while True:
        M = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        from dimergeom import linalg

        if linalg.det(M) != 0:
            break

    def act(p):
        coords = tuple(sum(M[i][j] * p.coords[j] for j in range(3)) for i in range(3))
        return point(*coords)

    transformed = Polygon(tuple(act(v) for v in P.vertices))
    lhs = pentagram_map(transformed, 2)
    rhs = Polygon(tuple(act(v) for v in pentagram_map(P, 2).vertices))
    assert all(proj_equal(lhs[i], rhs[i]) for i in range(7))


def test_conic_construction_rejects_half_n():
    with pytest.raises(BadParameters):
        make_pentagram_fixture(6, 3)
