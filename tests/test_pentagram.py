import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimergeom.config import check_F, check_V, labels_projectively_equal
from dimergeom.errors import BadParameters, DegenerateIntersection, GeometryError, SizeMismatch
from dimergeom.fixtures import make_pentagram_fixture
from dimergeom.geometry import HYPERPLANE, affine_point, hyperplane, join_points, meet_hyperplanes, point, proj_equal
from dimergeom.pentagram import (
    Polygon,
    build_pentagram_config,
    dual_pentagram_map,
    lines_from_vertices,
    pentagram_map,
    pentagram_step_on_config,
    vertices_from_lines,
)
from dimergeom.torusgraph import validate_graph
from helpers import is_inscribed


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


def _points(*xy):
    return Polygon(tuple(affine_point(x, y) for x, y in xy))


def _lines(*abc):
    return Polygon(tuple(hyperplane(*c) for c in abc))


@pytest.mark.parametrize(
    "map_, polygon, message",
    [
        # the polygon above: its first diagonal P0 P2 joins two equal points
        (pentagram_map, _points((0, 0), (1, 0), (0, 0), (1, 0), (2, 2)),
         "vertex 0: points do not span a unique hyperplane"),
        # P3 = P5: the diagonal P3 P5 is first needed by vertex 2
        (pentagram_map, _points((0, 0), (4, 0), (6, 3), (3, 7), (-1, 5), (3, 7), (-3, 2)),
         "vertex 2: points do not span a unique hyperplane"),
        # P2, ..., P5 collinear: the diagonals P2 P4 and P3 P5 coincide
        (pentagram_map, _points((0, 0), (4, 0), (1, 1), (2, 2), (3, 3), (4, 4), (-3, 2)),
         "vertex 2: hyperplanes do not meet in a unique point"),
        # repeated lines q0 = q1
        (dual_pentagram_map, _lines((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
         "line 0: hyperplanes do not meet in a unique point"),
        # q3 = q4: the vertex q3 ^ q4 is first needed by line 1, as q_{1+k} ^ q_{1+k+1}
        (dual_pentagram_map, _lines((1, 0, 0), (0, 1, 0), (1, 2, 3), (2, -1, 1), (2, -1, 1), (1, 1, 1), (3, 1, 2)),
         "line 1: hyperplanes do not meet in a unique point"),
    ],
)
def test_a_degenerate_map_names_its_first_failing_index(map_, polygon, message):
    """Each diagonal is made once and shared by the two vertices that read
    it, yet the message names the index the map fails at when every vertex
    makes its own two diagonals in order."""
    with pytest.raises(DegenerateIntersection) as info:
        map_(polygon, 2)
    assert str(info.value) == message


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
    bad = Polygon((l[0],) * 5)
    with pytest.raises(DegenerateIntersection):
        dual_pentagram_map(bad, 2)


def test_build_config_counts_and_conditions():
    P, Q, q, c = make_pentagram_fixture(5, 2)
    rep = validate_graph(c.graph)
    assert rep.ok and rep.sizes == (5, 5, 20, 10)
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


def test_step_builds_no_basis_cycles(monkeypatch):
    # the face renaming reads only the template's faces; a walk search in
    # the step would be wasted work
    from dimergeom import torusgraph

    P, Q, q, c = make_pentagram_fixture(7, 2)
    expected = build_pentagram_config(pentagram_map(P, 2), dual_pentagram_map(q, 2), 2)

    def no_walks(*args, **kwargs):
        raise AssertionError("find_walk called during a step")

    monkeypatch.setattr(torusgraph, "find_walk", no_walks)
    assert labels_projectively_equal(pentagram_step_on_config(c, 2), expected)


def test_step_moves_edit_the_graph_locally(monkeypatch):
    # each move edits the batch's incidence lists and faces: no move
    # rescans the graph with vertex_edges, and a step builds a fixed number
    # of graphs and incidence indices, whatever the size
    import sys

    from dimergeom import torusgraph
    from dimergeom.torusgraph import TorusGraph

    calls = {"vertex_edges": 0, "graph": 0, "index": 0}
    vertex_edges, init, incidence = torusgraph.vertex_edges, TorusGraph.__init__, TorusGraph.incidence

    def counted_vertex_edges(g):
        calls["vertex_edges"] += 1
        return vertex_edges(g)

    def counted_init(self, *args, **kwargs):
        calls["graph"] += 1
        init(self, *args, **kwargs)

    def counted_incidence(self):
        calls["index"] += self._inc is None
        return incidence(self)

    for mod in [m for n, m in sys.modules.items() if n.startswith("dimergeom")]:
        if getattr(mod, "vertex_edges", None) is vertex_edges:
            monkeypatch.setattr(mod, "vertex_edges", counted_vertex_edges)
    monkeypatch.setattr(TorusGraph, "__init__", counted_init)
    monkeypatch.setattr(TorusGraph, "incidence", counted_incidence)
    builds = {}
    for n in (16, 64):
        c = make_pentagram_fixture(n, 3)[3]
        c.graph.incidence()  # the cached template's index, built or not by earlier tests
        c.graph._plans = None  # so the step records its plan, whatever earlier tests stepped
        calls.update(vertex_edges=0, graph=0, index=0)
        pentagram_step_on_config(c, 3)
        assert calls["vertex_edges"] == 0, n
        builds[n] = calls["graph"], calls["index"]
    graphs, indices = builds[64]
    assert builds[16] == builds[64] and graphs <= 4 and indices == 0, builds


# ------------------------------------------------- the line-formula reference
#
# dual_pentagram_map is the point loop read in the dual plane.  This is its
# former implementation, meets of consecutive lines then their join.


def ref_dual_pentagram_map(q, k):
    n = len(q)
    if not 2 <= k <= n - 2:
        raise BadParameters(f"need 2 <= k <= n-2, got k={k}, n={n}")
    out = []
    for i in range(n):
        try:
            x = meet_hyperplanes([q[i], q[i + 1]])
            y = meet_hyperplanes([q[i + k], q[i + k + 1]])
            out.append(join_points([x, y]))
        except DegenerateIntersection as exc:
            raise DegenerateIntersection(f"line {i}: {exc}") from exc
    return Polygon(tuple(out))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except GeometryError as exc:
        return None, (type(exc), str(exc))


@st.composite
def line_lists(draw):
    """5-9 lines of P^2 with small integer coordinates, now and then a
    repeated line, and a diagonal parameter k."""
    n = draw(st.integers(5, 9))
    lines = []
    for _ in range(n):
        if lines and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(lines)))
            continue
        coords = [draw(st.integers(-4, 4)) for _ in range(3)]
        lines.append(hyperplane(*(coords if any(coords) else [0, 0, 1])))
    return Polygon(tuple(lines)), draw(st.integers(2, n - 2))


@settings(max_examples=80, deadline=None)
@given(line_lists())
@example((Polygon((hyperplane(1, 0, 1),) * 5), 2))  # every meet degenerate
def test_dual_map_equals_the_reference(case):
    q, k = case
    new, new_err = _outcome(dual_pentagram_map, q, k)
    ref, ref_err = _outcome(ref_dual_pentagram_map, q, k)
    assert new_err == ref_err
    if ref_err is None:
        assert [line.coords for line in new.vertices] == [line.coords for line in ref.vertices]
        assert all(line.kind == HYPERPLANE for line in new.vertices)
