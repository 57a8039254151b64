from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimergeom import linalg, spiral
from dimergeom.config import (
    check_F,
    check_V,
    cohomology_class,
    labels_projectively_equal,
)
from dimergeom.errors import BadParameters, GeometryError, KindMismatch, SeedInvalid
from dimergeom.fixtures import (
    SPIRAL_BASE,
    SPIRAL_CLASS_POINT,
    SPIRAL_K,
    SPIRAL_N,
    make_spiral_fixture,
)
from dimergeom.geometry import (
    HYPERPLANE,
    HomogeneousElement,
    affine_point,
    hyperplane,
    join_points,
    line_through,
    meet_hyperplanes,
    pairing,
    proj_equal,
)
from dimergeom.spiral import (
    LineSeed,
    SpiralSeed,
    build_spiral_config,
    build_spiral_graph,
    removed_js,
    line_seed_extend,
    sample_spiral_seed,
    spiral_extend,
    spiral_step_on_config,
    validate_line_seed,
    validate_spiral_seed,
)
from dimergeom.pentagram import build_pentagram_graph
from dimergeom.torusgraph import delete_edge, face_key, validate_graph, vertex_edges
from helpers import class_equal, inscribed_points


def paper_example_seed():
    free = [affine_point(0, 0), affine_point(4, 0), affine_point(5, 3), affine_point(2, 5)]
    return sample_spiral_seed(2, 5, 1, free, [F(3, 2)])


def test_worked_example_seed_conditions():
    seed = paper_example_seed()
    assert validate_spiral_seed(seed) == []
    # P5 = P1 + (3/2)(P4 - P1) = (3, 15/2)
    assert proj_equal(seed.points[4], affine_point(3, F(15, 2)))
    # P6 = P2P5 ^ P1P3
    p = seed.points
    P6 = meet_hyperplanes([line_through(p[1], p[4]), line_through(p[0], p[2])])
    assert proj_equal(seed.points[5], P6)


def test_forward_recursion_matches_paper_formula():
    seed = paper_example_seed()
    p = seed.points
    expected_P7 = meet_hyperplanes([line_through(p[2], p[5]), line_through(p[1], p[3])])
    s2 = spiral_extend(seed, 1)
    assert proj_equal(s2.points[-1], expected_P7)
    assert s2.base == 2


def test_extend_round_trip():
    seed = paper_example_seed()
    back = spiral_extend(spiral_extend(seed, 1), -1)
    assert back.base == seed.base
    assert all(proj_equal(a, b) for a, b in zip(back.points, seed.points))


def test_extend_many_and_back():
    seed = paper_example_seed()
    there = spiral_extend(seed, 5)
    back = spiral_extend(there, -5)
    assert all(proj_equal(a, b) for a, b in zip(back.points, seed.points))


def test_invalid_seed_rejected():
    pts = tuple(affine_point(i, i * i + 1) for i in range(6))
    seed = SpiralSeed(2, 5, 1, pts)
    assert validate_spiral_seed(seed) != []
    with pytest.raises(SeedInvalid):
        spiral_extend(seed, 1)


def test_extend_refuses_a_window_of_the_other_kind():
    # one seed type holds points or lines, so each extend checks the kind
    sP, sq, _ = make_spiral_fixture()
    with pytest.raises(KindMismatch):
        spiral_extend(sq, 1)
    with pytest.raises(KindMismatch):
        line_seed_extend(sP, 1)


def test_seed_shape_bounds():
    with pytest.raises(BadParameters):
        SpiralSeed(2, 4, 0, tuple(affine_point(i, i) for i in range(5)))
    with pytest.raises(BadParameters):
        sample_spiral_seed(2, 5, 1, [affine_point(0, 0)], [F(1)])


def test_fixture_config_valid_and_coherent():
    sP, sq, c = make_spiral_fixture()
    assert validate_spiral_seed(sP) == []
    assert validate_line_seed(sq) == []
    assert validate_graph(c.graph).ok
    assert check_V(c).ok and check_F(c).ok
    cls = cohomology_class(c)
    assert (cls.lam, cls.mu) == SPIRAL_CLASS_POINT


def test_degree_three_vertices_at_removed_edges():
    g = build_spiral_graph(2, 5, 1)
    deg = {v: len(ix) for v, ix in vertex_edges(g).items()}
    assert sorted(v for v, d in deg.items() if d == 3) == ["P0", "P1", "P2", "q0", "q4", "q5"]


@pytest.mark.parametrize("k, n, i", [(2, 5, 1), (2, 5, 4), (2, 7, 0), (2, 8, -3), (3, 6, 2), (3, 8, 5), (3, 9, 11)])
def test_spiral_graph_is_pentagram_graph_minus_removed_edges(k, n, i):
    N = n + 1
    g = build_pentagram_graph(N, k)
    for j in removed_js(k, n, i):
        ei = next(x for x, e in enumerate(g.edges) if (e.w, e.b) == (f"P{(j + k) % N}", f"q{j}"))
        g = delete_edge(g, ei, f"h{j}")
    s = build_spiral_graph(k, n, i)
    assert Counter(s.edges) == Counter(g.edges)
    assert {f.id: face_key(s, f) for f in s.faces} == {f.id: face_key(g, f) for f in g.faces}


def test_check_V_fails_iff_seed_collinearity_broken():
    sP, sq, c = make_spiral_fixture()
    from dimergeom.config import DoubleCircuitConfig

    wl = dict(c.white_labels)
    # P-slot of the last window point participates in collinearity conditions
    wl["P0"] = affine_point(F(17, 5), F(3, 11))
    broken = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
    rep = check_V(broken)
    assert not rep.ok
    assert any(v.startswith("q") for v in rep.failures)


def test_check_F_iff_inscriptions():
    # the nine conditions Q_j on P_j P_{j+1} for j = i .. i+2n-k all hold
    sP, sq, c = make_spiral_fixture()
    i, n, k = SPIRAL_BASE, SPIRAL_N, SPIRAL_K
    pts = {}
    for m in range(6):
        ext = spiral_extend(sP, m)
        for j in range(ext.base, ext.base + n + 1):
            pts[j] = ext.point(j)
    lines = {}
    for m in range(-1, 5):
        ext = line_seed_extend(sq, m)
        for j in range(ext.base, ext.base + n + 1):
            lines[j] = ext.point(j)
    checked = 0
    for j in range(i, i + 2 * n - k + 1):
        Qj = meet_hyperplanes([lines[j], lines[j - k]])
        side = line_through(pts[j], pts[j + 1])
        assert pairing(side, Qj) == 0
        checked += 1
    assert checked == 2 * n - k + 1  # exactly nine consecutive conditions


def test_inscription_fails_beyond_theorem_for_random_lines():
    # a generic line seed satisfies the concurrencies but not inscription
    sP, sq, c = make_spiral_fixture()
    Q = inscribed_points(sq)
    assert len(Q) >= 4


def test_propagation_twenty_steps_both_directions():
    sP, sq, _ = make_spiral_fixture()
    f, b = (sP, sq), (sP, sq)
    for _ in range(20):
        f = (spiral_extend(f[0], 1), line_seed_extend(f[1], 1))
        c = build_spiral_config(*f)
        assert check_V(c).ok and check_F(c).ok
        b = (spiral_extend(b[0], -1), line_seed_extend(b[1], -1))
        c = build_spiral_config(*b)
        assert check_V(c).ok and check_F(c).ok


def test_step_script_matches_seed_shift():
    sP, sq, c = make_spiral_fixture()
    cls = cohomology_class(c)
    cur, cp, cq = c, sP, sq
    for _ in range(3):
        cur = spiral.step(cur)
        cp, cq = spiral_extend(cp, 1), line_seed_extend(cq, 1)
        exp = build_spiral_config(cp, cq)
        assert labels_projectively_equal(cur, exp)
        assert check_V(cur).ok and check_F(cur).ok
        assert class_equal(cohomology_class(cur), cls)


def test_build_config_base_alignment():
    sP, sq, _ = make_spiral_fixture()
    with pytest.raises(BadParameters):
        build_spiral_config(sP, line_seed_extend(sq, 1))


def test_extension_commutes_with_projective_maps():
    import random

    from dimergeom import linalg
    from dimergeom.geometry import HomogeneousElement

    rng = random.Random(4)
    while True:
        M = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        if linalg.det(M) != 0:
            break

    def act(p):
        return HomogeneousElement(
            tuple(sum(M[i][j] * p.coords[j] for j in range(3)) for i in range(3)), p.kind
        )

    sP, _, _ = make_spiral_fixture()
    mapped = SpiralSeed(sP.k, sP.n, sP.base, tuple(act(p) for p in sP.points))
    lhs = spiral_extend(mapped, 2)
    rhs = spiral_extend(sP, 2)
    assert all(proj_equal(a, act(b)) for a, b in zip(lhs.points, rhs.points))


def test_step_builds_no_basis_cycles(monkeypatch):
    # the face renaming reads only the template's faces; a walk search in
    # the step would be wasted work
    from dimergeom import torusgraph

    sP, sq, c = make_spiral_fixture()
    expected = build_spiral_config(spiral_extend(sP, 1), line_seed_extend(sq, 1))

    def no_walks(*args, **kwargs):
        raise AssertionError("find_walk called during a step")

    monkeypatch.setattr(torusgraph, "find_walk", no_walks)
    assert labels_projectively_equal(spiral_step_on_config(c, SPIRAL_K, SPIRAL_N, SPIRAL_BASE), expected)


# ------------------------------------------------- the line-window references
#
# A line window read backwards meets the point-window conditions in the dual
# plane, so the line validator and recursions are the point ones on the
# reversed window.  These are their former direct implementations.


def _ref_collinear(a, b, c):
    return linalg.rank([list(a.coords), list(b.coords), list(c.coords)]) <= 2


def ref_validate_line_seed(s):
    q = s.points
    n, k = s.n, s.k
    bad = []
    for l in range(k):
        if not _ref_collinear(q[l], q[l + 1], q[n - k + l + 1]):
            bad.append(f"q_{s.base + l}, q_{s.base + l + 1}, q_{s.base + n - k + l + 1} not concurrent")
    if not _ref_collinear(q[0], q[n - k], q[n]):
        bad.append(f"q_{s.base}, q_{s.base + n - k}, q_{s.base + n} not concurrent")
    return bad


def ref_line_seed_extend(s, steps):
    bad = ref_validate_line_seed(s)
    if bad:
        raise SeedInvalid("; ".join(bad))
    cur = s
    for _ in range(abs(steps)):
        q, n, k = cur.points, cur.n, cur.k
        if steps > 0:
            new = join_points([meet_hyperplanes([q[1], q[n - k + 1]]), meet_hyperplanes([q[k + 1], q[k]])])
            cur = LineSeed(k, n, cur.base + 1, tuple(q[1:]) + (new,))
        else:
            new = join_points([meet_hyperplanes([q[0], q[n - k]]), meet_hyperplanes([q[n - 1], q[n - k - 1]])])
            cur = LineSeed(k, n, cur.base - 1, (new,) + tuple(q[:-1]))
    return cur


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except GeometryError as exc:
        return None, (type(exc), str(exc))


SMALL = st.fractions(-5, 5, max_denominator=3)


@st.composite
def line_windows(draw):
    """A valid line window (the dual of a sampled point seed, reversed),
    with up to two of its lines replaced by other lines."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k + 3, k + 5))
    free = [affine_point(draw(SMALL), draw(SMALL)) for _ in range(n - k + 1)]
    try:
        seed = sample_spiral_seed(k, n, 0, free, [draw(SMALL) for _ in range(k - 1)])
    except GeometryError:
        assume(False)
    lines = [HomogeneousElement(p.coords, HYPERPLANE) for p in reversed(seed.points)]
    for m in draw(st.lists(st.integers(0, n), max_size=2)):
        lines[m] = hyperplane(draw(SMALL), draw(SMALL), 1)
    return LineSeed(k, n, draw(st.integers(-6, 6)), tuple(lines))


@settings(max_examples=60, deadline=None)
@given(line_windows(), st.sampled_from([-3, -1, 1, 2]))
def test_line_window_equals_the_reference(sq, steps):
    assert validate_line_seed(sq) == ref_validate_line_seed(sq)
    new, new_err = _outcome(line_seed_extend, sq, steps)
    ref, ref_err = _outcome(ref_line_seed_extend, sq, steps)
    assert new_err == ref_err
    if ref_err is None:
        assert new.base == ref.base and [q.coords for q in new.points] == [q.coords for q in ref.points]


def test_line_window_messages_keep_their_order():
    # no three of these lines are concurrent, so every condition fails; the
    # reversed point conditions must still be reported in line order
    sq = LineSeed(2, 5, 0, tuple(hyperplane(1, m, m * m) for m in range(6)))
    expected = [
        "q_0, q_1, q_4 not concurrent",
        "q_1, q_2, q_5 not concurrent",
        "q_0, q_3, q_5 not concurrent",
    ]
    assert validate_line_seed(sq) == ref_validate_line_seed(sq) == expected
    with pytest.raises(SeedInvalid, match="^" + "; ".join(expected) + "$"):
        line_seed_extend(sq, 1)
