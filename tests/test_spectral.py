import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from dimergeom import linalg
from dimergeom.config import (
    class_equal,
    cohomology_class,
    coboundary_shifted,
    labels_projectively_equal,
    rescaled_config,
)
from dimergeom.errors import EmptyKernel, KernelNotOneDimensional, UnequalColorCounts
from dimergeom.fixtures import (
    SPIRAL_BASE,
    SPIRAL_CLASS_POINT,
    SPIRAL_EXTRA_POINTS,
    SPIRAL_K,
    SPIRAL_N,
    grid_minus_edge_curve_point,
    make_grid_minus_edge,
    make_pentagram_fixture,
    make_qnet_fixture,
    make_spiral_fixture,
    make_spiral_white_seed,
)
from dimergeom.geometry import hyperplane, point, proj_equal
from dimergeom.laurent import LaurentPoly2, newton_polygon
from dimergeom.spectral import (
    evaluate_matrix,
    kasteleyn_weights,
    kernel_at,
    on_curve,
    rational_roots,
    reconstruct_black,
    spectral_polynomial,
    spectral_polynomial_dual,
    spectral_polynomial_white,
)
from dimergeom.spiral import build_spiral_graph
from dimergeom.torusgraph import Edge, TorusGraph


def brute_force_determinant(g, weights):
    """Signed permutation expansion over all dimer covers: the oracle."""
    k = len(g.black_ids)
    widx = {w: j for j, w in enumerate(g.white_ids)}
    bidx = {b: i for i, b in enumerate(g.black_ids)}
    entry = [[LaurentPoly2.zero() for _ in range(k)] for _ in range(k)]
    for ei, e in enumerate(g.edges):
        entry[bidx[e.b]][widx[e.w]] = entry[bidx[e.b]][widx[e.w]] + LaurentPoly2.monomial(
            weights[ei], e.h[0], e.h[1]
        )

    def sign(p):
        p = list(p)
        s = 1
        for i in range(len(p)):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                s = -s
        return s

    acc = LaurentPoly2.zero()
    for perm in permutations(range(k)):
        term = LaurentPoly2.constant(F(sign(perm)))
        dead = False
        for i in range(k):
            if entry[i][perm[i]].is_zero():
                dead = True
                break
            term = term * entry[i][perm[i]]
        if not dead:
            acc = acc + term
    return acc


# ------------------------------------------------------------------ weights


def test_weights_unique_dependency():
    g = TorusGraph(
        ("w1", "w2", "w3"),
        ("b",),
        (Edge("w1", "b", (0, 0)), Edge("w2", "b", (0, 0)), Edge("w3", "b", (0, 0))),
        (),
    )
    labels = {"w1": point(1, 0, 0), "w2": point(0, 1, 0), "w3": point(1, 1, 0)}
    kw = kasteleyn_weights(g, labels)
    assert [kw[0], kw[1], kw[2]] == [1, 1, -1]


def test_weights_degree_two_equal_points():
    g = TorusGraph(
        ("w1", "w2"),
        ("b",),
        (Edge("w1", "b", (0, 0)), Edge("w2", "b", (0, 0))),
        (),
    )
    labels = {"w1": point(2, 4, 2), "w2": point(1, 2, 1)}
    kw = kasteleyn_weights(g, labels)
    assert kw[0] == 1 and kw[1] == -2  # 1*(2,4,2) - 2*(1,2,1) = 0


def test_weights_non_circuit_rejected():
    g = TorusGraph(
        ("w1", "w2", "w3"),
        ("b",),
        (Edge("w1", "b", (0, 0)), Edge("w2", "b", (0, 0)), Edge("w3", "b", (0, 0))),
        (),
    )
    labels = {"w1": point(1, 0, 0), "w2": point(1, 0, 0), "w3": point(0, 1, 0)}
    with pytest.raises(KernelNotOneDimensional, match="black vertex b: relation coefficient 2 vanishes"):
        kasteleyn_weights(g, labels)
    labels["w3"] = point(1, 0, 0)
    with pytest.raises(KernelNotOneDimensional, match="black vertex b: relation space has dimension 2"):
        kasteleyn_weights(g, labels)


def test_white_rescaling_rescales_column_curve_unchanged():
    P, Q, q, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, kw).normalized()
    scaled = rescaled_config(c, {"P3": F(5, 3)})
    kw2 = kasteleyn_weights(scaled.graph, scaled.white_labels)
    for ei, e in enumerate(c.graph.edges):
        if e.w == "P3":
            ratio = kw2[ei] / kw[ei] if kw[ei] != 0 else None
            # all weights on P3's column rescale by the same factor
            assert ratio in (F(3, 5), 1) or kw2[ei] == kw[ei] * F(3, 5)
    poly2 = spectral_polynomial(scaled.graph, kw2).normalized()
    assert poly.terms == poly2.terms


# ----------------------------------------------------------- the polynomial


def test_one_by_one_three_edges():
    g = TorusGraph(
        ("w",),
        ("b",),
        (Edge("w", "b", (0, 0)), Edge("w", "b", (1, 0)), Edge("w", "b", (0, 1))),
        (),
    )
    weights = {0: F(5), 1: F(-3), 2: F(7)}
    poly = spectral_polynomial(g, weights)
    assert poly.as_dict() == {(0, 0): 5, (1, 0): -3, (0, 1): 7}
    assert newton_polygon(poly) == [(0, 0), (1, 0), (0, 1)]


def test_no_dimer_cover_gives_zero():
    # two whites sharing a single black neighbor, one isolated black:
    # no permutation avoids the zero column
    g = TorusGraph(
        ("w1", "w2"),
        ("b1", "b2"),
        (Edge("w1", "b1", (0, 0)), Edge("w2", "b1", (0, 0))),
        (),
    )
    poly = spectral_polynomial(g, {0: F(1), 1: F(2)})
    assert poly.is_zero()


def test_unequal_color_counts():
    g = TorusGraph(("w1", "w2"), ("b",), (Edge("w1", "b", (0, 0)),), ())
    with pytest.raises(UnequalColorCounts):
        spectral_polynomial(g, {0: F(1)})


@pytest.mark.parametrize("nk", [(5, 2), (6, 2)])
def test_determinant_matches_brute_force_pentagram(nk):
    n, k = nk
    _, _, _, c = make_pentagram_fixture(n, k, seed=1)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    assert spectral_polynomial(c.graph, kw).terms == brute_force_determinant(c.graph, kw).terms


def test_determinant_matches_brute_force_spiral():
    _, _, c = make_spiral_fixture()
    kw = kasteleyn_weights(c.graph, c.white_labels)
    assert spectral_polynomial(c.graph, kw).terms == brute_force_determinant(c.graph, kw).terms


def test_curve_gauge_invariances():
    _, _, _, c = make_pentagram_fixture(5, 2, seed=2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    base = spectral_polynomial(c.graph, kw).normalized()
    rng = random.Random(0)
    # per-black-vertex weight rescaling
    kw2 = dict(kw)
    for b in c.graph.black_ids:
        s = F(rng.randint(1, 7), rng.randint(1, 7))
        for ei, e in enumerate(c.graph.edges):
            if e.b == b:
                kw2[ei] = kw2[ei] * s
    assert spectral_polynomial(c.graph, kw2).normalized().terms == base.terms
    # coboundary change of the cocycle
    pots = {v: (rng.randint(-2, 2), rng.randint(-2, 2)) for v in list(c.graph.white_ids) + list(c.graph.black_ids)}
    shifted = coboundary_shifted(c, pots)
    kw3 = kasteleyn_weights(shifted.graph, shifted.white_labels)
    assert spectral_polynomial(shifted.graph, kw3).normalized().terms == base.terms


# ----------------------------------------------------------- membership


def test_membership_every_coherent_fixture():
    configs = [
        make_pentagram_fixture(5, 2)[3],
        make_pentagram_fixture(6, 2, seed=4)[3],
        make_pentagram_fixture(7, 3, seed=5)[3],
        make_spiral_fixture()[2],
        make_qnet_fixture()[2],
    ]
    for c in configs:
        poly = spectral_polynomial_white(c)
        cls = cohomology_class(c)
        assert on_curve(poly, cls.lam, cls.mu)


def test_on_curve_simple_solved_point():
    p = LaurentPoly2.from_dict({(0, 0): F(3), (1, 0): F(2), (0, 1): F(5)})
    mu0 = F(1, 7)
    lam0 = -(F(3) + F(5) * mu0) / F(2)
    assert on_curve(p, lam0, mu0)
    assert not on_curve(p, lam0 + 1, mu0)


def test_kernel_at_pentagon_class():
    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    cls = cohomology_class(c)
    basis = kernel_at(c.graph, kw, cls.lam, cls.mu)
    assert len(basis) == 1
    assert all(x != 0 for x in basis[0])


def test_kernel_at_off_curve_raises():
    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    with pytest.raises(EmptyKernel):
        kernel_at(c.graph, kw, F(2), F(3))


def test_trivial_point_always_on_curve():
    # the coordinate functionals make K(1,1) singular for every circuit
    # configuration; its kernel is (d+1)-dimensional
    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, kw)
    assert on_curve(poly, F(1), F(1))
    m = evaluate_matrix(c.graph, kw, F(1), F(1))
    assert len(linalg.nullspace(m)) == c.d + 1


# ------------------------------------------------------------ reconstruction


def test_reconstruct_pentagon_round_trip():
    _, _, _, c = make_pentagram_fixture(5, 2)
    cls = cohomology_class(c)
    res = reconstruct_black(c.graph, 2, c.white_labels, cls.lam, cls.mu)
    assert res.status == "unique"
    assert labels_projectively_equal(res.config, c)
    assert class_equal(cohomology_class(res.config), cls)


def test_reconstruct_spiral_round_trip_and_order():
    _, _, c = make_spiral_fixture()
    lam, mu = SPIRAL_CLASS_POINT
    res = reconstruct_black(c.graph, 2, c.white_labels, lam, mu)
    assert res.status == "unique"
    assert labels_projectively_equal(res.config, c)
    # the paper's documented resolution order: degree-4 lines first, then
    # the degree-3 ones via circuit constraints
    direct = [t.split(":")[0] for t in res.trace if "circuit" not in t]
    propagated = [t.split(":")[0] for t in res.trace if "circuit" in t]
    assert direct == ["q1", "q2", "q3"]
    assert propagated == ["q5", "q0", "q4"]


def test_reconstruct_grid_minus_edge_nonunique():
    g, white = make_grid_minus_edge()
    lam, mu = grid_minus_edge_curve_point(g, white)
    res = reconstruct_black(g, 2, white, lam, mu)
    assert res.status == "nonunique"
    assert "B1x0" in res.detail


def test_reconstruct_fb_choice_irrelevant():
    _, _, _, c = make_pentagram_fixture(5, 2)
    cls = cohomology_class(c)
    alt = {b: F(3, 7) * (i + 1) for i, b in enumerate(c.graph.black_ids)}
    res = reconstruct_black(c.graph, 2, c.white_labels, cls.lam, cls.mu, f_black=alt)
    assert res.status == "unique"
    assert labels_projectively_equal(res.config, c)


def test_injectivity_probe_exact_spiral():
    # distinct rational points of the same curve give different black data
    seed = make_spiral_white_seed()
    g = build_spiral_graph(SPIRAL_K, SPIRAL_N, SPIRAL_BASE)
    N = SPIRAL_N + 1
    white = {f"P{(SPIRAL_BASE + m) % N}": seed.points[m] for m in range(N)}
    results = []
    for lam, mu in (SPIRAL_CLASS_POINT,) + SPIRAL_EXTRA_POINTS:
        res = reconstruct_black(g, 2, white, lam, mu)
        assert res.status == "unique"
        results.append(res.config)
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            assert not labels_projectively_equal(results[i], results[j])


def test_extra_spiral_points_on_curve():
    seed = make_spiral_white_seed()
    g = build_spiral_graph(SPIRAL_K, SPIRAL_N, SPIRAL_BASE)
    N = SPIRAL_N + 1
    white = {f"P{(SPIRAL_BASE + m) % N}": seed.points[m] for m in range(N)}
    poly = spectral_polynomial_white(g, white)
    for lam, mu in (SPIRAL_CLASS_POINT,) + SPIRAL_EXTRA_POINTS:
        assert on_curve(poly, lam, mu)


def test_rational_roots_finder():
    # 3(x - 2/3)(x + 5)(x - 1) = 3x^3 + 10x^2 - 23x + 10
    coeffs = {3: F(3), 2: F(10), 1: F(-23), 0: F(10)}
    roots = rational_roots(coeffs)
    assert set(roots) == {F(2, 3), F(-5), F(1)}


def test_dual_curve_experiment_pentagon():
    _, _, _, c = make_pentagram_fixture(5, 2)
    pw = spectral_polynomial_white(c).normalized()
    pb = spectral_polynomial_dual(c).normalized()
    # observational: on this fixture the two normalized curves coincide
    assert pw.terms == pb.terms


# --------------------------------------------------------------- float path


def test_float_backend_membership_and_kernel():
    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, kw)
    fl_weights = {k: float(v) for k, v in kw.items()}
    assert on_curve(poly, -1.0, -1.0)
    basis = kernel_at(c.graph, fl_weights, -1.0, -1.0)
    assert len(basis) == 1


def test_injectivity_probe_float_pentagram():
    # two distinct sampled curve points give non-projectively-equal black
    # data (float backend; the fixture curve has one low-height rational
    # point, so the second point comes from numerical fiber roots)
    import numpy as np

    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, kw)
    wl = {k: point(*[float(x) for x in v.coords]) for k, v in c.white_labels.items()}
    configs = []
    for lam in (0.7, 1.6):
        coeffs = {}
        for (i, j), cf in poly.terms:
            coeffs[j] = coeffs.get(j, 0.0) + float(cf) * lam**i
        lo = min(coeffs)
        arr = [coeffs.get(k, 0.0) for k in range(max(coeffs), lo - 1, -1)]
        real = [r.real for r in np.roots(arr) if abs(r.imag) < 1e-9 and abs(r.real) > 1e-9]
        assert real, lam
        res = reconstruct_black(c.graph, 2, wl, lam, min(real))
        assert res.status == "unique"
        configs.append(res.config)
    assert not labels_projectively_equal(configs[0], configs[1])


def test_float_reconstruction_matches_exact():
    _, _, _, c = make_pentagram_fixture(5, 2)
    cls = cohomology_class(c)
    wl = {k: point(*[float(x) for x in v.coords]) for k, v in c.white_labels.items()}
    res = reconstruct_black(c.graph, 2, wl, float(cls.lam), float(cls.mu))
    assert res.status == "unique"
    for b in c.graph.black_ids:
        got = res.config.black_labels[b]
        want = hyperplane(*[float(x) for x in c.black_labels[b].coords])
        assert proj_equal(got, want)
