"""Acceptance suite: one test per criterion, each printing a pass line.

All checks run on the exact rational backend unless stated otherwise;
every tolerance is pinned here.  Run with ``pytest -s`` to see the lines.
"""
import random
import time
from fractions import Fraction as F

from dimergeom.config import (
    check_F,
    check_V,
    cohomology_class,
    labels_projectively_equal,
)
from dimergeom import qnet, spiral
from dimergeom.fixtures import (
    SPIRAL_CLASS_POINT,
    SPIRAL_K,
    SPIRAL_N,
    grid_minus_edge_curve_point,
    make_grid_minus_edge,
    make_pentagram_fixture,
    make_qnet_fixture,
    make_spiral_fixture,
)
from dimergeom.moves import forced_split_label, add_degree2, remove_degree2, urban_renewal
from dimergeom.pentagram import (
    build_pentagram_config,
    dual_pentagram_map,
    pentagram_map,
    pentagram_step_on_config,
)
from dimergeom.qnet import (
    config_plane_window,
    config_point_window,
    dual_laplace,
    laplace,
    periodic_extension,
)
from dimergeom.spectral import (
    kasteleyn_weights,
    on_curve,
    reconstruct_black,
    spectral_polynomial,
    spectral_polynomial_white,
)
from dimergeom.spiral import (
    build_spiral_config,
    line_seed_extend,
    spiral_extend,
)
from dimergeom.geometry import proj_equal
from dimergeom.errors import DegenerateIntersection
from dimergeom.torusgraph import validate_graph
from helpers import (
    class_equal,
    coboundary_shifted,
    is_f_transform,
    is_inscribed,
    is_qnet,
    make_window_fixture,
    rescaled_config,
)
from test_spectral import brute_force_determinant


def _report(num: int, elapsed: float, limit: float, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s < {limit:.0f}s) - {text}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_acceptance_1_move_preservation():
    """Urban renewal and degree-two moves preserve (V) and (F) exactly on
    100 seeded random coherent pentagram fixtures plus the qnet fixture."""
    t0 = time.time()
    rng = random.Random(0)
    count = 0
    for trial in range(100):
        n = rng.choice([5, 6, 7, 8])
        ks = [k for k in range(2, n - 1) if 2 * k != n]
        k = rng.choice(ks)
        _, _, _, c = make_pentagram_fixture(n, k, seed=trial)
        face = f"d{rng.randrange(n)}"
        c1 = urban_renewal(c, face)
        assert check_V(c1).ok and check_F(c1).ok, (n, k, trial)
        v = rng.choice(list(c1.graph.white_ids))
        deg = sum(1 for e in c1.graph.edges if v in (e.w, e.b))
        cut = rng.randrange(1, deg)
        label = forced_split_label(c1, v, (0, cut))
        c2 = add_degree2(c1, v, (0, cut), label)
        assert check_V(c2).ok and check_F(c2).ok, (n, k, trial, "add")
        c3 = remove_degree2(c2, f"{v}~")
        assert check_V(c3).ok and check_F(c3).ok, (n, k, trial, "remove")
        count += 1
    _, _, cq = make_qnet_fixture()
    q1 = urban_renewal(cq, "F0x1")
    assert check_V(q1).ok and check_F(q1).ok
    mid = next(v for v in q1.graph.white_ids if v.endswith(":E"))
    lbl = forced_split_label(q1, mid, (0, 1))
    q2 = add_degree2(q1, mid, (0, 1), lbl)
    assert check_V(q2).ok and check_F(q2).ok
    q3 = remove_degree2(q2, f"{mid}~")
    assert check_V(q3).ok and check_F(q3).ok
    _report(1, time.time() - t0, 30, f"{count} pentagram fixtures + qnet fixture, all moves preserve (V), (F)")


def test_acceptance_2_pentagram_theorem():
    """Inscription propagates through six pentagram iterates for every
    n in 5..9 and every k in 2..n-2.

    At k = n/2 the map doubly covers its image (P'_i = P'_{i+k} for every
    polygon), so the second iterate does not exist; those two (n, k) pairs
    are verified as far as the map is defined and the double cover itself
    is asserted.
    """
    from dimergeom.errors import DegenerateIntersection
    from dimergeom.fixtures import default_pentagram_params
    from dimergeom.geometry import circumscribed_pair
    from dimergeom.pentagram import Polygon

    t0 = time.time()
    pairs = full = 0
    for n in range(5, 10):
        for k in range(2, n - 1):
            Pl, Ql = circumscribed_pair(default_pentagram_params(n, seed=10 * n + k))
            P, Q = Polygon(tuple(Pl)), Polygon(tuple(Ql))
            try:
                for m in range(6):
                    assert is_inscribed(Q, P), (n, k, m)
                    P, Q = pentagram_map(P, k), pentagram_map(Q, k)
            except DegenerateIntersection:
                # only the structural k = n/2 degeneration may stop the
                # iteration: the image doubly covers itself (and collapses
                # to the Brianchon point on conic-circumscribed data)
                assert 2 * k == n and m >= 1, (n, k, m)
                assert all(proj_equal(P[i], P[i + k]) for i in range(n))
            else:
                full += 1
            pairs += 1
    assert full == pairs - 2  # exactly the two k = n/2 pairs stop early
    _report(2, time.time() - t0, 10, f"inscription through m=0..5 on {full} (n,k) pairs; double cover verified at k=n/2")


def test_acceptance_3_move_formula_cross_validation():
    """Script-evolved labels equal direct-formula labels exactly on all
    three template families."""
    t0 = time.time()
    # pentagram
    for n, k in ((5, 2), (7, 3), (8, 5)):
        P, _, q, c = make_pentagram_fixture(n, k, seed=n + 7 * k)
        c1 = pentagram_step_on_config(c, k)
        exp = build_pentagram_config(pentagram_map(P, k), dual_pentagram_map(q, k), k)
        assert labels_projectively_equal(c1, exp), (n, k)
    # spiral
    sP, sq, cs = make_spiral_fixture()
    cur = cs
    for _ in range(2):
        cur = spiral.step(cur)
        sP, sq = spiral_extend(sP, 1), line_seed_extend(sq, 1)
        assert labels_projectively_equal(cur, build_spiral_config(sP, sq))
    # qnet (plain Laplace parity)
    _, _, cq = make_qnet_fixture()
    fwin = periodic_extension(config_point_window(cq), 4, 4, 1)
    Gwin = periodic_extension(config_plane_window(cq), 4, 4, 1)
    nxt = qnet.step(cq)
    fl, Gl = laplace(fwin), dual_laplace(Gwin)
    w1, p1 = config_point_window(nxt), config_plane_window(nxt)
    assert all(proj_equal(w1[s], fl[s]) for s in w1.sites())
    assert all(proj_equal(p1[s], Gl[s]) for s in p1.sites())
    _report(3, time.time() - t0, 20, "pentagram, spiral, and qnet scripts match the direct formulas")


def test_acceptance_4_spectral_membership():
    """The cohomology class of every coherent fixture lies on the white-data
    spectral curve, exactly."""
    t0 = time.time()
    configs = [
        ("pentagram 5/2", make_pentagram_fixture(5, 2)[3]),
        ("pentagram 6/2", make_pentagram_fixture(6, 2, seed=1)[3]),
        ("pentagram 7/3", make_pentagram_fixture(7, 3, seed=2)[3]),
        ("pentagram 8/3", make_pentagram_fixture(8, 3, seed=3)[3]),
        ("spiral", make_spiral_fixture()[2]),
        ("qnet", make_qnet_fixture()[2]),
    ]
    for name, c in configs:
        cls = cohomology_class(c)
        poly = spectral_polynomial_white(c)
        assert on_curve(poly, cls.lam, cls.mu), name
    _report(4, time.time() - t0, 10, f"det K(class) = 0 exactly on {len(configs)} fixtures (k up to 8)")


def test_acceptance_5_determinant_oracle():
    """The spectral determinant equals the brute-force dimer-cover
    expansion, term for term, on every fixture graph with k <= 6."""
    t0 = time.time()
    graphs = []
    for n, k in ((5, 2), (5, 3), (6, 2)):
        c = make_pentagram_fixture(n, k, seed=n * k)[3]
        graphs.append((f"pentagram {n}/{k}", c.graph, c.white_labels))
    sc = make_spiral_fixture()[2]
    graphs.append(("spiral", sc.graph, sc.white_labels))
    for name, g, wl in graphs:
        kw = kasteleyn_weights(g, wl)
        fast = spectral_polynomial(g, kw).normalized()
        slow = brute_force_determinant(g, kw).normalized()
        assert fast.terms == slow.terms, name
    _report(5, time.time() - t0, 60, f"oracle equality on {len(graphs)} graphs (k <= 6)")


def test_acceptance_6_reconstruction_round_trip():
    """Stripping black data and reconstructing at the original class point
    recovers the labels; the minus-one-edge grid is underdetermined."""
    t0 = time.time()
    _, _, _, cp = make_pentagram_fixture(5, 2)
    cls = cohomology_class(cp)
    res = reconstruct_black(cp.graph, 2, cp.white_labels, cls.lam, cls.mu)
    assert res.status == "unique" and labels_projectively_equal(res.config, cp)
    _, _, cs = make_spiral_fixture()
    lam, mu = SPIRAL_CLASS_POINT
    res = reconstruct_black(cs.graph, 2, cs.white_labels, lam, mu)
    assert res.status == "unique" and labels_projectively_equal(res.config, cs)
    g, white = make_grid_minus_edge()
    lam, mu = grid_minus_edge_curve_point(g, white)
    res = reconstruct_black(g, 2, white, lam, mu)
    assert res.status == "nonunique"
    _report(6, time.time() - t0, 10, "pentagon and spiral round trips exact; grid-minus-edge nonunique")


def test_acceptance_7_spiral_propagation():
    """Nine consecutive inscription conditions propagate through twenty
    extension steps in both directions."""
    t0 = time.time()
    sP, sq, c0 = make_spiral_fixture()
    assert 2 * SPIRAL_N + 1 - SPIRAL_K == 9
    assert check_V(c0).ok and check_F(c0).ok  # the nine conditions
    fwd, bwd = (sP, sq), (sP, sq)
    for _ in range(20):
        fwd = (spiral_extend(fwd[0], 1), line_seed_extend(fwd[1], 1))
        cf = build_spiral_config(*fwd)
        assert validate_graph(cf.graph).ok and check_V(cf).ok and check_F(cf).ok
        bwd = (spiral_extend(bwd[0], -1), line_seed_extend(bwd[1], -1))
        cb = build_spiral_config(*bwd)
        assert validate_graph(cb.graph).ok and check_V(cb).ok and check_F(cb).ok
    _report(7, time.time() - t0, 10, "20 forward and 20 backward extension steps all validate")


def test_acceptance_8_qnet_closure():
    """The two-layer 3D fixture stays a Q-net/F-transform pair through four
    Laplace steps, exactly, including an intersection at infinity."""
    t0 = time.time()
    f, g = make_window_fixture(7)
    hit_infinity = False
    for _ in range(4):
        assert is_qnet(f) == [] and is_qnet(g) == []
        assert is_f_transform(f, g)
        f, g = laplace(f), laplace(g)
        hit_infinity = hit_infinity or any(v.coords[3] == 0 for v in f.values.values())
    assert is_qnet(f) == [] and is_qnet(g) == []
    assert is_f_transform(f, g)
    assert hit_infinity
    _report(8, time.time() - t0, 10, "4 Laplace steps exact, with an intersection at infinity")


def test_acceptance_9_gauge_invariances():
    """check_V/check_F verdicts, the cohomology class, and the normalized
    spectral polynomial are invariant under 50 seeded random label
    rescalings and coboundary changes per fixture."""
    t0 = time.time()
    fixtures = [
        ("pentagram", make_pentagram_fixture(5, 2)[3]),
        ("spiral", make_spiral_fixture()[2]),
        ("qnet", make_qnet_fixture()[2]),
    ]
    rng = random.Random(0)
    for name, c in fixtures:
        cls0 = cohomology_class(c)
        poly0 = spectral_polynomial_white(c).normalized()
        vertices = list(c.graph.white_ids) + list(c.graph.black_ids)
        for trial in range(50):
            factors = {
                v: F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
                for v in rng.sample(vertices, 3)
            }
            pots = {v: (rng.randint(-2, 2), rng.randint(-2, 2)) for v in vertices}
            gauged = coboundary_shifted(rescaled_config(c, factors), pots)
            assert check_V(gauged).ok and check_F(gauged).ok, (name, trial)
            assert class_equal(cohomology_class(gauged), cls0), (name, trial)
            assert spectral_polynomial_white(gauged).normalized().terms == poly0.terms, (name, trial)
    _report(9, time.time() - t0, 30, "50 gauge changes per fixture leave all verdicts invariant")
