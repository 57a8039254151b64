import functools
import math
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimergeom import linalg, pentagram, qnet, spectral, spiral
from dimergeom.config import (
    DoubleCircuitConfig,
    check_V,
    cohomology_class,
    config_from_dict,
    config_to_dict,
    labels_projectively_equal,
)
from dimergeom.errors import EmptyKernel, GeometryError, KernelNotOneDimensional, UnequalColorCounts
from dimergeom.fixtures import (
    GRID_CURVE_POINT,
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
from dimergeom.geometry import affine_point, hyperplane, point, proj_equal
from dimergeom.laurent import LaurentPoly2, newton_polygon
from dimergeom.moves import urban_renewal
from dimergeom.qnet import build_qnet_graph
from dimergeom.spectral import (
    BlackFibre,
    _color_swapped,
    _integer_det,
    _zigzag_shear,
    evaluate_matrix,
    fiber_polynomial,
    kasteleyn_rows,
    kasteleyn_weights,
    kernel_at,
    on_curve,
    real_roots,
    reconstruct_black,
    spectral_polynomial,
    spectral_polynomial_dual,
    spectral_polynomial_white,
    zigzag_polygon,
)
from dimergeom.spiral import build_spiral_graph
from dimergeom.torusgraph import Edge, TorusGraph, validate_graph, vertex_edges
from helpers import (
    class_equal,
    coboundary_shifted,
    per_node_integer_det,
    reference_kernel,
    reference_real_roots,
    reference_reconstruct,
    reference_weights,
    rescaled_config,
)


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
    with pytest.raises(UnequalColorCounts, match="^2 white vs 1 black$"):
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


@pytest.mark.parametrize(
    "potentials, shift",
    [
        ({"P0": (10**6, 0)}, (10**6, 0)),
        ({"q0": (-(10**6), 3 * 10**6), "P2": (5, -(10**6))}, (10**6 + 5, -4 * 10**6)),
    ],
    ids=["white", "white-and-black"],
)
def test_a_far_coboundary_change_only_shifts_the_curve(potentials, shift):
    """h'(e) = h(e) + phi(w) - phi(b) multiplies the determinant by the
    monomial of sum phi(w) - sum phi(b): every perfect matching meets each
    vertex once.  The rows and columns are divided by their monomials
    first, so the exponents' size does not enter the cost."""
    _, _, _, c = make_pentagram_fixture(5, 2)
    shifted = coboundary_shifted(c, potentials)
    assert validate_graph(shifted.graph).ok
    assert spectral_polynomial_white(shifted) == spectral_polynomial_white(c).shift(*shift)


_WEIGHT = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda x: x != 0)


@st.composite
def weighted_torus_graphs(draw):
    """A k x k weighted torus graph, k <= 6.  Repeated (white, black) pairs
    are multi-edges, exponents may be negative, weights have denominators,
    and a vertex with no edge is a zero row or column.  Half of the draws
    contain a perfect matching, so that most of their determinants are
    nonzero."""
    k = draw(st.integers(1, 6))
    ends = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    pairs = draw(st.lists(ends, max_size=2 * k))
    if draw(st.booleans()):
        pairs += list(enumerate(draw(st.permutations(range(k)))))
    edges = tuple(Edge(f"w{w}", f"b{b}", (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))) for w, b in pairs)
    g = TorusGraph(tuple(f"w{i}" for i in range(k)), tuple(f"b{i}" for i in range(k)), edges, ())
    return g, {ei: draw(_WEIGHT) for ei in range(len(edges))}


# the two w0--b1 edges share h and cancel, so the entry (b1, w0) is zero
CANCELLING_PARALLEL_EDGES = (
    TorusGraph(
        ("w0", "w1"),
        ("b0", "b1"),
        (
            Edge("w0", "b0", (0, 0)),
            Edge("w1", "b1", (1, 0)),
            Edge("w0", "b1", (0, 1)),
            Edge("w0", "b1", (0, 1)),
            Edge("w1", "b0", (1, 1)),
        ),
        (),
    ),
    {0: F(1), 1: F(2), 2: F(3, 4), 3: F(-3, 4), 4: F(5)},
)


@settings(max_examples=60, deadline=None)
@given(weighted_torus_graphs())
@example(CANCELLING_PARALLEL_EDGES)
def test_determinant_matches_brute_force_random_graphs(graph_and_weights):
    g, weights = graph_and_weights
    assert spectral_polynomial(g, weights).terms == brute_force_determinant(g, weights).terms


def test_float_parallel_edges_drop_a_rounding_sized_sum():
    """Float weights: the two w0--b1 edges at h (0, 1) sum to about 1e-12,
    which the Laurent zero test drops beside the entry's 1.0 at h (0, 0),
    so the matrix is that of the graph without the pair."""
    c = CANCELLING_PARALLEL_EDGES[0]
    base = (*c.edges[:2], Edge("w0", "b1", (0, 0)), c.edges[4])
    g = TorusGraph(c.white_ids, c.black_ids, (*base, c.edges[2], c.edges[3]), ())
    weights = {0: 1.0, 1: 2.0, 2: 1.0, 3: 5.0, 4: 0.75, 5: -0.75 + 1e-12}
    h = TorusGraph(c.white_ids, c.black_ids, base, ())
    kept = {ei: weights[ei] for ei in range(4)}
    assert kasteleyn_rows(g, weights) == kasteleyn_rows(h, kept)
    assert evaluate_matrix(g, weights, 2.0, 3.0) == evaluate_matrix(h, kept, 2.0, 3.0)
    assert spectral_polynomial(g, weights).terms == brute_force_determinant(g, weights).terms


# every row and column has an edge, yet b0 and b1 share their only white
NO_PERFECT_MATCHING = (
    TorusGraph(
        ("w0", "w1", "w2"),
        ("b0", "b1", "b2"),
        (Edge("w0", "b0", (0, 0)), Edge("w0", "b1", (1, 0)), Edge("w1", "b2", (0, 1)), Edge("w2", "b2", (1, 1))),
        (),
    ),
    {0: F(1), 1: F(2), 2: F(3), 3: F(4)},
)


@settings(max_examples=60, deadline=None)
@given(weighted_torus_graphs(), st.integers(-3, 3), st.booleans())
@example(NO_PERFECT_MATCHING, 1, True)
def test_sheared_matching_box_matches_brute_force(graph_and_weights, s, on_lambda):
    """The assignment-proven box at a forced shear (i + s*j, j) or
    (i, j + s*i), on graphs without faces, which the zig-zag step never
    shears."""
    g, weights = graph_and_weights
    det, scale = _integer_det(kasteleyn_rows(g, weights), (s, 0) if on_lambda else (0, s))
    assert (det * F(1, scale)).terms == brute_force_determinant(g, weights).terms


@st.composite
def sparse_cost_tables(draw):
    """k <= 6 rows of column -> int cost dicts, each entry given or not."""
    k = draw(st.integers(0, 6))
    keep = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    return [{c: draw(st.integers(-9, 9)) for c in range(k) if keep[r * k + c]} for r in range(k)]


@settings(max_examples=200, deadline=None)
@given(sparse_cost_tables())
@example([{0: 0, 1: 0}, {0: 0, 1: 9}])  # row 1's least column is taken, so it augments
@example([{0: 1}, {0: 2}, {1: 0, 2: 0}])  # every row and column has an entry, yet no matching
@example([{0: 1}, {0: 3}])  # a column without entries
@example([{}, {0: 1, 1: 1}])  # a row without entries
def test_min_assignment_equals_brute_force(costs):
    """The greedy-started assignment is the least sum over the
    permutations that use only given entries, None exactly when there is
    none, and its potentials are a certificate."""
    k = len(costs)
    sums = [sum(costs[r][c] for r, c in enumerate(p)) for p in permutations(range(k)) if all(c in costs[r] for r, c in enumerate(p))]
    got = spectral._min_assignment(costs)
    if not sums:
        assert got is None
        return
    s, u, v = got
    assert s == min(sums)
    assert all(u[r] + v[c] <= x for r, row in enumerate(costs) for c, x in row.items())
    assert sum(u) + sum(v) == s


def _curve_fixture(name):
    """(graph, white labels, black labels) of a named fixture; the grid
    has no black labels."""
    if name == "grid-minus-edge":
        return (*make_grid_minus_edge(), None)
    if name == "spiral":
        c = make_spiral_fixture()[2]
    elif name == "qnet-4x4":
        c = make_qnet_fixture()[2]
    else:
        c = make_pentagram_fixture(*map(int, name.split("-")[1].split("/")))[3]
    return c.graph, c.white_labels, c.black_labels


def _from_first(polygon):
    x0, y0 = polygon[0]
    return [(x - x0, y - y0) for x, y in polygon]


@pytest.mark.parametrize(
    "name", ["pentagram-7/2", "pentagram-9/2", "pentagram-12/3", "pentagram-24/3", "spiral", "qnet-4x4", "grid-minus-edge"]
)
def test_zigzag_polygon_is_the_newton_polygon(name):
    """Both lists run counterclockwise from the lexicographically smallest
    vertex, so equal offsets from it mean equal up to translation."""
    g, white, _ = _curve_fixture(name)
    poly = spectral_polynomial(g, kasteleyn_weights(g, white))
    assert _from_first(zigzag_polygon(g)) == _from_first(newton_polygon(poly))


def _curve_weights(name, curve):
    """(graph, weights) of a named fixture's white curve, or of its dual
    curve on the color-swapped graph.  Q-net 6x6 takes seeded weights."""
    if name == "qnet-6x6":
        g = build_qnet_graph(6, 6)
        g = _color_swapped(g) if curve == "dual" else g
        rng = random.Random(name)
        return g, {ei: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for ei in range(len(g.edges))}
    g, white, black = _curve_fixture(name)
    if curve == "dual":
        g, white = _color_swapped(g), black
    return g, kasteleyn_weights(g, white)


# interpolation nodes per axis; the dual curve takes the white curve's box
NODE_COUNTS = {
    "pentagram-7/2": [4, 5],
    "pentagram-9/2": [4, 6],
    "pentagram-24/3": [5, 9],
    "spiral": [4, 4],
    "qnet-4x4": [5, 5],
    "qnet-6x6": [7, 7],
    "grid-minus-edge": [4, 5],
}


@pytest.mark.parametrize(
    "name, curve",
    [(name, curve) for name in NODE_COUNTS for curve in ("white", "dual") if (name, curve) != ("grid-minus-edge", "dual")],
    ids=lambda v: v,
)
def test_pentagram_curve_interpolates_on_the_sheared_box(monkeypatch, name, curve):
    """The node counts are pinned, so that no change grows a box.
    Pentagram 24/3: 5 x 9 nodes on the sheared box against 5 x 25 on the
    unsheared one."""
    g, weights = _curve_weights(name, curve)
    sizes = []
    nodes = spectral._nodes
    monkeypatch.setattr(spectral, "_nodes", lambda n: sizes.append(n) or nodes(n))
    poly = spectral_polynomial(g, weights)
    assert sizes == NODE_COUNTS[name]
    if name == "pentagram-24/3":
        assert _zigzag_shear(g) == (0, -8)
        sizes.clear()
        det, scale = _integer_det(kasteleyn_rows(g, weights), (0, 0))
        assert sizes == [5, 25] and (det * F(1, scale)).terms == poly.terms


@pytest.mark.parametrize("name", ["pentagram-7/2", "pentagram-9/4", "spiral", "qnet-4x4"])
def test_color_swapped_graph_keeps_the_faces(name):
    g = _curve_fixture(name)[0]
    swapped = _color_swapped(g)
    assert validate_graph(swapped).ok
    assert _zigzag_shear(swapped) == _zigzag_shear(g)


@pytest.mark.parametrize("name", ["qnet-6x6", "pentagram-24/3"])
def test_large_determinant_at_random_points(name):
    """Schwartz-Zippel: at seeded rational points the k = 18 and k = 24
    polynomials equal the elimination determinant of the evaluated matrix."""
    rng = random.Random(name)
    if name == "qnet-6x6":
        g = build_qnet_graph(6, 6)
        weights = {ei: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for ei in range(len(g.edges))}
    else:
        c = make_pentagram_fixture(24, 3)[3]
        g, weights = c.graph, kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(g, weights)
    for _ in range(3):
        lam, mu = (F(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 20)) for _ in range(2))
        assert poly.evaluate(lam, mu) == linalg.det(evaluate_matrix(g, weights, lam, mu))


# b0 and b1 are the lambda-free rows (1, mu, 0) and (mu, 1, 0), dependent
# at the first two mu nodes 1 and -1; det K = (1 - mu^2)(1 + lambda)
DEPENDENT_PIVOT_ROWS = (
    TorusGraph(
        ("w0", "w1", "w2"),
        ("b0", "b1", "b2"),
        (
            Edge("w0", "b0", (0, 0)),
            Edge("w1", "b0", (0, 1)),
            Edge("w0", "b1", (0, 1)),
            Edge("w1", "b1", (0, 0)),
            Edge("w2", "b2", (0, 0)),
            Edge("w2", "b2", (1, 0)),
        ),
        (),
    ),
    {ei: F(1) for ei in range(6)},
)


@settings(max_examples=60, deadline=None)
@given(weighted_torus_graphs(), st.integers(-3, 3), st.booleans())
@example(DEPENDENT_PIVOT_ROWS, 0, False)
@example(NO_PERFECT_MATCHING, 1, True)
def test_one_elimination_per_mu_node_matches_the_per_node_determinant(graph_and_weights, s, on_lambda):
    """The Schur determinants of one elimination per mu node give the
    same (D, s) as a full Bareiss determinant at every node, at forced
    shears (i + s*j, j) and (i, j + s*i)."""
    g, weights = graph_and_weights
    rows, shear = kasteleyn_rows(g, weights), (s, 0) if on_lambda else (0, s)
    assert _integer_det(rows, shear) == per_node_integer_det(rows, shear)


# every fixture curve, white and dual; the grid has no black labels
CURVES = [(name, curve) for name in NODE_COUNTS for curve in ("white", "dual") if (name, curve) != ("grid-minus-edge", "dual")]


@pytest.mark.parametrize("name, curve", CURVES, ids=lambda v: v)
def test_fixture_curves_match_the_per_node_determinant(name, curve):
    g, weights = _curve_weights(name, curve)
    rows, shear = kasteleyn_rows(g, weights), _zigzag_shear(g)
    assert _integer_det(rows, shear) == per_node_integer_det(rows, shear)


def _recording(monkeypatch, calls):
    """Record (columns, pivot rows, dependent) of every elimination."""
    eliminate = linalg.bareiss_eliminate

    def recorded(mat, m, *level):
        reduced = eliminate(mat, m, *level)
        calls.append((len(mat[0]) if mat else 0, m, reduced is None))
        return reduced

    monkeypatch.setattr(linalg, "bareiss_eliminate", recorded)


def test_dependent_pivot_rows_give_a_zero_mu_line(monkeypatch):
    g, weights = DEPENDENT_PIVOT_ROWS
    calls = []
    _recording(monkeypatch, calls)
    det, scale = _integer_det(kasteleyn_rows(g, weights), (0, 0))
    assert [dependent for cols, m, dependent in calls if cols == 3] == [True, True, False]
    assert (det * F(1, scale)).terms == brute_force_determinant(g, weights).terms


@pytest.mark.parametrize("name, lam_nodes, mu_nodes, lam_rows", [("pentagram-24/3", 5, 9, 4), ("qnet-6x6", 7, 7, 6)])
def test_one_elimination_of_the_kasteleyn_matrix_per_mu_node(monkeypatch, name, lam_nodes, mu_nodes, lam_rows):
    """The k-column matrix is eliminated once per mu node (the per-node
    path took 45 and 49 full determinants), and every other determinant
    is a |R| x |R| Schur block of the lambda-rows R, one per node."""
    g, weights = _curve_weights(name, "white")
    k = len(g.black_ids)
    calls = []
    _recording(monkeypatch, calls)
    spectral_polynomial(g, weights)
    assert [(cols, m) for cols, m, _ in calls if cols == k] == [(k, k - lam_rows)] * mu_nodes
    assert [(cols, m) for cols, m, _ in calls if cols != k] == [(lam_rows, lam_rows)] * (lam_nodes * mu_nodes)


def test_float_data_gives_float_curve_close_to_exact():
    c = make_qnet_fixture()[2]
    data = config_to_dict(c)
    data["scalar"] = "float"
    exact, approx = spectral_polynomial_white(c), spectral_polynomial_white(config_from_dict(data))
    assert all(type(v) is float for _, v in approx.terms)
    assert approx.support() == exact.support()
    assert newton_polygon(approx) == newton_polygon(exact)
    for (_, want), (_, got) in zip(exact.terms, approx.terms):
        assert abs(got - want) <= 1e-12 * abs(want)


# ------------------------------------------------- conservation by dynamics


@pytest.mark.parametrize(
    "start, step, count",
    [
        (lambda: make_pentagram_fixture(9, 2)[3], lambda c: urban_renewal(c, "d0"), 1),
        (lambda: make_pentagram_fixture(7, 2)[3], pentagram.step, 2),
        (lambda: make_pentagram_fixture(8, 3)[3], pentagram.step, 2),
        (lambda: make_pentagram_fixture(9, 2)[3], pentagram.step, 2),
        (lambda: make_spiral_fixture()[2], spiral.step, 4),
        (lambda: make_qnet_fixture()[2], qnet.step, 1),
    ],
    ids=["urban-d0-9/2", "pentagram-7/2", "pentagram-8/3", "pentagram-9/2", "spiral", "qnet-4x4"],
)
def test_dynamics_conserve_the_spectral_curve(start, step, count):
    """The normalized white-data curve is a conserved quantity of the
    moves and of the three step families."""
    cur = start()
    curve = spectral_polynomial_white(cur).normalized().terms
    for i in range(count):
        cur = step(cur)
        assert spectral_polynomial_white(cur).normalized().terms == curve, f"after step {i + 1}"


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


def test_kernel_at_int_point_is_exact():
    _, _, _, c = make_pentagram_fixture(7, 2)
    basis = kernel_at(c.graph, kasteleyn_weights(c.graph, c.white_labels), -1, -1)
    assert basis and all(isinstance(x, F) for v in basis for x in v)


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


@functools.cache
def _weighted_graph(name):
    c = make_spiral_fixture()[2] if name == "spiral" else make_pentagram_fixture(*name)[3]
    kw = kasteleyn_weights(c.graph, c.white_labels)
    return c.graph, kw, spectral_polynomial(c.graph, kw)


_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(lambda x: x != 0)


@pytest.mark.parametrize("name", [(5, 2), (7, 3), "spiral"])
@settings(max_examples=25, deadline=None)
@given(lam=_NONZERO, mu=_NONZERO)
def test_elimination_det_matches_cofactor_polynomial(name, lam, mu):
    g, kw, poly = _weighted_graph(name)
    assert linalg.det(evaluate_matrix(g, kw, lam, mu)) == poly.evaluate(lam, mu)


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
    assert [(ev.op, ev.target) for ev in res.events] == [("solve", q) for q in ("q1", "q2", "q3", "q5", "q0", "q4")]
    assert [ev.outcome for ev in res.events] == ["solved"] * 3 + ["solved (with circuit constraints)"] * 3


def test_reconstruct_grid_minus_edge_nonunique():
    g, white = make_grid_minus_edge()
    lam, mu = grid_minus_edge_curve_point(g, white)
    assert (lam, mu) == (F(1), F(-2312629, 110955))
    res = reconstruct_black(g, 2, white, lam, mu)
    assert res.status == "nonunique"
    assert "B1x0" in res.detail


def test_grid_curve_point_is_checked_against_the_white_data():
    g, white = make_grid_minus_edge()
    white["W2x2"] = affine_point(9, -2)  # was (9, -3)
    with pytest.raises(GeometryError, match="lost its curve point"):
        grid_minus_edge_curve_point(g, white)


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
    poly = spectral_polynomial(g, kasteleyn_weights(g, white))
    for lam, mu in (SPIRAL_CLASS_POINT,) + SPIRAL_EXTRA_POINTS:
        assert on_curve(poly, lam, mu)


def test_exact_on_curve_equals_the_fraction_value():
    """The int test of on_curve against Fraction evaluation, at the
    fixtures' stored curve points and at seeded random rationals."""
    spiral_poly = spectral_polynomial_white(make_spiral_fixture()[2])
    grid, white = make_grid_minus_edge()
    grid_poly = spectral_polynomial(grid, kasteleyn_weights(grid, white))
    rng = random.Random(7)
    cases = [(spiral_poly, pt) for pt in (SPIRAL_CLASS_POINT, *SPIRAL_EXTRA_POINTS)] + [(grid_poly, GRID_CURVE_POINT)]
    for poly in (spiral_poly, grid_poly):
        cases += [(poly, (F(rng.randint(-50, 50) or 1, rng.randint(1, 30)), F(rng.randint(-50, 50) or 1, rng.randint(1, 30)))) for _ in range(20)]
        cases += [(poly, (1, 1)), (poly, (F(-2), 3))]
    assert all(on_curve(p, *pt) for p, pt in cases[:4])
    for p, (lam, mu) in cases:
        assert on_curve(p, lam, mu) == (p.evaluate(lam, mu) == 0)


@functools.cache
def _reconstruction_case(name, n=None, k=None, seed=None):
    """(graph, d, white labels, lam, mu): a fixture at its class point,
    the grid at its stored point, a seeded pentagram or the 7/2 pentagram
    after 10 steps at its class point."""
    if name == "grid":
        g, white = make_grid_minus_edge()
        return g, 2, white, *GRID_CURVE_POINT
    if name == "pentagram":
        c = make_pentagram_fixture(n, k, seed=seed)[3]
    elif name == "7/2 after 10 steps":
        c = make_pentagram_fixture(7, 2)[3]
        for _ in range(10):
            c = pentagram.step(c)
    elif name == "spiral":
        c = make_spiral_fixture()[2]
    else:
        c = make_qnet_fixture()[2]
    return c.graph, c.d, c.white_labels, *cohomology_class(c)


def _outcome(f, *args):
    """f(*args), or the type and message of the GeometryError it raises."""
    try:
        return f(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)


def _typed(x):
    """Nested lists and dicts of scalars with each scalar's type, so that
    1 == F(1) == 1.0 do not compare equal."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_typed(v) for v in x]
    return type(x).__name__, x


def _result(res):
    if isinstance(res, spectral.ReconstructionResult):
        return res.status, res.events, res.detail, res.config and config_to_dict(res.config)
    return res


# the fixtures at their class points (pentagrams as make_pentagram_fixture
# draws them in test_membership_every_coherent_fixture) and the grid
_FIXTURE_CASES = [
    ("pentagram", 5, 2, 0), ("pentagram", 6, 2, 4), ("pentagram", 7, 3, 5), ("spiral",), ("qnet",), ("grid",)
]
_PENTAGRAMS = st.integers(5, 16).flatmap(
    lambda n: st.tuples(
        st.just("pentagram"), st.just(n), st.integers(2, n - 2).filter(lambda k: 2 * k != n), st.integers(0, 20)
    )
)


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(st.sampled_from(_FIXTURE_CASES), _PENTAGRAMS, st.just(("7/2 after 10 steps",))),
    as_float=st.sampled_from(["", "labels", "point", "labels and point"]),
)
@example(case=("grid",), as_float="")
@example(case=("7/2 after 10 steps",), as_float="")
def test_reconstruction_equals_the_fraction_reference(case, as_float):
    # the int path (relation of the int rows, int Kasteleyn rows, int
    # equations) gives what the Fraction path gave, exactly; float labels
    # or a float point take the Fraction path's own code, bit for bit
    g, d, white, lam, mu = _reconstruction_case(*case)
    if "labels" in as_float:
        white = {w: point(*map(float, e.coords)) for w, e in white.items()}
    if "point" in as_float:
        lam, mu = float(lam), float(mu)
    weights = _outcome(kasteleyn_weights, g, white)
    assert _typed(weights) == _typed(_outcome(reference_weights, g, white))
    if isinstance(weights, dict):
        kernel = _outcome(kernel_at, g, weights, lam, mu)
        assert _typed(kernel) == _typed(_outcome(reference_kernel, g, weights, lam, mu))
        got = _result(_outcome(reconstruct_black, g, d, white, lam, mu))
        assert got == _result(_outcome(reference_reconstruct, g, d, white, lam, mu))


@pytest.mark.parametrize("case", [*_FIXTURE_CASES, ("7/2 after 10 steps",)])
@pytest.mark.parametrize("float_labels", [False, True])
def test_one_fibre_equals_the_fraction_reference_at_every_point(case, float_labels):
    # one BlackFibre read first off the curve, then at the case's own point
    # (a class point, or the grid's stored one), the spiral's extra points,
    # the own point as floats and float roots of three fibers: a fibre that
    # kept the rows of an earlier point would read EmptyKernel at each one
    g, d, white, lam, mu = _reconstruction_case(*case)
    if float_labels:
        white = {w: point(*map(float, e.coords)) for w, e in white.items()}
    points = [(F(2), F(3)), (lam, mu), *(SPIRAL_EXTRA_POINTS if case == ("spiral",) else ()), (float(lam), float(mu))]
    poly = spectral_polynomial(g, kasteleyn_weights(g, white))
    points += [(x, y) for x in (0.7, -1.3, 2.1) for y in real_roots(fiber_polynomial(poly, x))[:2]]
    fibre = BlackFibre(g, d, white)
    got = [_result(_outcome(fibre.at, *at)) for at in points]
    assert got == [_result(_outcome(reference_reconstruct, g, d, white, *at)) for at in points]
    assert got[0][0] == "EmptyKernel" and "EmptyKernel" not in [r[0] for r in got[1:]]


def test_a_float_point_can_fail_the_circuit_condition_at_a_white_vertex():
    # a point that the probe draws on the 7/2 pentagram after 12 steps: the
    # solved hyperplanes fail (V) at a white vertex; at the black vertices
    # (V) holds by the relations behind the weights
    c = make_pentagram_fixture(7, 2)[3]
    for _ in range(12):
        c = pentagram.step(c)
    white = {w: point(*map(float, e.coords)) for w, e in c.white_labels.items()}
    lam, mu = float.fromhex("0x1.02654d903b799p+0"), float.fromhex("0x1.fe8f80034a284p-1")
    res = BlackFibre(c.graph, c.d, white).at(lam, mu)
    assert (res.status, res.detail, len(res.events)) == ("nosolution", "result fails the circuit condition", 7)
    assert reconstruct_black(c.graph, c.d, white, lam, mu) == res


def test_white_labels_that_are_no_circuit_at_a_black_vertex_raise_as_check_V_reads_them():
    c = make_pentagram_fixture(7, 2)[3]
    g = c.graph
    w0, w1 = (g.edges[ei].w for ei in vertex_edges(g)[g.black_ids[0]][:2])
    white = {**c.white_labels, w1: c.white_labels[w0]}  # a repeated point among four in the plane
    rep = check_V(DoubleCircuitConfig(g, c.d, white, c.black_labels))
    b = next(v for v in g.black_ids if v in rep.failures)
    reason = rep.messages[rep.failures.index(b)].removeprefix(f"vertex {b}: neighbor labels do not form a circuit (")
    for build in (lambda: reconstruct_black(g, c.d, white, *cohomology_class(c)), lambda: BlackFibre(g, c.d, white)):
        with pytest.raises(KernelNotOneDimensional) as exc:
            build()
        assert f"{exc.value})" == f"black vertex {b}: {reason}"


def _expanded(roots):
    """Coefficients, constant first, of prod (x - r) over the roots."""
    poly = [F(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([F(0)] + poly, poly + [F(0)])]
    return poly


def _condition(poly, r):
    """sum |a_k r^k| / |r p'(r)|: the relative change of the simple root r
    per unit relative change of the coefficients a_k of p."""
    size = sum(abs(a * r**k) for k, a in enumerate(poly))
    return size / abs(r * sum(k * a * r ** (k - 1) for k, a in enumerate(poly) if k))


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.fractions(-50, 50, max_denominator=10).filter(bool), min_size=1, max_size=8, unique=True),
    no_real_root_factor=st.booleans(),
    as_float=st.booleans(),
    shift=st.integers(-6, 6),
)
def test_real_roots_finds_the_simple_real_roots(roots, no_real_root_factor, as_float, shift):
    """A float root is off by about the coefficient rounding times its
    condition number, so ill-conditioned clusters such as 43, 44, ..., 50
    (condition 9e11; 2e-5 off in floats) are left out."""
    poly = _expanded(roots)
    if no_real_root_factor:  # times x^2 + x + 1
        poly = [a + b + c for a, b, c in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
    assume(max(_condition(poly, r) for r in roots) < 1e5)
    coeffs = {k + shift: float(a) if as_float else a for k, a in enumerate(poly)}
    got = real_roots(coeffs)
    assert len(got) == len(roots)
    for x, r in zip(got, sorted(roots)):
        assert abs(x - r) <= 1e-9 * abs(r), (x, r)


@pytest.mark.parametrize(
    "coeffs, want",
    [
        ({0: 1, 2: 1}, []),  # x^2 + 1
        ({3: F(5, 2)}, []),
        ({}, []),
        ({0: 1, 1: -2, 2: 1}, []),  # (x - 1)^2: even multiplicity
        ({0: -3, 1: 7, 2: -5, 3: 1}, [3]),  # (x - 1)^2 (x - 3)
        ({-3: 2.0, -2: -1.0}, [2]),  # negative exponents
        ({0: 1e-300, 1: -1.0, 2: 1e-300}, [1e-300, 1e300]),  # wide dynamic range
        ({0: -1, 7: F(1, 10**300)}, [10 ** (300 / 7)]),
        ({0: 10**400, 1: 10**400, 2: -2 * 10**400}, [-0.5, 1]),  # beyond the float range, exact
        # coefficients no one divisor brings into the float range: x is scaled too
        ({0: 10**400, 1: -1, 5: 3}, [-1e80 / 3**0.2]),
        ({0: -1, 1: 1, 5: 10**400}, [1e-80]),
        ({0: 1, 3: 10**400, 5: 1}, [-(10.0**-133) / 10 ** (1 / 3)]),  # the largest term is a middle one
        # (x^3 - 2^-2400)(x - 2^800): two root clusters that no one scaling holds
        ({0: F(1, 2**1600), 1: F(-1, 2**2400), 3: -(2**800), 4: 1}, [2.0**-800, 2.0**800]),
    ],
)
def test_real_roots_cases(coeffs, want):
    got = real_roots(coeffs)
    assert all(math.isfinite(x) for x in got)
    assert len(got) == len(want) and all(abs(x - r) <= 1e-9 * abs(r) for x, r in zip(got, want)), got


@functools.cache
def _fiber_curves():
    """The curves whose fibers the root finder is pinned on."""
    g, _, white, _, _ = _reconstruction_case("7/2 after 10 steps")
    configs = [make_pentagram_fixture(7, 2)[3], make_pentagram_fixture(9, 2)[3], make_spiral_fixture()[2]]
    return [spectral_polynomial(g, kasteleyn_weights(g, white)), *map(spectral_polynomial_white, configs)]


def _seeded_fibers(seed):
    """Fibers of the curves at a float and at an exact lambda, and two
    polynomials whose coefficients spread past the float range, so that
    real_roots solves them one root band at a time."""
    rng = random.Random(seed)
    p = rng.choice(_fiber_curves())
    yield fiber_polynomial(p, rng.uniform(0.2, 3.0) * rng.choice([1, -1]))
    yield fiber_polynomial(p, F(rng.randint(-30, 30) or 1, rng.randint(1, 9)))
    powers = sorted(rng.sample(range(-3, 10), rng.randint(2, 8)))
    yield {k: rng.choice([-1, 1]) * rng.randint(1, 9) * F(10) ** rng.randint(-400, 400) for k in powers}
    poly = [F(rng.choice([-1, 1]))]
    for _ in range(rng.randint(1, 6)):  # times x - r, r = +-2^e
        r = rng.choice([-1, 1]) * F(2) ** rng.randint(-900, 900)
        poly = [a - r * b for a, b in zip([F(0)] + poly, poly + [F(0)])]
    yield dict(enumerate(poly))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_real_roots_equals_its_reference_bit_for_bit(seed):
    for coeffs in _seeded_fibers(seed):
        assert [x.hex() for x in real_roots(coeffs)] == [x.hex() for x in reference_real_roots(coeffs)], coeffs


def test_dual_curve_experiment_pentagon():
    _, _, _, c = make_pentagram_fixture(5, 2)
    pw = spectral_polynomial_white(c).normalized()
    pb = spectral_polynomial_dual(c).normalized()
    # observational: on this fixture the two normalized curves coincide
    assert pw.terms == pb.terms


DUAL_CURVE_INPUTS = {
    "spiral": lambda: make_spiral_fixture()[2],
    "pentagram 5/2": lambda: make_pentagram_fixture(5, 2)[3],
    "pentagram 7/2": lambda: make_pentagram_fixture(7, 2)[3],
    "pentagram 8/3": lambda: make_pentagram_fixture(8, 3)[3],
    "qnet": lambda: make_qnet_fixture()[2],
    "spiral, one step": lambda: spiral.step(make_spiral_fixture()[2]),
    "pentagram 7/2, one step": lambda: pentagram.step(make_pentagram_fixture(7, 2)[3]),
    "qnet, one step": lambda: qnet.step(make_qnet_fixture()[2]),
}


@pytest.mark.parametrize("name", DUAL_CURVE_INPUTS)
def test_dual_curve_is_the_white_curve_with_exponents_negated(name):
    # the black data give the white curve under (lam, mu) -> (1/lam, 1/mu);
    # plain equality fails on the spiral only, whose curve is not symmetric
    c = DUAL_CURVE_INPUTS[name]()
    white, dual = spectral_polynomial_white(c), spectral_polynomial_dual(c).normalized()
    negated = LaurentPoly2.from_dict({(-i, -j): v for (i, j), v in white.terms})
    assert dual == negated.normalized()
    assert (dual == white.normalized()) == (not name.startswith("spiral"))


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
    _, _, _, c = make_pentagram_fixture(5, 2)
    kw = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, kw)
    wl = {k: point(*[float(x) for x in v.coords]) for k, v in c.white_labels.items()}
    configs = []
    for lam in (0.7, 1.6):
        coeffs = {}
        for (i, j), cf in poly.terms:
            coeffs[j] = coeffs.get(j, 0.0) + float(cf) * lam**i
        real = [r for r in real_roots(coeffs) if abs(r) > 1e-9]
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
