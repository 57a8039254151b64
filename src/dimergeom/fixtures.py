"""Canonical reproducible fixtures.

* pentagram: polygon pairs from the conic construction (any n >= 5 and
  k not in {n/2} -- at k = n/2 the chord lines q_i = Q_i Q_{i+k} coincide
  in pairs and the line list degenerates);
* spiral: white seed with frozen parameters whose spectral curve carries
  exact rational points; black data comes from reconstruction at the
  stored class point;
* qnet: a periodically repeating net on the quadric z = xy paired with
  its image under a central collineation (every mixed quadrilateral then
  contains the center and is coplanar), planes from the mate's squares;
* grid_minus_edge: square-grid torus minus one edge with the forced
  collinearity at the degree-three black vertex; reconstruction at any
  curve point is underdetermined there.

The spiral and grid fixtures store verified rational points of their
curves as frozen data; no point is searched for at run time.
"""
from __future__ import annotations

from fractions import Fraction as F

from .errors import BadParameters, GeometryError
from .geometry import POINT, HomogeneousElement, affine_point, circumscribed_pair, point
from .torusgraph import TorusGraph, delete_edge


def default_pentagram_params(n: int, seed: int = 0):
    """n distinct rational conic parameters, deterministic in the seed."""
    import random

    rng = random.Random(seed)
    params: list = []
    while len(params) < n:
        t = F(rng.randint(-12, 12), rng.randint(1, 6))
        if t not in params:
            params.append(t)
    return params


def make_pentagram_fixture(n: int, k: int, params=None, seed: int = 0):
    """(P, Q, q, config): conic-inscribed pair plus the labeled template."""
    from .pentagram import Polygon, build_pentagram_config, build_pentagram_graph, lines_from_vertices

    build_pentagram_graph(n, k)  # checks (n, k) before any geometry
    if params is None:
        params = default_pentagram_params(n, seed)
    if len(params) != n:
        raise BadParameters(f"need {n} parameters")
    if 2 * k == n:
        raise BadParameters(
            "the conic construction degenerates at k = n/2 (chord lines repeat)"
        )
    Pl, Ql = circumscribed_pair(params)
    P, Q = Polygon(tuple(Pl)), Polygon(tuple(Ql))
    q = lines_from_vertices(Q, k)
    return P, Q, q, build_pentagram_config(P, q, k)


# frozen spiral seed: free points, interpolation parameter, and stored
# rational points of its curve (the class point is checked by the
# reconstruction below, and every point by the tests)
SPIRAL_K, SPIRAL_N, SPIRAL_BASE = 2, 5, 1
SPIRAL_FREE = ((0, 0), (5, -2), (7, 2), (3, -1))
SPIRAL_T0 = F(2)
SPIRAL_CLASS_POINT = (F(1, 5), F(2))
SPIRAL_EXTRA_POINTS = ((F(128, 135), F(-3, 4)), (F(24, 5), F(1, 2)))


def make_spiral_white_seed():
    """The frozen spiral's point seed (a spiral.SpiralSeed)."""
    from .spiral import sample_spiral_seed

    free = [affine_point(*xy) for xy in SPIRAL_FREE]
    return sample_spiral_seed(SPIRAL_K, SPIRAL_N, SPIRAL_BASE, free, [SPIRAL_T0])


def make_spiral_fixture():
    """(point seed, line seed, config) for the coherent spiral pair."""
    from .spectral import reconstruct_black
    from .spiral import build_spiral_graph, seeds_from_config

    sP = make_spiral_white_seed()
    g = build_spiral_graph(SPIRAL_K, SPIRAL_N, SPIRAL_BASE)
    N = SPIRAL_N + 1
    white = {f"P{(SPIRAL_BASE + m) % N}": sP.points[m] for m in range(N)}
    lam, mu = SPIRAL_CLASS_POINT
    res = reconstruct_black(g, 2, white, lam, mu)
    if res.status != "unique":
        raise GeometryError(f"frozen spiral fixture failed to reconstruct: {res.status}")
    return (*seeds_from_config(res.config), res.config)


# qnet fixture: periodic sequences on the quadric plus a central collineation
QNET_A = QNET_B = 4
QNET_XS = (F(1), F(2), F(4), F(-1))
QNET_YS = (F(1), F(3), F(6), F(-2))
QNET_AXIS = (F(1, 7), F(2, 7), F(3, 7), F(5, 7))


def _separable_point(x, y) -> HomogeneousElement:
    return point(x, y, x * y, 1)


def _collineate(p: HomogeneousElement) -> HomogeneousElement:
    s = sum(w * c for w, c in zip(QNET_AXIS, p.coords))
    return HomogeneousElement((*p.coords[:3], p.coords[3] + s), POINT)


def make_qnet_windows(span_i=range(-3, 8), span_j=range(-3, 8)):
    """(f, g) point windows forming an exact F-transform pair: a periodic
    net on the quadric z = xy and its central-collineation image."""
    from .qnet import QNetWindow

    f = QNetWindow(
        {
            (i, j): _separable_point(QNET_XS[i % QNET_A], QNET_YS[j % QNET_B])
            for i in span_i
            for j in span_j
            if (i + j) % 2 == 0
        }
    )
    g = QNetWindow({k: _collineate(v) for k, v in f.values.items()})
    return f, g


def make_qnet_fixture():
    """(f window, G window, config) for the coherent torus quotient."""
    from .qnet import QNetWindow, build_qnet_config, plane_of_quad

    a, b = QNET_A, QNET_B
    f, g_mate = make_qnet_windows(range(-1, a + 1), range(-1, b + 1))
    f_one = QNetWindow(
        {(i, j): f[(i, j)] for i in range(a) for j in range(b) if (i + j) % 2 == 0}
    )
    G = QNetWindow(
        {
            (i, j): plane_of_quad(g_mate, (i, j))
            for i in range(a)
            for j in range(b)
            if (i + j) % 2 == 1
        }
    )
    return f_one, G, build_qnet_config(f_one, G, a, b)


# grid minus one edge: frozen white data (the degree-3 black vertex B1x0
# sees the collinear triple W2x0, W1x1, W1x3) and a stored rational point
# of its curve
GRID_A = GRID_B = 4
GRID_CURVE_POINT = (F(1), F(-2312629, 110955))
GRID_WHITE = {
    "W0x0": (3, 4),
    "W0x2": (-8, -1),
    "W1x1": (7, 6),
    "W1x3": (13, 30),
    "W2x0": (6, 2),
    "W2x2": (9, -3),
    "W3x1": (7, -5),
    "W3x3": (0, -5),
}


def make_grid_minus_edge():
    """(graph, white labels): torus grid minus the W0x0--B1x0 edge."""
    from .qnet import build_qnet_graph

    g0 = build_qnet_graph(GRID_A, GRID_B, 0)
    ei = next(i for i, e in enumerate(g0.edges) if e.w == "W0x0" and e.b == "B1x0")
    g = delete_edge(g0, ei, "hole")
    white = {v: affine_point(*GRID_WHITE[v]) for v in g.white_ids}
    return g, white


def grid_minus_edge_curve_point(g: TorusGraph, white: dict):
    """GRID_CURVE_POINT, checked exactly on the spectral curve of (g, white)."""
    from .spectral import kasteleyn_weights, on_curve, spectral_polynomial

    if not on_curve(spectral_polynomial(g, kasteleyn_weights(g, white)), *GRID_CURVE_POINT):
        raise GeometryError("frozen grid fixture lost its curve point")
    return GRID_CURVE_POINT
