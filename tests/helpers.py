"""Helpers that only the tests use: gauge changes of a configuration,
class comparison, coordinate equality, conic tangency, incidence checks
of the pentagram, Q-net and spiral dynamics, the non-periodic Q-net
window fixture, a seeded Q-net torus, the per-node reference of the spectral determinant, the
Fraction reference of the black-data reconstruction and the reference of
the real root finder."""
import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import reduce
from math import lcm, ldexp, log2

from dimergeom import linalg, qnet, spectral
from dimergeom.config import CohomologyClass, DoubleCircuitConfig, check_F, check_V
from dimergeom.errors import DimensionMismatch, EmptyKernel, KernelDegenerate, KernelNotOneDimensional, SizeMismatch
from dimergeom.fixtures import _collineate, _separable_point
from dimergeom.geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    circuit_coefficients,
    incident,
    line_through,
    meet_hyperplanes,
    normalize_coords,
    proj_equal,
)
from dimergeom.laurent import LaurentPoly2
from dimergeom.pentagram import Polygon
from dimergeom.qnet import QNetWindow, build_qnet_config, plane_of_quad
from dimergeom.scalars import _ipow, is_float, is_zero
from dimergeom.spiral import LineSeed
from dimergeom.torusgraph import Edge, Event, TorusGraph, vertex_edges


def class_equal(c1: CohomologyClass, c2: CohomologyClass) -> bool:
    s1 = max(abs(c1.lam), abs(c2.lam))
    s2 = max(abs(c1.mu), abs(c2.mu))
    return is_zero(c1.lam - c2.lam, scale=s1) and is_zero(c1.mu - c2.mu, scale=s2)


def with_walks(c: DoubleCircuitConfig, z1, z2) -> DoubleCircuitConfig:
    """c on its graph carrying the basis cycles (z1, z2), along which
    ``cohomology_class`` reads the class."""
    g = c.graph
    graph = TorusGraph(g.white_ids, g.black_ids, g.edges, g.faces, (z1, z2))
    return DoubleCircuitConfig(graph, c.d, c.white_labels, c.black_labels)


def rescaled_config(c: DoubleCircuitConfig, factors: dict) -> DoubleCircuitConfig:
    """New config with some labels multiplied by nonzero scalars (gauge test)."""
    wl = dict(c.white_labels)
    bl = dict(c.black_labels)
    for v, s in factors.items():
        labels = wl if v in wl else bl if v in bl else None
        if labels is not None:
            s = float(s) if is_float(labels[v].coords) else F(s)
            labels[v] = HomogeneousElement(tuple(x * s for x in labels[v].coords), labels[v].kind)
    return DoubleCircuitConfig(c.graph, c.d, wl, bl)


def coboundary_shifted(c: DoubleCircuitConfig, potentials: dict) -> DoubleCircuitConfig:
    """New config whose h data differs by the coboundary of integer-pair
    vertex potentials: h'(e) = h(e) + phi(w) - phi(b)."""
    g = c.graph
    edges = []
    for e in g.edges:
        pw = potentials.get(e.w, (0, 0))
        pb = potentials.get(e.b, (0, 0))
        edges.append(Edge(e.w, e.b, (e.h[0] + pw[0] - pb[0], e.h[1] + pw[1] - pb[1])))
    graph = TorusGraph(g.white_ids, g.black_ids, tuple(edges), g.faces, g.basis_cycles)
    return DoubleCircuitConfig(graph, c.d, c.white_labels, c.black_labels)


def proj_equal_coords(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and proj_equal(HomogeneousElement(a, POINT), HomogeneousElement(b, POINT))


@dataclass(frozen=True)
class Conic:
    """Plane conic given by a symmetric 3x3 matrix M: P on it iff P^T M P = 0."""

    matrix: tuple  # 3 rows of 3 scalars

    def value(self, p: HomogeneousElement):
        v = p.coords
        return sum(self.matrix[i][j] * v[i] * v[j] for i in range(3) for j in range(3))

    def contains(self, p: HomogeneousElement) -> bool:
        scale = max(abs(x) for row in self.matrix for x in row) * max(abs(c) for c in p.coords) ** 2
        return is_zero(self.value(p), scale=scale)

    def bilinear(self, p, q):
        return sum(self.matrix[i][j] * p.coords[i] * q.coords[j] for i in range(3) for j in range(3))


def standard_conic() -> Conic:
    """The conic yz = x^2 (all tangency data rational in the parameter)."""
    h, o, i = F(-1, 2), F(0), F(1)
    return Conic(((i, o, o), (o, o, h), (o, h, o)))


def line_discriminant(conic: Conic, line: HomogeneousElement):
    """B(p,q)^2 - Q(p)Q(q) for two points spanning the line; zero iff
    the line is tangent (touches at exactly one projective point)."""
    pts = linalg.nullspace([list(line.coords)])
    p = HomogeneousElement(tuple(pts[0]), POINT)
    q = HomogeneousElement(tuple(pts[1]), POINT)
    return conic.bilinear(p, q) ** 2 - conic.value(p) * conic.value(q)


def is_inscribed(Q: Polygon, P: Polygon) -> bool:
    """Consecutive vertices of Q lie on consecutive sides of P (exactly)."""
    if len(Q) != len(P):
        raise SizeMismatch(f"polygon sizes differ: {len(Q)} vs {len(P)}")
    return all(incident(line_through(P[i], P[i + 1]), Q[i]) for i in range(len(P)))


def is_qnet(w: QNetWindow) -> list:
    """The interior sites of w whose four neighbours are not coplanar (or,
    for planes, not concurrent); empty for a Q-net."""
    return qnet._net_failures(w, qnet._interior_sites(w))


def is_f_transform(f: QNetWindow, g: QNetWindow) -> bool:
    """For every site and both signs, f(i,j), g(i,j), f(i+1,j+-1),
    g(i+1,j+-1) are coplanar."""
    if f.parity != g.parity or f.kind != POINT or g.kind != POINT:
        raise SizeMismatch("F-transform needs two point windows of equal parity")
    checked = 0
    for i, j in f.sites():
        if (i, j) not in g:
            continue
        for dj in (1, -1):
            o = (i + 1, j + dj)
            if o in f and o in g:
                quad = [f[i, j], g[i, j], f[o], g[o]]
                if linalg.rank([list(p.coords) for p in quad]) > 3:
                    return False
                checked += 1
    if checked == 0:
        raise SizeMismatch("windows do not overlap enough to compare")
    return True


def inscribed_points(sq: LineSeed):
    """Q_j = q_j ^ q_{j-k} for all j available in the window, as a dict."""
    out = {}
    for j in range(sq.base + sq.k, sq.base + sq.n + 1):
        out[j] = meet_hyperplanes([sq.point(j), sq.point(j - sq.k)])
    return out


def _window_x(i: int):
    # arithmetic on 0..2 (parallel tangent lines there force one Laplace
    # point at infinity), generic elsewhere
    if 0 <= i <= 2:
        return F(i + 1)
    return F(i + 1) + F(1, i + 20)


def _window_y(j: int):
    if 1 <= j <= 3:
        return F(2 * j - 1)
    return F(2 * j - 1) + F(1, 2 * j + 31)


def make_window_fixture(half: int = 7):
    """Non-periodic two-layer 3D fixture for Laplace iteration.  The sequence
    spots chosen arithmetic make the transform at site (1, 2) land at
    infinity; everything else stays generic through four steps."""
    span = range(-half, half + 1)
    f = QNetWindow(
        {
            (i, j): _separable_point(_window_x(i), _window_y(j))
            for i in span
            for j in span
            if (i + j) % 2 == 0
        }
    )
    g = QNetWindow({k: _collineate(v) for k, v in f.values.items()})
    return f, g


def seeded_qnet_config(a: int, seed: int) -> DoubleCircuitConfig:
    """Coherent a x a Q-net torus: seeded period-a rationals on the quadric
    z = xy and a central collineation with a seeded axis, the planes from
    the image's squares (the construction of the benchmark's Q-net draws)."""
    rng = random.Random(seed)

    def rationals():
        out: list = []
        while len(out) < a:
            t = F(rng.randint(-40, 40), rng.randint(1, 9))
            if t not in out:
                out.append(t)
        return out

    xs, ys = rationals(), rationals()
    axis = [F(rng.randint(1, 9), rng.randint(2, 9)) for _ in range(4)]

    def collineate(p):
        x, y, z, w = p.coords
        return HomogeneousElement((x, y, z, w + sum(c * v for c, v in zip(axis, p.coords))), POINT)

    ring = range(-1, a + 1)
    f = QNetWindow({(i, j): _separable_point(xs[i % a], ys[j % a]) for i in ring for j in ring if (i + j) % 2 == 0})
    mate = QNetWindow({s: collineate(v) for s, v in f.values.items()})
    period = [(i, j) for i in range(a) for j in range(a)]
    f_one = QNetWindow({s: f[s] for s in period if sum(s) % 2 == 0})
    planes = QNetWindow({s: plane_of_quad(mate, s) for s in period if sum(s) % 2 == 1})
    return build_qnet_config(f_one, planes, a, a)


def per_node_integer_det(rows, shear):
    """spectral._integer_det with one full k x k Bareiss determinant at
    every node of the box: the reference for its one elimination per mu
    node.  Same box, potentials and interpolation, so the same (D, s)."""
    a, b = shear
    k = len(rows)
    sheared = [[(col, i + a * j, j + b * i, F(c)) for col, i, j, c in row] for row in rows]
    box = spectral._matching_box(sheared)
    if box is None:
        return LaurentPoly2.zero(), 1
    (width_l, row_l, col_l), (width_m, row_m, col_m) = box
    ints = []
    scale = 1
    for row, pl, pm in zip(sheared, row_l, row_m):
        den = lcm(*(t[3].denominator for t in row))
        scale *= den
        ints.append([(col, i - pl - col_l[col], j - pm - col_m[col], int(c * den)) for col, i, j, c in row])
    shift_l, shift_m = sum(row_l) + sum(col_l), sum(row_m) + sum(col_m)
    nodes_l, nodes_m = spectral._nodes(width_l + 1), spectral._nodes(width_m + 1)
    values = []
    for x in nodes_l:
        line = []
        for y in nodes_m:
            mat = [[0] * k for _ in range(k)]
            for r, row in zip(mat, ints):
                for col, i, j, c in row:
                    r[col] += c * x**i * y**j
            line.append(int(linalg.det(mat)))
        values.append(spectral._interpolate(nodes_m, line))
    out = {}
    for j in range(len(nodes_m)):
        for i, c in enumerate(spectral._interpolate(nodes_l, [v[j] for v in values])):
            p, q = i + shift_l, j + shift_m
            out[(p - a * q, q - b * p)] = c
    return LaurentPoly2.from_dict(out), scale


# ------------------------------------------- Fraction reference of reconstruction


def reference_weights(g, white_labels):
    """spectral.kasteleyn_weights by circuit_coefficients on the label
    coordinates: the reference for its relation of the int rows."""
    inc = vertex_edges(g)
    weights = {}
    for b in g.black_ids:
        edge_ids = inc.get(b, [])
        if len(edge_ids) < 2:
            raise KernelNotOneDimensional(f"black vertex {b} has degree {len(edge_ids)}")
        try:
            rows = [list(white_labels[g.edges[ei].w].coords) for ei in edge_ids]
        except KeyError as exc:
            raise DimensionMismatch(f"black vertex {b}: neighbor {exc.args[0]} has no label") from None
        try:
            c = circuit_coefficients(rows)
        except KernelNotOneDimensional as exc:
            raise KernelNotOneDimensional(f"black vertex {b}: {exc}") from exc
        for ei, x in zip(edge_ids, c):
            weights[ei] = x / c[0]
    return weights


def reference_kernel(g, weights, lam, mu):
    """spectral.kernel_at by the nullspace of the Fraction matrix, summed
    entry by entry: the reference for its int rows."""
    m = [[F(0)] * len(g.white_ids) for _ in g.black_ids]
    for r, row in zip(m, spectral.kasteleyn_rows(g, weights)):
        for col, i, j, c in row:
            r[col] = r[col] + c * _ipow(lam, i) * _ipow(mu, j)
    basis = linalg.nullspace(m)
    if not basis:
        raise EmptyKernel("Kasteleyn matrix is invertible at this point")
    return basis


def reference_solve(rows, rhs):
    """linalg.solve read off the Fraction RREF of the augmented matrix."""
    if not rows:
        return "underdetermined", None, []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = linalg.rref(aug)
    if ncols in pivots:
        return "inconsistent", None, []
    x = [0.0 if any(map(is_float, aug)) else F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    one = 1.0 if any(map(is_float, rows)) else F(1)
    ker = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0 * one] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        ker.append(v)
    return ("underdetermined", x, ker) if ker else ("unique", x, [])


def reference_reconstruct(g, d, white_labels, lam, mu):
    """spectral.reconstruct_black on Fractions: the reference weights and
    kernel, the per-edge Fraction right-hand sides, the Fraction span
    constraints and reference_solve."""
    basis = reference_kernel(g, reference_weights(g, white_labels), lam, mu)
    if len(basis) != 1:
        raise KernelDegenerate(f"kernel dimension {len(basis)} != 1")
    fvec = basis[0]
    scale = max(abs(x) for x in fvec)
    if any(is_zero(x, scale=scale) for x in fvec):
        raise KernelDegenerate("kernel vector has a zero entry")
    f_w = {w: fvec[j] for j, w in enumerate(g.white_ids)}
    inc = vertex_edges(g)
    rhs_of_edge = {ei: f_w[e.w] * _ipow(lam, e.h[0]) * _ipow(mu, e.h[1]) for ei, e in enumerate(g.edges)}
    known, events, pending = {}, [], set(g.black_ids)
    while pending:
        progress = False
        for b in sorted(pending):
            rows = [list(white_labels[g.edges[ei].w].coords) for ei in inc[b]]
            rhs = [rhs_of_edge[ei] for ei in inc[b]]
            used_span = False
            if len(inc[b]) < d + 2:
                for ei in inc[b]:
                    w = g.edges[ei].w
                    other_blacks = [g.edges[ej].b for ej in inc[w] if ej != ei]
                    if all(ob in known for ob in other_blacks) and other_blacks:
                        for x in linalg.nullspace([list(known[ob]) for ob in other_blacks]):
                            rows.append(list(x))
                            rhs.append(F(0))
                            used_span = True
            status, sol, _ = reference_solve(rows, rhs)
            if status == "inconsistent":
                detail = f"black vertex {b}: inconsistent system"
                return spectral.ReconstructionResult("nosolution", None, events, detail)
            if status == "unique":
                known[b] = tuple(sol)
                pending.discard(b)
                outcome = "solved (with circuit constraints)" if used_span else "solved"
                events.append(Event("solve", b, outcome=outcome))
                progress = True
        if not progress:
            detail = f"underdetermined at {sorted(pending)}; no further circuit constraints"
            return spectral.ReconstructionResult("nonunique", None, events, detail)
    black = {b: HomogeneousElement(normalize_coords(tuple(v)), HYPERPLANE) for b, v in known.items()}
    cfg = DoubleCircuitConfig(g, d, dict(white_labels), black)
    if not check_V(cfg).ok:
        return spectral.ReconstructionResult("nosolution", None, events, "result fails the circuit condition")
    if not check_F(cfg).ok:
        return spectral.ReconstructionResult("nosolution", None, events, "result fails coherence")
    return spectral.ReconstructionResult("unique", cfg, events)


def reference_real_roots(coeffs: dict) -> list:
    """spectral.real_roots as it was before its sign tests kept both
    coefficient orders: every _sign_at call reverses the list, and the
    coefficients are rescaled exactly even by 2^0.  The root finder must
    equal it bit for bit."""
    exact = {k: F(v) for k, v in coeffs.items() if v}
    if not exact:
        return []
    low = min(exact)
    poly = _reference_unit_scaled(exact, 0)
    if all(abs(poly[k - low]) >= 2.0**-1022 for k in exact):
        return _reference_sign_changes(poly)
    roots = []
    for t, lo, hi in spectral._root_bands(exact):
        s = round(t)
        poly = _reference_unit_scaled(exact, s)
        while not poly[-1]:
            poly.pop()
        while not poly[0]:
            poly.pop(0)
        lo, hi = max(lo, -1074), min(hi, 1024)
        roots += [ldexp(y, s) for y in _reference_sign_changes(poly) if lo <= log2(abs(y)) + s < hi]
    return sorted(roots)


def _reference_unit_scaled(exact: dict, s: int) -> list:
    scaled = {k: v * F(2) ** (s * k) for k, v in exact.items()}
    top = max(map(abs, scaled.values()))
    return [float(scaled.get(k, 0) / top) for k in range(min(scaled), max(scaled) + 1)]


def _reference_sign_changes(p: list) -> list:
    n = len(p) - 1
    if n < 1:
        return []
    turns = _reference_sign_changes([k * a for k, a in enumerate(p)][1:])
    bound = min(2 * (1 + max(map(abs, p[:-1])) / abs(p[-1])), 2.0**1022)
    lead = 1 if p[-1] > 0 else -1
    roots = []
    lo, s_lo = -bound, lead * (-1) ** n
    for x, s in [*((x, _reference_sign_at(p, x, sure=True)) for x in turns), (bound, lead)]:
        if s and s != s_lo:
            roots.append(_reference_bisect(p, lo, x, s_lo))
        if s:
            lo, s_lo = x, s
    return roots


def _reference_bisect(p: list, lo: float, hi: float, s_lo: int) -> float:
    while lo < (mid := (lo + hi) / 2) < hi and (s := _reference_sign_at(p, mid)):
        lo, hi = (mid, hi) if s == s_lo else (lo, mid)
    return mid


def _reference_sign_at(p: list, x: float, sure: bool = False) -> int:
    if abs(x) <= 1:
        coeffs, y, sign = p[::-1], x, 1
    else:
        coeffs, y, sign = p, 1 / x, -1 if x < 0 and len(p) % 2 == 0 else 1
    acc = 0.0
    for a in coeffs:
        acc = acc * y + a
    if sure and abs(acc) <= 2 * len(p) * 2.0**-53 * reduce(lambda err, a: err * abs(y) + abs(a), coeffs, 0.0):
        return 0
    return sign if acc > 0 else -sign if acc < 0 else 0
