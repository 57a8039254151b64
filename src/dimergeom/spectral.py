"""Kasteleyn weights, the magnetically altered Kasteleyn matrix, spectral
polynomial, curve membership, kernels, and black-data reconstruction.

Weights come from the circuit relation at each black vertex:
sum_e kappa(e) A(w_e) = 0 with every kappa(e) nonzero.  The matrix entry
for black row v and white column w is sum over edges (w, v) of
kappa(e) * lambda^h1(e) * mu^h2(e); the spectral polynomial is its exact
determinant.  The cohomology class of a coherent configuration (see
config.cohomology_class) satisfies det K(lambda, mu) = 0 under this
convention.

The determinant is interpolated from its values at small integer points
(see _integer_det).  Every step is exact, so the result needs no
certificate; float weights take the same path through their exact
Fraction values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .config import DoubleCircuitConfig, check_F, check_V
from .errors import (
    DimensionMismatch,
    EmptyKernel,
    KernelDegenerate,
    KernelNotOneDimensional,
    UnequalColorCounts,
)
from .geometry import HYPERPLANE, HomogeneousElement, circuit_coefficients, normalize_coords
from .laurent import LaurentPoly2, _ipow
from .scalars import is_float, is_zero
from .torusgraph import Edge, TorusGraph, vertex_edges


def kasteleyn_weights(g: TorusGraph, white_labels: dict) -> dict:
    """Edge index -> weight.  Per black vertex, the one-dimensional kernel
    of its neighbor-vector matrix, with the first incident edge (in stored
    edge order) normalized to one."""
    inc = vertex_edges(g)
    weights: dict = {}
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
        c0 = c[0]
        for ei, x in zip(edge_ids, c):
            weights[ei] = x / c0
    return weights


def kasteleyn_matrix_poly(g: TorusGraph, weights: dict):
    """k x k matrix over LaurentPoly2: rows = black, columns = white."""
    k = len(g.black_ids)
    if k != len(g.white_ids):
        raise UnequalColorCounts(f"{len(g.white_ids)} white vs {k} black")
    widx = {w: j for j, w in enumerate(g.white_ids)}
    bidx = {b: i for i, b in enumerate(g.black_ids)}
    rows = [[LaurentPoly2.zero() for _ in range(k)] for _ in range(k)]
    for ei, e in enumerate(g.edges):
        i, j = bidx[e.b], widx[e.w]
        rows[i][j] = rows[i][j] + LaurentPoly2.monomial(weights[ei], e.h[0], e.h[1])
    return rows


def spectral_polynomial(g: TorusGraph, weights: dict) -> LaurentPoly2:
    """Exact determinant of the magnetically altered Kasteleyn matrix.

    Float weights are converted exactly with Fraction; the result then
    has float coefficients, so the scalar kind follows the data."""
    det, scale = _integer_det(kasteleyn_matrix_poly(g, weights))
    det = det * Fraction(1, scale)
    if is_float(weights.values()):
        det = LaurentPoly2.from_dict({e: float(c) for e, c in det.terms})
    return det


def _integer_det(m):
    """(D, s): s times the determinant of a square LaurentPoly2 matrix is
    D, a LaurentPoly2 with int coefficients.

    Scaling each row by the lcm of its denominators makes the entries
    integer polynomials.  The determinant's exponents in each variable lie
    between max(sum of row minima, sum of column minima) and min(sum of
    row maxima, sum of column maxima), so after dividing out the lowest
    monomial it is fixed by its values on a grid of that size, and every
    Newton divided difference of an integer polynomial at integer nodes
    is an integer."""
    k = len(m)
    rows = []  # per row: [(column, i, j, int coeff)] with i, j >= 0
    shift_l = shift_m = 0
    scale = 1
    for row in m:
        terms = [(col, i, j, Fraction(c)) for col, p in enumerate(row) for (i, j), c in p.terms]
        if not terms:
            return LaurentPoly2.zero(), 1
        lo_i = min(t[1] for t in terms)
        lo_j = min(t[2] for t in terms)
        den = lcm(*(t[3].denominator for t in terms))
        shift_l, shift_m, scale = shift_l + lo_i, shift_m + lo_j, scale * den
        rows.append([(col, i - lo_i, j - lo_j, int(c * den)) for col, i, j, c in terms])
    by_col = [[] for _ in range(k)]
    for row in rows:
        for t in row:
            by_col[t[0]].append(t)
    if not all(by_col):
        return LaurentPoly2.zero(), 1
    box = []
    for axis in (1, 2):
        lo = sum(min(t[axis] for t in col) for col in by_col)  # every row minimum is 0
        hi = min(sum(max(t[axis] for t in row) for row in rows), sum(max(t[axis] for t in col) for col in by_col))
        if lo > hi:
            return LaurentPoly2.zero(), 1
        box.append((lo, hi))
    (lo_l, hi_l), (lo_m, hi_m) = box
    nodes_l, nodes_m = _nodes(hi_l - lo_l + 1), _nodes(hi_m - lo_m + 1)
    values = []
    for x in nodes_l:
        xp = [x**e for e in range(hi_l + 1)]
        # the terms with lambda = x, as (column, mu exponent, int coeff)
        at_x = [[(col, j, c * xp[i]) for col, i, j, c in row] for row in rows]
        line = []
        for y in nodes_m:
            yp = [y**e for e in range(hi_m + 1)]
            mat = [[0] * k for _ in range(k)]
            for r, row in zip(mat, at_x):
                for col, j, c in row:
                    r[col] += c * yp[j]
            line.append(linalg.bareiss_det(mat) // (xp[lo_l] * yp[lo_m]))
        values.append(_interpolate(nodes_m, line))
    out: dict = {}
    for j in range(len(nodes_m)):
        for i, c in enumerate(_interpolate(nodes_l, [v[j] for v in values])):
            out[(i + lo_l + shift_l, j + lo_m + shift_m)] = c
    return LaurentPoly2.from_dict(out), scale


def _nodes(n: int) -> list:
    """The n distinct nonzero integers 1, -1, 2, -2, ..."""
    return [(i // 2 + 1) * (-1) ** i for i in range(n)]


def _interpolate(nodes: list, values: list) -> list:
    """Coefficients, constant first, of the integer polynomial of degree
    < len(nodes) that takes the given values at the integer nodes, by
    Newton divided differences (each division exact)."""
    n = len(nodes)
    c = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (nodes[i] - nodes[i - j])
    poly = [c[-1]]
    for i in range(n - 2, -1, -1):
        x = nodes[i]
        poly = [c[i] - x * poly[0]] + [poly[t - 1] - x * poly[t] for t in range(1, len(poly))] + [poly[-1]]
    return poly


def spectral_polynomial_white(c: DoubleCircuitConfig) -> LaurentPoly2:
    return spectral_polynomial(c.graph, kasteleyn_weights(c.graph, c.white_labels))


def spectral_polynomial_dual(c: DoubleCircuitConfig) -> LaurentPoly2:
    """Same computation with colors swapped: circuit relations at white
    vertices among the black hyperplane labels (as dual-space points),
    exponents taken with the black-to-white orientation (-h).  Used only
    for the dual-curve experiment; no relation to the white curve is
    asserted."""
    g = c.graph
    edges = tuple(Edge(e.b, e.w, (-e.h[0], -e.h[1])) for e in g.edges)
    swapped = TorusGraph(g.black_ids, g.white_ids, edges, ())
    return spectral_polynomial(swapped, kasteleyn_weights(swapped, c.black_labels))


def on_curve(p: LaurentPoly2, lam, mu) -> bool:
    """Zero test of p at (lam, mu): exact for exact data; a float value is
    tested at the scale of the largest monomial."""
    val = p.evaluate(lam, mu)
    return is_zero(val, scale=p.max_term_magnitude(lam, mu) if isinstance(val, float) else 1)


def evaluate_matrix(g: TorusGraph, weights: dict, lam, mu):
    """The Kasteleyn matrix evaluated at (lam, mu)."""
    return [[entry.evaluate(lam, mu) for entry in row] for row in kasteleyn_matrix_poly(g, weights)]


def kernel_at(g: TorusGraph, weights: dict, lam, mu):
    """Kernel basis of the evaluated Kasteleyn matrix, indexed like
    g.white_ids.  Raises EmptyKernel when the point is off the curve."""
    m = evaluate_matrix(g, weights, lam, mu)
    basis = linalg.nullspace(m)
    if not basis:
        raise EmptyKernel("Kasteleyn matrix is invertible at this point")
    return basis


# ------------------------------------------------------------ reconstruction


@dataclass
class ReconstructionResult:
    status: str  # "unique" | "nonunique" | "nosolution"
    config: DoubleCircuitConfig | None
    trace: list
    detail: str = ""


def reconstruct_black(
    g: TorusGraph,
    d: int,
    white_labels: dict,
    lam,
    mu,
) -> ReconstructionResult:
    """Recover hyperplane labels from white data and a spectral-curve point.

    Per black vertex v the edge equations <l(v), A(w)> = f(v)^{-1} f(w)
    lambda^h1 mu^h2 are solved, with f on whites the kernel vector and f on
    blacks identically one on the fundamental domain.
    Underdetermined vertices wait for span constraints from white-vertex
    circuits whose other hyperplanes are known; no progress means
    "nonunique", an inconsistent system "nosolution", and so does a
    result that fails (V) or (F).
    """
    basis = kernel_at(g, kasteleyn_weights(g, white_labels), lam, mu)
    if len(basis) != 1:
        raise KernelDegenerate(f"kernel dimension {len(basis)} != 1")
    fvec = basis[0]
    scale = max(abs(x) for x in fvec)
    if any(is_zero(x, scale=scale) for x in fvec):
        raise KernelDegenerate("kernel vector has a zero entry")
    f_w = {w: fvec[j] for j, w in enumerate(g.white_ids)}

    inc = vertex_edges(g)
    rhs_of_edge = {}
    for ei, e in enumerate(g.edges):
        rhs_of_edge[ei] = f_w[e.w] * _ipow(lam, e.h[0]) * _ipow(mu, e.h[1])

    known: dict = {}
    trace: list = []
    pending = set(g.black_ids)
    while pending:
        progress = False
        for b in sorted(pending):
            rows = [list(white_labels[g.edges[ei].w].coords) for ei in inc[b]]
            rhs = [rhs_of_edge[ei] for ei in inc[b]]
            used_span = False
            if len(inc[b]) < d + 2:
                # an underdetermined vertex picks up span constraints from
                # white-vertex circuits whose other hyperplanes are known
                for ei in inc[b]:
                    w = g.edges[ei].w
                    other_blacks = [g.edges[ej].b for ej in inc[w] if ej != ei]
                    if all(ob in known for ob in other_blacks) and other_blacks:
                        lspan = [list(known[ob]) for ob in other_blacks]
                        for x in linalg.nullspace(lspan):
                            rows.append(list(x))
                            rhs.append(Fraction(0))
                            used_span = True
            status, sol, kerb = linalg.solve(rows, rhs)
            if status == "inconsistent":
                return ReconstructionResult("nosolution", None, trace, f"black vertex {b}: inconsistent system")
            if status == "unique":
                known[b] = tuple(sol)
                pending.discard(b)
                trace.append(f"{b}: solved" + (" (with circuit constraints)" if used_span else ""))
                progress = True
        if not progress:
            return ReconstructionResult(
                "nonunique",
                None,
                trace,
                f"underdetermined at {sorted(pending)}; no further circuit constraints",
            )

    black_labels = {
        b: HomogeneousElement(normalize_coords(tuple(v)), HYPERPLANE) for b, v in known.items()
    }
    cfg = DoubleCircuitConfig(g, d, dict(white_labels), black_labels)
    if not check_V(cfg).ok:
        return ReconstructionResult("nosolution", None, trace, "result fails the circuit condition")
    if not check_F(cfg).ok:
        return ReconstructionResult("nosolution", None, trace, "result fails coherence")
    return ReconstructionResult("unique", cfg, trace)


# ------------------------------------------------- rational points (search)


def fiber_polynomial(p: LaurentPoly2, axis: str, value):
    """Coefficients (exponent -> coeff) of p with one variable fixed."""
    out: dict = {}
    for (i, j), c in p.terms:
        if axis == "lam":
            k, v = j, c * _ipow(value, i)
        else:
            k, v = i, c * _ipow(value, j)
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def rational_roots(coeffs: dict):
    """Exact nonzero rational roots of sum_k coeffs[k] x^k (k may be
    negative).  Rational root theorem with the classical (p - q) | P(1)
    and (p + q) | P(-1) filters."""
    nonzero = [k for k, v in coeffs.items() if v != 0]
    if not nonzero:
        return []
    low, deg = min(nonzero), max(nonzero) - min(nonzero)
    if deg == 0:
        return []
    # primitive integer coefficients, constant term first
    prim = normalize_coords(tuple(Fraction(coeffs.get(low + k, 0)) for k in range(deg + 1)))
    ipoly = {k: int(v) for k, v in enumerate(prim) if v != 0}
    a0, an = ipoly[0], ipoly[deg]
    p1 = sum(ipoly.values())
    pm1 = sum(v if k % 2 == 0 else -v for k, v in ipoly.items())
    roots = set()
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            if gcd(p, q) != 1:
                continue
            for s in (1, -1):
                sp = s * p
                if p1 != 0 and (sp - q) != 0 and p1 % (sp - q) != 0:
                    continue
                if pm1 != 0 and (sp + q) != 0 and pm1 % (sp + q) != 0:
                    continue
                cand = Fraction(sp, q)
                if cand in roots:
                    continue
                if _horner_zero(ipoly, deg, cand):
                    roots.add(cand)
    return sorted(roots)


def _horner_zero(ipoly: dict, deg: int, x: Fraction) -> bool:
    acc = Fraction(0)
    for k in range(deg, -1, -1):
        acc = acc * x + ipoly.get(k, 0)
    return acc == 0


def _divisors(n: int):
    if n == 0:
        return []
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)
