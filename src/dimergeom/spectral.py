"""Kasteleyn weights, the magnetically altered Kasteleyn matrix, spectral
polynomial, curve membership, kernels, and black-data reconstruction.

Weights come from the circuit relation at each black vertex:
sum_e kappa(e) A(w_e) = 0 with every kappa(e) nonzero.  The matrix entry
for black row v and white column w is sum over edges (w, v) of
kappa(e) * lambda^h1(e) * mu^h2(e); the spectral polynomial is its exact
determinant.  The cohomology class of a coherent configuration (see
config.cohomology_class) satisfies det K(lambda, mu) = 0 under this
convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .config import DoubleCircuitConfig, check_F, check_V
from .errors import (
    EmptyKernel,
    KernelDegenerate,
    KernelNotOneDimensional,
    UnequalColorCounts,
)
from .geometry import HYPERPLANE, HomogeneousElement, circuit_coefficients, normalize_coords
from .laurent import LaurentPoly2, _ipow
from .scalars import is_zero
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
        rows = [list(white_labels[g.edges[ei].w].coords) for ei in edge_ids]
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
    """Exact determinant of the magnetically altered Kasteleyn matrix,
    by cofactor expansion memoized over column subsets."""
    m = kasteleyn_matrix_poly(g, weights)
    return _poly_det(m)


def _poly_det(m) -> LaurentPoly2:
    k = len(m)
    if k == 0:
        return LaurentPoly2.constant(Fraction(1))
    memo: dict = {}
    full = (1 << k) - 1

    def minor(row: int, cols: int) -> LaurentPoly2:
        if row == k:
            return LaurentPoly2.constant(Fraction(1))
        key = cols
        if key in memo:
            return memo[key]
        acc = LaurentPoly2.zero()
        sign = 1
        for j in range(k):
            bit = 1 << j
            if not cols & bit:
                continue
            entry = m[row][j]
            if not entry.is_zero():
                sub = minor(row + 1, cols & ~bit)
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, full)


def spectral_polynomial_white(c_or_graph, white_labels=None) -> LaurentPoly2:
    if isinstance(c_or_graph, DoubleCircuitConfig):
        g, wl = c_or_graph.graph, c_or_graph.white_labels
    else:
        g, wl = c_or_graph, white_labels
    return spectral_polynomial(g, kasteleyn_weights(g, wl))


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
    k = len(g.black_ids)
    widx = {w: j for j, w in enumerate(g.white_ids)}
    bidx = {b: i for i, b in enumerate(g.black_ids)}
    rows = [[Fraction(0) for _ in range(k)] for _ in range(k)]
    for ei, e in enumerate(g.edges):
        rows[bidx[e.b]][widx[e.w]] += weights[ei] * _ipow(lam, e.h[0]) * _ipow(mu, e.h[1])
    return rows


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
    f_black: dict | None = None,
    validate: bool = True,
) -> ReconstructionResult:
    """Recover hyperplane labels from white data and a spectral-curve point.

    Per black vertex v the edge equations <l(v), A(w)> = f(v)^{-1} f(w)
    lambda^h1 mu^h2 are solved, with f on whites the kernel vector and f on
    blacks identically one on the fundamental domain (or as supplied).
    Underdetermined vertices wait for span constraints from white-vertex
    circuits whose other hyperplanes are known; no progress means
    "nonunique", an inconsistent system "nosolution".
    """
    weights = kasteleyn_weights(g, white_labels)
    m = evaluate_matrix(g, weights, lam, mu)
    basis = linalg.nullspace(m)
    if not basis:
        raise EmptyKernel("point is not on the spectral curve")
    if len(basis) != 1:
        raise KernelDegenerate(f"kernel dimension {len(basis)} != 1")
    fvec = basis[0]
    scale = max(abs(x) for x in fvec)
    if any(is_zero(x, scale=scale) for x in fvec):
        raise KernelDegenerate("kernel vector has a zero entry")
    f_w = {w: fvec[j] for j, w in enumerate(g.white_ids)}
    f_b = {b: Fraction(1) for b in g.black_ids}
    if f_black:
        f_b.update(f_black)

    inc = vertex_edges(g)
    rhs_of_edge = {}
    for ei, e in enumerate(g.edges):
        rhs_of_edge[ei] = f_w[e.w] * _ipow(lam, e.h[0]) * _ipow(mu, e.h[1]) / f_b[e.b]

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
    if validate:
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
    if not coeffs:
        return []
    shift = min(coeffs)
    poly = {k - shift: Fraction(v) for k, v in coeffs.items()}
    deg = max(poly)
    if deg == 0:
        return []
    denlcm = 1
    for v in poly.values():
        denlcm = denlcm * v.denominator // gcd(denlcm, v.denominator)
    ipoly = {k: int(v * denlcm) for k, v in poly.items() if v != 0}
    low = min(ipoly)
    ipoly = {k - low: v for k, v in ipoly.items()}
    deg = max(ipoly)
    if deg == 0:
        return []
    a0, an = ipoly.get(0, 0), ipoly[deg]
    if a0 == 0:
        return []
    g = 0
    for v in ipoly.values():
        g = gcd(g, abs(v))
    ipoly = {k: v // g for k, v in ipoly.items()}
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
