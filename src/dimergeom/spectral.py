"""Kasteleyn weights, the magnetically altered Kasteleyn matrix, spectral
polynomial, curve membership, kernels, and black-data reconstruction.

Weights come from the circuit relation at each black vertex:
sum_e kappa(e) A(w_e) = 0 with every kappa(e) nonzero.  The matrix entry
for black row v and white column w is sum over edges (w, v) of
kappa(e) * lambda^h1(e) * mu^h2(e); the spectral polynomial is its exact
determinant.  The cohomology class of a coherent configuration (see
config.cohomology_class) satisfies det K(lambda, mu) = 0 under this
convention.  The matrix is built once, as sparse term rows
(kasteleyn_rows), which the determinant and the kernel both read; on exact
data the reconstruction runs on int rows, with Fractions only in its results.
A BlackFibre reads its white data once (weights, term rows, label rows) and
each curve point only what depends on it: the rows there, kernel, solves,
and (V) at the white vertices, since the weights' relations are (V) at the
black ones, then (F).

The determinant is interpolated from its values at small integer points
(see _integer_det).  At each mu node one fraction-free elimination
reduces the rows free of lambda, and each lambda node then continues that
elimination into the small Schur block of the remaining rows, whose last
pivot gives the determinant (Sylvester's identity).  Every step is exact, so
the result needs no certificate; float weights take the same path through
their exact Fraction values.

The interpolation box must hold the support of the determinant.  Every
term of det K is the h-sum of a perfect matching, so the support lies in
the matching polygon (Kenyon-Okounkov-Sheffield).  The one box is the
least and greatest sheared exponent sum over the perfect matchings, four
assignment problems, each solved from a greedy matching, whose optima
hold for every choice of weights.  On a minimal graph the sides of the
matching polygon are the homology classes of the zig-zag paths
(Goncharov-Kenyon), read off the faces in O(E) (zigzag_polygon); they
only pick the elementary shear of the exponents whose box is smallest, so
the result does not depend on the prediction being right.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import atan2, gcd, inf, lcm, ldexp, log2
from typing import NamedTuple

from . import linalg
from .config import DoubleCircuitConfig, _circuit_failures, check_F, check_labels
from .errors import DimensionMismatch, EmptyKernel, KernelDegenerate, KernelNotOneDimensional
from .geometry import HYPERPLANE, HomogeneousElement, _relation, element_rows, normalize_coords
from .laurent import LaurentPoly2, half_hull
from .scalars import _ipow, is_float, is_zero
from .torusgraph import Edge, Event, Face, TorusGraph, balanced_count, vertex_edges


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
            labels = [white_labels[g.edges[ei].w] for ei in edge_ids]
        except KeyError as exc:
            raise DimensionMismatch(f"black vertex {b}: neighbor {exc.args[0]} has no label") from None
        rows, exact = element_rows(labels)
        try:
            c = _relation(list(zip(*rows)), exact)
        except KernelNotOneDimensional as exc:
            raise KernelNotOneDimensional(f"black vertex {b}: {exc}") from exc
        # the relation of the rows, each times its scale, is the labels' one
        c = [x * e.scale for x, e in zip(c, labels)]
        for ei, x in zip(edge_ids, c):
            weights[ei] = Fraction(x, c[0]) if exact else x / c[0]
    return weights


def kasteleyn_rows(g: TorusGraph, weights: dict) -> list:
    """The Kasteleyn matrix as sparse term rows: per black vertex, in
    g.black_ids order, its sorted (white column, h1, h2, weight) terms.
    An entry is the LaurentPoly2 sum of its edges' monomials, so parallel
    edges with equal h are summed and a zero sum is dropped by the one
    Laurent zero test (for float data, relative to the entry's largest
    term)."""
    k = balanced_count(g)
    widx = {w: j for j, w in enumerate(g.white_ids)}
    bidx = {b: i for i, b in enumerate(g.black_ids)}
    entries = [{} for _ in range(k)]  # per row: column -> LaurentPoly2 entry
    for ei, e in enumerate(g.edges):
        row, col = entries[bidx[e.b]], widx[e.w]
        row[col] = row.get(col, LaurentPoly2.zero()) + LaurentPoly2.monomial(weights[ei], *e.h)
    return [[(col, i, j, c) for col in sorted(row) for (i, j), c in row[col].terms] for row in entries]


def zigzag_polygon(g: TorusGraph):
    """The polygon whose sides are the homology classes of g's zig-zag
    paths, sorted by angle and chained: vertices counterclockwise from the
    lexicographically smallest, up to translation.  None when some edge
    is on no even face slot (no faces, say).

    A zig-zag path turns maximally right at one color and maximally left at
    the other.  With faces traversed white-to-black on even slots, the state
    (edge, white-to-black) goes to the next edge of the face that has the
    edge on an even slot, and (edge, black-to-white) to the previous edge
    of that face; a path's class is its signed h-sum.  On a minimal graph
    this is the matching polygon, the Newton polygon of the spectral curve
    for generic weights (Goncharov-Kenyon)."""
    even = {}  # edge -> (face walk, even slot)
    for f in g.faces:
        for slot in range(0, len(f.edges), 2):
            even[f.edges[slot]] = (f.edges, slot)
    if len(even) < len(g.edges):
        return None
    classes: dict = {}  # primitive direction -> multiplicity
    seen = set()
    for start in [(e, sign) for e in range(len(g.edges)) for sign in (1, -1)]:
        x = y = 0
        state = start
        while state not in seen:
            seen.add(state)
            e, sign = state
            h = g.edges[e].h
            x, y = x + sign * h[0], y + sign * h[1]
            walk, slot = even[e]
            state = (walk[(slot + 1) % len(walk)], -1) if sign == 1 else (walk[slot - 1], 1)
        if x or y:
            d = gcd(x, y)
            classes[(x // d, y // d)] = classes.get((x // d, y // d), 0) + d
    pts = [(0, 0)]
    for x, y in sorted(classes, key=lambda v: atan2(v[1], v[0])):
        d = classes[(x, y)]
        pts.append((pts[-1][0] + d * x, pts[-1][1] + d * y))
    pts = pts[:-1] or pts  # the classes sum to zero, so the chain closes
    start = pts.index(min(pts))
    return pts[start:] + pts[:start]


def _zigzag_shear(g: TorusGraph):
    """The elementary shear whose box around the zig-zag polygon has the
    fewest nodes; (0, 0) when g has no polygon.  It only chooses the box:
    _integer_det proves the box it interpolates on."""
    polygon = zigzag_polygon(g)
    return (0, 0) if polygon is None else _fitted_shear(polygon)


def _fitted_shear(polygon):
    """(a, b): the shear (i, j) -> (i + a*j, j + b*i) with a or b zero
    whose bounding box of the polygon has the fewest lattice points."""

    def width(p, q):  # lattice points spanned by p*i + q*j over the polygon
        values = [p * i + q * j for i, j in polygon]
        return max(values) - min(values) + 1

    def narrowest(coeffs):  # the width is convex in s, so a walk from 0 finds its least
        s = 0
        for step in (1, -1):
            while width(*coeffs(s + step)) < width(*coeffs(s)):
                s += step
        return s

    a, b = narrowest(lambda s: (1, s)), narrowest(lambda s: (s, 1))
    return min((width(1, a) * width(0, 1), (a, 0)), (width(1, 0) * width(b, 1), (0, b)))[1]


def spectral_polynomial(g: TorusGraph, weights: dict) -> LaurentPoly2:
    """Exact determinant of the magnetically altered Kasteleyn matrix.

    Float weights are converted exactly with Fraction; the result then
    has float coefficients, so the scalar kind follows the data."""
    det, scale = _integer_det(kasteleyn_rows(g, weights), _zigzag_shear(g))
    det = det * Fraction(1, scale)
    if is_float(weights.values()):
        det = LaurentPoly2.from_dict({e: float(c) for e, c in det.terms})
    return det


def _integer_det(rows, shear):
    """(D, s): s times the determinant of the matrix with the given term
    rows (kasteleyn_rows) is D, a LaurentPoly2 with int coefficients.

    Scaling each row by the lcm of its denominators makes the entries
    integer polynomials.  The determinant is fixed by its values on a grid
    of integer nodes as large as a box that holds its support, and every
    Newton divided difference of an integer polynomial at integer nodes is
    an integer.

    Every term of the determinant is a product of one term per row and
    per column, so its exponent is the sum over a perfect matching of the
    bipartite row/column graph: the support lies in the matching polygon.
    The shear (a, b), a * b == 0, first maps every exponent (i, j) to
    (i + a*j, j + b*i), a unimodular change of variables; the box is the
    least and greatest sum of each sheared coordinate over the perfect
    matchings, four assignment problems (_matching_box), and the exponents
    are mapped back at the end.  The box holds the support for every
    choice of coefficients; the shear only makes it smaller.  Without a
    perfect matching the determinant is zero; the 0 x 0 one is one.

    Each row and each column is divided by a monomial, the dual potentials
    of the least assignments, so that every exponent is nonnegative and the
    least matching sum is zero: a term on a perfect matching is then at most
    the box size, however far a coboundary change of h moves the rows and
    columns.

    The values come one mu node at a time.  Row r is then lambda^e_r times
    a polynomial in lambda; after the potentials most rows are free of
    lambda (degree 0), and the few lambda-rows R have low degree.  One
    elimination per mu node (linalg.bareiss_eliminate) takes the
    lambda-free rows as its only pivot rows and reduces each coefficient
    row of each lambda-row.  The reduced rows are linear in the row, so at
    a lambda node x the reduced lambda-rows are S(x) = sum_i x^i (reduced
    coefficient rows), and Sylvester's identity gives
    det K(x, y) = +-x^(sum e_r) det S(x) / last^(|R| - 1), an exact
    division, with last the last pivot.  S(x) is at the level of last, so
    the elimination continues into it from there (bareiss_eliminate with
    that level): its last pivot is det S(x) / last^(|R| - 1) itself, every
    intermediate value is a minor of the matrix at the node, and each node
    costs an |R| x |R| elimination in place of a k x k one.  When the
    lambda-free rows are dependent at y, every value on the mu line is
    zero."""
    a, b = shear
    k = len(rows)
    sheared = [[(col, i + a * j, j + b * i, Fraction(c)) for col, i, j, c in row] for row in rows]
    box = _matching_box(sheared)
    if box is None:
        return LaurentPoly2.zero(), 1
    (width_l, row_l, col_l), (width_m, row_m, col_m) = box
    ints = []  # per row: [(column, i, j, int coeff)] with i, j >= 0
    scale = 1
    for row, pl, pm in zip(sheared, row_l, row_m):
        den = lcm(*(t[3].denominator for t in row))
        scale *= den
        ints.append([(col, i - pl - col_l[col], j - pm - col_m[col], int(c * den)) for col, i, j, c in row])
    shift_l, shift_m = sum(row_l) + sum(col_l), sum(row_m) + sum(col_m)
    nodes_l, nodes_m = _nodes(width_l + 1), _nodes(width_m + 1)
    # row r is lambda^low[r] times a polynomial of degree degree[r] in
    # lambda; the lambda-free rows (degree 0) are the pivot rows and come
    # first, then the lambda-rows, each as its coefficient rows, low first
    low = [min(t[1] for t in row) for row in ints]
    degree = [max(t[1] for t in row) - e for row, e in zip(ints, low)]
    free = [r for r in range(k) if not degree[r]]
    lam_rows = [r for r in range(k) if degree[r]]
    first, n = {}, 0  # row r -> the eliminated row of its lambda^low[r] coefficients
    for r in free + lam_rows:
        first[r], n = n, n + degree[r] + 1
    terms = [(first[r] + i - low[r], col, j, c) for r, row in enumerate(ints) for col, i, j, c in row]
    spans = [(first[r] - len(free), first[r] - len(free) + degree[r] + 1) for r in lam_rows]
    order_sign = (-1) ** sum(f > r for r in lam_rows for f in free)
    lam_scale = [order_sign * x ** sum(low) for x in nodes_l]
    # mu powers up to the box top and the highest term, which lies above
    # the box when it is on no perfect matching
    top_m = max([width_m, *(t[2] for t in terms)])
    values = []
    for y in nodes_m:
        yp = [y**e for e in range(top_m + 1)]
        mat = [[0] * k for _ in range(n)]
        for at, col, j, c in terms:
            mat[at][col] += c * yp[j]
        reduced = linalg.bareiss_eliminate(mat, len(free))
        if reduced is None:  # the lambda-free rows are dependent at mu = y
            values.append([0] * len(nodes_l))
            continue
        sign, last, rest = reduced
        line = []
        for x, x_scale in zip(nodes_l, lam_scale):
            schur = []  # per lambda-row, its reduced row at lambda = x, by Horner
            for lo, hi in spans:
                acc = rest[hi - 1]
                for coeffs in reversed(rest[lo : hi - 1]):
                    acc = [u * x + v for u, v in zip(acc, coeffs)]
                schur.append(acc)
            block = linalg.bareiss_eliminate(schur, len(schur), last)
            line.append(0 if block is None else x_scale * sign * block[0] * block[1])
        values.append(_interpolate(nodes_l, line))
    out: dict = {}
    for i in range(len(nodes_l)):
        for j, c in enumerate(_interpolate(nodes_m, [v[i] for v in values])):
            p, q = i + shift_l, j + shift_m
            out[(p - a * q, q - b * p)] = c  # unsheared
    return LaurentPoly2.from_dict(out), scale


def _matching_box(rows):
    """Per exponent axis of (column, i, j, ...) terms, (width, row
    potentials, column potentials): the greatest minus the least sum over
    the perfect matchings of one term per row and column, and potentials
    whose sum at a row and a column is at most each of its terms and whose
    total is that least sum.  None when there is no perfect matching."""
    box = []
    for axis in (1, 2):
        least, negated_most = [{} for _ in rows], [{} for _ in rows]  # per row: column -> cost
        for low, high, row in zip(least, negated_most, rows):
            for t in row:
                col, x = t[0], t[axis]
                low[col] = min(low.get(col, x), x)
                high[col] = min(high.get(col, -x), -x)
        lo = _min_assignment(least)
        if lo is None:
            return None
        least_sum, row_potentials, col_potentials = lo
        box.append((-_min_assignment(negated_most)[0] - least_sum, row_potentials, col_potentials))
    return box


def _min_assignment(costs):
    """(s, u, v): the least sum s of costs[r][c] over the bijections
    r -> c of rows to columns that use only given entries (costs: one dict
    column -> int per row), and dual potentials with u[r] + v[c] at most
    each given costs[r][c] and sum(u) + sum(v) == s; None when there is no
    bijection.

    The Hungarian method from a greedy start (Jonker-Volgenant): v starts
    at the column minima and u at the row minima of the reduced costs, and
    a row takes the first of its least-reduced-cost columns that is still
    free.  Each row left over joins the matching along a shortest
    augmenting path under the potentials, O(k^2) per row; when no free
    column is reachable the rows so far have no matching, so neither have
    all rows.  Matched entries stay tight, so s is sum(u) + sum(v)."""
    k = len(costs)
    v = [0] + [inf] * k
    for row in costs:
        for c, x in row.items():
            if x < v[c + 1]:
                v[c + 1] = x
    if inf in v or not all(costs):  # a column or row with no entry
        return None
    u, owner = [0] * (k + 1), [0] * (k + 1)  # column c + 1 -> its row r + 1; index 0 is the root of the search
    left = []
    for r, row in enumerate(costs, 1):
        u[r] = least = min(x - v[c + 1] for c, x in row.items())
        c = next((c for c, x in row.items() if x - v[c + 1] == least and not owner[c + 1]), None)
        if c is None:
            left.append(r)
        else:
            owner[c + 1] = r
    for r in left:
        owner[0], col = r, 0
        slack, way, used = [inf] * (k + 1), [0] * (k + 1), [False] * (k + 1)
        while owner[col]:
            used[col] = True
            row = owner[col]
            base = u[row]
            for c, x in costs[row - 1].items():
                c += 1
                if not used[c] and x - base - v[c] < slack[c]:
                    slack[c], way[c] = x - base - v[c], col
            delta, nxt = inf, 0
            for c in range(1, k + 1):
                if not used[c] and slack[c] < delta:
                    delta, nxt = slack[c], c
            if delta == inf:
                return None
            for c in range(k + 1):
                if used[c]:
                    u[owner[c]] += delta
                    v[c] -= delta
                else:
                    slack[c] -= delta
            col = nxt
        while col:
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    return sum(u) + sum(v) - v[0], u[1:], v[1:]


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
    exponents taken with the black-to-white orientation (-h).  Normalized,
    it is the white curve under (lam, mu) -> (1/lam, 1/mu), normalized, on
    each input tested.  A missing label is named as ``validate`` names it."""
    check_labels(c)
    swapped = _color_swapped(c.graph)
    return spectral_polynomial(swapped, kasteleyn_weights(swapped, c.black_labels))


def _color_swapped(g: TorusGraph) -> TorusGraph:
    """g with the colors swapped and every h negated.  The faces are g's,
    each walk rotated by one slot so that it starts white-to-black in the
    swapped colors, so the dual curve gets the same zig-zag shear."""
    edges = tuple(Edge(e.b, e.w, (-e.h[0], -e.h[1])) for e in g.edges)
    faces = tuple(Face(f.id, f.edges[1:] + f.edges[:1]) for f in g.faces)
    return TorusGraph(g.black_ids, g.white_ids, edges, faces)


def on_curve(p: LaurentPoly2, lam, mu) -> bool:
    """Zero test of p at (lam, mu).  Exact data is one term row of
    _evaluated, summed on ints, so no Fraction is built; float terms are
    summed and the sum is tested relative to the largest term, so the test
    holds at any scale of p."""
    if is_float([lam, mu, *(c for _, c in p.terms)]):
        terms = [c * _ipow(lam, i) * _ipow(mu, j) for (i, j), c in p.terms]
        return is_zero(sum(terms) / (max(map(abs, terms), default=0.0) or 1.0))
    return not _evaluated([[(0, i, j, c) for (i, j), c in p.terms]], 1, lam, mu, False)[0][0][0]


def evaluate_matrix(g: TorusGraph, weights: dict, lam, mu):
    """The Kasteleyn matrix evaluated at (lam, mu) (_evaluated); for exact
    data, its int rows divided by their scales."""
    m, scales = _evaluated(kasteleyn_rows(g, weights), len(g.white_ids), lam, mu, is_float(weights.values()))
    return m if scales is None else [[Fraction(x, s) for x in row] for row, s in zip(m, scales)]


def _evaluated(rows, width: int, lam, mu, float_weights: bool):
    """(matrix, scales): the term rows (kasteleyn_rows) of the weights at
    (lam, mu), the one evaluation behind evaluate_matrix, kernel_at,
    BlackFibre.at and the exact on_curve.  Exact weights and point give
    int rows, each s times the row at the point for its s in scales, the
    lcm of its terms' denominators (so the kernel is the matrix's); float
    data give float rows summed from 0.0 term by term, and scales None."""
    if float_weights or is_float([lam, mu]):
        m = [[0.0] * width for _ in rows]
        for r, row in zip(m, rows):
            for col, i, j, c in row:
                r[col] += c * _ipow(lam, i) * _ipow(mu, j)
        return m, None
    mono = _monomials(lam, mu, (t[1:3] for row in rows for t in row))
    m, scales = [], []
    for row in rows:
        terms = [(col, c.numerator * mono[i, j][0], c.denominator * mono[i, j][1]) for col, i, j, c in row]
        s = lcm(*(q for _, _, q in terms))
        r = [0] * width
        for col, p, q in terms:
            r[col] += p * (s // q)
        m.append(r)
        scales.append(s)
    return m, scales


def _monomials(lam, mu, exponents) -> dict:
    """(i, j) -> the exact lam^i mu^j as an int pair (numerator, denominator)."""
    return {(i, j): (_ipow(lam, i) * _ipow(mu, j)).as_integer_ratio() for i, j in set(exponents)}


def kernel_at(g: TorusGraph, weights: dict, lam, mu):
    """Kernel basis of the evaluated Kasteleyn matrix, indexed like
    g.white_ids.  Raises EmptyKernel when the point is off the curve.
    Exact data is eliminated as int rows, whose row scales keep the kernel."""
    return _kernel(_evaluated(kasteleyn_rows(g, weights), len(g.white_ids), lam, mu, is_float(weights.values()))[0])


def _kernel(m):
    basis = linalg.nullspace(m)
    if not basis:
        raise EmptyKernel("Kasteleyn matrix is invertible at this point")
    return basis


# ------------------------------------------------------------ reconstruction


class ReconstructionResult(NamedTuple):
    """``events`` holds one ``Event("solve", b, outcome=...)`` per black
    vertex, in the order solved; ``detail`` says why one is not unique."""
    status: str  # "unique" | "nonunique" | "nosolution"
    config: DoubleCircuitConfig | None
    events: list
    detail: str = ""


def reconstruct_black(g: TorusGraph, d: int, white_labels: dict, lam, mu) -> ReconstructionResult:
    """Recover hyperplane labels from white data and a spectral-curve
    point: BlackFibre(g, d, white_labels).at(lam, mu)."""
    return BlackFibre(g, d, white_labels).at(lam, mu)


class BlackFibre:
    """The black data over fixed white data, one curve point at a time.

    Built once from the white labels: the Kasteleyn weights, whose
    relation at each black vertex is the circuit test (V) makes there (so
    it raises KernelNotOneDimensional unless every black vertex's white
    labels form a circuit), the term rows, the incidence and each edge's
    label row (``element_rows``).  Each point (at) evaluates the rows
    there, reads the kernel and solves; (V) at the white vertices and (F)
    check the result.

    The weights are the label rows' own: each Kasteleyn column is divided
    by its label's scale and each row multiplied by the scale of the label
    its weights are normalized at (exactly for float labels, whose scales
    are powers of two).  So no representative scales a row or a column,
    the kernel is f times the scales, and each equation reads its label's
    row with its rhs times that scale."""

    def __init__(self, g: TorusGraph, d: int, white_labels: dict):
        self.g, self.d, self.white_labels = g, d, white_labels
        self._inc = inc = vertex_edges(g)
        scales = [white_labels[e.w].scale for e in g.edges]
        weights = kasteleyn_weights(g, white_labels)
        weights = {ei: x * scales[inc[g.edges[ei].b][0]] / scales[ei] for ei, x in weights.items()}
        self._rows, self._float = kasteleyn_rows(g, weights), is_float(weights.values())
        rows = element_rows([white_labels[e.w] for e in g.edges])[0]
        self._labels = [(e.w, e.h, row) for e, row in zip(g.edges, rows)]

    def at(self, lam, mu) -> ReconstructionResult:
        """Per black vertex v the edge equations <l(v), A(w)> = f(v)^{-1}
        f(w) lambda^h1 mu^h2 are solved, with f on whites the kernel vector
        and f on blacks identically one on the fundamental domain.
        Underdetermined vertices wait for span constraints from white-vertex
        circuits whose other hyperplanes are known; no progress means
        "nonunique", an inconsistent system "nosolution", and so does a
        result that fails (V) or (F)."""
        g, d, white_labels, inc = self.g, self.d, self.white_labels, self._inc
        m, _ = _evaluated(self._rows, len(g.white_ids), lam, mu, self._float)
        basis = _kernel(m)
        if len(basis) != 1:
            raise KernelDegenerate(f"kernel dimension {len(basis)} != 1")
        fvec = basis[0]
        scale = max(abs(x) for x in fvec)
        if any(is_zero(x, scale=scale) for x in fvec):
            raise KernelDegenerate("kernel vector has a zero entry")

        exact = not is_float(fvec)  # only exact weights, labels and (lam, mu) give an exact kernel
        if exact:  # int equations: f times a positive scale, each one times its rhs denominator
            f_w = dict(zip(g.white_ids, linalg.int_row(fvec)))
            mono = _monomials(lam, mu, (h for _, h, _ in self._labels))
            eqs = [([x * mono[h][1] for x in row], f_w[w] * mono[h][0]) for w, h, row in self._labels]
        else:
            f_w = dict(zip(g.white_ids, fvec))
            eqs = [(row, f_w[w] * _ipow(lam, h[0]) * _ipow(mu, h[1])) for w, h, row in self._labels]

        known: dict = {}
        events: list = []
        while pending := sorted(set(g.black_ids) - known.keys()):
            for b in pending:
                rows = [eqs[ei][0] for ei in inc[b]]
                rhs = [eqs[ei][1] for ei in inc[b]]
                if len(inc[b]) < d + 2:
                    # an underdetermined vertex picks up span constraints from
                    # white-vertex circuits whose other hyperplanes are known
                    for ei in inc[b]:
                        w = g.edges[ei].w
                        other_blacks = [g.edges[ej].b for ej in inc[w] if ej != ei]
                        if all(ob in known for ob in other_blacks) and other_blacks:
                            lspan = [list(known[ob]) for ob in other_blacks]
                            for x in (linalg.int_nullspace if exact else linalg.nullspace)(lspan):
                                rows.append(list(x))
                                rhs.append(0)
                status, sol, kerb = linalg.solve(rows, rhs)
                if status == "inconsistent":
                    return ReconstructionResult("nosolution", None, events, f"black vertex {b}: inconsistent system")
                if status == "unique":
                    known[b] = tuple(sol)
                    spans = len(rows) > len(inc[b])  # span constraints were added
                    events.append(Event("solve", b, outcome="solved (with circuit constraints)" if spans else "solved"))
            if known.keys().isdisjoint(pending):
                detail = f"underdetermined at {pending}; no further circuit constraints"
                return ReconstructionResult("nonunique", None, events, detail)

        black_labels = {
            b: HomogeneousElement(normalize_coords(tuple(v)), HYPERPLANE) for b, v in known.items()
        }
        cfg = DoubleCircuitConfig(g, d, dict(white_labels), black_labels)
        if _circuit_failures(cfg, g.white_ids)[0]:  # (V) at the black vertices built the weights
            return ReconstructionResult("nosolution", None, events, "result fails the circuit condition")
        if not check_F(cfg).ok:
            return ReconstructionResult("nosolution", None, events, "result fails coherence")
        return ReconstructionResult("unique", cfg, events)


# ------------------------------------------------------------- real fibers


def fiber_polynomial(p: LaurentPoly2, lam):
    """Coefficients (mu exponent -> coeff) of p at the given lambda."""
    out: dict = {}
    for (i, j), c in p.terms:
        out[j] = out.get(j, 0) + c * _ipow(lam, i)
    return {k: v for k, v in out.items() if v != 0}


def real_roots(coeffs: dict) -> list:
    """Ascending float roots of sum_k coeffs[k] x^k (k may be negative;
    exact or float coefficients) at which it changes sign, so a root of
    even multiplicity is not found.  The lowest power of x is divided out,
    so 0 is not a root.

    The coefficients are divided by the largest one, so nothing overflows.
    When that drops another one below the float range, the roots are
    sought one cluster at a time (_root_bands): in y = x / 2^s, s the
    rounded log2 size of the cluster's roots, the cluster's own terms are
    the largest, and a power of two scales exactly.  A root that is no
    double after scaling back is dropped.

    The real roots of the derivative, found recursively, cut the line into
    intervals on which the polynomial is monotone; a sign change inside
    one is bisected down to adjacent doubles."""
    exact = {k: Fraction(v) for k, v in coeffs.items() if v}
    if not exact:
        return []
    low = min(exact)
    poly = _unit_scaled(exact, 0)
    if all(abs(poly[k - low]) >= 2.0**-1022 for k in exact):  # normal doubles, no precision lost
        return _sign_changes(poly)
    roots = []
    for t, lo, hi in _root_bands(exact):
        s = round(t)
        poly = _unit_scaled(exact, s)
        while not poly[-1]:  # below the float range
            poly.pop()
        while not poly[0]:
            poly.pop(0)
        lo, hi = max(lo, -1074), min(hi, 1024)  # and a double: 2^-1074 <= |x| < 2^1024
        roots += [ldexp(y, s) for y in _sign_changes(poly) if lo <= log2(abs(y)) + s < hi]
    return sorted(roots)


def _unit_scaled(exact: dict, s: int) -> list:
    """Float coefficients, lowest power first, of p(2^s y) divided by its
    largest coefficient, so at most one."""
    scaled = {k: v * Fraction(2) ** (s * k) for k, v in exact.items()} if s else exact
    top = max(map(abs, scaled.values()))
    return [float(scaled.get(k, 0) / top) for k in range(min(scaled), max(scaled) + 1)]


def _root_bands(exact: dict) -> list:
    """(t, lo, hi) per edge of the upper hull of the points (k, log2
    |exact[k]|), each log read to within one from the bit lengths.  An
    edge from k1 to k2 with slope -t holds k2 - k1 roots of size about
    2^t (a tropical root of p), where its two end terms outweigh all
    others; its band lo <= log2 |x| < hi reaches halfway to the
    neighbouring edges' t, so each root is kept in one band."""
    pts = [(k, v.numerator.bit_length() - v.denominator.bit_length()) for k, v in sorted(exact.items())]
    hull = half_hull(pts[::-1])[::-1]
    ts = [(e1 - e2) / (k2 - k1) for (k1, e1), (k2, e2) in zip(hull, hull[1:])]
    cuts = [-inf, *((a + b) / 2 for a, b in zip(ts, ts[1:])), inf]
    return list(zip(ts, cuts, cuts[1:]))


def _sign_changes(p: list) -> list:
    """real_roots of the float polynomial p, constant first, p[-1] != 0.
    Past the Cauchy bound 1 + max |p[k] / p[n]| p has the sign of its
    leading term; at a turn, a value within the rounding error counts as
    zero, so a root of even multiplicity shows no sign change."""
    n = len(p) - 1
    if n < 1:
        return []
    turns = _sign_changes([k * a for k, a in enumerate(p)][1:])
    orders = (p[::-1], p)  # Horner's orders for |x| <= 1 and for x^n p(1/x)
    bound = min(2 * (1 + max(map(abs, p[:-1])) / abs(p[-1])), 2.0**1022)
    lead = 1 if p[-1] > 0 else -1
    roots = []
    lo, s_lo = -bound, lead * (-1) ** n
    for x, s in [*((x, _sign_at(orders, x, sure=True)) for x in turns), (bound, lead)]:
        if s and s != s_lo:  # the bisection across a zero at a turn lands on it
            roots.append(_bisect(orders, lo, x, s_lo))
        if s:
            lo, s_lo = x, s
    return roots


def _bisect(orders: tuple, lo: float, hi: float, s_lo: int) -> float:
    """Where p changes sign between lo, of sign s_lo, and hi: adjacent
    doubles, or a zero of p (orders as _sign_at reads them)."""
    while lo < (mid := (lo + hi) / 2) < hi and (s := _sign_at(orders, mid)):
        lo, hi = (mid, hi) if s == s_lo else (lo, mid)
    return mid


def _sign_at(orders: tuple, x: float, sure: bool = False) -> int:
    """The sign of p(x) by Horner's rule, orders = (p reversed, p); with
    sure, 0 when |p(x)| is within its rounding error bound
    2n u sum |p[k] x^k|.  For |x| > 1 it is read from x^n p(1/x), so
    nothing overflows."""
    reverse, p = orders
    if abs(x) <= 1:
        coeffs, y, sign = reverse, x, 1
    else:
        coeffs, y, sign = p, 1 / x, -1 if x < 0 and len(p) % 2 == 0 else 1
    acc = 0.0
    for a in coeffs:
        acc = acc * y + a
    if sure and abs(acc) <= 2 * len(p) * 2.0**-53 * reduce(lambda err, a: err * abs(y) + abs(a), coeffs, 0.0):
        return 0
    return sign if acc > 0 else -sign if acc < 0 else 0
