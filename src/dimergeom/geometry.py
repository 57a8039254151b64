"""Exact projective linear algebra: points, hyperplanes, subspaces,
circuits, the multi-ratio, and the conic used to build dual polygons.

Points and hyperplanes of P^d are nonzero coordinate (d+1)-tuples up to
scale.  Hyperplanes are covectors; ``pairing`` is the natural contraction.
A *circuit* is a minimally dependent set: the set is dependent but every
proper subset is independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    DegenerateIntersection,
    DimensionMismatch,
    DuplicateParameter,
    EmptyMeet,
    KernelNotOneDimensional,
    KindMismatch,
    TooFew,
    TooManyElements,
    VanishingPairing,
    ZeroVector,
)
from .scalars import is_float, is_zero, to_scalar

POINT = "point"
HYPERPLANE = "hyperplane"


@dataclass(frozen=True)
class HomogeneousElement:
    """A point or hyperplane of P^d, scale-equivalent coordinate tuple."""

    coords: tuple
    kind: str

    def __post_init__(self):
        if not self.coords or all(c == 0 for c in self.coords):
            raise ZeroVector(f"all coordinates vanish: {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        return self.kind == other.kind and proj_equal_coords(self.coords, other.coords)

    def __hash__(self):
        # exact: the canonical representative; float equality is
        # tolerance-based, so float coordinates are not hashed
        if is_float(self.coords):
            return hash((self.kind, self.dim))
        return hash((self.kind, normalize(self).coords))

    def __repr__(self):
        inner = ":".join(str(c) for c in self.coords)
        return f"({inner})" if self.kind == POINT else f"[{inner}]"


def point(*coords) -> HomogeneousElement:
    return HomogeneousElement(tuple(to_scalar(c) for c in coords), POINT)


def hyperplane(*coords) -> HomogeneousElement:
    return HomogeneousElement(tuple(to_scalar(c) for c in coords), HYPERPLANE)


def affine_point(*coords) -> HomogeneousElement:
    """Lift affine coordinates with a trailing homogeneous 1."""
    return point(*coords, 1)


def normalize(e: HomogeneousElement) -> HomogeneousElement:
    """Canonical representative: integer-primitive coordinates with positive
    leading nonzero entry (exact coordinates) or unit Euclidean norm with
    positive leading entry (float coordinates).  Idempotent."""
    return HomogeneousElement(normalize_coords(e.coords), e.kind)


def normalize_coords(coords: tuple) -> tuple:
    if not is_float(coords):
        denom_lcm = 1
        for c in coords:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in coords]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g == 0:
            raise ZeroVector("all coordinates vanish")
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        return tuple(Fraction(v) for v in ints)
    scale = max(abs(c) for c in coords)
    if scale == 0:
        raise ZeroVector("all coordinates vanish")
    if not 1e-150 < scale < 1e150:  # the squares below would under- or overflow
        coords = tuple(c / scale for c in coords)
    norm = sum(c * c for c in coords) ** 0.5
    out = [c / norm for c in coords]
    lead = next(c for c in out if not is_zero(c, scale=1))
    if lead < 0:
        out = [-c for c in out]
    return tuple(out)


def proj_equal_coords(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    if is_float(a) != is_float(b):
        return False  # an exact element never equals a float one
    na, nb = normalize_coords(a), normalize_coords(b)
    if not is_float(a):
        return na == nb
    scale = max(max(abs(x) for x in na), max(abs(x) for x in nb))
    return all(is_zero(x - y, scale=scale) for x, y in zip(na, nb))


def proj_equal(a: HomogeneousElement, b: HomogeneousElement) -> bool:
    return a.kind == b.kind and proj_equal_coords(a.coords, b.coords)


def pairing(h: HomogeneousElement, p: HomogeneousElement):
    """Contraction sum(h_i * p_i) of a hyperplane with a point."""
    if {h.kind, p.kind} != {POINT, HYPERPLANE}:
        raise KindMismatch("pairing needs one hyperplane and one point")
    if h.kind == POINT:
        h, p = p, h
    if h.dim != p.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {h.dim} vs {p.dim}")
    return sum(a * b for a, b in zip(h.coords, p.coords))


def tested_pairing(h: HomogeneousElement, p: HomogeneousElement):
    """(pairing(h, p), whether it vanishes).  A float pairing is tested at
    the scale of the products of the operands' coordinates."""
    v = pairing(h, p)
    scale = max(abs(a * b) for a, b in zip(h.coords, p.coords)) if isinstance(v, float) else 1
    return v, is_zero(v, scale=scale)


def incident(h: HomogeneousElement, p: HomogeneousElement) -> bool:
    return tested_pairing(h, p)[1]


def _same_kind_dim(elems):
    kinds = {e.kind for e in elems}
    if len(kinds) > 1:
        raise KindMismatch("mixed points and hyperplanes")
    dims = {e.dim for e in elems}
    if len(dims) > 1:
        raise DimensionMismatch("mixed ambient dimensions")


def circuit_coefficients(rows):
    """c with sum(c_i * rows[i]) = 0 and every c_i nonzero.

    Raises KernelNotOneDimensional, naming the relation-space dimension or
    the vanishing coefficient, unless the rows form a circuit (rank m-1
    with a nowhere-zero one-dimensional left kernel).
    """
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(len(rows[0]))]
    ker = linalg.nullspace(cols)  # coefficient vectors c with sum c_i v_i = 0
    if len(ker) != 1:
        raise KernelNotOneDimensional(f"relation space has dimension {len(ker)}, need 1")
    c = ker[0]
    scale = max(abs(x) for x in c)
    for i, x in enumerate(c):
        if is_zero(x, scale=scale):
            raise KernelNotOneDimensional(f"relation coefficient {i} vanishes (not a circuit)")
    return c


def is_circuit(elems) -> bool:
    """True iff the elements are dependent but every proper subset is
    independent.  Repeats are allowed: two coincident points form a circuit."""
    m = len(elems)
    if m < 2:
        raise TooFew("a circuit needs at least 2 elements")
    _same_kind_dim(elems)
    d = elems[0].dim
    if m > d + 2:
        raise TooManyElements(f"{m} elements cannot form a circuit in P^{d}")
    # for m = d+2 the dependency is automatic; the nowhere-zero kernel test
    # is exactly "every (m-1)-subset independent"
    try:
        circuit_coefficients([list(e.coords) for e in elems])
    except KernelNotOneDimensional:
        return False
    return True


@dataclass(frozen=True)
class Subspace:
    """Row space of a generator matrix, stored as an RREF basis."""

    basis: tuple  # tuple of coordinate tuples, reduced row echelon form
    kind: str
    ambient: int  # d, so coordinate length is d+1

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, e: HomogeneousElement) -> bool:
        return linalg.rank([list(b) for b in self.basis] + [list(e.coords)]) == self.rank


def span(elems) -> Subspace:
    if not elems:
        raise TooFew("span of nothing")
    _same_kind_dim(elems)
    reduced, _ = linalg.rref([list(e.coords) for e in elems])
    return Subspace(tuple(tuple(r) for r in reduced), elems[0].kind, elems[0].dim)


def meet(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces, computed from their kernels."""
    if s1.kind != s2.kind:
        raise KindMismatch("meet of different kinds")
    if s1.ambient != s2.ambient:
        raise DimensionMismatch("meet in different ambient spaces")
    ann = linalg.nullspace([list(b) for b in s1.basis]) + linalg.nullspace([list(b) for b in s2.basis])
    inter = linalg.nullspace([list(a) for a in ann])
    if not inter:
        raise EmptyMeet("subspaces intersect trivially")
    reduced, _ = linalg.rref(inter)
    return Subspace(tuple(tuple(r) for r in reduced), s1.kind, s1.ambient)


def subspace_element(s: Subspace) -> HomogeneousElement:
    if s.rank != 1:
        raise DegenerateIntersection(f"expected a rank-1 subspace, got rank {s.rank}")
    return HomogeneousElement(normalize_coords(s.basis[0]), s.kind)


def join_points(points_) -> HomogeneousElement:
    """Hyperplane spanned by d points of P^d (unique when independent)."""
    _same_kind_dim(points_)
    if points_[0].kind != POINT:
        raise KindMismatch("join_points takes points")
    ker = linalg.nullspace([list(p.coords) for p in points_])
    if len(ker) != 1:
        raise DegenerateIntersection("points do not span a unique hyperplane")
    return HomogeneousElement(normalize_coords(tuple(ker[0])), HYPERPLANE)


def meet_hyperplanes(hyps) -> HomogeneousElement:
    """Common point of d hyperplanes of P^d (unique when independent)."""
    _same_kind_dim(hyps)
    if hyps[0].kind != HYPERPLANE:
        raise KindMismatch("meet_hyperplanes takes hyperplanes")
    ker = linalg.nullspace([list(h.coords) for h in hyps])
    if len(ker) != 1:
        raise DegenerateIntersection("hyperplanes do not meet in a unique point")
    return HomogeneousElement(normalize_coords(tuple(ker[0])), POINT)


def line_through(p: HomogeneousElement, q: HomogeneousElement) -> HomogeneousElement:
    """Line through two distinct points of P^2."""
    return join_points([p, q])


def multi_ratio(cycle):
    """Multi-ratio of an alternating cycle [A1, l1, ..., An, ln]:
    prod l_i(A_i) / prod l_i(A_{i+1}), indices mod n.

    Independent of representative scaling; reversal inverts it.
    """
    if len(cycle) < 2 or len(cycle) % 2 != 0:
        raise TooFew("multi-ratio needs an even cycle of length >= 2")
    pts, hyps = cycle[0::2], cycle[1::2]
    if any(p.kind != POINT for p in pts) or any(h.kind != HYPERPLANE for h in hyps):
        raise KindMismatch("cycle must alternate point, hyperplane, ...")
    n = len(pts)
    num = 1
    den = 1
    for i in range(n):
        a, a_zero = tested_pairing(hyps[i], pts[i])
        if a_zero:
            raise VanishingPairing(f"point {i} lies on hyperplane {i}")
        b, b_zero = tested_pairing(hyps[i], pts[(i + 1) % n])
        if b_zero:
            raise VanishingPairing(f"point {(i + 1) % n} lies on hyperplane {i}")
        num *= a
        den *= b
    return num / den


def face_coherent(cycle) -> bool:
    """True iff the multi-ratio of the cycle equals one."""
    r = multi_ratio(cycle)
    return is_zero(r - 1, scale=abs(r))


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

    def line_discriminant(self, line: HomogeneousElement):
        """B(p,q)^2 - Q(p)Q(q) for two points spanning the line; zero iff
        the line is tangent (touches at exactly one projective point)."""
        pts = linalg.nullspace([list(line.coords)])
        p = HomogeneousElement(tuple(pts[0]), POINT)
        q = HomogeneousElement(tuple(pts[1]), POINT)
        return self.bilinear(p, q) ** 2 - self.value(p) * self.value(q)


def standard_conic() -> Conic:
    """The conic yz = x^2 (all tangency data rational in the parameter)."""
    h, o, i = Fraction(-1, 2), Fraction(0), Fraction(1)
    return Conic(((i, o, o), (o, o, h), (o, h, o)))


def conic_point(t) -> HomogeneousElement:
    """Point (t : t^2 : 1) on yz = x^2."""
    t = to_scalar(t)
    return point(t, t * t, 1)


def circumscribed_pair(params):
    """Polygon P circumscribed about yz = x^2 with tangency polygon Q.

    P_i = tangent(t_{i-1}) ^ tangent(t_i) = ((t_{i-1}+t_i)/2 : t_{i-1} t_i : 1),
    Q_i = (t_i : t_i^2 : 1); the side P_i P_{i+1} is the tangent at t_i, so Q
    is inscribed in P by construction.  Indices are cyclic.
    """
    ts = [to_scalar(t) for t in params]
    if len(ts) < 3:
        raise TooFew("need at least 3 parameters")
    if len(set(ts)) != len(ts):
        raise DuplicateParameter("tangency parameters must be pairwise distinct")
    n = len(ts)
    P = [point((ts[i - 1] + ts[i]) / 2, ts[i - 1] * ts[i], 1) for i in range(n)]
    Q = [conic_point(t) for t in ts]
    return P, Q
