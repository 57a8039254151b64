"""Exact projective linear algebra: points, hyperplanes, their joins and
meets, circuits, the multi-ratio, and the conic used to build dual polygons.

Points and hyperplanes of P^d are nonzero coordinate (d+1)-tuples up to
scale.  Hyperplanes are covectors; ``pairing`` is the natural contraction.
A *circuit* is a minimally dependent set: the set is dependent but every
proper subset is independent.
"""
from __future__ import annotations

from fractions import Fraction
from math import frexp, gcd, lcm, ldexp
from operator import mul

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
from .record import Record, setfield
from .scalars import is_float, is_zero, to_scalar

POINT = "point"
HYPERPLANE = "hyperplane"


class HomogeneousElement(Record):
    """A point or hyperplane of P^d, scale-equivalent coordinate tuple.

    Three slots are derived once, at construction.  ``coords * scale`` is
    the row geometry reads in their place (``element_rows``): ``scale`` is
    the lcm of exact coordinates' denominators, that row their ``ints``
    (``None`` marks float data), or the power of two (at most 2^1023, so it
    stays finite) that brings the largest float coordinate into [1/2, 1).
    ``dim`` is d.  An exact join or meet is built by ``_element`` from its
    primitive int row, its ``ints``, with scale 1 and no coordinates: its
    ``coords`` are derived from ``ints``, as Fractions, on first read and
    then kept in the slot ``_coords``.  A label built from coordinates
    (``__init__``, float data included) keeps the ones it was given."""

    _fields = ("coords", "kind")
    __slots__ = ("_coords", "kind", "ints", "scale", "dim")

    def __init__(self, coords: tuple, kind: str):
        if is_float(coords):
            ints, scale = None, ldexp(1.0, min(-frexp(max(map(abs, coords)))[1], 1023))
        else:
            scale = lcm(*[x.denominator for x in coords])
            ints = tuple([x.numerator * (scale // x.denominator) for x in coords])
        if not any(coords if ints is None else ints):
            raise ZeroVector(f"all coordinates vanish: {coords}")
        setfield(self, "_coords", coords)
        setfield(self, "kind", kind)
        setfield(self, "ints", ints)
        setfield(self, "scale", scale)
        setfield(self, "dim", len(coords) - 1)

    @property
    def coords(self) -> tuple:
        try:
            return self._coords
        except AttributeError:  # a computed label's, unread so far
            setfield(self, "_coords", tuple(map(Fraction, self.ints)))
            return self._coords

    def __eq__(self, other):
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        return proj_equal(self, other)

    def __hash__(self):
        # exact: the canonical representative; float equality is
        # tolerance-based, so float coordinates are not hashed
        if self.ints is None:
            return hash((self.kind, self.dim))
        return hash((self.kind, _primitive(self.ints)))

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


def normalize_coords(coords: tuple) -> tuple:
    if not is_float(coords):
        return tuple(map(Fraction, _primitive(linalg.int_row(coords))))
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


def _primitive(ints) -> tuple:
    """An int row divided by its content, positive at its first nonzero
    entry: the canonical representative of a nonzero exact element."""
    g = gcd(*ints)
    if g == 0:
        raise ZeroVector("all coordinates vanish")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple([v // g for v in ints])


def proj_equal(a: HomogeneousElement, b: HomogeneousElement) -> bool:
    if a.kind != b.kind or a.dim != b.dim:
        return False
    ai, bi = a.ints, b.ints
    if (ai is None) != (bi is None):
        return False  # an exact element never equals a float one
    if ai is not None:
        if ai == bi:  # a computed label's row is canonical: equal ones are the common case
            return True
        # a ~ b iff a_i b_k == b_i a_k for every i, at a k with a_k != 0
        ak, bk = next((x, y) for x, y in zip(ai, bi) if x)
        return all(x * bk == y * ak for x, y in zip(ai, bi))
    na, nb = normalize_coords(a.coords), normalize_coords(b.coords)
    scale = max(max(abs(x) for x in na), max(abs(x) for x in nb))
    return all(is_zero(x - y, scale=scale) for x, y in zip(na, nb))


def _pair_rows(h: HomogeneousElement, p: HomogeneousElement) -> tuple:
    """((hyperplane row, point row), exact) of a hyperplane and a point in either order."""
    if {h.kind, p.kind} != {POINT, HYPERPLANE}:
        raise KindMismatch("pairing needs one hyperplane and one point")
    if h.kind == POINT:
        h, p = p, h
    if h.dim != p.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {h.dim} vs {p.dim}")
    return element_rows((h, p))


def pairing(h: HomogeneousElement, p: HomogeneousElement):
    """Contraction sum(h_i * p_i) of a hyperplane with a point: the dot
    product of their rows, divided once by both scales."""
    (u, w), exact = _pair_rows(h, p)
    v = sum(map(mul, u, w))
    return Fraction(v, h.scale * p.scale) if exact else v / (h.scale * p.scale)


def _vanishes(v, u, w) -> bool:
    """Whether the contraction v of the rows u and w is zero: exactly, or
    for a float at the scale of the products u_i w_i."""
    if isinstance(v, float):
        return is_zero(v, scale=max(abs(a * b) for a, b in zip(u, w)))
    return not v


def incident(h: HomogeneousElement, p: HomogeneousElement) -> bool:
    (u, w), _ = _pair_rows(h, p)
    return _vanishes(sum(map(mul, u, w)), u, w)


def _kind_dim(elems) -> tuple:
    """(kind, d) of a nonempty list of elements of one kind in one P^d."""
    if not elems:
        raise TooFew("span of nothing")
    kind, d = elems[0].kind, elems[0].dim
    for e in elems:
        if e.kind != kind or e.dim != d:
            if any(x.kind != kind for x in elems):
                raise KindMismatch("mixed points and hyperplanes")
            raise DimensionMismatch("mixed ambient dimensions")
    return kind, d


def element_rows(elems) -> tuple:
    """(rows, exact): each element's ``coords * scale``, which geometry and
    linalg read in their place, and whether all are exact.  An exact row is
    the element's ``ints``; a float one has its largest entry in [1/2, 1),
    so no float zero test depends on the size of a representative."""
    rows = [e.ints for e in elems]
    return (rows, True) if None not in rows else ([[x * e.scale for x in e.coords] for e in elems], False)


def _kernel(rows, exact):
    """Right kernel basis: primitive int vectors, each positive at its
    last nonzero entry, for an int matrix (exact data, already scaled to
    ints), the float kernel otherwise."""
    return linalg._int_nullspace(rows) if exact else linalg.nullspace(rows)


def _relation(cols, exact):
    """The relation c (sum c_i * rows[i] = 0) of a circuit, given the
    columns of its rows: a primitive int vector for int columns, the float
    kernel vector otherwise.

    Raises KernelNotOneDimensional, naming the relation-space dimension or
    the vanishing coefficient, unless the rows form a circuit (rank m-1
    with a nowhere-zero one-dimensional left kernel)."""
    ker = _kernel(cols, exact)
    if len(ker) != 1:
        raise KernelNotOneDimensional(f"relation space has dimension {len(ker)}, need 1")
    c = ker[0]
    if exact and all(c):
        return c
    scale = max(map(abs, c))
    for i, x in enumerate(c):
        if is_zero(x, scale=scale):
            raise KernelNotOneDimensional(f"relation coefficient {i} vanishes (not a circuit)")
    return c


def is_circuit(elems) -> bool:
    """True iff the elements are dependent but every proper subset is
    independent.  Repeats are allowed: two coincident points form a circuit."""
    return circuit_failure(elems) is None


def circuit_failure(elems) -> str | None:
    """Why the elements are no circuit, naming the relation-space dimension
    or the vanishing coefficient; None when they form one."""
    m = len(elems)
    if m < 2:
        raise TooFew("a circuit needs at least 2 elements")
    d = _kind_dim(elems)[1]
    if m > d + 2:
        raise TooManyElements(f"{m} elements cannot form a circuit in P^{d}")
    # for m = d+2 the dependency is automatic; the nowhere-zero kernel test
    # is exactly "every (m-1)-subset independent"
    # scaling a row keeps the relation's support, so the int rows serve
    rows, exact = element_rows(elems)
    try:
        _relation(list(zip(*rows)), exact)
    except KernelNotOneDimensional as exc:
        return str(exc)
    return None


def meet(gens1, gens2) -> HomogeneousElement:
    """The element spanning the intersection of the spans of two nonempty
    element lists.

    The kernel of the matrix whose columns are the rows (``element_rows``)
    of both lists (minors give an exact kernel of corank one in at most 4
    columns, one elimination any other): each kernel vector (a, b) gives
    the element sum a_i g1_i = -sum b_j g2_j of the intersection, and their
    echelon basis spans it.  A one-dimensional exact kernel gives the
    element directly: no echelon pass.

    Raises EmptyMeet if the spans meet trivially and DegenerateIntersection,
    naming the rank, if they meet in more than one element."""
    kind, d = _kind_dim(gens1)
    kind2, d2 = _kind_dim(gens2)
    if kind != kind2:
        raise KindMismatch("meet of different kinds")
    if d != d2:
        raise DimensionMismatch("meet in different ambient spaces")
    rows, exact = element_rows([*gens1, *gens2])
    cols = list(zip(*rows))
    ker = _kernel(cols, exact)
    k = len(gens1)  # map stops each column at the first list's generators
    elems = [[sum(map(mul, v[:k], col)) for col in cols] for v in ker]
    if exact:
        if len(elems) == 1 and any(elems[0]):
            return _element(_primitive(elems[0]), kind)
        basis = linalg._int_echelon(elems)[0]
    else:
        # an element that vanishes at the scale of the terms of its relation
        # is rounding left by cancelling generators: drop it
        scales = [max(abs(c * x) for c, row in zip(v, rows) for x in row) for v in ker]
        elems = [e for e, t in zip(elems, scales) if not all(is_zero(x / t) for x in e)]
        basis = linalg.rref(elems)[0]
    if not basis:
        raise EmptyMeet("subspaces intersect trivially")
    if len(basis) > 1:
        raise DegenerateIntersection(f"meet has rank {len(basis)}")
    row = tuple(basis[0])
    return _element(_primitive(row), kind) if exact else HomogeneousElement(normalize_coords(row), kind)


def _element(prim: tuple, kind) -> HomogeneousElement:
    """The exact element of a primitive int row, positive at its first
    nonzero entry: prim is its ``ints``, so ``__init__`` is skipped and
    ``coords`` is built only when read."""
    e = object.__new__(HomogeneousElement)
    setfield(e, "kind", kind)
    setfield(e, "ints", prim)
    setfield(e, "scale", 1)
    setfield(e, "dim", len(prim) - 1)
    return e


def incident_element(elems) -> HomogeneousElement:
    """The element of the other kind incident to every given element: the
    hyperplane through d points of P^d, or the common point of d
    hyperplanes (unique when they are independent)."""
    if _kind_dim(elems)[0] == POINT:
        kind, what = HYPERPLANE, "points do not span a unique hyperplane"
    else:
        kind, what = POINT, "hyperplanes do not meet in a unique point"
    rows, exact = element_rows(elems)
    ker = _kernel(rows, exact)
    if len(ker) != 1:
        raise DegenerateIntersection(what)
    if not exact:
        return HomogeneousElement(normalize_coords(tuple(ker[0])), kind)
    # the kernel vector is primitive already: only its sign is canonical
    v = ker[0]
    return _element(tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v), kind)


def join_points(points_) -> HomogeneousElement:
    """Hyperplane spanned by d points of P^d (unique when independent)."""
    if points_ and points_[0].kind != POINT:
        raise KindMismatch("join_points takes points")
    return incident_element(points_)


def meet_hyperplanes(hyps) -> HomogeneousElement:
    """Common point of d hyperplanes of P^d (unique when independent)."""
    if hyps and hyps[0].kind != HYPERPLANE:
        raise KindMismatch("meet_hyperplanes takes hyperplanes")
    return incident_element(hyps)


def line_through(p: HomogeneousElement, q: HomogeneousElement) -> HomogeneousElement:
    """Line through two distinct points of P^2."""
    return join_points([p, q])


def _ratio_terms(cycle):
    """(prod l_i(A_i), prod l_i(A_{i+1})) of a checked alternating cycle.
    Labels are paired on their rows (``element_rows``): each label's scale
    appears once in each product, so the two have the multi-ratio as their
    quotient."""
    if len(cycle) < 2 or len(cycle) % 2 != 0:
        raise TooFew("multi-ratio needs an even cycle of length >= 2")
    pts, hyps = cycle[0::2], cycle[1::2]
    if any(p.kind != POINT for p in pts) or any(h.kind != HYPERPLANE for h in hyps):
        raise KindMismatch("cycle must alternate point, hyperplane, ...")
    rows = element_rows(cycle)[0]
    n = len(pts)
    terms = [1, 1]
    for i in range(n):
        for side, j in enumerate((i, (i + 1) % n)):
            if hyps[i].dim != pts[j].dim:
                raise DimensionMismatch(f"ambient dimensions differ: {hyps[i].dim} vs {pts[j].dim}")
            h, p = rows[2 * i + 1], rows[2 * j]
            v = sum(map(mul, h, p))
            if _vanishes(v, h, p):
                raise VanishingPairing(f"point {j} lies on hyperplane {i}")
            terms[side] *= v
    return terms[0], terms[1]


def multi_ratio(cycle):
    """Multi-ratio of an alternating cycle [A1, l1, ..., An, ln]:
    prod l_i(A_i) / prod l_i(A_{i+1}), indices mod n.

    Independent of representative scaling; reversal inverts it.
    """
    num, den = _ratio_terms(cycle)
    return num / den if isinstance(num, float) else Fraction(num, den)


def face_coherent(cycle) -> bool:
    """True iff the multi-ratio of the cycle equals one."""
    num, den = _ratio_terms(cycle)
    if not isinstance(num, float):
        return num == den
    r = num / den
    return is_zero(r - 1, scale=abs(r))


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
    Q = [point(t, t * t, 1) for t in ts]
    return P, Q
