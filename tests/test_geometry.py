import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimergeom import geometry as g
from dimergeom import linalg
from dimergeom.errors import (
    DegenerateIntersection,
    DimensionMismatch,
    DuplicateParameter,
    EmptyMeet,
    GeometryError,
    KernelNotOneDimensional,
    KindMismatch,
    TooFew,
    TooManyElements,
    VanishingPairing,
    ZeroVector,
)
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_windows
from dimergeom.pentagram import dual_pentagram_map, pentagram_map
from dimergeom.qnet import _side_rank, laplace
from dimergeom.scalars import is_zero
from helpers import line_discriminant, proj_equal_coords, standard_conic


def pt(*c):
    return g.point(*c)


def hp(*c):
    return g.hyperplane(*c)


# ---------------------------------------------------------------- normalize


def test_normalize_gcd_scaling():
    assert g.normalize_coords(pt(2, 0, 4).coords) == (Fraction(1), Fraction(0), Fraction(2))


def test_normalize_sign_convention():
    assert g.normalize_coords(pt(0, -3, 0).coords) == (Fraction(0), Fraction(1), Fraction(0))


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        pt(0, 0, 0)


def test_normalize_idempotent():
    coords = pt(Fraction(2, 3), 5, -7).coords
    assert g.normalize_coords(g.normalize_coords(coords)) == g.normalize_coords(coords)


def test_normalize_float_backend():
    coords = g.normalize_coords(pt(0.0, -3.0, 4.0).coords)
    assert abs(sum(c * c for c in coords) - 1.0) < 1e-12
    assert coords[1] > 0


def test_tiny_float_vectors_are_points():
    assert pt(1e-12, 0.0, 0.0) == pt(1.0, 0.0, 0.0)
    assert g.normalize_coords((5e-324, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    with pytest.raises(ZeroVector):
        pt(0.0, -0.0, 0.0)


def test_tiny_float_points_join_and_meet():
    """Float eliminations test zero relative to the matrix, so points with
    coordinates of size 1e-10 still span lines and meet."""
    s = 1e-10
    a, b, c, d = pt(s, 0.0, 0.0), pt(0.0, s, 0.0), pt(s, s, 0.0), pt(0.0, 0.0, s)
    assert g.join_points([a, b]) == hp(0.0, 0.0, 1.0)
    assert g.meet([a, b], [c, d]) == pt(1.0, 1.0, 0.0)
    assert g.meet_hyperplanes([g.line_through(a, b), g.line_through(c, d)]) == pt(1.0, 1.0, 0.0)
    assert linalg.rank([[s, 0.0], [0.0, s]]) == 2


def test_float_meet_is_scale_free():
    """A float meet tests zero relative to each generator's size, and its
    elimination tests a pivot row relative to the matrix over its pivot,
    so the same points give the same meet at any scale."""
    for s in (1.0, 1e8):
        gens = [pt(0.0, 0.0, 6 * s), pt(0.0, 0.0, 3 * s), pt(3 * s, 0.0, 3 * s), pt(3 * s, 0.0, 0.0)]
        assert g.meet(gens, [pt(s, 0.0, 0.0)]) == pt(1.0, 0.0, 0.0)
    with pytest.raises(EmptyMeet):
        g.meet([pt(1e-10, 0.0, 0.0)], [pt(0.0, 0.0, 1.0)])
    assert g.meet([pt(1e-10, 1e-10, 0.0)], [pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)]) == pt(1.0, 1.0, 0.0)


def test_float_hash_agrees_with_equality():
    a, b = pt(1.0, 2.0, 3.0), pt(1.0, 2.0, 3.0 + 1e-12)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # an exact element never equals a float one, so their hashes may differ
    assert pt(1, 2, 3) != a and len({pt(1, 2, 3), pt(2, 4, 6), a}) == 2


# ---------------------------------------------------------------- pairing


def test_pairing_incidence():
    assert g.pairing(hp(1, 0, -1), pt(1, 0, 1)) == 0


def test_pairing_direct_dot_product():
    assert g.pairing(hp(2, 2, -1), pt(0, 0, 1)) == -1


def test_pairing_basis():
    assert g.pairing(hp(1, 0, 0), pt(0, 1, 0)) == 0


def test_pairing_argument_order_free():
    assert g.pairing(pt(0, 0, 1), hp(2, 2, -1)) == -1


def test_float_zero_tests_do_not_depend_on_a_representative():
    # (1, 2, 3, 1) times 1e-40 is off the plane x0 = 0, and times 1e40 it
    # spans a line with (2, -1, 1/2, 1): the rows, of unit size, say so
    assert not g.incident(g.hyperplane(1.0, 0.0, 0.0, 0.0), g.point(1e-40, 2e-40, 3e-40, 1e-40))
    assert _side_rank([g.point(1e40, 2e40, 3e40, 1e40), g.point(2.0, -1.0, 0.5, 1.0)]) == 2
    # a float pairing is still the contraction of the coordinates
    pairs = [
        (g.hyperplane(0.5, 3.0, -1.0), g.point(2.0, 1e-3, 4.0)),
        (g.hyperplane(1e40, -7.0, 3.0), g.point(1e-40, 5.0, 2e-30)),
    ]
    for h, p in pairs:
        assert g.pairing(h, p) == g.pairing(p, h) == sum(a * b for a, b in zip(h.coords, p.coords))


# ---------------------------------------------------------------- circuits


def test_two_coincident_points_form_a_circuit():
    assert g.is_circuit([pt(1, 0, 0), pt(1, 0, 0)])
    assert g.is_circuit([pt(1, 0, 0), pt(2, 0, 0)])


def test_three_collinear_distinct_points_form_a_circuit():
    assert g.is_circuit([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0)])


def test_proper_subset_dependent_is_not_a_circuit():
    assert not g.is_circuit([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 0, 1)])


def test_two_distinct_points_not_a_circuit():
    assert not g.is_circuit([pt(1, 0, 0), pt(0, 1, 0)])


def test_circuit_size_bounds():
    with pytest.raises(TooFew):
        g.is_circuit([pt(1, 0, 0)])
    with pytest.raises(TooManyElements):
        g.is_circuit([pt(1, 0, 0)] * 5)


def test_four_generic_points_in_plane_form_circuit():
    assert g.is_circuit([pt(0, 0, 1), pt(1, 0, 1), pt(0, 1, 1), pt(1, 2, 1)])


def test_circuit_invariant_under_permutation_and_rescaling():
    rng = random.Random(0)
    base = [pt(1, 2, 1), pt(3, -1, 1), pt(5, 0, 1), pt(0, 4, 1)]
    assert g.is_circuit(base)
    for _ in range(20):
        scaled = []
        for e in base:
            s = rng.choice([1, -2, 3, Fraction(1, 5)])
            scaled.append(g.HomogeneousElement(tuple(c * s for c in e.coords), e.kind))
        rng.shuffle(scaled)
        assert g.is_circuit(scaled)


# ---------------------------------------------------------------- meet


def test_meet_of_two_lines():
    x = g.meet([pt(0, 0, 1), pt(1, 0, 1)], [pt(1, 1, 1), pt(1, -1, 1)])
    assert x == pt(1, 0, 1)


def test_meet_parallel_lines_at_infinity():
    # y = 0 and y = 1 meet at the infinite point of the x direction
    x = g.meet([pt(0, 0, 1), pt(1, 0, 1)], [pt(0, 1, 1), pt(1, 1, 1)])
    assert x == pt(1, 0, 0)


def test_meet_empty_raises():
    # two skew lines in P^3
    with pytest.raises(EmptyMeet, match=r"^subspaces intersect trivially$"):
        g.meet([pt(1, 0, 0, 0), pt(0, 1, 0, 0)], [pt(0, 0, 1, 0), pt(0, 0, 0, 1)])


def test_coplanar_lines_in_p3_meet_in_a_point():
    x = g.meet([pt(0, 0, 0, 1), pt(1, 0, 0, 1)], [pt(0, 1, 0, 1), pt(1, -1, 0, 1)])
    assert x.coords == (1, 0, 0, 2) and x.kind == g.POINT


def test_meet_rejects_malformed_generator_lists():
    line = [pt(0, 0, 1), pt(1, 0, 1)]
    cases = [
        ([], line, TooFew, "span of nothing"),
        ([pt(0, 0, 1), hp(1, 0, 1)], line, KindMismatch, "mixed points and hyperplanes"),
        ([hp(0, 0, 1), hp(1, 0, 1)], line, KindMismatch, "meet of different kinds"),
        ([pt(0, 0, 0, 1), pt(1, 0, 0, 1)], line, DimensionMismatch, "meet in different ambient spaces"),
    ]
    for gens1, gens2, err, message in cases:
        assert outcome(g.meet, gens1, gens2)[1] == (err, message)


def test_incident_elements_of_nothing_raise_too_few():
    for fn in (g.incident_element, g.join_points, g.meet_hyperplanes):
        assert outcome(fn, [])[1] == (TooFew, "span of nothing")


# ---------------------------------------------------------------- multi-ratio


def test_multi_ratio_single_pair_is_one():
    assert g.multi_ratio([pt(1, 2, 1), hp(1, 1, 1)]) == 1


def test_multi_ratio_concurrent_quadrilateral():
    A, B = pt(0, 0, 1), pt(1, 0, 1)
    c, d = hp(2, 2, -1), hp(2, -2, -1)
    assert g.multi_ratio([A, c, B, d]) == 1
    assert g.face_coherent([A, c, B, d])


def test_multi_ratio_telescoping_same_hyperplane():
    A, B, l = pt(1, 1, 1), pt(2, -1, 1), hp(1, 0, 1)
    assert g.multi_ratio([A, l, B, l]) == 1


def test_multi_ratio_vanishing_pairing():
    with pytest.raises(VanishingPairing):
        g.multi_ratio([pt(1, 0, 1), hp(1, 0, -1), pt(0, 1, 1), hp(1, 1, 1)])


def test_non_concurrent_quadrilateral_not_coherent():
    # lines AB, c, d pairwise meet in three distinct points
    A, B = pt(0, 0, 1), pt(1, 0, 1)
    c, d = hp(1, 1, -2), hp(1, -1, -3)
    assert g.multi_ratio([A, c, B, d]) == Fraction(4, 3)
    assert not g.face_coherent([A, c, B, d])


def test_multi_ratio_rescaling_invariance():
    rng = random.Random(2)
    cyc = [pt(0, 1, 1), hp(3, 1, 2), pt(2, 5, 1), hp(1, -2, 4), pt(7, 1, 2), hp(1, 3, 1)]
    base = g.multi_ratio(cyc)
    for _ in range(15):
        scaled = []
        for e in cyc:
            s = rng.choice([2, -1, Fraction(3, 7), 5])
            scaled.append(g.HomogeneousElement(tuple(c * s for c in e.coords), e.kind))
        assert g.multi_ratio(scaled) == base


def test_multi_ratio_rotation_and_reversal():
    cyc = [pt(0, 1, 1), hp(3, 1, 2), pt(2, 5, 1), hp(1, -2, 4), pt(7, 1, 2), hp(1, 3, 1)]
    base = g.multi_ratio(cyc)
    rotated = cyc[2:] + cyc[:2]
    assert g.multi_ratio(rotated) == base
    # reversal: [A1, ln, An, ...]: points reversed after the first, hyperplanes reversed
    pts, hyps = cyc[0::2], cyc[1::2]
    rev = []
    n = len(pts)
    for i in range(n):
        rev.append(pts[(-i) % n])
        rev.append(hyps[(-i - 1) % n])
    assert g.multi_ratio(rev) == 1 / base


def test_coherent_quadrilateral_iff_concurrent():
    rng = random.Random(3)
    hits = 0
    for _ in range(60):
        A = pt(rng.randint(-5, 5), rng.randint(-5, 5), 1)
        B = pt(rng.randint(-5, 5), rng.randint(-5, 5), 1)
        c = hp(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        d = hp(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        try:
            coh = g.face_coherent([A, c, B, d])
        except (VanishingPairing, ZeroVector):
            continue
        if A == B or c == d:
            concurrent = True
        else:
            from dimergeom import linalg

            ab = g.line_through(A, B)
            concurrent = linalg.rank([list(ab.coords), list(c.coords), list(d.coords)]) <= 2
        assert coh == concurrent
        hits += 1
    assert hits > 30


def test_hexagon_desargues_centrally_perspective():
    # two triangles perspective from the origin: A2 = s * A1 etc. (affine scaling)
    A1, B1, C1 = pt(2, 1, 1), pt(-1, 3, 1), pt(1, -2, 1)
    s = {"A": Fraction(2), "B": Fraction(3), "C": Fraction(5, 2)}
    A2 = pt(2 * s["A"], 1 * s["A"], 1)
    B2 = pt(-1 * s["B"], 3 * s["B"], 1)
    C2 = pt(1 * s["C"], -2 * s["C"], 1)
    a2 = g.line_through(B2, C2)
    b2 = g.line_through(A2, C2)
    c2 = g.line_through(A2, B2)
    assert g.face_coherent([A1, b2, C1, a2, B1, c2])


def test_hexagon_non_perspective_triangles_not_coherent():
    A1, B1, C1 = pt(2, 1, 1), pt(-1, 3, 1), pt(1, -2, 1)
    A2, B2, C2 = pt(5, 3, 1), pt(-2, 7, 1), pt(3, -4, 1)
    a2 = g.line_through(B2, C2)
    b2 = g.line_through(A2, C2)
    c2 = g.line_through(A2, B2)
    assert not g.face_coherent([A1, b2, C1, a2, B1, c2])


# ---------------------------------------------------------------- conic


def test_circumscribed_pair_example():
    P, Q = g.circumscribed_pair([-2, -1, 0, 1, 2])
    expected_P = [pt(0, -4, 1), pt(Fraction(-3, 2), 2, 1), pt(Fraction(-1, 2), 0, 1), pt(Fraction(1, 2), 0, 1), pt(Fraction(3, 2), 2, 1)]
    expected_Q = [pt(-2, 4, 1), pt(-1, 1, 1), pt(0, 0, 1), pt(1, 1, 1), pt(2, 4, 1)]
    assert P == expected_P
    assert Q == expected_Q


def test_circumscribed_pair_tangency_point_on_side():
    P, Q = g.circumscribed_pair([-3, Fraction(-1, 2), 1, 2, 5, 7])
    n = len(P)
    for i in range(n):
        side = g.line_through(P[i], P[(i + 1) % n])
        assert g.pairing(side, Q[i]) == 0


def test_circumscribed_pair_sides_tangent_discriminant_zero():
    conic = standard_conic()
    P, Q = g.circumscribed_pair([-2, 0, 1, 3, 4])
    n = len(P)
    for i in range(n):
        side = g.line_through(P[i], P[(i + 1) % n])
        assert line_discriminant(conic, side) == 0
        assert conic.contains(Q[i])


def test_circumscribed_pair_duplicate_parameter():
    with pytest.raises(DuplicateParameter):
        g.circumscribed_pair([1, 2, 1])


# ------------------------------------------------- the Fraction references
#
# The exact operations work on integer-scaled coordinate vectors.  These are
# their Fraction implementations: spans in RREF, meets from the kernels of
# the two spans, kernels and products over Fractions, and equality by two
# normalizations.  linalg.rref and linalg.nullspace give Fraction results
# (tested against Gauss-Jordan over Fractions in test_linalg).


def ref_normalize_coords(coords):
    denom_lcm = 1
    for c in coords:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coords]
    h = 0
    for v in ints:
        h = gcd(h, abs(v))
    if h == 0:
        raise ZeroVector("all coordinates vanish")
    ints = [v // h for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def ref_span(elems):
    if not elems:
        raise TooFew("span of nothing")
    if len({e.kind for e in elems}) > 1:
        raise KindMismatch("mixed points and hyperplanes")
    if len({e.dim for e in elems}) > 1:
        raise DimensionMismatch("mixed ambient dimensions")
    return linalg.rref([list(e.coords) for e in elems])[0]


def ref_meet(basis1, basis2):
    """RREF basis of the meet of two spans given by RREF bases."""
    ann = linalg.nullspace([list(b) for b in basis1]) + linalg.nullspace([list(b) for b in basis2])
    inter = linalg.nullspace([list(a) for a in ann])
    if not inter:
        raise EmptyMeet("subspaces intersect trivially")
    return linalg.rref(inter)[0]


def ref_kernel_element(rows):
    ker = linalg.nullspace(rows)
    if len(ker) != 1:
        raise DegenerateIntersection("kernel is not one-dimensional")
    return ref_normalize_coords(tuple(ker[0]))


def ref_multi_ratio(cycle):
    pts, hyps = cycle[0::2], cycle[1::2]
    n = len(pts)
    num = den = Fraction(1)
    for i in range(n):
        a = sum(x * y for x, y in zip(hyps[i].coords, pts[i].coords))
        if a == 0:
            raise VanishingPairing(f"point {i} lies on hyperplane {i}")
        b = sum(x * y for x, y in zip(hyps[i].coords, pts[(i + 1) % n].coords))
        if b == 0:
            raise VanishingPairing(f"point {(i + 1) % n} lies on hyperplane {i}")
        num *= a
        den *= b
    return num / den


def ref_proj_equal_coords(a, b):
    if len(a) != len(b):
        return False
    return ref_normalize_coords(a) == ref_normalize_coords(b)


def ref_circuit_coefficients(rows):
    m = len(rows)
    ker = linalg.nullspace([[rows[i][j] for i in range(m)] for j in range(len(rows[0]))])
    if len(ker) != 1:
        raise KernelNotOneDimensional(f"relation space has dimension {len(ker)}, need 1")
    for i, x in enumerate(ker[0]):
        if x == 0:
            raise KernelNotOneDimensional(f"relation coefficient {i} vanishes (not a circuit)")
    return ker[0]


def outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except GeometryError as exc:
        return None, (type(exc), str(exc))


# ------------------------------------------------- inputs for the properties

COORD = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def elements(draw, d, kind, n_min=1, n_max=4):
    """1-4 nonzero elements of P^d, with a repeated (rescaled) element or a
    sum of two now and then."""
    out = []
    for _ in range(draw(st.integers(n_min, n_max))):
        choice = draw(st.integers(0, 3)) if out else 0
        if choice == 1:
            s = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            coords = tuple(s * c for c in draw(st.sampled_from(out)).coords)
        elif choice == 2 and len(out) > 1:
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            coords = tuple(a + b for a, b in zip(u.coords, v.coords))
        else:
            coords = tuple(Fraction(draw(COORD)) for _ in range(d + 1))
        if not any(coords):
            coords = (Fraction(1),) + coords[1:]
        out.append(g.HomogeneousElement(coords, kind))
    return out


@st.composite
def generator_pairs(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from([g.POINT, g.HYPERPLANE]))
    return draw(elements(d, kind)), draw(elements(d, kind))


def ref_meet_rank(gens1, gens2, ref, ref_err):
    """The rank of the reference meet, which meets two whole spaces in
    nothing (neither span has an annihilator, and the kernel of no rows is
    empty): the rank of such a meet is d + 1."""
    d = gens1[0].dim
    if ref_err is not None and ref_err[0] is EmptyMeet:
        if all(len(ref_span(gens)) == d + 1 for gens in (gens1, gens2)):
            return d + 1
        return 0
    return len(ref)


def check_meet_outcome(gens1, gens2, new, new_err, rank, same_row):
    """The meet's outcome for a reference meet of the given rank: rank 0
    raises EmptyMeet, rank 1 gives an element of the generators' kind whose
    coordinates same_row accepts, and rank r >= 2 raises
    DegenerateIntersection naming r."""
    if rank == 0:
        assert new_err == (EmptyMeet, "subspaces intersect trivially")
    elif rank == 1:
        assert new_err is None and new.kind == gens1[0].kind and same_row(new.coords)
    else:
        assert new_err == (DegenerateIntersection, f"meet has rank {rank}")


def check_meet(gens1, gens2):
    """meet of the generator lists equals the reference meet of their spans:
    EmptyMeet for rank 0, the normalized reference element for rank 1 and
    DegenerateIntersection naming the rank for a larger one; returns the
    reference rank."""
    new, new_err = outcome(g.meet, gens1, gens2)
    ref, ref_err = outcome(lambda: ref_meet(ref_span(gens1), ref_span(gens2)))
    if ref_err is not None and ref_err[0] is not EmptyMeet:
        assert new_err == ref_err
        return 0
    rank = ref_meet_rank(gens1, gens2, ref, ref_err)
    check_meet_outcome(gens1, gens2, new, new_err, rank, lambda row: row == ref_normalize_coords(tuple(ref[0])))
    return rank


# skew lines in P^3; lines of P^2 meeting in a point, one given by three
# generators; the planes w = 0 and z = 0 of P^3, given by dependent
# generators, meeting in a line (rank 2)
P3 = [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]]
P2 = [[(0, 0, 1), (1, 0, 1)], [(1, 1, 1), (1, -1, 1), (2, 0, 2)]]
PLANE = [[(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1), (0, 0, 0, 2)]]
# the shapes of the meets of urban renewal: a line of P^2 (two points)
# against a point on it, a line, and three points spanning the plane (a
# meet of rank 2); a line against a plane in P^3
LINE_POINT = [[(0, 0, 1), (2, 0, 1)], [(3, 0, 2)]]
LINE_LINE = [[(0, 0, 1), (1, 0, 1)], [(1, 2, 1), (3, -1, 2)]]
LINE_THREE = [[(0, 0, 1), (1, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
LINE_PLANE = [[(1, 0, 0, 1), (0, 1, 2, 1)], [(1, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 3)]]


def _pts(lists):
    return [[g.point(*c) for c in coords] for coords in lists]


@settings(max_examples=100, deadline=None)
@given(generator_pairs())
@example(_pts(P3))
@example(_pts(P2))
@example(_pts(PLANE))
@example([_pts(P2)[0], _pts(P2)[0]])  # a line met with itself
@example([_pts(P2)[0][:1], _pts(P2)[0][:1]])  # a point met with itself
@example(_pts(LINE_POINT))
@example(_pts(LINE_LINE))
@example(_pts(LINE_THREE))
@example(_pts(LINE_PLANE))
def test_meet_equals_the_fraction_reference(pair):
    check_meet(*pair)


def test_meet_examples_cover_empty_point_and_line():
    assert [check_meet(*_pts(x)) for x in (P3, P2, PLANE)] == [0, 1, 2]
    assert [check_meet(*_pts(x)) for x in (LINE_POINT, LINE_LINE, LINE_THREE, LINE_PLANE)] == [1, 1, 2, 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: elements(d, g.POINT, d, d)))
@example([pt(1, 0, 1), pt(2, 0, 2)])  # repeated point: no unique line
def test_join_and_meet_hyperplanes_equal_the_fraction_reference(points_):
    rows = [list(p.coords) for p in points_]
    ref, ref_err = outcome(ref_kernel_element, rows)
    hyps = [g.HomogeneousElement(p.coords, g.HYPERPLANE) for p in points_]
    for fn, kind in ((g.join_points, g.HYPERPLANE), (g.meet_hyperplanes, g.POINT)):
        new, new_err = outcome(fn, points_ if kind == g.HYPERPLANE else hyps)
        assert (new_err is None) == (ref_err is None)
        if new_err is None:
            assert new.coords == ref and new.kind == kind
        else:
            assert new_err[0] is DegenerateIntersection


@st.composite
def cycles(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    pts = draw(elements(d, g.POINT, n, n))
    hyps = draw(elements(d, g.HYPERPLANE, n, n))
    return [e for pair in zip(pts, hyps) for e in pair]


@settings(max_examples=80, deadline=None)
@given(cycles())
@example([pt(1, 0, 1), hp(1, 0, -1), pt(0, 1, 1), hp(1, 1, 1)])  # vanishing pairing
@example([pt(0, 0, 1), hp(2, 2, -1), pt(1, 0, 1), hp(2, -2, -1)])  # multi-ratio one
def test_multi_ratio_equals_the_fraction_reference(cycle):
    ref, ref_err = outcome(ref_multi_ratio, cycle)
    new, new_err = outcome(g.multi_ratio, cycle)
    assert new_err == ref_err
    if ref_err is None:
        assert new == ref and type(new) is Fraction
        assert g.face_coherent(cycle) == (ref == 1)
    else:
        assert outcome(g.face_coherent, cycle)[1] == ref_err


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda d: elements(d, g.POINT, 2, 2)),
    st.sampled_from([1, -1, 3, Fraction(-2, 7), None]),
)
def test_projective_equality_equals_the_fraction_reference(pair, scale):
    a, b = pair
    coords_b = b.coords if scale is None else tuple(scale * c for c in a.coords)
    assert proj_equal_coords(a.coords, coords_b) == ref_proj_equal_coords(a.coords, coords_b)
    assert proj_equal_coords(a.coords, coords_b[:-1]) is False
    assert (a == g.HomogeneousElement(coords_b, g.POINT)) == ref_proj_equal_coords(a.coords, coords_b)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: elements(d, g.POINT, 2, d + 2)))
@example([pt(1, 0, 0), pt(2, 0, 0)])  # coincident points
@example([pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 0, 1)])  # a vanishing coefficient
@example([pt(1, 0, 0), pt(0, 1, 0)])  # independent: no relation
def test_circuit_coefficients_equal_the_fraction_reference(elems):
    rows = [list(e.coords) for e in elems]
    ref, ref_err = outcome(ref_circuit_coefficients, rows)
    new, new_err = outcome(g.circuit_coefficients, rows)
    assert new_err == ref_err
    if ref_err is None:
        assert new == ref and all(type(x) is Fraction for x in new)
    assert g.is_circuit(elems) == (ref_err is None)


def test_normalize_coords_equals_the_fraction_reference():
    rng = random.Random(4)
    for _ in range(200):
        coords = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(1, 5)))
        new, new_err = outcome(g.normalize_coords, coords)
        ref, ref_err = outcome(ref_normalize_coords, coords)
        assert (new, new_err) == (ref, ref_err)
        assert new is None or all(type(x) is Fraction for x in new)


def test_exact_pairing_is_a_fraction():
    v = g.pairing(hp(Fraction(1, 2), Fraction(2, 3), 1), pt(Fraction(3, 4), -3, Fraction(5, 6)))
    assert v == Fraction(3, 8) - 2 + Fraction(5, 6) and type(v) is Fraction


# ------------------------------------------------- the float meet reference
#
# Float generators take the same single elimination as exact ones.  This is
# the former float algorithm: the kernel of the two spans' annihilators.


def ref_float_meet(gens1, gens2):
    rows1, rows2 = [e.coords for e in gens1], [e.coords for e in gens2]
    ann = linalg.nullspace([list(b) for b in linalg.rref(rows1)[0]])
    ann += linalg.nullspace([list(b) for b in linalg.rref(rows2)[0]])
    inter = linalg.nullspace([list(a) for a in ann])
    if not inter:
        raise EmptyMeet("subspaces intersect trivially")
    return linalg.rref(inter)[0]


def floated(elems, scale):
    return [g.HomogeneousElement(tuple(scale * float(c) for c in e.coords), e.kind) for e in elems]


@settings(max_examples=100, deadline=None)
@given(generator_pairs(), st.sampled_from([1.0, 0.125, 3.0, 1e-10, 1e8]))
@example(_pts(P3), 1.0)
@example(_pts(P2), 3.0)
@example(_pts(PLANE), 0.125)
def test_float_meet_equals_the_reference(pair, scale):
    gens1, gens2 = floated(pair[0], scale), floated(pair[1], 1.0)
    new, new_err = outcome(g.meet, gens1, gens2)
    ref, ref_err = outcome(ref_float_meet, gens1, gens2)
    rank = ref_meet_rank(gens1, gens2, ref, ref_err)

    def same_row(row):
        ref_row = g.normalize_coords(tuple(ref[0]))
        return all(type(x) is float for x in row) and all(
            is_zero(x - y, scale=max(abs(x), abs(y))) for x, y in zip(row, ref_row)
        )

    check_meet_outcome(gens1, gens2, new, new_err, rank, same_row)


# ------------------------------------------- the derived dim and scale slots


def _slots_agree(elems) -> bool:
    """dim is the coordinate count less one, and the row coords * scale is
    ints for an exact element; for a float one its largest entry is in
    [1/2, 1), unless the largest coordinate lies below 2^-1024 and the
    scale is its bound 2^1023."""
    for e in elems:
        row = [x * e.scale for x in e.coords]
        if e.ints is not None:
            scaled = tuple(row) == e.ints
        elif max(map(abs, e.coords)) < 2.0**-1024:
            scaled = e.scale == 2.0**1023
        else:
            scaled = 0.5 <= max(map(abs, row)) < 1
        if e.dim != len(e.coords) - 1 or not scaled:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(generator_pairs(), st.sampled_from([None, 1.0, 1e-10, 2.0**-1024]))
def test_dim_is_the_coordinate_count_less_one(pair, scale):
    gens1, gens2 = pair if scale is None else (floated(pair[0], scale), floated(pair[1], scale))
    made = [g.HomogeneousElement(e.coords, e.kind) for e in gens1 + gens2]
    results = (outcome(g.meet, gens1, gens2), outcome(g.incident_element, gens1), outcome(g.incident_element, gens2))
    computed = [new for new, _err in results if new is not None]
    assert _slots_agree(made + computed)
    assert all(e.scale == 1 for e in computed if e.ints is not None)


def test_dynamics_outputs_carry_their_dim():
    P, _Q, q, _c = make_pentagram_fixture(9, 2)
    plane = [*pentagram_map(P, 2).vertices, *dual_pentagram_map(q, 2).vertices]
    space = list(laplace(make_qnet_windows()[0]).values.values())
    assert _slots_agree(plane + space)
    assert {e.dim for e in plane} == {2} and {e.dim for e in space} == {3}
    assert {e.scale for e in plane + space} == {1}
    # float labels: a subnormal largest coordinate still gets a row of unit size
    floats = [g.point(0.75, -3.0, 1e300), g.point(3 * 2.0**-1025, -(2.0**-1070), 0.0), g.point(2.2e-311, 0.0)]
    assert _slots_agree(floats) and [e.scale for e in floats] == [2.0**-997, 2.0**1023, 2.0**1023]
    assert _slots_agree([g.point(Fraction(1, 6), Fraction(3, 4), 2)])
