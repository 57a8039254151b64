import random
from fractions import Fraction

import pytest

from dimergeom import geometry as g
from dimergeom.errors import (
    DuplicateParameter,
    EmptyMeet,
    TooFew,
    TooManyElements,
    VanishingPairing,
    ZeroVector,
)


def pt(*c):
    return g.point(*c)


def hp(*c):
    return g.hyperplane(*c)


# ---------------------------------------------------------------- normalize


def test_normalize_gcd_scaling():
    assert g.normalize(pt(2, 0, 4)).coords == (Fraction(1), Fraction(0), Fraction(2))


def test_normalize_sign_convention():
    assert g.normalize(pt(0, -3, 0)).coords == (Fraction(0), Fraction(1), Fraction(0))


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        pt(0, 0, 0)


def test_normalize_idempotent():
    e = pt(Fraction(2, 3), 5, -7)
    assert g.normalize(g.normalize(e)) == g.normalize(e)


def test_normalize_float_backend():
    e = g.normalize(pt(0.0, -3.0, 4.0))
    assert abs(sum(c * c for c in e.coords) - 1.0) < 1e-12
    assert e.coords[1] > 0


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


# ---------------------------------------------------------------- span/meet


def test_meet_of_two_lines():
    s1 = g.span([pt(0, 0, 1), pt(1, 0, 1)])
    s2 = g.span([pt(1, 1, 1), pt(1, -1, 1)])
    x = g.subspace_element(g.meet(s1, s2))
    assert x == pt(1, 0, 1)


def test_meet_idempotent():
    s = g.span([pt(1, 2, 3), pt(0, 1, 1)])
    assert g.meet(s, s) == s


def test_meet_parallel_lines_at_infinity():
    # y = 0 and y = 1 meet at the infinite point of the x direction
    s1 = g.span([pt(0, 0, 1), pt(1, 0, 1)])
    s2 = g.span([pt(0, 1, 1), pt(1, 1, 1)])
    x = g.subspace_element(g.meet(s1, s2))
    assert x == pt(1, 0, 0)


def test_meet_empty_raises():
    # two skew lines in P^3
    s1 = g.span([pt(1, 0, 0, 0), pt(0, 1, 0, 0)])
    s2 = g.span([pt(0, 0, 1, 0), pt(0, 0, 0, 1)])
    with pytest.raises(EmptyMeet):
        g.meet(s1, s2)


def test_coplanar_lines_in_p3_meet_in_a_point():
    s1 = g.span([pt(0, 0, 0, 1), pt(1, 0, 0, 1)])
    s2 = g.span([pt(0, 1, 0, 1), pt(1, -1, 0, 1)])
    assert g.meet(s1, s2).rank == 1


def test_modular_rank_identity():
    rng = random.Random(1)
    for _ in range(30):
        pts1 = [pt(*[rng.randint(-4, 4) for _ in range(4)]) for _ in range(rng.randint(1, 3))]
        pts2 = [pt(*[rng.randint(-4, 4) for _ in range(4)]) for _ in range(rng.randint(1, 3))]
        try:
            s1, s2 = g.span(pts1), g.span(pts2)
        except ZeroVector:
            continue
        union_rank = g.span(pts1 + pts2).rank
        try:
            meet_rank = g.meet(s1, s2).rank
        except EmptyMeet:
            meet_rank = 0
        assert meet_rank + union_rank == s1.rank + s2.rank


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
    conic = g.standard_conic()
    P, Q = g.circumscribed_pair([-2, 0, 1, 3, 4])
    n = len(P)
    for i in range(n):
        side = g.line_through(P[i], P[(i + 1) % n])
        assert conic.line_discriminant(side) == 0
        assert conic.contains(Q[i])


def test_circumscribed_pair_duplicate_parameter():
    with pytest.raises(DuplicateParameter):
        g.circumscribed_pair([1, 2, 1])
