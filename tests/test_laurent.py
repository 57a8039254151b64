import json
from fractions import Fraction as F

import pytest

from dimergeom.errors import InputError, ZeroPolynomial
from dimergeom.laurent import LaurentPoly2, newton_polygon, poly_from_json, poly_to_json


def P(d):
    return LaurentPoly2.from_dict({k: F(v) for k, v in d.items()})


def test_arithmetic():
    a = P({(0, 0): 1, (1, 0): 2})
    b = P({(0, 1): 3, (1, 0): -2})
    assert (a + b).as_dict() == {(0, 0): 1, (0, 1): 3}
    assert (a - a).is_zero()
    prod = a * b
    assert prod.as_dict() == {(0, 1): 3, (1, 1): 6, (1, 0): -2, (2, 0): -4}


def test_negative_exponent_evaluation():
    p = P({(-2, 1): 3, (0, 0): -1})
    assert p.evaluate(F(1, 2), F(5)) == 3 * 4 * 5 - 1


def test_negative_powers_stay_exact():
    v = LaurentPoly2.monomial(F(1), -1, 0).evaluate(2, 1)
    assert v == F(1, 2) and isinstance(v, F)


def test_small_float_coefficients_kept():
    # float zero tests are relative to the largest coefficient, with no floor
    assert not LaurentPoly2.monomial(1e-12, 0, 0).is_zero()
    assert len(LaurentPoly2.from_dict({(0, 0): 1e-12, (1, 0): 2e-12}).terms) == 2
    assert LaurentPoly2.from_dict({(0, 0): 1.0, (1, 0): 1e-12}).as_dict() == {(0, 0): 1.0}


def test_zero_coefficients_dropped():
    p = P({(0, 0): 1}) + P({(0, 0): -1})
    assert p.is_zero()
    assert p.terms == ()


def test_normalized_shift_and_scale():
    p = P({(-1, 2): 4, (0, 3): -8})
    n = p.normalized()
    assert min(i for (i, _), _ in n.terms) == 0
    assert min(j for (_, j), _ in n.terms) == 0
    anchor = min(k for k, _ in n.terms)
    assert dict(n.terms)[anchor] == 1


def test_normalized_invariant_under_monomial_and_scale():
    p = P({(0, 0): 2, (1, 0): 3, (0, 1): -5, (2, 2): 1})
    q = F(7, 3) * p.shift(-4, 5)
    assert p.normalized().terms == q.normalized().terms


def test_normalize_zero_raises():
    with pytest.raises(ZeroPolynomial):
        LaurentPoly2.zero().normalized()


def test_json_round_trip():
    p = P({(-1, 2): F(3, 7), (4, 0): -2})
    q = poly_from_json(json.loads(json.dumps(poly_to_json(p))))
    assert q.terms == p.terms


@pytest.mark.parametrize(
    "data, message",
    [
        ({"terms": [{"dl": 1.7, "dm": 0, "coeff": "1"}]}, "term 0 dl, dm: expected integers"),
        ({"terms": [{"dl": 0, "dm": True, "coeff": "1"}]}, "term 0 dl, dm: expected integers"),
        ({"terms": [{"dl": 0, "dm": 0, "coeff": "1"}, {"dl": "3", "dm": 0, "coeff": "1"}]}, "term 1 dl, dm"),
        ({"terms": [{"dl": 0, "coeff": "1"}]}, "term 0: expected an object with dl, dm and coeff"),
        ({"terms": [[0, 0, "1"]]}, "term 0: expected an object"),
        ({"terms": {"dl": 0}}, "polynomial: expected an object with a terms list"),
        ([], "polynomial: expected an object with a terms list"),
        ({"terms": [{"dl": 0, "dm": 0, "coeff": True}]}, "bad scalar True: a boolean is not a number"),
    ],
)
def test_json_rejects_malformed_terms(data, message):
    with pytest.raises(InputError, match=message):
        poly_from_json(data)


def test_newton_triangle():
    p = P({(0, 0): 1, (1, 0): 2, (0, 1): 3})
    assert newton_polygon(p) == [(0, 0), (1, 0), (0, 1)]


def test_newton_single_monomial():
    assert newton_polygon(P({(3, -2): 5})) == [(3, -2)]


def test_newton_collinear_support():
    p = P({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert newton_polygon(p) == [(0, 0), (3, 3)]


def test_newton_interior_points_dropped():
    p = P({(0, 0): 1, (2, 0): 1, (0, 2): 1, (2, 2): 1, (1, 1): 9})
    hull = newton_polygon(p)
    assert set(hull) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert (1, 1) not in hull


def test_newton_counterclockwise():
    p = P({(0, 0): 1, (2, 0): 1, (0, 2): 1})
    hull = newton_polygon(p)
    assert hull[0] == (0, 0)
    x1, y1 = hull[1]
    x2, y2 = hull[2]
    assert (x1 * y2 - y1 * x2) > 0  # ccw turn from the lex-min vertex


def test_newton_zero_raises():
    with pytest.raises(ZeroPolynomial):
        newton_polygon(LaurentPoly2.zero())
