"""Laurent polynomials in two variables with exact (or float) coefficients,
plus the Newton polygon.  Terms live in a dict (i, j) -> coefficient; no
zero coefficients are stored."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ZeroPolynomial
from .scalars import _ipow, is_float, is_zero, parse_ints, parse_scalar, scalar_str


@dataclass(frozen=True)
class LaurentPoly2:
    terms: tuple  # sorted tuple of ((i, j), coeff)

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly2":
        if is_float(d.values()):
            # a float coefficient is zero relative to the largest one
            scale = _scale(d)
            d = {k: v for k, v in d.items() if not is_zero(v / scale)}
        return LaurentPoly2(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    @staticmethod
    def zero() -> "LaurentPoly2":
        return LaurentPoly2(())

    @staticmethod
    def constant(c) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(0, 0): c})

    @staticmethod
    def monomial(c, i: int, j: int) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(i, j): c})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not self.terms:
            return other
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return LaurentPoly2.from_dict(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly2(tuple((k, -v) for k, v in self.terms))

    def __mul__(self, other):
        if isinstance(other, LaurentPoly2):
            d: dict = {}
            for (i1, j1), c1 in self.terms:
                for (i2, j2), c2 in other.terms:
                    k = (i1 + i2, j1 + j2)
                    d[k] = d.get(k, 0) + c1 * c2
            return LaurentPoly2.from_dict(d)
        return LaurentPoly2(tuple((k, v * other) for k, v in self.terms)) if other != 0 else LaurentPoly2.zero()

    __rmul__ = __mul__

    def shift(self, di: int, dj: int) -> "LaurentPoly2":
        return LaurentPoly2(tuple(((i + di, j + dj), c) for (i, j), c in self.terms))

    def evaluate(self, lam, mu):
        """Exact evaluation at nonzero (lam, mu); negative exponents allowed."""
        acc = None
        for (i, j), c in self.terms:
            t = c * _ipow(lam, i) * _ipow(mu, j)
            acc = t if acc is None else acc + t
        return acc if acc is not None else Fraction(0)

    def max_term_magnitude(self, lam, mu) -> float:
        m = 0.0
        for (i, j), c in self.terms:
            m = max(m, abs(float(c) * float(_ipow(lam, i)) * float(_ipow(mu, j))))
        return m if m > 0 else 1.0

    def support(self):
        return [k for k, _ in self.terms]

    def normalized(self) -> "LaurentPoly2":
        """Canonical form: support shifted into the nonnegative orthant
        touching both axes, scaled so the lexicographically smallest
        exponent has coefficient one."""
        if not self.terms:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        min_i = min(i for (i, _), _ in self.terms)
        min_j = min(j for (_, j), _ in self.terms)
        shifted = self.shift(-min_i, -min_j)
        anchor = min(k for k, _ in shifted.terms)
        c = dict(shifted.terms)[anchor]
        return LaurentPoly2(tuple((k, v / c) for k, v in shifted.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in self.terms:
            mono = []
            if i:
                mono.append(f"L^{i}" if i != 1 else "L")
            if j:
                mono.append(f"M^{j}" if j != 1 else "M")
            coeff = scalar_str(c)
            bits.append(coeff + ("*" + "*".join(mono) if mono else ""))
        return " + ".join(bits)


def _scale(d: dict) -> float:
    s = 0.0
    for v in d.values():
        s = max(s, abs(float(v)))
    return s if s > 0 else 1.0


def poly_to_json(p: LaurentPoly2) -> dict:
    return {"terms": [{"dl": i, "dm": j, "coeff": scalar_str(c)} for (i, j), c in p.terms]}


def poly_from_json(data) -> LaurentPoly2:
    """Inverse of poly_to_json.  Raises InputError, naming the term, for
    anything but {"terms": [{"dl": int, "dm": int, "coeff": scalar}, ...]}."""
    terms = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(terms, list):
        raise InputError(f"polynomial: expected an object with a terms list, got {data!r}")
    d = {}
    for n, t in enumerate(terms):
        if not isinstance(t, dict) or not {"dl", "dm", "coeff"} <= t.keys():
            raise InputError(f"term {n}: expected an object with dl, dm and coeff, got {t!r}")
        d[parse_ints((t["dl"], t["dm"]), f"term {n} dl, dm")] = parse_scalar(t["coeff"])
    return LaurentPoly2.from_dict(d)


def newton_polygon(p: LaurentPoly2):
    """Convex hull vertices of the exponent support, counterclockwise,
    starting from the lexicographically smallest vertex."""
    if p.is_zero():
        raise ZeroPolynomial("Newton polygon of the zero polynomial")
    pts = sorted(set(p.support()))
    if len(pts) == 1:
        return pts
    # Andrew monotone chain
    def half(points):
        out = []
        for q in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]  # each chain keeps its two distinct ends
    start = hull.index(min(hull))
    return hull[start:] + hull[:start]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
