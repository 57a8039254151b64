"""Scalars: the kind of a value is its Python type.

* Exact -- ``int`` and ``fractions.Fraction``; equality and zero tests are
  exact.  A value, tuple or matrix is exact when none of its entries is a
  ``float``.
* Float -- IEEE doubles; a value counts as zero when
  ``|x| <= TOLERANCE * scale`` where ``scale`` is the magnitude of the
  operands that produced it.

Arithmetic mixing the two yields floats, so float data stays float.  Every
float zero test in the package routes through :func:`is_zero`, the single
point of numerical policy.  Configuration files name their kind in the
``"scalar"`` field (``RATIONAL`` or ``FLOAT``).
"""
from __future__ import annotations

import sys
from fractions import Fraction

from .errors import InputError

RATIONAL = "rational"
FLOAT = "float"

TOLERANCE = 1e-9

_backend = RATIONAL


def set_backend(name: str) -> None:
    """Record a scalar kind name.  Nothing in dimergeom calls or reads it;
    it stays only because the benchmark (perfbench ``run_op`` and its
    self-test) checks that no operation leaves it off ``RATIONAL``."""
    global _backend
    if name not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown scalar backend {name!r}")
    _backend = name


def get_backend() -> str:
    """The name last recorded by :func:`set_backend`; kept for the
    benchmark only, see there."""
    return _backend


def is_float(values) -> bool:
    """True when any of the values is a float, making them all float data."""
    return any(isinstance(x, float) for x in values)


def to_scalar(value):
    """Floats stay floats; anything else (int, Fraction, a decimal or
    ``p/q`` string) becomes an exact Fraction."""
    return value if isinstance(value, float) else Fraction(value)


def is_zero(x, scale=1) -> bool:
    """The package-wide zero test, exact for int and Fraction.  For a
    float, ``scale`` is the magnitude of the operands that produced ``x``."""
    if isinstance(x, float):
        return abs(x) <= TOLERANCE * max(abs(scale), 1.0)
    return x == 0


def float_scale(values):
    """1 unless the values are exact and the largest of them lies outside
    the normal double range: then the power of two that brings it between
    1/2 and 2, by which all of them are multiplied exactly before a float
    reads them."""
    big = max(map(abs, values), default=1)
    if is_float(values) or sys.float_info.min <= big <= sys.float_info.max:
        return 1
    big = Fraction(big)
    return Fraction(2) ** (big.denominator.bit_length() - big.numerator.bit_length())


def float_coords(coords) -> tuple:
    """A label's coordinates as floats, first scaled by ``float_scale``."""
    scale = float_scale(coords)
    return tuple(float(x * scale) for x in coords)


def _ipow(x, n: int):
    """x**n for any integer n; an int or Fraction x gives an exact result."""
    if n >= 0:
        return x**n
    return (1 if isinstance(x, float) else Fraction(1)) / x ** (-n)


def scalar_str(x) -> str:
    """Serialize a scalar: ``p/q`` (q > 0, reduced) or ``p``; floats use
    the shortest round-trip decimal."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def parse_scalar(s, kind: str = RATIONAL):
    """Inverse of :func:`scalar_str` for data of kind ``RATIONAL`` or
    ``FLOAT`` (a JSON number is read as rational to 12 denominator
    digits).  Raises InputError for anything that is not a finite number,
    a JSON boolean included, or for FLOAT data past the float range."""
    if isinstance(s, bool):
        raise InputError(f"bad scalar {s!r}: a boolean is not a number")
    try:
        x = Fraction(s)
        if kind == FLOAT:
            v = float(x)
            return -v if v == 0 and str(s).lstrip().startswith("-") else v  # keep "-0.0"
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad scalar {s!r}") from exc
    return x.limit_denominator(10**12) if isinstance(s, float) else x


def parse_coords(values: list, place: str, kind: str = RATIONAL, d=None, affine=False) -> tuple:
    """The scalars of a JSON coordinate list.  With d given there must be
    d + 1 of them, or d when ``affine`` (lifted with a trailing 1).  An
    InputError names the place for a value that is no list, a bad scalar,
    a wrong count or a list of zeros."""
    if not isinstance(values, list):
        raise InputError(f"{place}: coords must be a list, got {values!r}")
    try:
        vals = [parse_scalar(x, kind) for x in values]
    except InputError as exc:
        raise InputError(f"{place}: {exc}") from None
    if affine and len(vals) == d:
        vals.append(parse_scalar("1", kind))
    if d is not None and len(vals) != d + 1:
        raise InputError(f"{place}: {len(values)} coordinates in dimension {d}")
    if not any(vals):
        raise InputError(f"{place}: all coordinates vanish: {values!r}")
    return tuple(vals)


def parse_ints(values, what: str) -> tuple:
    """The values, when each is a JSON integer (not a bool, a float or a
    string); otherwise an InputError naming the field."""
    values = tuple(values)
    if not all(type(x) is int for x in values):
        raise InputError(f"{what}: expected integers, got {list(values)!r}")
    return values
