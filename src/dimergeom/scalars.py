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

from fractions import Fraction

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
    digits).  Raises ValueError for anything that is not a finite number."""
    try:
        x = Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad scalar {s!r}") from exc
    if kind == FLOAT:
        v = float(x)
        return -v if v == 0 and str(s).lstrip().startswith("-") else v  # keep "-0.0"
    return x.limit_denominator(10**12) if isinstance(s, float) else x
