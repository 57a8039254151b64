"""Dense linear algebra; the scalar kind follows the matrix.

Matrices are lists of row lists.  With no float entry, exact Gaussian
elimination over Fractions; with one, partial pivoting with every zero
decision made by :func:`scalars.is_zero` at the scale of the input matrix.
Results take their unit from the matrix: ``1.0`` if a float is present.
"""
from __future__ import annotations

from fractions import Fraction

from .scalars import is_float, is_zero


def _has_float(rows) -> bool:
    return any(is_float(row) for row in rows)


def _unit(rows):
    return 1.0 if _has_float(rows) else Fraction(1)


def _matrix_scale(rows):
    """Largest entry magnitude, the zero-test scale of a float matrix;
    exact matrices need none and get 1."""
    if not _has_float(rows):
        return 1
    s = 0.0
    for row in rows:
        for x in row:
            ax = abs(x)
            if ax > s:
                s = float(ax)
    return s if s > 0 else 1.0


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    scale = _matrix_scale(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        # partial pivot: largest magnitude in column c at/below row r
        best, best_val = None, None
        for i in range(r, len(m)):
            v = abs(m[i][c])
            if not is_zero(m[i][c], scale=scale) and (best is None or v > best_val):
                best, best_val = i, v
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c], scale=scale):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(rows) -> int:
    reduced, pivots = rref(rows)
    return len(pivots)


def nullspace(rows):
    """Basis of the right kernel {x : rows @ x = 0}, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    one = _unit(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0 * one] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve rows @ x = rhs.

    Returns (status, x, kernel) where status is "unique", "underdetermined"
    or "inconsistent"; x is a particular solution when one exists and kernel
    is a basis of the homogeneous solutions.
    """
    if not rows:
        return "underdetermined", None, []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return "inconsistent", None, []
    x = [0 * _unit(aug)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    ker = nullspace(rows)
    if ker:
        return "underdetermined", x, ker
    return "unique", x, []


def det(rows):
    """Determinant by fraction-friendly Gaussian elimination."""
    n = len(rows)
    one = _unit(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    scale = _matrix_scale(m)
    sign = one
    acc = one
    for c in range(n):
        best, best_val = None, None
        for i in range(c, n):
            v = abs(m[i][c])
            if not is_zero(m[i][c], scale=scale) and (best is None or v > best_val):
                best, best_val = i, v
        if best is None:
            return 0 * one
        if best != c:
            m[c], m[best] = m[best], m[c]
            sign = -sign
        pv = m[c][c]
        acc = acc * pv
        for i in range(c + 1, n):
            if not is_zero(m[i][c], scale=scale):
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * acc
