"""Dense linear algebra; the scalar kind follows the matrix.

Matrices are lists of row lists.  An exact matrix (no float entry; int or
Fraction) is eliminated on Python ints: each row is multiplied by the lcm
of its denominators, which keeps the row space, the kernel, the pivot
columns and the reduced row echelon form, and the rows are then reduced
fraction-free, each updated row divided by its content.  Fractions are
built only at the readout, when a pivot row is divided by its pivot, so an
exact matrix, int data included, gets Fraction results equal to those of
Gauss-Jordan elimination over Fractions.  :func:`int_nullspace` reads
the same elimination as primitive int vectors and builds no Fraction; a
corank-one kernel in at most 4 columns (the joins, meets and circuit tests
of P^2 and P^3) is read from signed maximal minors instead, as the same
vector.  An exact rank is the column count minus the dimension of that
kernel readout, so it too comes from minors there, and an exact
:func:`solve` reads x and the kernel off the augmented one.  The
determinant takes exact matrices only: Bareiss elimination on the same
integer rows, the one fraction-free elimination (bareiss_eliminate) that
the spectral determinant also runs with only some rows as pivot rows, and
then continues into the Schur block of the rest from its last pivot.

A matrix with a float entry takes partial pivoting with every zero
decision made by :func:`scalars.is_zero` relative to the largest entry of
the input matrix; its results are floats.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm, prod
from operator import mul

from .scalars import is_float, is_zero

_ZERO = Fraction(0)


def _has_float(rows) -> bool:
    return any(is_float(row) for row in rows)


def int_row(row) -> list:
    """An exact row times the lcm of its denominators, as ints: the same
    projective point, the same kernel and echelon form."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _int_echelon(m):
    """Fraction-free Gauss-Jordan elimination of an int matrix (rows are
    overwritten; each updated row is divided by its content).  Returns
    (rows, pivot columns): one row per pivot, zero left of its pivot and in
    every other pivot column; the rows dropped are zero."""
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            a = row[c]
            if a and i != r:
                g = gcd(piv, a)
                f, h = piv // g, a // g
                row = [f * x - h * y for x, y in zip(row, top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _exact_echelon(rows):
    """_int_echelon of the integer-scaled rows of an exact matrix."""
    return _int_echelon([int_row(r) for r in rows])


def bareiss_eliminate(mat, m: int, last: int = 1):
    """Fraction-free Gaussian elimination (Bareiss 1968) of an int matrix
    with k >= m columns (rows are overwritten) and its first m rows as the
    only pivot rows; every later row is reduced.  Returns (sign, last,
    rest), or None when the pivot rows are linearly dependent.

    The rows are at the level ``last``: the previous pivot of an
    elimination that they continue, so every step divides by it where a
    fresh elimination (last = 1, :func:`det`) divides by nothing.  The
    spectral determinant continues its first elimination into the Schur
    block of the rows it reduced, at that elimination's last pivot.

    When no pivot row from p on has an entry in column p, the first later
    column where one has is swapped into column p.  sign is (-1)^(row and
    column swaps) and last is the last pivot.  rest holds each later row,
    reduced, in the last k - m columns: by Sylvester's identity, the
    matrix of the pivot rows and any k - m combinations of the later rows
    has determinant sign * det(the same combinations of rest) /
    last^(k - m - 1), an exact division.  With m = k that is sign * last
    (:func:`det`), and a continuation at level L of an m x m block of
    reduced rows gives sign * last = det(block) / L^(m - 1).

    A row whose entry in the pivot column is zero is left untouched and
    keeps the divisor of the step that last updated it: its later update
    (row * pivot - entry * pivot row) / divisor, and the rescaling
    row * last pivot / divisor when it becomes the pivot row or is read
    out, are exact by Sylvester's identity.  Sparse rows, such as
    Kasteleyn rows, skip most steps."""
    n = len(mat)
    ncols = len(mat[0]) if mat else 0
    div = [last] * n
    sign = 1
    for p in range(m):
        r = next((r for r in range(p, m) if mat[r][p]), None)
        if r is None:
            found = next(((r, c) for c in range(p + 1, ncols) for r in range(p, m) if mat[r][c]), None)
            if found is None:
                return None
            r, c = found
            for row in mat[p:]:
                row[p], row[c] = row[c], row[p]
            sign = -sign
        if r != p:
            mat[p], mat[r] = mat[r], mat[p]
            div[p], div[r] = div[r], div[p]
            sign = -sign
        top = mat[p]
        if div[p] != last:
            top[p:] = [x * last // div[p] for x in top[p:]]
        piv = top[p]
        for i in range(p + 1, n):
            row = mat[i]
            a = row[p]
            if a:
                d = div[i]
                row[p + 1 :] = [(x * piv - a * y) // d for x, y in zip(row[p + 1 :], top[p + 1 :])]
                div[i] = piv
        last = piv
    rest = [mat[i][m:] if div[i] == last else [x * last // div[i] for x in mat[i][m:]] for i in range(m, n)]
    return sign, last, rest


# ------------------------------------------------------------ float matrices


def _float_rref(rows):
    m = [list(r) for r in rows]
    ncols = len(m[0])
    # zero tests are relative to the largest entry, so a matrix of small
    # entries is not all zero; a pivot row, divided by its pivot, is tested
    # at that scale divided by the pivot
    scale = max((abs(x) for row in m for x in row), default=0.0) or 1.0
    scales = [scale] * len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        # partial pivoting: the largest nonzero entry at or below row r
        live = [i for i in range(r, len(m)) if not is_zero(m[i][c] / scale)]
        if not live:
            continue
        best = max(live, key=lambda i: abs(m[i][c]))
        m[r], m[best] = m[best], m[r]
        pv = m[r][c]
        m[r], scales[r] = [x / pv for x in m[r]], scale / abs(pv)
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c] / scales[i]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


# ------------------------------------------------------------ the interface


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    if _has_float(rows):
        return _float_rref(rows)
    m, pivots = _exact_echelon(rows)
    return [[Fraction(x, row[c]) if x else _ZERO for x in row] for row, c in zip(m, pivots)], pivots


def rank(rows) -> int:
    """Rank of a matrix.  An exact one's is its column count minus the
    dimension of the kernel that :func:`int_nullspace` reads, so a matrix
    of n <= 4 columns and rank n - 1 or n gets it from minors, without an
    elimination.  Its callers are the coplanarity tests of ``qnet`` (four
    elements of P^3) and the collinearity tests of ``spiral`` (three
    elements of P^2), and for float labels the side tests of ``qnet``."""
    if _has_float(rows):
        return len(rref(rows)[1])
    return len(rows[0]) - len(int_nullspace(rows)) if rows else 0


def _kernel(reduced, pivots, ncols, one):
    """Kernel basis read off an RREF: one vector per free column < ncols."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0 * one] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def _int_kernel(m, pivots, ncols):
    """Kernel basis read off the integer echelon rows of an exact matrix,
    one int vector per free column: the RREF entry in row r and free
    column c is m[r][c] / m[r][pivot], so the vector of c is the RREF one
    times the lcm of the pivots it divides by, over its content: primitive,
    and positive at c, its last nonzero entry."""
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        used = [(row, pc) for row, pc in zip(m, pivots) if row[fc]]
        den = lcm(*(row[pc] for row, pc in used))
        v = [0] * ncols
        v[fc] = den
        for row, pc in used:
            v[pc] = -row[fc] * den // row[pc]
        g = gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def nullspace(rows):
    """Basis of the right kernel {x : rows @ x = 0}, as a list of vectors."""
    if not rows:
        return []
    if _has_float(rows):
        return _kernel(*_float_rref(rows), len(rows[0]), 1.0)
    return [_unit_at_free(v) for v in _int_kernel(*_exact_echelon(rows), len(rows[0]))]


def int_nullspace(rows):
    """Kernel basis of an exact matrix on ints: one primitive vector per
    free column, positive there, each a positive multiple of the
    :func:`nullspace` vector of that column.  No Fraction is built; a
    corank-one kernel in at most 4 columns comes from minors, every other
    one from the elimination."""
    return _int_nullspace([int_row(r) for r in rows])


def _int_nullspace(m):
    """int_nullspace of an int matrix, unscaled (the list m may be
    overwritten).  With n <= 4 columns, nonzero minors v of n - 1 rows (the
    first ones, else the next choice whose minors are nonzero) span their
    kernel: the kernel is v, primitive and positive at its last nonzero
    entry (the free column), or none if another row misses v."""
    n = len(m[0]) if m else 0
    if 2 <= n <= 4 and len(m) >= n - 1:
        v, rest = _minors(m[: n - 1]), m[n - 1 :]
        if not any(v):
            for rows in islice(combinations(range(len(m)), n - 1), 1, None):
                v = _minors([m[i] for i in rows])
                if any(v):
                    rest = [row for i, row in enumerate(m) if i not in rows]
                    break
            else:
                return _int_kernel(*_int_echelon(m), n)
        for row in rest:
            if sum(map(mul, row, v)):
                return []
        g = gcd(*v)
        if next(x for x in reversed(v) if x) < 0:
            g = -g
        return [[x // g for x in v]]
    return _int_kernel(*_int_echelon(m), n) if m else []


def _minors(rows):
    """(-1)^i det(rows without column i) for k = 1, 2, 3 rows of length k + 1."""
    a = rows[0]
    if len(rows) == 1:
        return [a[1], -a[0]]
    b = rows[1]
    if len(rows) == 2:
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    c = rows[2]
    p01, p02, p03 = a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[0] * b[3] - a[3] * b[0]
    p12, p13, p23 = a[1] * b[2] - a[2] * b[1], a[1] * b[3] - a[3] * b[1], a[2] * b[3] - a[3] * b[2]
    return [
        c[1] * p23 - c[2] * p13 + c[3] * p12,
        c[2] * p03 - c[0] * p23 - c[3] * p02,
        c[0] * p13 - c[1] * p03 + c[3] * p01,
        c[1] * p02 - c[0] * p12 - c[2] * p01,
    ]


def solve(rows, rhs):
    """Solve rows @ x = rhs.

    Returns (status, x, kernel) where status is "unique", "underdetermined"
    or "inconsistent"; x is a particular solution when one exists and kernel
    is a basis of the homogeneous solutions.  One kernel of the augmented
    matrix gives both.  For exact data it is :func:`int_nullspace`, so a
    system in at most 3 unknowns with a corank-one augmented matrix is read
    from minors: its vectors come in free-column order, each positive at its
    free column, its last nonzero entry.  When the rhs column is free its
    vector is the last one and gives x = -v[:ncols] / v[ncols]; when it is
    a pivot column every vector is 0 there and the system is inconsistent.
    """
    if not rows:
        return "underdetermined", None, []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    if _has_float(aug):
        reduced, pivots = rref(aug)
        if ncols in pivots:
            return "inconsistent", None, []
        x = [0.0] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][ncols]
        ker = _kernel(reduced, pivots, ncols, 1.0 if _has_float(rows) else Fraction(1))
    else:
        ker = int_nullspace(aug)
        if not ker or not ker[-1][ncols]:
            return "inconsistent", None, []
        *ker, v = ker
        x = [Fraction(-a, v[ncols]) if a else _ZERO for a in v[:ncols]]
        ker = [_unit_at_free(w[:ncols]) for w in ker]
    return ("underdetermined", x, ker) if ker else ("unique", x, [])


def _unit_at_free(v):
    """An int kernel vector divided by its last nonzero entry, its free
    column: the Fraction vector that is one there."""
    d = next(x for x in reversed(v) if x)
    return [Fraction(a, d) if a else _ZERO for a in v]


def det(rows):
    """Determinant of an exact matrix: sign * last of the Bareiss elimination
    of its integer rows (0 if they are dependent) over the row multipliers."""
    if _has_float(rows):
        raise TypeError("det takes exact matrices only")
    mults = prod(lcm(*(x.denominator for x in row)) for row in rows)
    reduced = bareiss_eliminate([int_row(r) for r in rows], len(rows))
    return Fraction(0 if reduced is None else reduced[0] * reduced[1], mults)
