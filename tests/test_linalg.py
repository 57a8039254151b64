"""linalg: exact matrices against Gauss-Jordan elimination over Fractions,
float matrices against fixed values."""
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimergeom import linalg

# ------------------------------------------------- the Fraction reference


def ref_rref(rows):
    """Gauss-Jordan elimination over Fractions, one division per entry."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def ref_kernel(reduced, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def ref_solve(rows, rhs):
    if not rows:
        return "underdetermined", None, []
    ncols = len(rows[0])
    reduced, pivots = ref_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return "inconsistent", None, []
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    ker = ref_kernel(reduced, pivots, ncols)
    return ("underdetermined" if ker else "unique"), x, ker


def ref_det(rows):
    m = [[F(x) for x in row] for row in rows]
    n, acc = len(m), F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            acc = -acc
        pv = m[c][c]
        acc *= pv
        for i in range(c + 1, n):
            f = m[i][c] / pv
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return acc


# ------------------------------------------------------------ the property

ENTRY = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
)


@st.composite
def matrices(draw):
    """0-6 rows by 1-7 columns of ints and Fractions, with a zero column, a
    zero row or a repeated row now and then."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    m = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    if m and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row[j] = 0
    if m and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if len(m) > 1 and draw(st.booleans()):
        m[draw(st.integers(1, nrows - 1))] = list(m[0])
    return m


def all_fractions(values) -> bool:
    return all(type(x) is F for x in values)


def check_matrix(m, xs, consistent):
    reduced, pivots = linalg.rref(m)
    assert (reduced, pivots) == ref_rref(m)
    assert all(all_fractions(row) for row in reduced)
    rank = linalg.rank(m)
    assert rank == len(pivots) and type(rank) is int
    ncols = len(m[0]) if m else 0
    kernel = linalg.nullspace(m)
    assert kernel == (ref_kernel(*ref_rref(m), ncols) if m else [])
    assert all(all_fractions(v) for v in kernel)
    # the integer readout: primitive ints, the same vectors up to a positive
    # factor (the kernel vector's last nonzero entry is its free one)
    int_kernel = linalg.int_nullspace(m)
    assert [[F(x, [y for y in v if y][-1]) for x in v] for v in int_kernel] == kernel
    for v in int_kernel:
        assert all(type(x) is int for x in v) and [y for y in v if y][-1] > 0 and gcd(*v) == 1

    # rhs = m @ xs is consistent; otherwise xs itself is the rhs
    rhs = [sum(a * x for a, x in zip(row, xs)) for row in m] if consistent else xs[: len(m)]
    status, x, ker = linalg.solve(m, rhs)
    assert (status, x, ker) == ref_solve(m, rhs)
    assert all_fractions(x or []) and all(all_fractions(v) for v in ker)

    k = min(len(m), ncols)
    square = [row[:k] for row in m[:k]]
    d = linalg.det(square)
    assert d == ref_det(square) and type(d) is F
    return status


@settings(max_examples=120, deadline=None)
@given(matrices(), st.lists(ENTRY, min_size=7, max_size=7), st.booleans())
@example([[1, 2], [3, 4]], [1, 1, 0, 0, 0, 0, 0], True)  # unique
@example([[1, 2, 3], [2, 4, 6]], [1, 1, 1, 0, 0, 0, 0], True)  # underdetermined
@example([[1, 2], [2, 4]], [1, 3, 0, 0, 0, 0, 0], False)  # inconsistent
@example([[F(1, 2), 1], [F(1, 3), 4]], [1, 1, 0, 0, 0, 0, 0], True)  # a denominator in the first row
def test_exact_results_equal_fraction_gauss_jordan(m, xs, consistent):
    check_matrix(m, xs, consistent)


def test_examples_cover_every_solve_status():
    statuses = {
        check_matrix([[1, 2], [3, 4]], [1, 1], True),
        check_matrix([[1, 2, 3], [2, 4, 6]], [1, 1, 1], True),
        check_matrix([[1, 2], [2, 4]], [1, 3], False),
    }
    assert statuses == {"unique", "underdetermined", "inconsistent"}


# systems in at most 3 unknowns: the augmented kernel of a corank-one one
# comes from minors, every other one from the elimination
SMALL_SYSTEMS = [
    ([[2]], [3], "unique"),
    ([[1, 2, 3], [0, 1, 4], [5, 6, 0]], [1, 2, 3], "unique"),
    ([[1, 2], [2, 4], [1, 3]], [3, 6, 4], "unique"),  # the first two rows are dependent
    ([[F(1, 2), 1], [F(1, 3), 4]], [F(2, 3), 5], "unique"),
    ([[1, 2, 3]], [6], "underdetermined"),
    ([[1, 1, 0], [0, 0, 1], [1, 1, 1]], [2, 1, 3], "underdetermined"),
    ([[1, 2], [2, 4]], [3, 6], "underdetermined"),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [1, 1, 3], "inconsistent"),  # the rhs column is a pivot; kernel (0, 0, 1, 0)
    ([[1, 2], [2, 4]], [1, 3], "inconsistent"),
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], "inconsistent"),  # the augmented matrix has no kernel
]


@pytest.mark.parametrize("rows, rhs, status", SMALL_SYSTEMS)
def test_small_systems_equal_fraction_gauss_jordan(rows, rhs, status):
    assert check_matrix(rows, rhs, False) == status


# ------------------------------------------------------------ int input


def test_int_matrix_gives_fraction_rref():
    reduced, pivots = linalg.rref([[2, 1], [1, 3]])
    assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(type(x) is F for row in reduced for x in row)


def test_int_matrix_gives_fraction_kernel():
    kernel = linalg.nullspace([[2, 4, 1]])
    assert kernel == [[F(-2), F(1), F(0)], [F(-1, 2), F(0), F(1)]]
    assert all(type(x) is F for v in kernel for x in v)


BIG = 2**70


@st.composite
def int_matrices(draw):
    """0-6 rows by 1-5 columns of ints up to 2^70, with a zero row, a
    repeated row, a scaled row or a sum of two rows now and then, so that
    corank-one kernels with dependent rows are common."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-BIG, BIG))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        how = draw(st.sampled_from(["drawn", "zero", "repeat", "scale", "sum"]))
        a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        k = draw(st.sampled_from([-3, -1, 2, BIG]))
        m[i] = {
            "drawn": m[i],
            "zero": [0] * ncols,
            "repeat": list(m[a]),
            "scale": [k * x for x in m[a]],
            "sum": [x + k * y for x, y in zip(m[a], m[b])],
        }[how]
    return m, ncols


@settings(max_examples=400, deadline=None)
@given(int_matrices())
# the first n - 1 rows are dependent, yet the corank is one: another choice of rows
@example(([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3))
# the same in the frozen spiral's F meet, and with a last row that misses the kernel
@example(([[0, 7, 7], [0, 2, 2], [1, 1, -1]], 3))
@example(([[0, 7, 7], [0, 2, 2], [1, 1, -1], [1, 0, 0]], 3))
# every choice of two rows is dependent: the corank is two, the elimination
@example(([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], 3))
# overdetermined and of full rank: no kernel
@example(([[1, 2], [3, 4], [5, 6]], 2))
# the minors of the first three rows are missed by the last row only
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 0], [0, 0, 0, 1]], 4))
def test_int_nullspace_equals_the_elimination_readout(case):
    m, ncols = case
    expected = linalg._int_kernel(*linalg._int_echelon([list(r) for r in m]), ncols) if m else []
    assert linalg._int_nullspace([list(r) for r in m]) == expected


@st.composite
def rank_matrices(draw):
    """0-6 rows by 1-6 columns of ints and Fractions, each row after the
    first drawn, zero, or a multiple or a sum of earlier rows, so that
    dependent leading rows and ranks below n - 1 are common."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    m = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        how = draw(st.sampled_from(["drawn", "zero", "scale", "sum"]))
        a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        k = draw(st.sampled_from([-1, 2, F(-3, 5)]))
        m[i] = {
            "drawn": m[i],
            "zero": [0] * ncols,
            "scale": [k * x for x in m[a]],
            "sum": [x + k * y for x, y in zip(m[a], m[b])],
        }[how]
    return m


# the kernel readout of a rank: n - 1 rows of nonzero first minors, another
# choice of rows, or the elimination (fewer than n - 1 rows, rank below
# n - 1, more than 4 columns, or a single column)
RANK_BRANCHES = [
    ([[1, 2, 3], [0, 1, 1]], "first minors"),
    ([[1, 2, 3], [0, 1, 1], [1, 3, 4]], "first minors"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, F(1, 2)]], "first minors"),
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], "other rows"),
    ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "other rows"),
    ([[1, 2, 3, 4]], "elimination"),
    ([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], "elimination"),
    ([[0, 0], [0, 0], [0, 0]], "elimination"),
    ([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], "elimination"),
    ([[F(1, 3)], [2]], "elimination"),
]


def _rank_branch(monkeypatch, m) -> tuple:
    """(rank, branch) of linalg.rank on m, the branch read from the calls
    of _minors and _int_echelon it makes."""
    calls = {"_minors": 0, "_int_echelon": 0}
    for name in calls:
        inner = getattr(linalg, name)

        def counted(rows, name=name, inner=inner):
            calls[name] += 1
            return inner(rows)

        monkeypatch.setattr(linalg, name, counted)
    r = linalg.rank(m)
    if calls["_int_echelon"]:
        return r, "elimination"
    return r, "first minors" if calls["_minors"] == 1 else "other rows"


@pytest.mark.parametrize("m, branch", RANK_BRANCHES)
def test_each_branch_of_an_exact_rank_equals_gauss_jordan(monkeypatch, m, branch):
    assert _rank_branch(monkeypatch, m) == (len(ref_rref(m)[1]), branch)


@settings(max_examples=300, deadline=None)
@given(rank_matrices())
@example([])
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
def test_exact_rank_equals_fraction_gauss_jordan(m):
    """linalg.rank, the column count minus the kernel dimension that
    _int_nullspace reads, is the number of pivots of the Fraction
    Gauss-Jordan reference."""
    r = linalg.rank(m)
    assert r == len(ref_rref(m)[1]) and type(r) is int


def test_int_system_gives_fraction_solution():
    status, x, ker = linalg.solve([[2, 1], [1, 3]], [1, 0])
    assert status == "unique" and x == [F(3, 5), F(-1, 5)] and ker == []
    assert all(type(v) is F for v in x)


def test_int_matrix_gives_fraction_determinant():
    d = linalg.det([[2, 1], [1, 3]])
    assert d == 5 and type(d) is F


# ------------------------------------------------------------ float input

SINGULAR = [[2.0, 1.0, -1.0], [0.5, 3.0, 2.0], [1.5, -2.0, -3.0]]  # row 3 = row 1 - row 2


def test_float_matrix_keeps_its_values():
    assert all(type(x) is float for row in linalg.rref(SINGULAR)[0] for x in row)
    assert linalg.rref(SINGULAR) == ([[1.0, 0.0, -0.9090909090909092], [0.0, 1.0, 0.8181818181818182]], [0, 1])
    assert linalg.rank(SINGULAR) == 2
    assert linalg.nullspace(SINGULAR) == [[0.9090909090909092, -0.8181818181818182, 1.0]]
    assert linalg.solve(SINGULAR, [1.0, 2.0, -1.0]) == (
        "underdetermined",
        [0.18181818181818182, 0.6363636363636364, 0.0],
        [[0.9090909090909092, -0.8181818181818182, 1.0]],
    )
    assert linalg.solve(SINGULAR, [1.0, 2.0, 0.0]) == ("inconsistent", None, [])
    assert linalg.solve([[0.1, 0.2], [0.3, 0.4]], [1.0, 1.0]) == ("unique", [-10.000000000000004, 10.000000000000002], [])


@pytest.mark.parametrize(
    "m, expected",
    [
        (SINGULAR, 2),
        ([[1e-12, 0.0], [0.0, 1e-12]], 2),
        ([[1.0, 2.0], [2.0, 4.0]], 1),
        ([[1.0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 2]], 3),
        ([[0.0, 0.0, 0.0]], 0),
    ],
)
def test_float_rank_is_the_pivot_count(m, expected):
    """A matrix with a float entry keeps its partial-pivoting rank."""
    assert linalg.rank(m) == expected == len(linalg.rref(m)[1])


def test_float_rref_clears_pivot_columns_at_any_scale():
    # a pivot row, once divided by its pivot, is tested for zero at the
    # matrix scale over that pivot: 0.5 in a pivot column is not rounding
    for s in (1.0, 1e8):
        rows = [[0.0, 0.0, 3 * s, 3 * s, s], [0.0] * 5, [6 * s, 3 * s, 3 * s, 0.0, 0.0]]
        reduced, pivots = linalg.rref(rows)
        assert pivots == [0, 2] and reduced[0][2] == 0.0


def test_determinant_is_exact_only():
    with pytest.raises(TypeError, match="exact matrices only"):
        linalg.det(SINGULAR)
