"""Exact labels carry their integer row.

A ``HomogeneousElement`` computes ``ints`` once, when it is built, and
exact geometry reads it in place of rescaling the coordinates on every
call; a label that exact geometry computes is built from its primitive
int row and computes nothing, not even its coordinates until they are
read; two labels with equal rows are equal without a cross-multiplication;
a meet whose exact kernel is one-dimensional takes the primitive form of
its one element in place of a second elimination.  These properties check
the shortcuts against the paths they replace."""
import copy
import json
import pickle
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dimergeom import geometry as g
from dimergeom import linalg, pentagram, qnet, spiral
from dimergeom.config import check_F, check_V, config_to_dict
from dimergeom.errors import DegenerateIntersection, DegenerateMeet, EmptyMeet
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_fixture, make_spiral_fixture
from dimergeom.pentagram import pentagram_step_on_config
from helpers import proj_equal_coords

SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def exact_coords(draw, n):
    """n exact coordinates, not all zero: ints, Fractions or a mix."""
    coords = draw(st.lists(SCALARS, min_size=n, max_size=n).filter(any))
    return tuple(coords)


@st.composite
def generator_lists(draw, d, kind):
    """A list of 1..d+1 exact elements of P^d, sometimes with a rescaled
    copy of one of them, so that the generators are dependent."""
    elems = [g.HomogeneousElement(draw(exact_coords(d + 1)), kind) for _ in range(draw(st.integers(1, d + 1)))]
    if draw(st.booleans()):
        e = draw(st.sampled_from(elems))
        scale = draw(st.sampled_from([1, -1, 2, Fraction(-3, 5)]))
        elems.append(g.HomogeneousElement(tuple(scale * c for c in e.coords), kind))
    return elems


@st.composite
def generator_pairs(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from([g.POINT, g.HYPERPLANE]))
    return draw(generator_lists(d, kind)), draw(generator_lists(d, kind))


def full_path_meet(gens1, gens2):
    """The meet with both eliminations: the int kernel of the columns of
    both lists, then the echelon basis of every kernel element, whose one
    row, as primitive ints, is the element."""
    rows1, rows2 = [list(e.ints) for e in gens1], [list(e.ints) for e in gens2]
    ker = linalg.int_nullspace([list(col) for col in zip(*rows1, *rows2)])
    elems = [[sum(a * x for a, x in zip(v, col)) for col in zip(*rows1)] for v in ker]
    basis = [linalg.int_row(row) for row in linalg.rref(elems)[0]]
    if not basis:
        raise EmptyMeet("subspaces intersect trivially")
    if len(basis) > 1:
        raise DegenerateIntersection(f"meet has rank {len(basis)}")
    return g.HomogeneousElement(tuple(map(Fraction, basis[0])), gens1[0].kind)


def _outcome(fn, *args):
    """(coordinates, kind, int row) of the element, or the error raised."""
    try:
        e = fn(*args)
        return (e.coords, e.kind, e.ints), None
    except (EmptyMeet, DegenerateIntersection) as exc:
        return None, (type(exc), str(exc))


def _pts(*rows):
    return [g.point(*r) for r in rows]


@settings(max_examples=150, deadline=None)
@given(generator_pairs())
# dependent generators: the one kernel vector cancels p against 2p, so the
# only element is zero and the meet is empty
@example((_pts((1, 2, 3), (2, 4, 6)), _pts((1, 0, 0), (0, 1, 0))))
@example((_pts((0, 0, 1), (1, 0, 1)), _pts((1, 1, 1), (1, -1, 1))))  # two lines: a point
# two planes of P^3: a line, rank 2
@example((_pts((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), _pts((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))))
def test_meet_equals_the_two_elimination_path(pair):
    gens1, gens2 = pair
    assert _outcome(g.meet, gens1, gens2) == _outcome(full_path_meet, gens1, gens2)


def test_dependent_generators_with_a_zero_kernel_element_raise_empty_meet():
    gens1, gens2 = _pts((1, 2, 3), (2, 4, 6)), _pts((1, 0, 0), (0, 1, 0))
    ker = linalg.int_nullspace([list(col) for col in zip(*(e.ints for e in gens1 + gens2))])
    assert len(ker) == 1
    assert _outcome(g.meet, gens1, gens2)[1] == (EmptyMeet, "subspaces intersect trivially")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(exact_coords), st.sampled_from([g.POINT, g.HYPERPLANE]))
def test_ints_is_the_integer_row_of_exact_coordinates(coords, kind):
    e = g.HomogeneousElement(coords, kind)
    assert e.ints == tuple(linalg.int_row(coords))
    assert all(type(x) is int for x in e.ints)
    assert g.HomogeneousElement(tuple(map(Fraction, coords)), kind).ints == e.ints


@given(st.lists(st.floats(-4, 4), min_size=1, max_size=4).filter(any))
def test_float_coordinates_carry_no_integer_row(coords):
    # a float coordinate makes the element float data, beside exact ones too
    assert g.HomogeneousElement(tuple(coords), g.POINT).ints is None
    assert g.HomogeneousElement((*coords, Fraction(1, 3)), g.POINT).ints is None


def test_ints_is_no_field_of_the_constructor_repr_or_comparison():
    e = g.point(Fraction(1, 2), 3, 1)
    assert e.ints == (1, 6, 2)
    assert repr(e) == "(1/2:3:1)"
    assert e == g.HomogeneousElement((Fraction(1), Fraction(6), Fraction(2)), g.POINT)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 4).flatmap(exact_coords),
    st.sampled_from([1, -1, 3, Fraction(-2, 7), Fraction(5, 3)]),
    st.sampled_from([g.POINT, g.HYPERPLANE]),
)
def test_equality_and_hash_agree_with_coordinate_equality(coords, scale, kind):
    a = g.HomogeneousElement(coords, kind)
    scaled = tuple(scale * c for c in coords)
    other = tuple(reversed(coords))
    for b_coords in (scaled, other):
        b = g.HomogeneousElement(b_coords, kind)
        same = proj_equal_coords(coords, b_coords)
        assert (a == b) == same and g.proj_equal(a, b) == same
        if same:
            assert hash(a) == hash(b)
    assert hash(a) == hash(g.HomogeneousElement(scaled, kind))


def _counting(monkeypatch, name, module=linalg):
    """Patch module.<name> with a wrapper that counts its calls."""
    counts = {name: 0}
    inner = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_a_pentagram_step_scales_each_label_once(monkeypatch):
    """Each label a step or its formula builds is made from its primitive
    int row, which is its integer row already: no label, new or old, is
    rescaled, not even once at construction."""
    _, _, _, c = make_pentagram_fixture(16, 3)
    counts = _counting(monkeypatch, "int_row")
    pentagram_step_on_config(c, 3)
    assert counts["int_row"] == 0
    pentagram.formula(c)
    assert counts["int_row"] == 0


def test_joins_meets_and_circuit_tests_skip_the_elimination(monkeypatch):
    """Every kernel of a pentagram step, of its (V) and (F) checks, of a
    Q-net step and of a spiral step has corank one in at most 4 columns:
    the minors read it, and the elimination never runs.  The spiral step
    meets a line with a point whose column matrix has two proportional
    first rows, so its minors come from another choice of rows."""
    _, _, _, c = make_pentagram_fixture(16, 3)
    _, _, cq = make_qnet_fixture()
    _, _, cs = make_spiral_fixture()
    counts = _counting(monkeypatch, "_int_echelon")
    stepped = pentagram_step_on_config(c, 3)
    assert check_V(stepped).ok and check_F(stepped).ok
    assert counts["_int_echelon"] == 0
    qnet.step(cq)
    assert counts["_int_echelon"] == 0
    spiral.step(cs)
    assert counts["_int_echelon"] == 0


def test_the_side_tests_of_a_laplace_site_read_equality(monkeypatch):
    """qnet.formula on the 4x4 fixture runs the Laplace transform at 16
    sites: the coplanarity test of each is a rank read from minors, and the
    two side tests of a site compare two exact labels, so no site
    eliminates (16 eliminations before ranks came from minors, 48 before
    the side tests read equality)."""
    _, _, cq = make_qnet_fixture()
    ranks = _counting(monkeypatch, "rank")
    echelons = _counting(monkeypatch, "_int_echelon")
    qnet.formula(cq)
    assert ranks["rank"] == 16 and echelons["_int_echelon"] == 0


def test_the_seed_conditions_of_a_spiral_formula_read_minors(monkeypatch):
    """spiral.formula on the frozen spiral tests the three seed conditions
    of its point and of its line window by rank, each read from minors:
    6 ranks and no elimination (6 eliminations before)."""
    _, _, cs = make_spiral_fixture()
    ranks = _counting(monkeypatch, "rank")
    echelons = _counting(monkeypatch, "_int_echelon")
    spiral.formula(cs)
    assert ranks["rank"] == 6 and echelons["_int_echelon"] == 0


def test_a_pentagram_formula_joins_each_diagonal_once(monkeypatch):
    """pentagram.formula on 16/3 makes n diagonals and n new vertices for
    the points, and as many for the lines: 4n = 64 incident elements
    (6n = 96 when each vertex made its own two diagonals)."""
    _, _, _, c = make_pentagram_fixture(16, 3)
    counts = _counting(monkeypatch, "incident_element", pentagram)
    pentagram.formula(c)
    assert counts["incident_element"] == 64


def _labels(c):
    return (*c.white_labels.values(), *c.black_labels.values())


FAMILIES = {
    "pentagram": (
        pentagram,
        st.builds(
            lambda nk, seed: make_pentagram_fixture(*nk, seed=seed)[3],
            st.sampled_from([(7, 2), (8, 3), (9, 2), (9, 4)]),
            st.integers(0, 20),
        ),
    ),
    "spiral": (spiral, st.builds(lambda: make_spiral_fixture()[2])),
    "qnet": (qnet, st.builds(lambda: make_qnet_fixture()[2])),
}


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)).flatmap(
        lambda name: st.tuples(
            st.just(name), FAMILIES[name][1], st.lists(st.sampled_from(["step", "formula"]), min_size=1, max_size=3)
        )
    )
)
@example(("pentagram", make_pentagram_fixture(8, 3, seed=16)[3], ["step", "step"]))
@example(("pentagram", make_pentagram_fixture(8, 3, seed=16)[3], ["step", "formula"]))
def test_every_computed_label_is_its_primitive_int_row(case):
    """Through chained steps and formulas of each family, every label's
    integer row is the int_row of its coordinates, and every label that
    was not read in is primitive and positive at its first nonzero entry.
    A chain that reaches a configuration where the map is undefined is
    rejected: pentagram 8/3 at seed 16 after one step, say, where the
    next step meets lines through one point (DegenerateMeet).  The
    pentagram formula there joins two equal points
    (DegenerateIntersection); such a draw is rejected only once the step
    on the same configuration is found undefined too."""
    name, start, calls = case
    given_labels = {id(e) for e in _labels(start)}  # start stays alive, so its ids stay unique
    c = start
    for call in calls:
        try:
            c = getattr(FAMILIES[name][0], call)(c)
        except DegenerateMeet:
            assume(False)
        except DegenerateIntersection:
            if (name, call) != ("pentagram", "formula"):
                raise
            with pytest.raises(DegenerateMeet):
                pentagram.step(c)
            assume(False)
        for e in _labels(c):
            assert e.ints == tuple(linalg.int_row(e.coords)), (call, e)
            if id(e) not in given_labels:
                assert gcd(*e.ints) == 1 and next(v for v in e.ints if v) > 0, (call, e)


# family -> (start, number of labels its first 10 steps compute)
TEN_STEPS = {
    "pentagram": (lambda: make_pentagram_fixture(7, 2)[3], 140),
    "spiral": (lambda: make_spiral_fixture()[2], 20),
    "qnet": (lambda: make_qnet_fixture()[2], 160),
}


@pytest.mark.parametrize("name", TEN_STEPS)
def test_ten_steps_keep_every_computed_label_primitive(name):
    """Over 10 steps, every label a step computes (one it does not carry
    over from its input) is primitive and positive at its first nonzero
    entry, so label heights grow only as the map makes them grow."""
    start, computed = TEN_STEPS[name]
    c, seen = start(), 0
    for i in range(10):
        carried = {id(e) for e in _labels(c)}  # the output is built while c is alive
        c = FAMILIES[name][0].step(c)
        for e in _labels(c):
            if id(e) not in carried:
                seen += 1
                assert gcd(*e.ints) == 1 and next(v for v in e.ints if v) > 0, (i, e)
    assert seen == computed


@st.composite
def computed_labels(draw):
    """A label that exact geometry computes: the meet of two drawn
    generator lists, or the incident element of d drawn elements of P^d."""
    if draw(st.booleans()):
        gens1, gens2 = draw(generator_pairs())
        make = lambda: g.meet(gens1, gens2)  # noqa: E731
    else:
        d = draw(st.sampled_from([2, 3]))
        kind = draw(st.sampled_from([g.POINT, g.HYPERPLANE]))
        elems = [g.HomogeneousElement(draw(exact_coords(d + 1)), kind) for _ in range(d)]
        make = lambda: g.incident_element(elems)  # noqa: E731
    try:
        return make()
    except (EmptyMeet, DegenerateIntersection):
        assume(False)


def _eager(e):
    """The label built from the coordinates a computed label derives."""
    return g.HomogeneousElement(tuple(map(Fraction, e.ints)), e.kind)


def _slots(e):
    return e.coords, e.kind, e.ints, e.scale, e.dim


@settings(max_examples=150, deadline=None)
@given(computed_labels())
def test_a_computed_label_derives_its_coordinates_from_its_row(e):
    assert e.coords == tuple(map(Fraction, e.ints))
    assert all(type(x) is Fraction for x in e.coords) and e.scale == 1
    assert e.coords is e.coords  # built once, then kept


def test_a_computed_label_builds_no_fraction_until_its_coordinates_are_read(monkeypatch):
    built = []
    monkeypatch.setattr(g, "Fraction", lambda x: built.append(x) or Fraction(x))
    p = g.meet([g.point(1, 0, 0), g.point(0, 1, 0)], [g.point(1, 1, 1), g.point(1, 2, 3)])
    line = g.join_points([g.point(1, 2, 3), g.point(4, 5, 7)])
    assert built == [] and (p.ints, line.ints) == ((2, 1, 0), (1, -5, 3))
    assert p.coords == (2, 1, 0) and built == [2, 1, 0]


@settings(max_examples=100, deadline=None)
@given(computed_labels())
def test_copies_pickles_and_files_of_a_computed_label_equal_an_eager_labels(e):
    # each clone and file reads a fresh computed label, whose coordinates are unread
    eager = _eager(e)
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert _slots(clone(g._element(e.ints, e.kind))) == _slots(clone(eager))
    if e.dim == 2:  # the 5/2 pentagram's file with the label in place of its first one of that kind
        c = make_pentagram_fixture(5, 2)[3]
        field = "white_labels" if e.kind == g.POINT else "black_labels"
        labels = getattr(c, field)
        first = sorted(labels)[0]
        files = [config_to_dict(c._replace(**{field: {**labels, first: x}})) for x in (g._element(e.ints, e.kind), eager)]
        assert json.dumps(files[0]) == json.dumps(files[1])
    assert (repr(e), hash(e), e) == (repr(eager), hash(eager), eager)


def _cross_equal(a, b) -> bool:
    """The reference: two nonzero coordinate vectors are one element iff
    every 2x2 minor of the pair vanishes."""
    return len(a) == len(b) and all(x * v == y * u for (x, y), (u, v) in combinations(zip(a, b), 2))


@settings(max_examples=150, deadline=None)
@given(computed_labels(), computed_labels(), st.sampled_from([1, 2, -1, -3, Fraction(1, 2), Fraction(-5, 7)]))
# (2, 4, 6) against (1, 2, 3), and rows that agree in their first entries only
@example(g._element((1, 2, 3), g.POINT), g._element((1, 2, 4), g.POINT), 2)
@example(g._element((0, 1, 5), g.HYPERPLANE), g._element((0, 1, -5), g.HYPERPLANE), -1)
def test_proj_equal_agrees_with_cross_multiplication(e, other, factor):
    """On computed labels against themselves (equal rows), their multiples
    built from coordinates ((2, 4, 6) against (1, 2, 3), negated rows),
    computed copies and other computed labels."""
    rescaled = g.HomogeneousElement(tuple(factor * x for x in e.ints), e.kind)
    for b in (e, g._element(e.ints, e.kind), _eager(e), rescaled, other):
        want = e.kind == b.kind and _cross_equal(e.coords, b.coords)
        assert g.proj_equal(e, b) == want and g.proj_equal(b, e) == want, (e, b)

