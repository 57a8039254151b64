import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimergeom import scalars
from dimergeom.config import (
    class_equal,
    coboundary_shifted,
    cohomology_class,
    config_from_dict,
    config_to_dict,
    check_F,
    check_V,
    rescaled_config,
    walk_period,
    DoubleCircuitConfig,
    load_config,
    save_config,
)
from dimergeom.errors import BadBasis, DegreeExceedsBound, VanishingPairing
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_fixture, make_spiral_fixture
from dimergeom.geometry import HYPERPLANE, POINT, HomogeneousElement, affine_point, hyperplane, point
from dimergeom.torusgraph import Edge, TorusGraph, find_walk, validate_graph


@pytest.fixture(scope="module")
def pentagon():
    return make_pentagram_fixture(5, 2)


def test_check_V_passes_on_conic_fixture(pentagon):
    _, _, _, c = pentagon
    assert check_V(c).ok


def test_check_V_coincident_pair_among_three_fails():
    # a 3-valent black vertex with two coincident and one distinct point
    g = TorusGraph(
        ("w1", "w2", "w3"),
        ("b",),
        (Edge("w1", "b", (0, 0)), Edge("w2", "b", (0, 0)), Edge("w3", "b", (0, 0))),
        (),
    )
    labels = {"w1": point(1, 0, 0), "w2": point(2, 0, 0), "w3": point(0, 1, 0)}
    c = DoubleCircuitConfig(g, 2, labels, {"b": hyperplane(0, 0, 1)})
    rep = check_V(c)
    assert "b" in rep.failures


def test_check_V_degree_two_equal_points_pass():
    g = TorusGraph(
        ("w1", "w2"),
        ("b",),
        (Edge("w1", "b", (0, 0)), Edge("w2", "b", (0, 0))),
        (),
    )
    labels = {"w1": point(1, 2, 1), "w2": point(2, 4, 2)}
    c = DoubleCircuitConfig(g, 2, labels, {"b": hyperplane(1, 1, 1)})
    assert "b" not in check_V(c).failures


def test_check_V_degree_bound():
    g = TorusGraph(
        tuple(f"w{i}" for i in range(5)),
        ("b",),
        tuple(Edge(f"w{i}", "b", (0, 0)) for i in range(5)),
        (),
    )
    labels = {f"w{i}": affine_point(i, i * i) for i in range(5)}
    c = DoubleCircuitConfig(g, 2, labels, {"b": hyperplane(1, 1, 1)})
    with pytest.raises(DegreeExceedsBound):
        check_V(c)


def test_check_F_passes_on_fixture(pentagon):
    _, _, _, c = pentagon
    assert check_F(c).ok


def test_check_F_perturbation_breaks_two_faces(pentagon):
    _, _, _, c = pentagon
    wl = dict(c.white_labels)
    wl["P2"] = affine_point(F(17, 3), F(5, 7))  # generic; off every conic side
    pert = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
    rep = check_F(pert)
    assert not rep.ok
    assert len(rep.failures) >= 2  # never exactly one


def test_master_theorem_single_failure_flagged(pentagon):
    # force an artificial single failure by tampering with one face's labels
    # via an inconsistent graph copy: replace one face by a shuffled cycle
    _, _, _, c = pentagon
    rep = check_F(c)
    assert not rep.suspicious_single_failure
    # direct flag behavior
    from dimergeom.config import ConditionReport

    flagged = ConditionReport(ok=False, failures=["f"], messages=[], suspicious_single_failure=True)
    assert "probable data" in str(flagged)


def test_master_theorem_failures_never_exactly_one(pentagon):
    _, _, _, c = pentagon
    rng = random.Random(7)
    for _ in range(12):
        wl = dict(c.white_labels)
        v = rng.choice(list(wl))
        wl[v] = affine_point(rng.randint(-9, 9), rng.randint(-9, 9))
        pert = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
        try:
            rep = check_F(pert)
        except VanishingPairing:
            continue
        assert len(rep.failures) != 1


def test_face_boundary_period_is_one(pentagon):
    _, _, _, c = pentagon
    for face in c.graph.faces:
        assert walk_period(c, face.edges) == 1


def test_class_invariant_under_label_rescaling(pentagon):
    _, _, _, c = pentagon
    cls = cohomology_class(c)
    rng = random.Random(1)
    for _ in range(10):
        factors = {v: F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]) for v in ("P0", "q3", "P4")}
        scaled = rescaled_config(c, factors)
        assert class_equal(cohomology_class(scaled), cls)
        assert check_V(scaled).ok and check_F(scaled).ok


def test_class_independent_of_walk_representatives(pentagon):
    _, _, _, c = pentagon
    cls = cohomology_class(c)
    # other walks in the same classes, found independently from other roots
    for start in list(c.graph.white_ids)[1:4]:
        z1 = find_walk(c.graph, (1, 0), start_white=start)
        z2 = find_walk(c.graph, (0, 1), start_white=start)
        assert class_equal(cohomology_class(c, z1, z2), cls)


def test_class_from_non_unit_basis(pentagon):
    # any unimodular basis gives the same (lambda, mu)
    _, _, _, c = pentagon
    cls = cohomology_class(c)
    z1 = find_walk(c.graph, (1, 1))
    z2 = find_walk(c.graph, (0, 1))
    assert class_equal(cohomology_class(c, z1, z2), cls)


def test_bad_basis_rejected(pentagon):
    _, _, _, c = pentagon
    z1 = find_walk(c.graph, (2, 0))
    z2 = find_walk(c.graph, (0, 1))
    with pytest.raises(BadBasis):
        cohomology_class(c, z1, z2)


def test_class_invariant_under_coboundary(pentagon):
    _, _, _, c = pentagon
    cls = cohomology_class(c)
    rng = random.Random(2)
    pots = {v: (rng.randint(-2, 2), rng.randint(-2, 2)) for v in list(c.graph.white_ids) + list(c.graph.black_ids)}
    shifted = coboundary_shifted(c, pots)
    assert validate_graph(shifted.graph).ok
    assert class_equal(cohomology_class(shifted), cls)


def test_json_round_trip_bit_exact(pentagon, tmp_path):
    _, _, _, c = pentagon
    d1 = config_to_dict(c)
    s1 = json.dumps(d1, indent=1)
    c2 = config_from_dict(json.loads(s1))
    s2 = json.dumps(config_to_dict(c2), indent=1)
    assert s1 == s2
    assert check_V(c2).ok and check_F(c2).ok
    assert class_equal(cohomology_class(c2), cohomology_class(c))


def test_json_round_trip_all_fixtures():
    for c in (make_spiral_fixture()[2], make_qnet_fixture()[2]):
        d1 = config_to_dict(c)
        c2 = config_from_dict(json.loads(json.dumps(d1)))
        assert json.dumps(config_to_dict(c2)) == json.dumps(d1)


def test_white_only_config_round_trip():
    from dimergeom.fixtures import make_grid_minus_edge

    g, white = make_grid_minus_edge()
    c = DoubleCircuitConfig(g, 2, white, {})
    d = config_to_dict(c)
    assert all("coords" not in entry for entry in d["black"])
    c2 = config_from_dict(json.loads(json.dumps(d)))
    assert c2.black_labels == {}
    assert set(c2.white_labels) == set(white)


def test_verdicts_invariant_under_rescaling_qnet():
    _, _, c = make_qnet_fixture()
    rng = random.Random(3)
    factors = {v: F(rng.randint(1, 5)) for v in list(c.white_labels)[:3]}
    scaled = rescaled_config(c, factors)
    assert check_V(scaled).ok and check_F(scaled).ok


def _relabelled(g, coords):
    """Graph g with the drawn coordinate triples as labels."""
    ids = list(g.white_ids) + list(g.black_ids)
    labels = {v: HomogeneousElement(tuple(x), POINT if v in g.white_ids else HYPERPLANE) for v, x in zip(ids, coords)}
    return DoubleCircuitConfig(g, 2, {v: labels[v] for v in g.white_ids}, {v: labels[v] for v in g.black_ids})


def _triples(scalar):
    return st.lists(st.lists(scalar, min_size=3, max_size=3), min_size=10, max_size=10)


@settings(max_examples=50, deadline=None)
@given(_triples(st.fractions()).filter(lambda ts: all(any(t) for t in ts)))
def test_json_round_trip_rational_property(pentagon, coords):
    c = _relabelled(pentagon[3].graph, coords)
    d = json.loads(json.dumps(config_to_dict(c)))
    assert d["scalar"] == "rational"
    back = config_from_dict(d)
    for labels, back_labels in ((c.white_labels, back.white_labels), (c.black_labels, back.black_labels)):
        for v, e in labels.items():
            assert back_labels[v].coords == e.coords
            assert all(type(x) is F for x in back_labels[v].coords)
    assert scalars.get_backend() == scalars.RATIONAL


# a float vector whose entries are all at most 1e-9 in magnitude counts as
# zero (scalars.is_zero floors its scale at 1), so each drawn label has a
# larger entry
@settings(max_examples=50, deadline=None)
@given(_triples(st.floats(allow_nan=False, allow_infinity=False)).filter(
    lambda ts: all(max(abs(x) for x in t) > 1e-9 for t in ts)))
def test_json_round_trip_float_property(pentagon, coords):
    c = _relabelled(pentagon[3].graph, coords)
    d = json.loads(json.dumps(config_to_dict(c)))
    assert d["scalar"] == "float"
    back = config_from_dict(d)
    for labels, back_labels in ((c.white_labels, back.white_labels), (c.black_labels, back.black_labels)):
        for v, e in labels.items():
            assert [repr(x) for x in back_labels[v].coords] == [repr(x) for x in e.coords]
    assert scalars.get_backend() == scalars.RATIONAL


def test_loading_a_float_file_leaves_constants_exact(pentagon, tmp_path):
    _, _, _, c = pentagon
    path = tmp_path / "float.json"
    save_config(c, path)
    data = json.loads(path.read_text())
    data["scalar"] = "float"
    path.write_text(json.dumps(data))
    loaded = load_config(path)
    assert all(isinstance(x, float) for x in loaded.white_labels["P0"].coords)
    assert all(type(x) is F for x in point(1, 2, 3).coords)
