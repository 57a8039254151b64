import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimergeom import scalars
from dimergeom.config import (
    cohomology_class,
    config_from_dict,
    config_to_dict,
    check_F,
    check_V,
    walk_period,
    DoubleCircuitConfig,
    load_config,
    save_config,
)
from dimergeom.errors import BadBasis, DegreeExceedsBound, VanishingPairing
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_fixture, make_spiral_fixture
from dimergeom.geometry import HYPERPLANE, POINT, HomogeneousElement, affine_point, hyperplane, point
from dimergeom.torusgraph import Edge, Face, TorusGraph, find_walk, validate_graph
from helpers import class_equal, coboundary_shifted, rescaled_config, with_walks


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
    # other walks in the same classes, found independently from other roots:
    # the same graph with its white vertices listed from another one
    g = c.graph
    for r in range(1, 4):
        rooted = TorusGraph(g.white_ids[r:] + g.white_ids[:r], g.black_ids, g.edges, g.faces)
        z1, z2 = find_walk(rooted, (1, 0)), find_walk(rooted, (0, 1))
        assert g.edges[z1[0]].w == g.white_ids[r]
        assert class_equal(cohomology_class(with_walks(c, z1, z2)), cls)


def test_class_from_non_unit_basis(pentagon):
    # any unimodular basis gives the same (lambda, mu)
    _, _, _, c = pentagon
    cls = cohomology_class(c)
    z1 = find_walk(c.graph, (1, 1))
    z2 = find_walk(c.graph, (0, 1))
    assert class_equal(cohomology_class(with_walks(c, z1, z2)), cls)


def test_bad_basis_rejected(pentagon):
    _, _, _, c = pentagon
    z1 = find_walk(c.graph, (2, 0))
    z2 = find_walk(c.graph, (0, 1))
    with pytest.raises(BadBasis):
        cohomology_class(with_walks(c, z1, z2))


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


@settings(max_examples=50, deadline=None)
@given(_triples(st.floats(allow_nan=False, allow_infinity=False)).filter(lambda ts: all(any(t) for t in ts)))
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


def test_check_V_failure_names_the_relation_space():
    # four collinear points at a 4-valent black vertex in P^2
    g = TorusGraph(
        tuple(f"w{i}" for i in range(4)),
        ("b",),
        tuple(Edge(f"w{i}", "b", (0, 0)) for i in range(4)),
        (),
    )
    labels = {f"w{i}": affine_point(i, 2 * i) for i in range(4)}
    rep = check_V(DoubleCircuitConfig(g, 2, labels, {"b": hyperplane(1, 1, 1)}))
    assert "vertex b: neighbor labels do not form a circuit (relation space has dimension 2, need 1)" in rep.messages


def _two_stars(points, lift):
    """Whites w0.. at the affine points, coordinates lifted by ``lift`` (F
    or float), each joined to b0 and b1, which share one line of P^2: the
    whites pass (V), and b0 and b1 fail it alike, for the same reason."""
    whites, blacks = tuple(f"w{i}" for i in range(len(points))), ("b0", "b1")
    g = TorusGraph(whites, blacks, tuple(Edge(w, b, (0, 0)) for b in blacks for w in whites), ())
    wl = {w: HomogeneousElement((lift(x), lift(y), lift(1)), POINT) for w, (x, y) in zip(whites, points)}
    line = HomogeneousElement((lift(1), lift(1), lift(1)), HYPERPLANE)
    return DoubleCircuitConfig(g, 2, wl, dict.fromkeys(blacks, line))


@pytest.mark.parametrize("lift", [F, float], ids=["exact", "float"])
@pytest.mark.parametrize(
    "points, reason",
    [
        ([(0, 0)], "degree 1"),
        ([(i, 2 * i) for i in range(4)], "relation space has dimension 2, need 1"),
        ([(0, 0), (1, 1), (2, 2), (0, 1)], "relation coefficient 3 vanishes (not a circuit)"),
    ],
    ids=["degree", "dimension", "coefficient"],
)
def test_check_V_names_each_failure_reason(points, reason, lift):
    # the lines validate prints, for exact labels and their float twins
    rep = check_V(_two_stars(points, lift))
    assert rep.failures == ["b0", "b1"]
    assert rep.messages == [f"vertex {b}: neighbor labels do not form a circuit ({reason})" for b in ("b0", "b1")]


def test_check_F_failure_names_the_multi_ratio(pentagon):
    _, _, _, c = pentagon
    wl = dict(c.white_labels)
    wl["P2"] = affine_point(F(17, 3), F(5, 7))
    rep = check_F(DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels))
    assert "face d0: multi-ratio != 1 (is -89/884)" in rep.messages
    assert check_F(c).messages == []


def _hexagonal_torus():
    """One white, one black and three parallel edges: the honeycomb torus
    with its one hexagonal face, each edge once in each direction."""
    edges = (Edge("w", "b", (0, 0)), Edge("w", "b", (1, 0)), Edge("w", "b", (0, 1)))
    g = TorusGraph(("w",), ("b",), edges, (Face("f", (0, 1, 2, 0, 1, 2)),))
    return DoubleCircuitConfig(g, 2, {"w": point(1, 2, 3)}, {"b": hyperplane(1, 0, -1)})


def test_parallel_edges_save_faces_as_edge_refs():
    c = _hexagonal_torus()
    assert validate_graph(c.graph).ok
    text = json.dumps(config_to_dict(c), indent=1)
    assert json.loads(text)["faces"] == [[{"e": ei} for ei in (0, 1, 2, 0, 1, 2)]]
    back = config_from_dict(json.loads(text))
    assert back.graph.faces == c.graph.faces
    assert json.dumps(config_to_dict(back), indent=1) == text


def test_a_face_listed_from_a_black_vertex_reads_as_from_its_white_successor(pentagon):
    _, _, _, c = pentagon
    data = config_to_dict(c)
    face = data["faces"][0]
    assert face[0] in c.graph.white_ids
    data["faces"][0] = face[1:] + face[:1]  # now starts at a black vertex
    g = config_from_dict(data).graph
    d0 = c.graph.faces[0].edges
    assert g.faces[0].edges == d0[2:] + d0[:2] and g.faces[1:] == c.graph.faces[1:]
    assert validate_graph(g).ok
