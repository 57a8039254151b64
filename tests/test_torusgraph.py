import pytest

from dimergeom.errors import BadWalk, UnequalColorCounts
from dimergeom.fixtures import make_grid_minus_edge
from dimergeom.pentagram import build_pentagram_graph
from dimergeom.qnet import build_qnet_graph
from dimergeom.spiral import build_spiral_graph
from dimergeom.torusgraph import (
    Edge,
    Face,
    TorusGraph,
    delete_edge,
    dimension_report,
    face_vertex_sequence,
    find_walk,
    validate_graph,
    walk_h_sum,
)


def test_pentagram_graph_counts():
    g = build_pentagram_graph(5, 2)
    rep = validate_graph(g)
    assert rep.ok, rep
    assert rep.sizes == (5, 5, 20, 10)
    assert str(rep) == "valid: white=5 black=5 edges=20 faces=10 euler=0"


def test_face_h_sum_violation_reported():
    g = build_pentagram_graph(5, 2)
    bad_edges = list(g.edges)
    bad_edges[0] = Edge(bad_edges[0].w, bad_edges[0].b, (bad_edges[0].h[0] + 1, bad_edges[0].h[1]))
    bad = TorusGraph(g.white_ids, g.black_ids, tuple(bad_edges), g.faces)
    rep = validate_graph(bad)
    assert not rep.ok
    assert any("h-sum" in v for v in rep.violations)


def test_empty_graph_valid():
    rep = validate_graph(TorusGraph((), (), (), ()))
    assert rep.ok
    assert rep.sizes == (0, 0, 0, 0)


def test_face_traversal_violations_detected():
    g = build_pentagram_graph(5, 2)
    # swap two entries of one face: chaining breaks
    f0 = g.faces[0]
    broken = Face(f0.id, (f0.edges[1], f0.edges[0]) + f0.edges[2:])
    bad = TorusGraph(g.white_ids, g.black_ids, g.edges, (broken,) + g.faces[1:])
    rep = validate_graph(bad)
    assert not rep.ok


def test_dimension_report_pentagram():
    g = build_pentagram_graph(5, 2)
    rep = dimension_report(g, 2)
    assert rep["equations"] == 9
    assert rep["parameters"] == 10
    assert rep["expected_dim"] == 1


def test_dimension_report_torus_always_dim_one():
    for g in (build_pentagram_graph(7, 3), build_spiral_graph(2, 5, 1), build_qnet_graph(4, 4)):
        assert dimension_report(g, 2)["expected_dim"] == 1


def test_dimension_report_genus_two_counts():
    # genus-2 counts: k = 6, e = 16, f = 2 give euler = -2, so 1 - chi = 3
    edges = [Edge(f"w{i % 6}", f"b{i % 6}", (0, 0)) for i in range(16)]
    g = TorusGraph([f"w{i}" for i in range(6)], [f"b{i}" for i in range(6)], edges, (Face("f0", ()), Face("f1", ())))
    assert g.sizes() == (6, 6, 16, 2)
    rep = dimension_report(g, 2)
    assert rep["euler"] == -2
    assert rep["expected_dim"] == 3


def test_dimension_report_unequal_counts():
    g = build_pentagram_graph(5, 2)
    unequal = TorusGraph(g.white_ids + ("extra",), g.black_ids, g.edges, g.faces)
    with pytest.raises(UnequalColorCounts, match="^6 white vs 5 black$"):
        dimension_report(unequal, 2)


def test_all_template_graphs_validate():
    for g in (
        build_pentagram_graph(5, 2),
        build_pentagram_graph(8, 3),
        build_spiral_graph(2, 5, 1),
        build_spiral_graph(3, 6, 0),
        build_qnet_graph(4, 4),
        build_qnet_graph(4, 6, 1),
        make_grid_minus_edge()[0],
    ):
        assert validate_graph(g).ok


def test_basis_cycles_have_unit_h_classes():
    for g in (build_pentagram_graph(6, 2), build_spiral_graph(2, 5, 1), build_qnet_graph(4, 4)):
        z1, z2 = g.basis_cycles
        assert walk_h_sum(g, z1) == (1, 0)
        assert walk_h_sum(g, z2) == (0, 1)


def test_find_walk_arbitrary_class():
    g = build_pentagram_graph(5, 2)
    w = find_walk(g, (2, -1))
    assert walk_h_sum(g, w) == (2, -1)


def test_find_walk_unreachable_class():
    # every edge has h_1 = 0, so no closed walk has class (1, 0): the search
    # exhausts its bounded region of the cover
    g = TorusGraph(("W",), ("B",), (Edge("W", "B", (0, 0)), Edge("W", "B", (0, 1))), ())
    assert walk_h_sum(g, find_walk(g, (0, 1))) == (0, 1)
    with pytest.raises(BadWalk):
        find_walk(g, (1, 0))


def test_delete_edge_merges_faces():
    g = build_qnet_graph(4, 4)
    g2 = delete_edge(g, 0, "merged")
    rep = validate_graph(g2)
    assert rep.ok
    n_white, n_black, n_edges, n_faces = g.sizes()
    assert rep.sizes == (n_white, n_black, n_edges - 1, n_faces - 1)
    merged = next(f for f in g2.faces if f.id == "merged")
    assert len(merged.edges) == 6
    # a basis cycle through the deleted edge detours around its first face
    assert any(0 in walk for walk in g.basis_cycles)
    assert [walk_h_sum(g2, walk) for walk in g2.basis_cycles] == [walk_h_sum(g, walk) for walk in g.basis_cycles]


def test_spiral_graph_structure():
    g = build_spiral_graph(2, 5, 1)
    rep = validate_graph(g)
    assert rep.ok
    assert rep.sizes[2:] == (21, 9)
    hexes = [f for f in g.faces if len(f.edges) == 6]
    assert len(hexes) == 3
    # the paper's hexagon vertex pattern
    for f in hexes:
        seq = face_vertex_sequence(g, f)
        assert len(seq) == 6


def test_every_face_sum_zero_on_templates():
    for g in (build_pentagram_graph(9, 4), build_spiral_graph(2, 6, 2), build_qnet_graph(6, 4)):
        for f in g.faces:
            assert walk_h_sum(g, f.edges) == (0, 0)
