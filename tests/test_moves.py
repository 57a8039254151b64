import functools
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimergeom.config import (
    DoubleCircuitConfig,
    check_F,
    check_V,
    class_equal,
    cohomology_class,
    rescaled_config,
)
from dimergeom.errors import (
    BadPartition,
    DegenerateMeet,
    IncidentLabel,
    LabelMismatch,
    MoveError,
    ScriptError,
    WrongDegree,
)
from dimergeom.fixtures import make_pentagram_fixture, make_qnet_fixture, make_spiral_fixture
from dimergeom.geometry import hyperplane, line_through, meet_hyperplanes, point, proj_equal
from dimergeom.moves import (
    forced_split_label,
    MoveScript,
    MoveStep,
    add_degree2,
    apply_script,
    remove_degree2,
    script_from_json,
    script_to_json,
    urban_renewal,
)
from dimergeom.spectral import spectral_polynomial_white
from dimergeom.torusgraph import canonical_basis_cycles, check_walk, validate_graph, vertex_edges


@pytest.fixture()
def pentagon():
    return make_pentagram_fixture(5, 2)[3]


def euler(g):
    return len(g.white_ids) + len(g.black_ids) - len(g.edges) + len(g.faces)


def test_add_then_remove_round_trip(pentagon):
    c = pentagon
    lbl = forced_split_label(c, "P0", (0, 2))
    c2 = add_degree2(c, "P0", (0, 2), lbl, ids=("P0b", "mid"))
    rep = validate_graph(c2.graph)
    assert rep.ok
    assert check_V(c2).ok and check_F(c2).ok
    assert euler(c2.graph) == euler(c.graph)
    c3 = remove_degree2(c2, "mid")
    assert validate_graph(c3.graph).ok
    assert len(c3.graph.edges) == len(c.graph.edges)
    assert check_V(c3).ok and check_F(c3).ok


def test_add_degree2_black_vertex(pentagon):
    # the circuit condition at the split copies forces the middle point to
    # be the meet of the two arc spans; check_V then passes exactly
    c = pentagon
    pt = forced_split_label(c, "q1", (1, 3))
    assert abs(sum(a * b for a, b in zip(pt.coords, c.black_labels["q1"].coords))) != 0
    c2 = add_degree2(c, "q1", (1, 3), pt, ids=("q1b", "m1"))
    assert validate_graph(c2.graph).ok
    assert check_V(c2).ok and check_F(c2).ok


def test_add_degree2_generic_label_breaks_V_but_not_F(pentagon):
    # coherence survives any admissible label (telescoping identity); the
    # circuit condition pins the label itself
    c2 = add_degree2(pentagon, "q1", (1, 3), point(5, 7, 1), ids=("q1b", "m1"))
    assert check_F(c2).ok
    assert not check_V(c2).ok


def test_remove_degree2_wrong_degree(pentagon):
    with pytest.raises(WrongDegree):
        remove_degree2(pentagon, "P0")


def test_remove_degree2_label_mismatch(pentagon):
    c = add_degree2(pentagon, "P0", (0, 2), hyperplane(3, 1, 1), ids=("P0b", "mid"))
    wl = dict(c.white_labels)
    wl["P0b"] = point(9, 9, 1)
    broken = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
    with pytest.raises(LabelMismatch):
        remove_degree2(broken, "mid")


def test_add_degree2_incident_label(pentagon):
    c = pentagon
    # a line through P0 is not allowed as the new label
    p0 = c.white_labels["P0"]
    thru = line_through(p0, point(1, 1, 1))
    with pytest.raises(IncidentLabel):
        add_degree2(c, "P0", (0, 2), thru)


def test_add_degree2_bad_partition(pentagon):
    with pytest.raises(BadPartition):
        add_degree2(pentagon, "P0", (0, 4), hyperplane(3, 1, 1))
    with pytest.raises(BadPartition):
        add_degree2(pentagon, "P0", (2, 2), hyperplane(3, 1, 1))


def test_urban_renewal_new_point_is_pentagram_image(pentagon):
    c = pentagon
    k, n = 2, 5
    c2 = urban_renewal(c, "d1")
    P = [c.white_labels[f"P{i}"] for i in range(n)]
    expected = meet_hyperplanes(
        [line_through(P[1], P[(1 + k) % n]), line_through(P[2], P[(2 + k) % n])]
    )
    assert proj_equal(c2.white_labels["d1:E"], expected)


def test_urban_renewal_preserves_conditions_exactly(pentagon):
    c2 = urban_renewal(pentagon, "d3")
    assert validate_graph(c2.graph).ok
    assert check_V(c2).ok
    assert check_F(c2).ok
    assert euler(c2.graph) == 0


def test_urban_renewal_twice_is_identity_up_to_cleanups(pentagon):
    c = pentagon
    c1 = urban_renewal(c, "d0")
    c2 = urban_renewal(c1, "d0:inner")
    # the four degree-two vertices from the double renewal collapse back
    for v in ("d0:E", "d0:F", "d0:g", "d0:h"):
        c2 = remove_degree2(c2, v)
    assert validate_graph(c2.graph).ok
    assert check_V(c2).ok and check_F(c2).ok
    # same labels as the original configuration
    whites1 = sorted(str(x) for x in map(lambda v: c.white_labels[v], c.graph.white_ids))
    whites2 = sorted(str(x) for x in map(lambda v: c2.white_labels[v], c2.graph.white_ids))
    assert len(c2.graph.white_ids) == len(c.graph.white_ids)
    blacks1 = sorted(str(c.black_labels[v]) for v in c.graph.black_ids)
    blacks2 = sorted(str(c2.black_labels[v]) for v in c2.graph.black_ids)
    assert whites1 == whites2 and blacks1 == blacks2
    assert class_equal(cohomology_class(c2), cohomology_class(c))


def test_urban_renewal_not_quadrilateral():
    from dimergeom.fixtures import make_spiral_fixture
    from dimergeom.errors import NotQuadrilateral

    _, _, c = make_spiral_fixture()
    hex_face = next(f.id for f in c.graph.faces if len(f.edges) == 6)
    with pytest.raises(NotQuadrilateral):
        urban_renewal(c, hex_face)


def test_urban_renewal_degenerate_corner():
    # a corner of degree 2 has no other neighbors: the meet is undefined
    c = make_pentagram_fixture(5, 2)[3]
    c1 = add_degree2(c, "q0", (1, 3), point(5, 7, 1), ids=("q0b", "mW"))
    # mW is a degree-2 white vertex; find a quadrilateral face through it
    g = c1.graph
    target = next(
        (f.id for f in g.faces if len(f.edges) == 4 and any(g.edges[e].w == "mW" for e in f.edges)),
        None,
    )
    if target is not None:
        with pytest.raises(DegenerateMeet):
            urban_renewal(c1, target)


def test_moves_commute_with_rescaling(pentagon):
    c = pentagon
    factors = {"P1": F(3, 7), "q2": F(-5)}
    a = urban_renewal(rescaled_config(c, factors), "d0")
    b = urban_renewal(c, "d0")
    for v in a.graph.white_ids:
        assert proj_equal(a.white_labels[v], b.white_labels[v])
    for v in a.graph.black_ids:
        assert proj_equal(a.black_labels[v], b.black_labels[v])


def test_class_invariant_under_each_move(pentagon):
    c = pentagon
    cls = cohomology_class(c)
    c1 = urban_renewal(c, "d2")
    assert class_equal(cohomology_class(c1), cls)
    c2 = add_degree2(c1, "P1", (0, 2), hyperplane(4, 1, 2), ids=("tw", "md"))
    assert class_equal(cohomology_class(c2), cls)
    c3 = remove_degree2(c2, "md")
    assert class_equal(cohomology_class(c3), cls)


def test_every_split_keeps_graph_valid_and_class():
    # a split whose arcs separate a stored basis walk's two edges at v
    # routes that walk from v through the new vertex to the twin
    c = make_pentagram_fixture(7, 2)[3]
    cls = cohomology_class(c)
    splits = [p for p in combinations(range(5), 2) if p[1] - p[0] < 4]  # every vertex has degree 4
    for v in c.graph.white_ids + c.graph.black_ids:
        for part in splits:
            c2 = add_degree2(c, v, part, forced_split_label(c, v, part))
            assert validate_graph(c2.graph).ok, (v, part)
            assert c2.graph.basis_cycles is not None, (v, part)
            for walk in c2.graph.basis_cycles:
                check_walk(c2.graph, walk)
            assert class_equal(cohomology_class(c2), cls), (v, part)


def test_move_preservation_on_qnet_fixture():
    _, _, c = make_qnet_fixture()
    c1 = urban_renewal(c, "F0x1")
    assert validate_graph(c1.graph).ok
    assert check_V(c1).ok and check_F(c1).ok


def test_apply_script_empty_is_identity(pentagon):
    out = apply_script(pentagon, MoveScript(()))
    assert out is pentagon


def test_apply_script_bad_target_reports_index(pentagon):
    script = MoveScript((MoveStep("urban", "d0"), MoveStep("urban", "nonsense")))
    with pytest.raises(ScriptError) as err:
        apply_script(pentagon, script)
    assert err.value.step_index == 1


def test_script_json_round_trip():
    script = MoveScript(
        (
            MoveStep("urban", "d0"),
            MoveStep("remove2", "P0"),
            MoveStep("add2", "q1", hyperplane(1, 2, 3), (0, 2)),
        )
    )
    data = script_to_json(script)
    back = script_from_json(data)
    assert back.steps[0] == script.steps[0]
    assert back.steps[2].partition == (0, 2)
    assert proj_equal(back.steps[2].label, script.steps[2].label)


# ------------------------------------------------- random move sequences


@functools.lru_cache(maxsize=None)
def _start(name):
    """(configuration, its class, its normalized white-data curve)."""
    c = {
        "pentagram-7/2": lambda: make_pentagram_fixture(7, 2)[3],
        "spiral": lambda: make_spiral_fixture()[2],
        "qnet-4x4": lambda: make_qnet_fixture()[2],
    }[name]()
    return c, cohomology_class(c), spectral_polynomial_white(c).normalized().terms


def _candidates(c):
    """op -> the targets a move could take: quadrilateral faces, and for
    add2/remove2 every (vertex, partition) split and degree-two vertex."""
    g = c.graph
    inc = vertex_edges(g)
    out = {"urban": [(f.id, None) for f in g.faces if len(f.edges) == 4], "add2": [], "remove2": []}
    for v in g.white_ids + g.black_ids:
        deg = len(inc[v])
        if deg == 2:
            out["remove2"].append((v, None))
        out["add2"] += [(v, (i, j)) for i in range(deg) for j in range(i + 1, deg + 1) if j - i < deg]
    return {op: targets for op, targets in out.items() if targets}


def _apply(c, op, target, partition):
    if op == "urban":
        return urban_renewal(c, target)
    if op == "remove2":
        return remove_degree2(c, target)
    return add_degree2(c, target, partition, forced_split_label(c, target, partition))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["pentagram-7/2", "spiral", "qnet-4x4"]), data=st.data())
def test_random_move_sequences_keep_conditions_class_and_curve(name, data):
    c, cls, curve = _start(name)
    applied = 0
    for _ in range(data.draw(st.integers(1, 4), label="length")):
        cands = _candidates(c)
        op = data.draw(st.sampled_from(sorted(cands)), label="op")
        target, partition = data.draw(st.sampled_from(cands[op]), label="target")
        try:
            c = _apply(c, op, target, partition)
        except MoveError:
            continue  # not a legal move here (degenerate meet, label mismatch, ...)
        applied += 1
        g = c.graph
        assert g.basis_cycles is not None
        assert validate_graph(g).ok, (op, target, validate_graph(g))
        assert check_V(c).ok and check_F(c).ok, (op, target)
        assert cohomology_class(c) == cohomology_class(c, *canonical_basis_cycles(g)) == cls, (op, target)
        assert spectral_polynomial_white(c).normalized().terms == curve, (op, target)
    assume(applied)
