import copy
import functools
import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimergeom.config import (
    DoubleCircuitConfig,
    check_F,
    check_V,
    cohomology_class,
    config_from_dict,
    config_to_dict,
)
from dimergeom.errors import (
    BadPartition,
    DegenerateMeet,
    DegreeOverflow,
    IncidentLabel,
    LabelMismatch,
    MoveError,
    NotQuadrilateral,
    ScriptError,
    WrongDegree,
)
from dimergeom.fixtures import (
    SPIRAL_BASE,
    SPIRAL_K,
    SPIRAL_N,
    make_pentagram_fixture,
    make_qnet_fixture,
    make_spiral_fixture,
)
from dimergeom.geometry import hyperplane, incident, line_through, meet_hyperplanes, point, proj_equal
from dimergeom.moves import (
    _closed,
    _opened,
    _rotation_at,
    forced_split_label,
    MoveScript,
    MoveStep,
    add_degree2,
    apply_script,
    relabel,
    remove_degree2,
    rename_faces_like,
    script_from_json,
    script_to_json,
    step_on_config,
    urban_renewal,
)
from dimergeom.pentagram import build_pentagram_graph, formula, pentagram_step_on_config
from dimergeom.qnet import qnet_step_on_config
from dimergeom.spectral import spectral_polynomial_white
from dimergeom.spiral import spiral_step_on_config
from dimergeom.torusgraph import (
    Edge,
    Event,
    Face,
    GraphEdit,
    TorusGraph,
    canonical_basis_cycles,
    check_walk,
    delete_edge,
    face_key,
    validate_graph,
    vertex_edges,
)
from helpers import class_equal, rescaled_config, seeded_qnet_config, with_walks


@pytest.fixture()
def pentagon():
    return make_pentagram_fixture(5, 2)[3]


def euler(g):
    return len(g.white_ids) + len(g.black_ids) - len(g.edges) + len(g.faces)


def test_add_then_remove_round_trip(pentagon):
    c = pentagon
    lbl = forced_split_label(c, "P0", (0, 2))
    c2 = add_degree2(c, "P0", (0, 2), lbl)
    rep = validate_graph(c2.graph)
    assert rep.ok
    assert check_V(c2).ok and check_F(c2).ok
    assert euler(c2.graph) == euler(c.graph)
    c3 = remove_degree2(c2, "P0~")
    assert validate_graph(c3.graph).ok
    assert len(c3.graph.edges) == len(c.graph.edges)
    assert check_V(c3).ok and check_F(c3).ok


def test_add_degree2_black_vertex(pentagon):
    # the circuit condition at the split copies forces the middle point to
    # be the meet of the two arc spans; check_V then passes exactly
    c = pentagon
    pt = forced_split_label(c, "q1", (1, 3))
    assert abs(sum(a * b for a, b in zip(pt.coords, c.black_labels["q1"].coords))) != 0
    c2 = add_degree2(c, "q1", (1, 3), pt)
    assert validate_graph(c2.graph).ok
    assert check_V(c2).ok and check_F(c2).ok


def test_add_degree2_generic_label_breaks_V_but_not_F(pentagon):
    # coherence survives any admissible label (telescoping identity); the
    # circuit condition pins the label itself
    c2 = add_degree2(pentagon, "q1", (1, 3), point(5, 7, 1))
    assert check_F(c2).ok
    assert not check_V(c2).ok


def test_remove_degree2_wrong_degree(pentagon):
    with pytest.raises(WrongDegree):
        remove_degree2(pentagon, "P0")


def test_remove_degree2_label_mismatch(pentagon):
    c = add_degree2(pentagon, "P0", (0, 2), hyperplane(3, 1, 1))
    wl = dict(c.white_labels)
    wl["P0'"] = point(9, 9, 1)
    broken = DoubleCircuitConfig(c.graph, c.d, wl, c.black_labels)
    with pytest.raises(LabelMismatch):
        remove_degree2(broken, "P0~")


def test_remove_degree2_refuses_a_merge_above_degree_d_plus_2(pentagon):
    # P0 and its twin P0' keep 3 edges each; with d = 1 the merge would
    # give degree 4 > d + 2
    c = add_degree2(pentagon, "P0", (0, 2), forced_split_label(pentagon, "P0", (0, 2)))
    low = DoubleCircuitConfig(c.graph, 1, c.white_labels, c.black_labels)
    with pytest.raises(DegreeOverflow) as err:
        remove_degree2(low, "P0~")
    assert str(err.value) == "merging P0 and P0' exceeds degree d+2 = 3"


def test_remove_degree2_refuses_parallel_edges_of_different_h():
    # W's two edges both end at B; removing W would drop the cycle of h (1, 0)
    g = TorusGraph(("W",), ("B",), (Edge("W", "B", (0, 0)), Edge("W", "B", (1, 0))), ())
    c = DoubleCircuitConfig(g, 2, {"W": point(1, 2, 3)}, {"B": hyperplane(1, 1, 1)})
    with pytest.raises(MoveError) as err:
        remove_degree2(c, "W")
    assert type(err.value) is MoveError
    assert str(err.value) == "parallel edges at W have different h; removal would change homology"


def test_a_face_read_in_a_batch_is_rewritten_first(pentagon):
    # renewing d0 replaces edges of s0 by paths; the renewal of s0 in the
    # same batch reads its rewritten walk, a hexagon
    batch = _opened(pentagon)
    urban_renewal(batch, "d0")
    with pytest.raises(NotQuadrilateral) as err:
        urban_renewal(batch, "s0")
    assert str(err.value) == "face s0 has 6 boundary edges"
    script = MoveScript((MoveStep("urban", "d0"), MoveStep("urban", "s0")))
    with pytest.raises(ScriptError) as err:
        apply_script(pentagon, script)
    assert str(err.value) == "script step 1 failed: face s0 has 6 boundary edges"


def test_rename_faces_like_refuses_an_ambiguous_match(pentagon):
    # a second face on the first one's walk, in the template or in c, and
    # a template without the first face
    g = pentagon.graph
    first = g.faces[0]

    def with_faces(faces):
        return TorusGraph(g.white_ids, g.black_ids, g.edges, faces, g.basis_cycles)

    twice = with_faces((*g.faces, Face("twin", first.edges)))
    with pytest.raises(MoveError, match="^template faces are not distinguishable by vertex cycles$"):
        rename_faces_like(pentagon, twice)
    with pytest.raises(MoveError) as err:
        rename_faces_like(pentagon, with_faces(g.faces[1:]))
    assert str(err.value) == f"face {first.id} has no template counterpart: {face_key(g, first)}"
    doubled = DoubleCircuitConfig(twice, pentagon.d, pentagon.white_labels, pentagon.black_labels)
    with pytest.raises(MoveError, match="^face matching is not a bijection$"):
        rename_faces_like(doubled, g)


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
    # a corner of degree 2 has no other neighbors: the meet is undefined.
    # A split adds two edges to each face through its new vertex, so that
    # vertex lies on a quadrilateral only when the split opens a bigon:
    # edge 0 of the 5/2 fixture is doubled, the copy bounding a new face
    # "bigon" with it, and its black end q0 is split between the two
    c = make_pentagram_fixture(5, 2)[3]
    g, n = c.graph, len(c.graph.edges)
    doubled = next(f for f in g.faces if 0 in f.edges)
    faces = [Face(f.id, tuple(n if f is doubled and s == 0 else s for s in f.edges)) for f in g.faces]
    g = TorusGraph(g.white_ids, g.black_ids, (*g.edges, g.edges[0]), (*faces, Face("bigon", (0, n))))
    assert validate_graph(g).ok and g.edges[0].b == "q0"
    c1 = add_degree2(DoubleCircuitConfig(g, c.d, c.white_labels, c.black_labels), "q0", (0, 1), point(5, 7, 1))
    bigon = next(f for f in c1.graph.faces if f.id == "bigon")
    assert len(bigon.edges) == 4 and "q0~" in {c1.graph.edges[e].w for e in bigon.edges}
    assert len(c1.graph.incidence()["q0~"]) == 2
    with pytest.raises(DegenerateMeet, match=r"^corner B of bigon has degree 2; meet undefined$"):
        urban_renewal(c1, "bigon")


def _with_c_neighbours(c, face_id, coords):
    """c with the white neighbours of the face's corner c, other than A and
    B, relabelled by coords in turn; (config, A, B)."""
    g = c.graph
    i0, i1 = next(f for f in g.faces if f.id == face_id).edges[:2]
    A, cb, B = g.edges[i0].w, g.edges[i0].b, g.edges[i1].w
    others = [g.edges[ei].w for ei in g.incidence()[cb] if ei not in (i0, i1)]
    wl = dict(c.white_labels)
    for v, xs in zip(others, coords):
        wl[v] = point(*xs)
    return DoubleCircuitConfig(g, c.d, wl, c.black_labels), wl[A], wl[B]


def test_urban_renewal_names_the_meet_rank(pentagon):
    # both other neighbours of c at one point off the line AB: the meet E is
    # empty; both on the line AB: E is the whole line, of rank 2
    c, A, B = _with_c_neighbours(pentagon, "d0", [(1, 0, 0), (2, 0, 0)])
    assert not incident(line_through(A, B), point(1, 0, 0))
    with pytest.raises(DegenerateMeet, match=r"^E of d0: empty meet$"):
        urban_renewal(c, "d0")
    on_ab = [tuple(a + s * b for a, b in zip(A.coords, B.coords)) for s in (1, 2)]
    c, _, _ = _with_c_neighbours(pentagon, "d0", on_ab)
    with pytest.raises(DegenerateMeet, match=r"^E of d0: meet has rank 2$"):
        urban_renewal(c, "d0")


def _with_p0_neighbours(c, coords):
    """c with the black neighbours of P0, in rotation order, relabelled by
    the lines coords in turn."""
    g = GraphEdit(c.graph)
    bl = dict(c.black_labels)
    for ei, xs in zip(_rotation_at(g, "P0"), coords):
        bl[g.edge(ei).b] = hyperplane(*xs)
    return DoubleCircuitConfig(c.graph, c.d, c.white_labels, bl)


def test_forced_split_label_names_a_degenerate_meet(pentagon):
    # three neighbour lines through (0:0:1) and the first off it: split off
    # alone, the first misses the pencil of the other three; four lines
    # through (0:0:1): both arcs span that pencil, a meet of rank 2
    c = _with_p0_neighbours(pentagon, [(1, 1, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateMeet, match=r"^arc spans of P0 do not meet$"):
        forced_split_label(c, "P0", (0, 1))
    assert forced_split_label(c, "P0", (1, 2)) == hyperplane(1, 0, 0)
    c = _with_p0_neighbours(pentagon, [(1, -1, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateMeet, match=r"^arc spans of P0: meet has rank 2; label not determined$"):
        forced_split_label(c, "P0", (0, 2))


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
    c2 = add_degree2(c1, "P1", (0, 2), hyperplane(4, 1, 2))
    assert class_equal(cohomology_class(c2), cls)
    c3 = remove_degree2(c2, "P1~")
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


def test_script_splits_one_vertex_twice(pentagon):
    # the second split of P0 names its vertices P0'' and P0~~
    c, steps = pentagon, []
    for _ in range(2):
        label = forced_split_label(c, "P0", (0, 2))
        c = add_degree2(c, "P0", (0, 2), label)
        steps.append(MoveStep("add2", "P0", label, (0, 2)))
    out = apply_script(pentagon, MoveScript(tuple(steps)))
    assert {"P0'", "P0''"} <= set(out.graph.white_ids) and {"P0~", "P0~~"} <= set(out.graph.black_ids)
    assert validate_graph(out.graph).ok and check_V(out).ok and check_F(out).ok


def test_renewal_reports_a_vertex_already_above_degree_bound(pentagon):
    # read with d = 1, every degree-4 vertex is above d+2; the renewal
    # names the first in edge order, even one away from the renewed face
    c = DoubleCircuitConfig(pentagon.graph, 1, pentagon.white_labels, pentagon.black_labels)
    with pytest.raises(ScriptError) as err:
        apply_script(c, MoveScript((MoveStep("urban", "s3"),)))
    assert isinstance(err.value.__cause__, DegreeOverflow)
    assert str(err.value.__cause__) == "vertex P0 has degree 4 > d+2 = 3"


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
    """(the public move applied to c, the script step that makes it); an
    add2 takes the forced label."""
    label = forced_split_label(c, target, partition) if op == "add2" else None
    step = MoveStep(op, target, label, partition)
    if op == "urban":
        return urban_renewal(c, target), step
    if op == "remove2":
        return remove_degree2(c, target), step
    return add_degree2(c, target, partition, label), step


def _graph_state(g):
    """A deep copy of the graph's fields and its indices."""
    g.incidence(), g.face_ids_by_key()  # build the lazy indices first, so the copy holds them
    return copy.deepcopy([getattr(g, name) for name in TorusGraph.__slots__])


def _state(c):
    return _graph_state(c.graph), copy.deepcopy((c.white_labels, c.black_labels))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["pentagram-7/2", "spiral", "qnet-4x4"]), data=st.data())
def test_random_move_sequences_keep_conditions_class_and_curve(name, data):
    # also: a move leaves its input as it was, the cached template (the
    # 7/2 fixture's graph) included, and a script equals its moves folded
    start, cls, curve = _start(name)
    template = _graph_state(build_pentagram_graph(7, 2))
    c, steps = start, []
    for _ in range(data.draw(st.integers(1, 4), label="length")):
        cands = _candidates(c)
        op = data.draw(st.sampled_from(sorted(cands)), label="op")
        target, partition = data.draw(st.sampled_from(cands[op]), label="target")
        before = _state(c)
        try:
            nxt, step = _apply(c, op, target, partition)
        except MoveError:
            assert _state(c) == before, (op, target)
            continue  # not a legal move here (degenerate meet, label mismatch, ...)
        assert _state(c) == before, (op, target)
        c = nxt
        steps.append(step)
        g = c.graph
        assert g.basis_cycles is not None
        assert validate_graph(g).ok, (op, target, validate_graph(g))
        assert check_V(c).ok and check_F(c).ok, (op, target)
        assert cohomology_class(c) == cohomology_class(with_walks(c, *canonical_basis_cycles(g))) == cls, (op, target)
        assert spectral_polynomial_white(c).normalized().terms == curve, (op, target)
    assume(steps)
    assert config_to_dict(apply_script(start, MoveScript(tuple(steps)))) == config_to_dict(c)
    assert _graph_state(build_pentagram_graph(7, 2)) == template


# ------------------------------------ a script equals its moves folded


def _single_move(c, step):
    """The single-move call that a script step stands for."""
    if step.op == "urban":
        return urban_renewal(c, step.target)
    if step.op == "remove2":
        return remove_degree2(c, step.target)
    return add_degree2(c, step.target, step.partition, step.label)


def _event(idx, step, c):
    """The event a script records for its step idx, c the result."""
    return Event(step.op, step.target, idx, c.graph.sizes())


def _folded(start, steps):
    """(config_to_dict, or (index, cause type, message) of the first
    failing step; the events) of the steps folded one call at a time."""
    c, events = start, []
    for idx, step in enumerate(steps):
        try:
            c = _single_move(c, step)
        except MoveError as exc:
            return (idx, type(exc), str(exc)), events
        events.append(_event(idx, step, c))
    return config_to_dict(c), events


def _scripted(start, steps):
    """The same pair from one apply_script call."""
    events = []
    try:
        return config_to_dict(apply_script(start, MoveScript(tuple(steps)), events)), events
    except ScriptError as err:
        return (err.step_index, type(err.__cause__), str(err.__cause__)), events


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["pentagram-7/2", "spiral", "qnet-4x4"]), data=st.data())
def test_apply_script_equals_the_moves_folded(name, data):
    # steps drawn like the sequences above, add2 included, plus steps that
    # fail: renewals of any face and removals of any vertex (or of ids
    # that do not exist); a failing step ends the script
    start = c = _start(name)[0]
    steps = []
    for _ in range(data.draw(st.integers(1, 8), label="length")):
        g, cands = c.graph, _candidates(c)
        op = data.draw(st.sampled_from(sorted(cands) + ["any"]), label="op")
        if op == "any":
            anything = [("urban", f.id) for f in g.faces] + [("remove2", v) for v in g.white_ids + g.black_ids]
            op, target = data.draw(st.sampled_from(anything + [("urban", "nowhere"), ("remove2", "nobody")]))
            partition = None
        else:
            target, partition = data.draw(st.sampled_from(cands[op]), label="target")
        try:
            label = forced_split_label(c, target, partition) if op == "add2" else None
        except MoveError:
            continue
        steps.append(MoveStep(op, target, label, partition))
        try:
            c = _single_move(c, steps[-1])
        except MoveError:
            break
    assume(steps)
    assert _scripted(start, steps) == _folded(start, steps)


def _steps(start, moves):
    """Script steps for (op, target, partition) moves, add2 taking the
    label forced at its place in the fold, up to the first failing one."""
    c, steps = start, []
    for op, target, partition in moves:
        label = forced_split_label(c, target, partition) if op == "add2" else None
        steps.append(MoveStep(op, target, label, partition))
        try:
            c = _single_move(c, steps[-1])
        except MoveError:
            break
    return steps


@pytest.mark.parametrize(
    "moves",
    [
        # the second renewal reads a face the first one changed
        [("urban", "s0", None), ("urban", "d1", None)],
        # the second renewal replaces edges the first one made
        [("urban", "d0", None), ("urban", "d0:inner", None)],
        # a removal after insertions
        [("add2", "q2", (1, 3)), ("add2", "q2", (0, 2)), ("remove2", "q2~", None)],
    ],
)
def test_scripts_that_rewrite_within_a_batch_equal_the_fold(moves):
    c = _start("pentagram-7/2")[0]
    steps = _steps(c, moves)
    assert _scripted(c, steps) == _folded(c, steps)


def _extended(c, edges=(), faces=None, basis=None, white=(), black=(), labels=()):
    """c with edges, faces, basis cycles, vertices and labels added or
    replaced, and d one higher so the added degrees stay in bound."""
    g = c.graph
    wl, bl = dict(c.white_labels), dict(c.black_labels)
    for v, label in labels:
        (wl if v in white else bl)[v] = label
    graph = TorusGraph(
        g.white_ids + white, g.black_ids + black, g.edges + edges, faces or g.faces, basis or g.basis_cycles
    )
    assert validate_graph(graph).ok
    return DoubleCircuitConfig(graph, c.d + 1, wl, bl)


def test_a_basis_cycle_that_backtracks_is_rewritten_move_by_move():
    # the stored cycle x p z p^-1 x^-1 cancels its detour on its first
    # rewrite, and the fold's later rewrites start from that
    c = _start("spiral")[0]
    g, inc = c.graph, vertex_edges(c.graph)
    z1, z2 = g.basis_cycles
    w0 = g.edges[z1[0]].w
    detour = next(
        (x, e1, e2, e3)
        for x in inc[w0]
        for e1 in inc[g.edges[x].b] if e1 != x
        for e2 in inc[g.edges[e1].w] if e2 != e1
        for e3 in inc[g.edges[e2].b] if e3 != e2 and g.edges[e3].w == w0
    )
    c = _extended(c, basis=(detour + z1 + detour[::-1], z2))
    steps = _steps(c, [("add2", "P1", (1, 3)), ("urban", "s5", None)])
    assert _scripted(c, steps) == _folded(c, steps)


def test_a_face_through_a_degree_one_vertex_is_rewritten_move_by_move():
    # F0x0 starts and ends on the edge to a new degree-one vertex U, so
    # its first rewrite cancels that edge across the end
    c = _start("qnet-4x4")[0]
    g = c.graph
    f = next(f for f in g.faces if f.id == "F0x0")
    new = len(g.edges)
    faces = tuple(Face(f.id, (new,) + f.edges[1:] + f.edges[:1] + (new,)) if h is f else h for h in g.faces)
    u_edge = Edge("U", g.edges[f.edges[0]].b, (0, 0))
    c = _extended(c, (u_edge,), faces, white=("U",), labels=[("U", point(2, 3, 4, 5))])
    steps = _steps(c, [("urban", "F0x1", None), ("urban", "F0x3", None)])
    assert _scripted(c, steps) == _folded(c, steps)


def test_removing_a_vertex_on_parallel_edges_empties_its_face_at_once():
    # V is joined to a new black B by two parallel edges that bound the face
    # G; B hangs off P0 by the edge y.  Removing V empties G, which the
    # script's events count at once, as the fold does
    c = _start("pentagram-7/2")[0]
    g = c.graph
    f = g.faces[0]
    y, p1, p2 = range(len(g.edges), len(g.edges) + 3)
    new_edges = (Edge(g.edges[f.edges[0]].w, "B", (0, 0)), Edge("V", "B", (0, 0)), Edge("V", "B", (0, 0)))
    faces = (Face(f.id, (y, p1, p2, y) + f.edges),) + g.faces[1:] + (Face("G", (p1, p2)),)
    labels = [("V", point(2, 3, 5)), ("B", hyperplane(7, 1, 3))]
    c = _extended(c, new_edges, faces, white=("V",), black=("B",), labels=labels)
    steps = _steps(c, [("remove2", "V", None), ("urban", "d5", None)])
    assert _scripted(c, steps) == _folded(c, steps)


def test_two_removals_rewrite_one_edge_at_both_ends():
    # in the pentagram 12/2 step, the forced removals merge both ends of
    # some inner edge of a renewed tile: the batch must compose the two
    # merges and h shifts on that edge
    c = make_pentagram_fixture(12, 2)[3]
    mid = apply_script(c, MoveScript(tuple(MoveStep("urban", f"d{i}") for i in range(12))))
    inc = mid.graph.incidence()
    steps = [MoveStep("remove2", v) for v in c.graph.white_ids + c.graph.black_ids if len(inc[v]) == 2]
    assert _scripted(mid, steps) == _folded(mid, steps)
    # one open batch keeps mid's slots until it closes
    batch = _opened(mid)
    for step in steps:
        remove_degree2(batch, step.target)
    g = batch.graph
    kept = {s for ix in g.incidence().values() for s in ix}
    both = [s for s in kept if mid.graph.edges[s].w != g.edge(s).w and mid.graph.edges[s].b != g.edge(s).b]
    assert both


def _numbered_by_position(g) -> bool:
    """Whether the slots a closed graph's faces name are exactly its edge
    positions."""
    return {s for f in g.faces for s in f.edges} == set(range(len(g.edges)))


@pytest.mark.parametrize(
    "name, renew",
    [
        ("pentagram-7/2", [f"d{i}" for i in range(7)]),
        ("spiral", ["d1"]),
        ("qnet-4x4", [f"F{i}x{j}" for i in range(4) for j in range(4) if (i + j) % 2 == 0]),
    ],
)
def test_a_closed_batch_numbers_its_edges_by_position(name, renew):
    # a step's renewals and forced removals as one script: the removals
    # leave gaps among the batch's slots, which closing it renumbers
    c = _start(name)[0]
    renewals = tuple(MoveStep("urban", f) for f in renew)
    inc = apply_script(c, MoveScript(renewals)).graph.incidence()
    removals = tuple(MoveStep("remove2", v) for v in c.graph.white_ids + c.graph.black_ids if len(inc[v]) == 2)
    assert removals
    g = apply_script(c, MoveScript(renewals + removals)).graph
    assert _numbered_by_position(g) and validate_graph(g).ok
    cut = delete_edge(c.graph, 0, "merged")
    assert _numbered_by_position(cut) and len(cut.edges) == len(c.graph.edges) - 1


BATCH_STEPS = {
    "pentagram-16/3": (lambda: make_pentagram_fixture(16, 3)[3], lambda c: pentagram_step_on_config(c, 3)),
    "spiral": (lambda: make_spiral_fixture()[2], lambda c: spiral_step_on_config(c, SPIRAL_K, SPIRAL_N, SPIRAL_BASE)),
    "qnet-4x4": (lambda: make_qnet_fixture()[2], lambda c: qnet_step_on_config(c, 4, 4, 1)),
}


def _cold(c):
    """c on a copy of its graph, which has no plans recorded."""
    g = c.graph
    graph = TorusGraph(g.white_ids, g.black_ids, g.edges, g.faces, g.basis_cycles)
    return DoubleCircuitConfig(graph, c.d, c.white_labels, c.black_labels)


def _counted_batches(monkeypatch) -> dict:
    """Counts of the batches opened and closed, and of their walk rewrites."""
    calls = {"open": 0, "close": 0, "rewrite": 0}
    init, close, substitute = GraphEdit.__init__, GraphEdit.close, GraphEdit.substitute_edges

    def counted_init(self, g):
        calls["open"] += 1
        init(self, g)

    def counted_close(self):
        calls["close"] += 1
        return close(self)

    def counted_substitute(self):
        calls["rewrite"] += bool(self._paths)
        substitute(self)

    monkeypatch.setattr(GraphEdit, "__init__", counted_init)
    monkeypatch.setattr(GraphEdit, "close", counted_close)
    monkeypatch.setattr(GraphEdit, "substitute_edges", counted_substitute)
    return calls


@pytest.mark.parametrize("name", BATCH_STEPS)
def test_a_dynamics_step_is_one_batch(monkeypatch, name):
    # a step that records its plan: the renewals and the forced removals
    # edit one open graph, which rewrites its walks at the first forced
    # removal and at its close
    start, step = BATCH_STEPS[name]
    c = _cold(start())
    calls = _counted_batches(monkeypatch)
    step(c)
    assert calls == {"open": 1, "close": 1, "rewrite": 2}


@pytest.mark.parametrize("name", BATCH_STEPS)
def test_a_replayed_step_opens_no_batch(monkeypatch, name):
    start, step = BATCH_STEPS[name]
    c = _cold(start())
    step(c)
    calls = _counted_batches(monkeypatch)
    step(c)
    assert calls == {"open": 0, "close": 0, "rewrite": 0}


# ------------------------------------------- a replayed step is the moves


def _qnet_chain_step(a):
    def step(c, _i):
        i, j = c.graph.white_ids[0][1:].split("x")
        return qnet_step_on_config(c, a, a, 1 - (int(i) + int(j)) % 2)

    return step


def _pentagram_chain(n, k):
    return lambda: make_pentagram_fixture(n, k)[3], lambda c, _i: pentagram_step_on_config(c, k), 6


# name -> (start, step(c, i), steps)
PLAN_CHAINS = {
    **{f"pentagram-{n}/{k}": _pentagram_chain(n, k) for n, k in ((5, 2), (7, 2), (7, 3), (8, 3), (9, 4), (12, 5), (16, 3))},
    "qnet-4x4": (lambda: make_qnet_fixture()[2], _qnet_chain_step(4), 6),
    "qnet-6x6": (lambda: seeded_qnet_config(6, 5), _qnet_chain_step(6), 6),
    "spiral": (
        lambda: make_spiral_fixture()[2],
        lambda c, i: spiral_step_on_config(c, SPIRAL_K, SPIRAL_N, SPIRAL_BASE + i),
        26,
    ),
}


def _float_twin(c):
    return config_from_dict({**config_to_dict(c), "scalar": "float"})


def _chain_states(c, step, steps, cold):
    """(the bytes, graph and label-dict key orders of every state of the
    chain from c, and the first error as (step, type, message) or None).
    A cold chain steps each state on a copy of its graph, which has no
    plans, and lists each output twice; otherwise each state is stepped
    twice, the second step replays the first one's plan, both outputs are
    listed, and the state's graph holds that one plan."""
    c = _cold(c)
    states, error = [c], None
    for i in range(steps):
        try:
            outs = [step(_cold(c), i)] * 2 if cold else [step(c, i), step(c, i)]
        except MoveError as exc:
            error = (i, type(exc), str(exc))
            break
        assert cold or len(c.graph._plans) == 1
        states += outs
        c = outs[1]
    seen = [(json.dumps(config_to_dict(s)), s.graph, list(s.white_labels), list(s.black_labels)) for s in states]
    return seen, error


@pytest.mark.parametrize("scalar", ["exact", "float"])
@pytest.mark.parametrize("name", PLAN_CHAINS)
def test_a_chain_that_replays_its_plans_equals_the_moves(name, scalar):
    start, step, steps = PLAN_CHAINS[name]
    c = start() if scalar == "exact" else _float_twin(start())
    assert _chain_states(c, step, steps, False) == _chain_states(c, step, steps, True)


def test_states_on_one_graph_replay_its_plan():
    # the formula's pentagram 12/2 positions all sit on the cached template
    g = build_pentagram_graph(12, 2)
    positions = [make_pentagram_fixture(12, 2)[3]]
    for _ in range(3):
        positions.append(formula(positions[-1]))
    assert all(p.graph is g for p in positions)
    g._plans = None  # so the first step records, whatever earlier tests stepped
    outs = [pentagram_step_on_config(positions[0], 2)]
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_batches(mp)
        outs += [pentagram_step_on_config(p, 2) for p in positions[1:]]
    assert calls == {"open": 0, "close": 0, "rewrite": 0}
    assert len(g._plans) == 1
    for p, out in zip(positions, outs):
        cold = pentagram_step_on_config(_cold(p), 2)
        assert json.dumps(config_to_dict(out)) == json.dumps(config_to_dict(cold))
        assert out.graph == cold.graph


@pytest.mark.parametrize("name", ["pentagram-16/3", "qnet-4x4", "spiral"])
def test_a_step_output_is_a_fresh_graph(name):
    start, step, _ = PLAN_CHAINS[name]
    c = _cold(start())
    step(c, 0)
    first, second = step(c, 0), step(c, 0)
    assert first.graph == second.graph and first.graph is not second.graph
    assert first.graph._plans is None and second.graph._plans is None
    step(first, 1)
    assert len(first.graph._plans) == len(c.graph._plans) == 1 and second.graph._plans is None


def test_one_qnet_graph_keeps_a_plan_per_parity():
    c = _cold(make_qnet_fixture()[2])
    for parity in (0, 1, 0, 1):
        qnet_step_on_config(c, 4, 4, parity)
    assert len(c.graph._plans) == 2


def _outcome(step, c):
    """(type, message) of the error the step raises."""
    with pytest.raises(MoveError) as err:
        step(c)
    return type(err.value), str(err.value)


def test_a_replayed_step_raises_the_degenerate_meet_of_the_moves(monkeypatch):
    # the second step of the seed-16 8/3 pentagram, from a graph that a
    # step with the seed-0 labels has recorded its plan on
    def step(c):
        return pentagram_step_on_config(c, 3)

    c = _cold(make_pentagram_fixture(8, 3)[3])
    seed16 = make_pentagram_fixture(8, 3, seed=16)[3]
    good, nxt = step(c), step(DoubleCircuitConfig(c.graph, c.d, seed16.white_labels, seed16.black_labels))
    expected = (DegenerateMeet, "h of d2: meet has rank 2")
    assert _outcome(step, _cold(nxt)) == expected
    assert good.graph == nxt.graph
    step(DoubleCircuitConfig(nxt.graph, c.d, good.white_labels, good.black_labels))
    calls = _counted_batches(monkeypatch)
    assert _outcome(step, nxt) == expected
    assert calls["open"] == 0


def _split_pentagram():
    """(the 7/2 pentagram with q1 split by add2, a step that removes the
    degree-two q1~ again and renames to the pentagram's faces)."""
    c = make_pentagram_fixture(7, 2)[3]
    split = add_degree2(c, "q1", (0, 2), forced_split_label(c, "q1", (0, 2)))
    return _cold(split), lambda x: step_on_config(x, [], str, str, c.graph)


def test_a_replayed_step_raises_the_label_mismatch_of_the_moves(monkeypatch):
    c, step = _split_pentagram()
    assert step(c).graph == make_pentagram_fixture(7, 2)[3].graph
    bl = {**c.black_labels, "q1'": hyperplane(1, 2, 3)}
    bad = DoubleCircuitConfig(c.graph, c.d, c.white_labels, bl)
    expected = (LabelMismatch, "neighbors q1, q1' of q1~ carry different labels")
    assert _outcome(step, _cold(bad)) == expected
    calls = _counted_batches(monkeypatch)
    assert _outcome(step, bad) == expected
    assert calls["open"] == 0


def test_a_step_in_a_smaller_dimension_raises_the_degree_overflow_of_the_moves():
    c = _cold(make_pentagram_fixture(7, 2)[3])
    pentagram_step_on_config(c, 2)
    flat = c._replace(d=1)
    expected = _outcome(lambda x: pentagram_step_on_config(x, 2), _cold(flat))
    assert expected[0] is DegreeOverflow
    assert _outcome(lambda x: pentagram_step_on_config(x, 2), flat) == expected


def test_a_rule_that_fails_on_an_id_the_moves_never_give_it_leaves_the_step_to_them():
    # the spiral step renews d1 alone and renames only the vertices it
    # makes, so its rules never read P4: the step reaches the face match
    odd = relabel(make_spiral_fixture()[2], {"P4": "Px"})
    with pytest.raises(MoveError, match=r"face d2 has no template counterpart: \('P2', 'q1', 'Px', 'q2'\)"):
        spiral_step_on_config(odd, SPIRAL_K, SPIRAL_N, SPIRAL_BASE)


@pytest.mark.parametrize(
    "moves",
    [
        # the removal deletes the edges of the split's path through q1
        [("add2", "q1", (0, 2)), ("remove2", "q1~", None)],
        # the second renewal replaces edges on the first one's paths
        [("urban", "d0", None), ("urban", "d0:inner", None)],
    ],
)
def test_a_batch_rewrites_before_a_move_replaces_an_edge_on_a_logged_path(monkeypatch, moves):
    # moves on one open batch, with no rewrite between them as a script
    # makes, end as the fold does
    c = _start("pentagram-7/2")[0]
    steps = _steps(c, moves)
    folded = _folded(c, steps)[0]
    rewrites = []
    substitute = GraphEdit.substitute_edges

    def counted_substitute(self):
        rewrites.append(bool(self._paths))
        substitute(self)

    monkeypatch.setattr(GraphEdit, "substitute_edges", counted_substitute)
    batch = _opened(c)
    for step in steps:
        _single_move(batch, step)
    assert config_to_dict(_closed(batch)) == folded
    assert rewrites.count(True) == 2


def test_a_batch_does_not_open_on_repeated_face_ids():
    # the batch keys its faces by id, so a graph that validate reports
    # with repeated face ids is refused before any move
    c = _start("pentagram-7/2")[0]
    g = c.graph
    faces = (Face(g.faces[1].id, g.faces[0].edges), *g.faces[1:])
    twice = TorusGraph(g.white_ids, g.black_ids, g.edges, faces, g.basis_cycles)
    assert validate_graph(twice).violations == ["duplicate face ids"]
    with pytest.raises(MoveError, match="^duplicate face ids$"):
        GraphEdit(twice)
    with pytest.raises(MoveError, match="^duplicate face ids$"):
        urban_renewal(DoubleCircuitConfig(twice, c.d, c.white_labels, c.black_labels), faces[2].id)


def test_renewals_at_corner_sharing_faces_equal_the_fold():
    # renewed faces of a step share corners but no edge
    for name, faces in (("pentagram-7/2", ["d0", "d1", "d4"]), ("qnet-4x4", ["F0x1", "F1x0", "F1x2", "F2x1"])):
        c = _start(name)[0]
        walks = [set(f.edges) for f in c.graph.faces if f.id in faces]
        corners = [{v for s in w for v in (c.graph.edges[s].w, c.graph.edges[s].b)} for w in walks]
        assert all(not walks[i] & walks[j] for i, j in combinations(range(len(faces)), 2))
        assert any(corners[i] & corners[j] for i, j in combinations(range(len(faces)), 2))
        steps = [MoveStep("urban", f) for f in faces]
        assert _scripted(c, steps) == _folded(c, steps)


# ------------------------------------------- pinned outputs of the moves


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


QNET_8X8_SEED = 601


def _chain(name):
    """config_to_dict of every state of a fixed step chain."""
    if name.startswith("pentagram"):
        n, k, steps = {
            "pentagram-7/2": (7, 2, 3),
            "pentagram-9/4": (9, 4, 2),
            "pentagram-64/2": (64, 2, 2),
            "pentagram-64/3": (64, 3, 2),
        }[name]
        c = make_pentagram_fixture(n, k)[3]

        def step(c, _i):
            return pentagram_step_on_config(c, k)

    elif name == "spiral":
        c, steps = make_spiral_fixture()[2], 4

        def step(c, i):
            return spiral_step_on_config(c, SPIRAL_K, SPIRAL_N, SPIRAL_BASE + i)

    else:
        a, steps = {"qnet-4x4": 4, "qnet-8x8": 8}[name], 2
        c = make_qnet_fixture()[2] if a == 4 else seeded_qnet_config(a, QNET_8X8_SEED)

        def step(c, _i):
            i, j = c.graph.white_ids[0][1:].split("x")
            return qnet_step_on_config(c, a, a, 1 - (int(i) + int(j)) % 2)

    states = [config_to_dict(c)]
    for i in range(steps):
        c = step(c, i)
        states.append(config_to_dict(c))
    return states


def _drawn_sequence(seed, length=5):
    """(start name, legal moves, result) of a seeded random move sequence
    drawn like the property below; an add2 whose default ids are taken is
    not drawn."""
    rng = random.Random(seed)
    name = ("pentagram-7/2", "spiral", "qnet-4x4")[seed % 3]
    c = _start(name)[0]
    moves = []
    for _ in range(4 * length):
        if len(moves) == length:
            break
        cands = _candidates(c)
        op = rng.choice(sorted(cands))
        target, partition = rng.choice(cands[op])
        if op == "add2" and {f"{target}'", f"{target}~"} & set(c.graph.white_ids + c.graph.black_ids):
            continue
        try:
            c = _apply(c, op, target, partition)[0]
        except MoveError:
            continue
        moves.append((op, target, partition))
    return name, moves, c


# sha256 of the outputs of the edge-renumbering move implementation that
# the stable-slot graph core replaced; outputs must stay byte-identical.
# pentagram-64/2 and qnet-8x8, the benchmark's large dynamics shapes, were
# pinned on the geometry before its exact primitives read the int rows in
# one pass
PINNED_CHAINS = {
    "pentagram-7/2": "359fdcf3fe2d23de1eeb3529772250e2a73c1a50d29842868d4ffb2df122bcc7",
    "pentagram-9/4": "d9cde680dde10f388ece287e8d5cd977d21794f2290e6bc1fac7aff272aca41f",
    "pentagram-64/2": "689483c3a559a66fda9cfc596a5172868b562694829ce8e9a8d5d65fda3dcbb4",
    "pentagram-64/3": "40d460a69bc619e5079d3ca560a70d06911254911f0850a401faba7123cb3cfe",
    "spiral": "9a6d1a76e600147069be544b2dee925a6747a8e14169231b3e6229ec18ba8a3a",
    "qnet-4x4": "63c8644439d51e57d4fa7c7e7f4bcf73d5df80913989a0fed294401526d5f09d",
    "qnet-8x8": "3a88b498a98736b8183ce9fb06c63192cdb8980234080595c25f9ef102cc596e",
}
PINNED_SEQUENCES = [
    "e73458205bc22c58bd117db32e70ca750729ccd341f555982e3beb0e1ba02b1b",
    "078cf519d7baef247da62d0ea9d73237ca29d93980cad85452f2d38a4c434655",
    "758991fd0946308f6aa60f5cb2121dc781ed1751dd11bb1fedce5721a171c80e",
    "3b5465ac91e18aa43941d2e80b05616fb6133a2733298171a4c9ed33151f0a20",
    "ab860fe659cae202bdfe6798744aebce938dd231707816a9754b11f7c4c687b3",
    "8e3e5d62254017285cdb3b0465b7050c5ae796c89ce50cbf4a4fc33d92702414",
    "fa56791d3ded198e6c7429b283a308ab0fd36e818dcce7377cab87a1015f6c05",
    "0f0ffe95f3a53a21f9a1ccbf9572d74b9929075761735f4835afad4944d03937",
    "81dd40e5daff88a2720083170b68f9f278333b875f34dd2b38a9969d0cab57d4",
    "b3ace81acae3fc69b75fde1a8b1b4336491317d9e6fa58452b770b77df3bf90b",
]


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_step_chains_match_pinned_outputs(name):
    assert _digest(_chain(name)) == PINNED_CHAINS[name]


def test_random_move_sequences_match_pinned_outputs():
    digests = []
    for seed in range(10):
        name, moves, c = _drawn_sequence(seed)
        digests.append(_digest([name, moves, config_to_dict(c)]))
    assert digests == PINNED_SEQUENCES
