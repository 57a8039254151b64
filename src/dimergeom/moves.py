"""Local moves on double circuit configurations.

Degree-two vertex removal/addition and urban renewal, with the geometric
label updates:

    E = <A, B> ^ <C_1, ..., C_k>      F = <A, B> ^ <D_1, ..., D_l>
    g = <c ^ d, a_1 ^ ... ^ a_m>      h = <c ^ d, b_1 ^ ... ^ b_n>

where A, B are the white corners of the renewed quadrilateral, c, d the
black corners, capital letters the point labels of the other neighbors of
c resp. d, and lower-case the hyperplane labels of the other neighbors of
A resp. B (the dual formulas are computed as meets of covector spans).

Homology bookkeeping keeps every face h-sum at (0, 0):

* removal of a degree-two vertex merges its neighbors; the merged
  vertex keeps the first neighbor's frame, so the second neighbor's
  edges shift by the signed h-sum of the removed length-two path;
* degree-two addition gives both new edges h = (0, 0);
* urban renewal: the spoke at white corner A inherits the h of the old
  A-c edge, the spoke at B the h of the old B-c edge, the spoke at c
  gets (0, 0), the spoke at d the remainder; inner square edges get
  (0, 0).  This is the simplest gauge satisfying all five new faces;
  any other valid choice differs by a coboundary.

A dynamics step is one ``step_on_config`` call: urban renewal at the
given faces, then removal of the forced vertices -- every pre-step vertex
the renewals left at degree two -- and a renaming back to template ids.
The pentagram, spiral and Q-net families supply only their renewal
faces, spoke rename rules and template.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .config import DoubleCircuitConfig
from .errors import (
    BadPartition,
    DegenerateMeet,
    DegreeOverflow,
    EmptyMeet,
    IncidentLabel,
    LabelMismatch,
    MoveError,
    NotQuadrilateral,
    ScriptError,
    WrongDegree,
)
from .geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    incident,
    meet,
    proj_equal,
    span,
    subspace_element,
)
from .scalars import RATIONAL, parse_scalar, scalar_str
from .torusgraph import Edge, Face, TorusGraph, vertex_edges


@dataclass(frozen=True)
class MoveStep:
    op: str  # "urban" | "remove2" | "add2"
    target: str  # face id (urban) or vertex id
    label: HomogeneousElement | None = None
    partition: tuple | None = None


@dataclass(frozen=True)
class MoveScript:
    steps: tuple

    def __len__(self):
        return len(self.steps)


def script_to_json(s: MoveScript) -> list:
    out = []
    for st in s.steps:
        entry = {"op": st.op, "target": st.target}
        if st.label is not None:
            entry["label"] = [scalar_str(x) for x in st.label.coords]
        if st.partition is not None:
            entry["partition"] = list(st.partition)
        out.append(entry)
    return out


def script_from_json(data, label_kind=HYPERPLANE, scalar=RATIONAL) -> MoveScript:
    steps = []
    for entry in data:
        label = None
        if "label" in entry and entry["label"] is not None:
            label = HomogeneousElement(tuple(parse_scalar(x, scalar) for x in entry["label"]), label_kind)
        part = tuple(entry["partition"]) if entry.get("partition") else None
        steps.append(MoveStep(entry["op"], entry["target"], label, part))
    return MoveScript(tuple(steps))


def save_script(s: MoveScript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(script_to_json(s), fh, indent=1)
        fh.write("\n")


def load_script(path, scalar=RATIONAL) -> MoveScript:
    with open(path, encoding="utf-8") as fh:
        return script_from_json(json.load(fh), scalar=scalar)


# ----------------------------------------------------------------- helpers


def _rebuild(g: TorusGraph, keep_edge, new_edges, face_builder, drop_white=(), drop_black=(), add_white=(), add_black=()):
    """Shared reindexing: filter/remap edges, rebuild faces via a callback."""
    index_map = {}
    edges = []
    for i, e in enumerate(g.edges):
        ne = keep_edge(i, e)
        if ne is None:
            continue
        index_map[i] = len(edges)
        edges.append(ne)
    first_new = len(edges)
    edges.extend(new_edges)
    faces = face_builder(index_map, first_new)
    white = tuple(v for v in g.white_ids if v not in drop_white) + tuple(add_white)
    black = tuple(v for v in g.black_ids if v not in drop_black) + tuple(add_black)
    basis = _remap_walks(g.basis_cycles, index_map)
    return TorusGraph(white, black, tuple(edges), tuple(faces), basis)


def _remap_walks(basis, index_map):
    if basis is None:
        return None
    out = []
    for walk in basis:
        if any(ei not in index_map for ei in walk):
            return None
        out.append(tuple(index_map[ei] for ei in walk))
    return tuple(out)


def _h_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _h_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


# ------------------------------------------------------- degree-two removal


def remove_degree2(c: DoubleCircuitConfig, v: str) -> DoubleCircuitConfig:
    g = c.graph
    inc = vertex_edges(g).get(v)
    if inc is None:
        raise MoveError(f"unknown vertex {v!r}")
    if len(inc) != 2:
        raise WrongDegree(f"vertex {v} has degree {len(inc)}, need 2")
    i1, i2 = inc
    e1, e2 = g.edges[i1], g.edges[i2]
    v_white = v in set(g.white_ids)
    u1, u2 = (e1.b, e2.b) if v_white else (e1.w, e2.w)
    labels = c.black_labels if v_white else c.white_labels
    if not proj_equal(labels[u1], labels[u2]):
        raise LabelMismatch(f"neighbors {u1}, {u2} of {v} carry different labels")

    deg = {x: len(ix) for x, ix in vertex_edges(g).items()}
    if u1 != u2 and deg[u1] + deg[u2] - 2 > c.d + 2:
        raise DegreeOverflow(f"merging {u1} and {u2} exceeds degree d+2 = {c.d + 2}")
    if u1 == u2 and e1.h != e2.h:
        raise MoveError(f"parallel edges at {v} have different h; removal would change homology")

    # shift for u2's surviving edges: merged vertex keeps u1's frame, so
    # u2's old fundamental-domain lift sits at h(e1) - h(e2) from it
    shift = _h_sub(e1.h, e2.h)

    def keep(i, e):
        if i in (i1, i2):
            return None
        if u1 != u2:
            if v_white and e.b == u2:
                return Edge(e.w, u1, _h_add(e.h, shift))
            if not v_white and e.w == u2:
                return Edge(u1, e.b, _h_add(e.h, shift))
        return e

    def faces(index_map, first_new):
        out = []
        for f in g.faces:
            es = list(f.edges)
            # drop the consecutive corner pairs at v (cyclically)
            while True:
                n = len(es)
                pos = next(
                    (i for i in range(n) if {es[i], es[(i + 1) % n]} == {i1, i2}),
                    None,
                )
                if pos is None:
                    break
                if pos == n - 1:
                    # wrap-around corner: also rotate to keep slot parity
                    es = [es[n - 2]] + es[1 : n - 2]
                else:
                    es = es[:pos] + es[pos + 2 :]
            out.append(Face(f.id, tuple(index_map[ei] for ei in es)))
        return [f for f in out if len(f.edges) > 0]

    graph = _rebuild(
        g,
        keep,
        [],
        faces,
        drop_white={v} if v_white else ({u2} if u1 != u2 else set()),
        drop_black=({u2} if u1 != u2 else set()) if v_white else {v},
    )
    whites, blacks = set(graph.white_ids), set(graph.black_ids)
    wl = {k: x for k, x in c.white_labels.items() if k in whites}
    bl = {k: x for k, x in c.black_labels.items() if k in blacks}
    return DoubleCircuitConfig(graph, c.d, wl, bl)


# ------------------------------------------------------ degree-two addition


def _rotation_at(g: TorusGraph, v: str):
    """Cyclic order of v's incident edge indices, from face corners."""
    succ = {}
    for f in g.faces:
        es = f.edges
        n = len(es)
        for slot in range(n):
            e, nxt = g.edges[es[slot]], g.edges[es[(slot + 1) % n]]
            shared = e.b if slot % 2 == 0 else e.w
            if shared == v:
                succ[es[slot]] = es[(slot + 1) % n]
    start = min(succ)
    rot = [start]
    while True:
        nxt = succ[rot[-1]]
        if nxt == start:
            break
        rot.append(nxt)
        if len(rot) > len(succ):
            raise MoveError(f"rotation at {v} is not a single cycle")
    if len(rot) != len(succ):
        raise MoveError(f"rotation at {v} is not a single cycle")
    return rot


def add_degree2(
    c: DoubleCircuitConfig,
    v: str,
    partition: tuple,
    new_label: HomogeneousElement,
    ids: tuple | None = None,
) -> DoubleCircuitConfig:
    """Split v in two along the given arc partition of its rotation and
    join the copies through a new degree-two vertex labeled new_label.

    partition = (i, j) splits the rotation list rot (anchored at the
    lowest incident edge index) into arcs rot[i:j] (kept by v) and the
    complement (moved to the twin).
    """
    g = c.graph
    v_white = v in set(g.white_ids)
    if not v_white and v not in set(g.black_ids):
        raise MoveError(f"unknown vertex {v!r}")
    own_label = (c.white_labels if v_white else c.black_labels)[v]
    if new_label.kind != (HYPERPLANE if v_white else POINT):
        raise IncidentLabel("new label must have the opposite kind of the split vertex")
    if incident(new_label, own_label) if v_white else incident(own_label, new_label):
        raise IncidentLabel("new label is incident to the split vertex's label")

    rot = _rotation_at(g, v)
    deg = len(rot)
    i, j = partition
    if not (0 <= i < j <= deg) or j - i == deg or j - i == 0:
        raise BadPartition(f"partition {partition} does not split degree {deg} into two arcs")
    arc_a = rot[i:j]
    arc_b = rot[j:] + rot[:i]

    twin = ids[0] if ids else f"{v}'"
    mid = ids[1] if ids else f"{v}~"
    for x in (twin, mid):
        if x in set(g.white_ids) | set(g.black_ids):
            raise MoveError(f"id {x!r} already in use")

    def keep(idx, e):
        if idx in arc_b:
            return Edge(twin, e.b, e.h) if v_white else Edge(e.w, twin, e.h)
        return e

    if v_white:
        new_edges = [Edge(v, mid, (0, 0)), Edge(twin, mid, (0, 0))]
    else:
        new_edges = [Edge(mid, v, (0, 0)), Edge(mid, twin, (0, 0))]

    cut1 = (arc_a[-1], arc_b[0])  # corner leaving v into the twin's arc
    cut2 = (arc_b[-1], arc_a[0])

    def faces(index_map, first_new):
        e_vm, e_tm = first_new, first_new + 1
        out = []
        for f in g.faces:
            es = list(f.edges)
            n = len(es)
            new_es = []
            for slot in range(n):
                new_es.append(es[slot])
                corner = (es[slot], es[(slot + 1) % n])
                e, nxt = g.edges[es[slot]], g.edges[es[(slot + 1) % n]]
                shared = e.b if slot % 2 == 0 else e.w
                if shared != v:
                    continue
                if corner == cut1:
                    new_es.extend(["vm", "tm"])
                elif corner == cut2:
                    new_es.extend(["tm", "vm"])
            mapped = [
                e_vm if x == "vm" else e_tm if x == "tm" else index_map[x] for x in new_es
            ]
            out.append(Face(f.id, tuple(mapped)))
        return out

    graph = _rebuild(
        g,
        keep,
        new_edges,
        faces,
        add_white=(twin,) if v_white else (mid,),
        add_black=(mid,) if v_white else (twin,),
    )
    wl, bl = dict(c.white_labels), dict(c.black_labels)
    if v_white:
        wl[twin] = own_label
        bl[mid] = new_label
    else:
        bl[twin] = own_label
        wl[mid] = new_label
    return DoubleCircuitConfig(graph, c.d, wl, bl)


def forced_split_label(c: DoubleCircuitConfig, v: str, partition: tuple) -> HomogeneousElement:
    """The label the circuit condition forces on the middle vertex of an
    add_degree2 split: the meet of the two arcs' label spans.

    After the split, each copy of v sees one arc plus the new vertex, so
    the new label must lie in both arc spans; for degree d+2 vertices the
    meet is a single projective element.
    """
    g = c.graph
    v_white = v in set(g.white_ids)
    labels = c.black_labels if v_white else c.white_labels
    rot = _rotation_at(g, v)
    i, j = partition
    if not (0 <= i < j <= len(rot)) or j - i in (0, len(rot)):
        raise BadPartition(f"partition {partition} does not split degree {len(rot)}")
    arc_a, arc_b = rot[i:j], rot[j:] + rot[:i]

    def far(ei):
        e = g.edges[ei]
        return labels[e.b if v_white else e.w]

    try:
        m = meet(span([far(ei) for ei in arc_a]), span([far(ei) for ei in arc_b]))
    except EmptyMeet as exc:
        raise DegenerateMeet(f"arc spans of {v} do not meet") from exc
    if m.rank != 1:
        raise DegenerateMeet(f"arc spans of {v} meet in rank {m.rank}; label not determined")
    return subspace_element(m)


# ------------------------------------------------------------ urban renewal


def urban_renewal(c: DoubleCircuitConfig, face_id: str, tag: str | None = None) -> DoubleCircuitConfig:
    g = c.graph
    face = next((f for f in g.faces if f.id == face_id), None)
    if face is None:
        raise MoveError(f"no face {face_id!r}")
    if len(face.edges) != 4:
        raise NotQuadrilateral(f"face {face_id} has {len(face.edges)} boundary edges")
    i0, i1, i2, i3 = face.edges
    eA_c, eB_c, eB_d, eA_d = g.edges[i0], g.edges[i1], g.edges[i2], g.edges[i3]
    A, cb = eA_c.w, eA_c.b
    B, db = eB_c.w, eB_d.b
    if len({A, B}) < 2 or len({cb, db}) < 2:
        raise NotQuadrilateral(f"face {face_id} has repeated corners")

    inc = vertex_edges(g)
    others = {
        "A": [ei for ei in inc[A] if ei not in (i0, i3)],
        "B": [ei for ei in inc[B] if ei not in (i1, i2)],
        "c": [ei for ei in inc[cb] if ei not in (i0, i1)],
        "d": [ei for ei in inc[db] if ei not in (i2, i3)],
    }
    for corner, rest in others.items():
        if not rest:
            raise DegenerateMeet(f"corner {corner} of {face_id} has degree 2; meet undefined")

    wl, bl = c.white_labels, c.black_labels
    ab = span([wl[A], wl[B]])
    cd = span([bl[cb], bl[db]])

    def _meet_or_die(s1, s2, what):
        try:
            m = meet(s1, s2)
        except EmptyMeet as exc:
            raise DegenerateMeet(f"{what} of {face_id}: empty meet") from exc
        if m.rank != 1:
            raise DegenerateMeet(f"{what} of {face_id}: meet has rank {m.rank}")
        return subspace_element(m)

    lab_E = _meet_or_die(ab, span([wl[g.edges[ei].w] for ei in others["c"]]), "E")
    lab_F = _meet_or_die(ab, span([wl[g.edges[ei].w] for ei in others["d"]]), "F")
    lab_g = _meet_or_die(cd, span([bl[g.edges[ei].b] for ei in others["A"]]), "g")
    lab_h = _meet_or_die(cd, span([bl[g.edges[ei].b] for ei in others["B"]]), "h")

    tag = tag if tag is not None else face_id
    vE, vF, vg, vh = f"{tag}:E", f"{tag}:F", f"{tag}:g", f"{tag}:h"
    taken = set(g.white_ids) | set(g.black_ids)
    if {vE, vF, vg, vh} & taken:
        raise MoveError(f"derived ids for {face_id} collide; pass an explicit tag")

    h1, h2, h3, h4 = eA_c.h, eB_c.h, eB_d.h, eA_d.h
    hA, hc = h1, (0, 0)
    hB, hd = h2, _h_sub(h3, h2)
    assert _h_add(hd, hA) == h4, "face h-sum was nonzero"

    new_edges = [
        Edge(A, vg, hA),      # +0 spoke at A
        Edge(vE, cb, hc),     # +1 spoke at c
        Edge(B, vh, hB),      # +2 spoke at B
        Edge(vF, db, hd),     # +3 spoke at d
        Edge(vE, vg, (0, 0)),  # +4
        Edge(vE, vh, (0, 0)),  # +5
        Edge(vF, vh, (0, 0)),  # +6
        Edge(vF, vg, (0, 0)),  # +7
    ]

    # replacement path for each old boundary edge, in its w->b direction
    paths = {i0: [0, 4, 1], i1: [2, 5, 1], i2: [2, 6, 3], i3: [0, 7, 3]}

    def keep(i, e):
        return None if i in (i0, i1, i2, i3) else e

    def faces(index_map, first_new):
        out = []
        for f in g.faces:
            if f.id == face_id:
                continue
            es = list(f.edges)
            new_es = []
            for slot, ei in enumerate(es):
                if ei in paths:
                    rel = paths[ei]
                    rel = rel if slot % 2 == 0 else list(reversed(rel))
                    new_es.extend(first_new + r for r in rel)
                else:
                    new_es.append(index_map[ei])
            out.append(Face(f.id, tuple(new_es)))
        # inner quadrilateral E -> h -> F -> g
        out.append(Face(f"{tag}:inner", (first_new + 5, first_new + 6, first_new + 7, first_new + 4)))
        return out

    graph = _rebuild(g, keep, new_edges, faces, add_white=(vE, vF), add_black=(vg, vh))
    wl2, bl2 = dict(wl), dict(bl)
    wl2[vE], wl2[vF] = lab_E, lab_F
    bl2[vg], bl2[vh] = lab_g, lab_h
    new_c = DoubleCircuitConfig(graph, c.d, wl2, bl2)
    _check_degrees(new_c)
    return new_c


def _check_degrees(c: DoubleCircuitConfig) -> None:
    for v, ix in vertex_edges(c.graph).items():
        if len(ix) > c.d + 2:
            raise DegreeOverflow(f"vertex {v} has degree {len(ix)} > d+2 = {c.d + 2}")


# ------------------------------------------------------------------ scripts


def apply_script(c: DoubleCircuitConfig, script: MoveScript, trace: list | None = None) -> DoubleCircuitConfig:
    """Left-to-right application; the first failing step aborts with its index."""
    cur = c
    for idx, step in enumerate(script.steps):
        try:
            if step.op == "urban":
                cur = urban_renewal(cur, step.target)
            elif step.op == "remove2":
                cur = remove_degree2(cur, step.target)
            elif step.op == "add2":
                if step.partition is None or step.label is None:
                    raise MoveError("add2 needs a partition and a label")
                cur = add_degree2(cur, step.target, step.partition, step.label)
            else:
                raise MoveError(f"unknown op {step.op!r}")
        except MoveError as exc:
            raise ScriptError(idx, exc) from exc
        if trace is not None:
            trace.append(
                f"step {idx}: {step.op} {step.target} -> "
                f"v={len(cur.graph.white_ids)}+{len(cur.graph.black_ids)} "
                f"e={len(cur.graph.edges)} f={len(cur.graph.faces)}"
            )
    return cur


def spoke_rename_map(before: DoubleCircuitConfig, mid: DoubleCircuitConfig, white_rule, black_rule) -> dict:
    """Template ids for the vertices created by a renewal phase.

    In ``mid`` (after the urban renewals, before the removals) every new
    vertex has exactly one neighbor from ``before``: its spoke target.
    The rules map that old vertex's id to the new vertex's template id,
    independent of face rotation conventions.
    """
    old = set(before.graph.white_ids) | set(before.graph.black_ids)
    inc = vertex_edges(mid.graph)
    vmap = {}
    for v in mid.graph.white_ids:
        if v in old:
            continue
        olds = {mid.graph.edges[ei].b for ei in inc[v]} & old
        if len(olds) == 1:
            vmap[v] = white_rule(next(iter(olds)))
    for v in mid.graph.black_ids:
        if v in old:
            continue
        olds = {mid.graph.edges[ei].w for ei in inc[v]} & old
        if len(olds) == 1:
            vmap[v] = black_rule(next(iter(olds)))
    return vmap


def step_on_config(c: DoubleCircuitConfig, renew, white_rule, black_rule, template: TorusGraph) -> DoubleCircuitConfig:
    """One dynamics step: urban renewal at the faces ``renew``, removal of
    the forced vertices, then renaming to the template's vertex and face ids.

    The forced vertices are the pre-step vertices the renewals left at
    degree two, removed in ``c.graph.white_ids + c.graph.black_ids`` order.
    New vertices are renamed by ``spoke_rename_map`` with the two rules.
    """
    mid = apply_script(c, MoveScript(tuple(MoveStep("urban", f) for f in renew)))
    vmap = spoke_rename_map(c, mid, white_rule, black_rule)
    inc = vertex_edges(mid.graph)
    forced = [v for v in c.graph.white_ids + c.graph.black_ids if len(inc[v]) == 2]
    stepped = apply_script(mid, MoveScript(tuple(MoveStep("remove2", v) for v in forced)))
    return rename_faces_like(relabel(stepped, vmap), template)


def rename_faces_like(c: DoubleCircuitConfig, template: TorusGraph) -> DoubleCircuitConfig:
    """Give c's faces the ids of the template faces with the same vertex
    cycles (up to rotation/reflection).  Requires a bijection."""
    from .torusgraph import face_key

    key_to_id = {}
    for f in template.faces:
        key_to_id[face_key(template, f)] = f.id
    if len(key_to_id) != len(template.faces):
        raise MoveError("template faces are not distinguishable by vertex cycles")
    new_faces = []
    for f in c.graph.faces:
        k = face_key(c.graph, f)
        if k not in key_to_id:
            raise MoveError(f"face {f.id} has no template counterpart: {k}")
        new_faces.append(Face(key_to_id[k], f.edges))
    if len({f.id for f in new_faces}) != len(new_faces):
        raise MoveError("face matching is not a bijection")
    g = c.graph
    graph = TorusGraph(g.white_ids, g.black_ids, g.edges, tuple(new_faces), g.basis_cycles)
    return DoubleCircuitConfig(graph, c.d, c.white_labels, c.black_labels)


def relabel(c: DoubleCircuitConfig, vmap: dict) -> DoubleCircuitConfig:
    """Rename vertices; ids not in vmap stay.  Pure bookkeeping."""
    g = c.graph

    def m(v):
        return vmap.get(v, v)

    graph = TorusGraph(
        tuple(m(v) for v in g.white_ids),
        tuple(m(v) for v in g.black_ids),
        tuple(Edge(m(e.w), m(e.b), e.h) for e in g.edges),
        g.faces,
        g.basis_cycles,
    )
    wl = {m(k): v for k, v in c.white_labels.items()}
    bl = {m(k): v for k, v in c.black_labels.items()}
    return DoubleCircuitConfig(graph, c.d, wl, bl)
