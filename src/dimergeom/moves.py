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

Every move is one ``GraphEdit.replace``: the edges it rewrites and adds,
and a walk standing in for each edge it replaces, which it deletes unless
it rewrites it.  Urban renewal replaces the boundary of the renewed face
by paths spoke, inner edge, spoke and the face by the inner quadrilateral;
removal deletes the two edges at v and moves the second neighbor's other
edges to the first; addition moves the twin's arc to the twin, reached
from v through the new vertex.  Walks stay closed with their h-sums, so basis cycles survive.

A batch holds edges by slot, faces by id, and vertices as long as an edge
names them; it refuses repeated face ids, and closed it keeps the labels
of its vertices.  A single move call is a batch of one.  The open graph
rewrites its faces and basis cycles along the moves' paths before a face
read that needs it, before a move replaces an edge on a logged path, and
at its close; ``apply_script`` also rewrites after each of its moves, so
a script is its moves folded.  A dynamics step (``step_on_config``) is one
batch, rewritten at its first forced removal and at its close: urban
renewals at the given faces, the removals of every pre-step vertex they
left at degree two, and a renaming to template ids.  A family supplies
its faces, rename rules and template.

A step's edits depend on its graph's shape, not on its h, walks or
labels, so the first step from a shape records a plan: its label program
(each renewal's four meets and each removal's label check, by vertex
id), its output ids, edges and faces, each output h as a signed sum of
input h's, the h comparisons its moves made and the paths of its walk
rewrites.  A later step from that shape whose h compares the same way
replays the plan: it runs the label program alone and builds the output
from the record, equal to what the moves give.  Plans live on the graph
and are shared with the graphs stepped from it, so a chain records each
of its shapes once.
"""
from __future__ import annotations

from functools import wraps
from typing import NamedTuple

from .config import DoubleCircuitConfig, read_json
from .errors import (
    BadPartition,
    DegenerateIntersection,
    DegenerateMeet,
    DegreeOverflow,
    EmptyMeet,
    IncidentLabel,
    InputError,
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
)
from .scalars import RATIONAL, parse_coords, scalar_str
from .torusgraph import Edge, Event, Face, GraphEdit, TorusGraph, _rewrite_walk, face_key


class MoveStep(NamedTuple):
    op: str  # "urban" | "remove2" | "add2"
    target: str  # face id (urban) or vertex id
    label: HomogeneousElement | None = None  # add2 retypes it by the target's colour
    partition: tuple | None = None


class MoveScript(NamedTuple):
    steps: tuple


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


def script_from_json(data, scalar=RATIONAL) -> MoveScript:
    """Labels are read as hyperplanes; ``apply_script`` gives an add2 label
    the kind opposite to its target's colour.  A malformed script raises
    InputError naming the step; the label length is the caller's check,
    since it depends on the configuration."""
    if not isinstance(data, list):
        raise InputError(f"a move script is a list of steps, not {type(data).__name__}")
    steps = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise InputError(f"script step {idx}: a step is an object, not {type(entry).__name__}")
        op, target = entry.get("op"), entry.get("target")
        if op not in ("urban", "add2", "remove2"):
            raise InputError(f"script step {idx}: unknown op {op!r}")
        if not isinstance(target, str):
            raise InputError(f"script step {idx}: target must be a string, got {target!r}")
        label = part = None
        if op == "add2":
            label, part = entry.get("label"), entry.get("partition")
            if not isinstance(label, list) or not label:
                raise InputError(f"script step {idx}: add2 label must be a list of coordinates, got {label!r}")
            if not (isinstance(part, list) and len(part) == 2 and all(type(x) is int for x in part)):
                raise InputError(f"script step {idx}: add2 partition must be two integers, got {part!r}")
            label = HomogeneousElement(parse_coords(label, f"script step {idx}: add2 label", scalar), HYPERPLANE)
            part = tuple(part)
        steps.append(MoveStep(op, target, label, part))
    return MoveScript(tuple(steps))


def load_script(path, scalar=RATIONAL) -> MoveScript:
    return script_from_json(read_json(path), scalar=scalar)


# ----------------------------------------------------------------- helpers


def _h_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _h_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _opened(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """A batch: c with its graph open as a ``GraphEdit`` and label dicts of
    its own, which moves change in place."""
    return DoubleCircuitConfig(GraphEdit(c.graph), c.d, dict(c.white_labels), dict(c.black_labels))


def _closed(batch: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """The closed batch, with the labels of the vertices its graph has."""
    g = batch.graph.close()
    kept = [{v: x for v, x in labels.items() if g.has_vertex(v)} for labels in (batch.white_labels, batch.black_labels)]
    return DoubleCircuitConfig(g, batch.d, *kept)


def _move(edit):
    """The public move: ``edit`` changes a batch in place and returns it;
    any other configuration is moved as a batch of one."""

    @wraps(edit)
    def move(c, *args, **kwargs):
        if isinstance(c.graph, GraphEdit):
            return edit(c, *args, **kwargs)
        return _closed(edit(_opened(c), *args, **kwargs))

    return move


# ------------------------------------------------------- degree-two removal


@_move
def remove_degree2(c: DoubleCircuitConfig, v: str) -> DoubleCircuitConfig:
    g = c.graph
    inc = g.incidence()
    if v not in inc:
        raise MoveError(f"unknown vertex {v!r}")
    if len(inc[v]) != 2:
        raise WrongDegree(f"vertex {v} has degree {len(inc[v])}, need 2")
    i1, i2 = inc[v]
    e1, e2 = g.edge(i1), g.edge(i2)
    v_white = g.is_white(v)
    u1, u2 = (e1.b, e2.b) if v_white else (e1.w, e2.w)
    _check_merge(c.black_labels if v_white else c.white_labels, v, u1, u2)
    if isinstance(g, _Recording):
        g.program.append(((v_white, v, u1, u2), None))

    if u1 != u2 and len(inc[u1]) + len(inc[u2]) - 2 > c.d + 2:
        raise DegreeOverflow(f"merging {u1} and {u2} exceeds degree d+2 = {c.d + 2}")
    if u1 == u2 and e1.h != e2.h:
        raise MoveError(f"parallel edges at {v} have different h; removal would change homology")

    # shift for u2's surviving edges: merged vertex keeps u1's frame, so
    # u2's old fundamental-domain lift sits at h(e1) - h(e2) from it
    shift = _h_sub(e1.h, e2.h)
    rewrites = {}
    for ei in inc[u2] if u1 != u2 else ():
        e = g.edge(ei)
        if ei != i2:
            rewrites[ei] = Edge(e.w, u1, _h_add(e.h, shift)) if v_white else Edge(u1, e.b, _h_add(e.h, shift))
    g.replace(rewrites, (), {i1: (), i2: ()})
    return c


def _check_merge(labels, v: str, u1: str, u2: str) -> None:
    """LabelMismatch unless v's neighbors u1, u2 carry the same label."""
    if not proj_equal(labels[u1], labels[u2]):
        raise LabelMismatch(f"neighbors {u1}, {u2} of {v} carry different labels")


# ------------------------------------------------------ degree-two addition


def _rotation_at(g: GraphEdit, v: str):
    """Cyclic order of v's incident edge slots, from the corners at v of
    the faces through them."""
    succ = {}
    for f in g.faces_on(g.incidence().get(v, ())):
        es = f.edges
        for slot, ei in enumerate(es):
            if (g.edge(ei).b if slot % 2 == 0 else g.edge(ei).w) == v:
                succ[ei] = es[(slot + 1) % len(es)]
    rot = [min(succ)]
    while len(rot) <= len(succ) and succ[rot[-1]] != rot[0]:
        rot.append(succ[rot[-1]])
    if len(rot) != len(succ):
        raise MoveError(f"rotation at {v} is not a single cycle")
    return rot


def _split_arcs(g: GraphEdit, v: str, partition: tuple):
    """The arc rot[i:j] of v's rotation for partition = (i, j), and its
    complement; both must be nonempty."""
    rot = _rotation_at(g, v)
    i, j = partition
    if not (0 <= i < j <= len(rot)) or j - i == len(rot):
        raise BadPartition(f"partition {partition} does not split degree {len(rot)} into two arcs")
    return rot[i:j], rot[j:] + rot[:i]


@_move
def add_degree2(c: DoubleCircuitConfig, v: str, partition: tuple, new_label: HomogeneousElement) -> DoubleCircuitConfig:
    """Split v in two along the given arc partition of its rotation and
    join the copies through a new degree-two vertex labeled new_label.

    partition = (i, j) splits the rotation list rot (anchored at the
    lowest incident edge index) into arcs rot[i:j] (kept by v) and the
    complement (moved to the twin).  The twin and the new vertex are named
    by the first free id in v', v'', ... and v~, v~~, ...
    """
    g = c.graph
    v_white = g.is_white(v)
    if not v_white and not g.has_vertex(v):
        raise MoveError(f"unknown vertex {v!r}")
    own_label = (c.white_labels if v_white else c.black_labels)[v]
    if new_label.kind != (HYPERPLANE if v_white else POINT):
        raise IncidentLabel("new label must have the opposite kind of the split vertex")
    if incident(new_label, own_label) if v_white else incident(own_label, new_label):
        raise IncidentLabel("new label is incident to the split vertex's label")

    _, arc_b = _split_arcs(g, v, partition)

    twin, mid = _free_id(g, v + "'"), _free_id(g, v + "~")

    # each edge of the twin's arc moves to the twin and is reached from v
    # through the new vertex; corners inside one arc cancel
    vm, tm = g.next_slot, g.next_slot + 1
    if v_white:
        new_edges = (Edge(v, mid, (0, 0)), Edge(twin, mid, (0, 0)))
        edits = {ei: Edge(twin, g.edge(ei).b, g.edge(ei).h) for ei in arc_b}
        paths = {ei: (vm, tm, ei) for ei in arc_b}
    else:
        new_edges = (Edge(mid, v, (0, 0)), Edge(mid, twin, (0, 0)))
        edits = {ei: Edge(g.edge(ei).w, twin, g.edge(ei).h) for ei in arc_b}
        paths = {ei: (ei, tm, vm) for ei in arc_b}
    g.replace(edits, new_edges, paths)
    (c.white_labels if v_white else c.black_labels)[twin] = own_label
    (c.black_labels if v_white else c.white_labels)[mid] = new_label
    return c


def _free_id(g: TorusGraph, x: str) -> str:
    """x, or x with its last character repeated until the id is free."""
    while g.has_vertex(x):
        x += x[-1]
    return x


def forced_split_label(c: DoubleCircuitConfig, v: str, partition: tuple) -> HomogeneousElement:
    """The label the circuit condition forces on the middle vertex of an
    add_degree2 split: the meet of the two arcs' label spans.

    After the split, each copy of v sees one arc plus the new vertex, so
    the new label must lie in both arc spans; for degree d+2 vertices the
    meet is a single projective element.  c's graph is read as a batch.
    """
    g = GraphEdit(c.graph)
    v_white = g.is_white(v)
    labels = c.black_labels if v_white else c.white_labels
    arcs = [[labels[g.edge(ei).b if v_white else g.edge(ei).w] for ei in arc] for arc in _split_arcs(g, v, partition)]
    try:
        return meet(*arcs)
    except EmptyMeet as exc:
        raise DegenerateMeet(f"arc spans of {v} do not meet") from exc
    except DegenerateIntersection as exc:
        raise DegenerateMeet(f"arc spans of {v}: {exc}; label not determined") from exc


# ------------------------------------------------------------ urban renewal


@_move
def urban_renewal(c: DoubleCircuitConfig, face_id: str) -> DoubleCircuitConfig:
    g = c.graph
    face = g.face(face_id)
    if face is None:
        raise MoveError(f"no face {face_id!r}")
    if len(face.edges) != 4:
        raise NotQuadrilateral(f"face {face_id} has {len(face.edges)} boundary edges")
    i0, i1, i2, i3 = face.edges
    eA_c, eB_c, eB_d, eA_d = g.edge(i0), g.edge(i1), g.edge(i2), g.edge(i3)
    A, cb = eA_c.w, eA_c.b
    B, db = eB_c.w, eB_d.b
    if len({A, B}) < 2 or len({cb, db}) < 2:
        raise NotQuadrilateral(f"face {face_id} has repeated corners")

    inc = g.incidence()
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
    names = (
        face_id, A, B, cb, db,
        [g.edge(ei).w for ei in others["c"]],
        [g.edge(ei).w for ei in others["d"]],
        [g.edge(ei).b for ei in others["A"]],
        [g.edge(ei).b for ei in others["B"]],
    )
    lab_E, lab_F, lab_g, lab_h = _renewal_labels(wl, bl, *names)

    vE, vF, vg, vh = f"{face_id}:E", f"{face_id}:F", f"{face_id}:g", f"{face_id}:h"
    if any(map(g.has_vertex, (vE, vF, vg, vh))):
        raise MoveError(f"derived ids for {face_id} collide with existing vertex ids")

    hA, hc, hB, hd = eA_c.h, (0, 0), eB_c.h, _h_sub(eB_d.h, eB_c.h)
    assert _h_add(hd, hA) == eA_d.h, "face h-sum was nonzero"

    new_edges = (
        Edge(A, vg, hA),      # +0 spoke at A
        Edge(vE, cb, hc),     # +1 spoke at c
        Edge(B, vh, hB),      # +2 spoke at B
        Edge(vF, db, hd),     # +3 spoke at d
        Edge(vE, vg, (0, 0)),  # +4
        Edge(vE, vh, (0, 0)),  # +5
        Edge(vF, vh, (0, 0)),  # +6
        Edge(vF, vg, (0, 0)),  # +7
    )

    # replacement path for each old boundary edge, in its w->b direction;
    # the renewed face becomes the inner quadrilateral E -> h -> F -> g
    n = g.next_slot
    paths = {i0: (n, n + 4, n + 1), i1: (n + 2, n + 5, n + 1), i2: (n + 2, n + 6, n + 3), i3: (n, n + 7, n + 3)}
    inner = Face(f"{face_id}:inner", (n + 5, n + 6, n + 7, n + 4))
    g.replace({}, new_edges, paths, drop_faces=(face_id,), add_faces=(inner,))
    wl[vE], wl[vF] = lab_E, lab_F
    bl[vg], bl[vh] = lab_g, lab_h
    if isinstance(g, _Recording):
        g.program.append((names, (vE, vF, vg, vh)))
    _check_degrees(c)
    return c


def _renewal_labels(wl, bl, face_id, A, B, cb, db, cs, ds, as_, bs) -> tuple:
    """The labels E, F, g, h of the renewal at ``face_id`` with white
    corners A, B and black corners cb, db, from the labels of the corners
    and of the corners' other neighbors cs, ds, as_, bs (by vertex id);
    DegenerateMeet names the first meet that fails."""
    ab, cd = [wl[A], wl[B]], [bl[cb], bl[db]]
    return (
        _meet_or_die(ab, [wl[v] for v in cs], "E", face_id),
        _meet_or_die(ab, [wl[v] for v in ds], "F", face_id),
        _meet_or_die(cd, [bl[v] for v in as_], "g", face_id),
        _meet_or_die(cd, [bl[v] for v in bs], "h", face_id),
    )


def _meet_or_die(gens1, gens2, what: str, face_id: str) -> HomogeneousElement:
    try:
        return meet(gens1, gens2)
    except EmptyMeet as exc:
        raise DegenerateMeet(f"{what} of {face_id}: empty meet") from exc
    except DegenerateIntersection as exc:
        raise DegenerateMeet(f"{what} of {face_id}: {exc}") from exc


def _check_degrees(c: DoubleCircuitConfig) -> None:
    """No vertex of the graph above degree d+2; the message names the
    first such vertex in edge order (by its first slot, white first)."""
    g, bound = c.graph, c.d + 2
    inc = g.incidence()
    if max(map(len, inc.values()), default=0) > bound:
        v = min((v for v, ix in inc.items() if len(ix) > bound), key=lambda v: (inc[v][0], not g.is_white(v)))
        raise DegreeOverflow(f"vertex {v} has degree {len(inc[v])} > d+2 = {bound}")


# ------------------------------------------------------------------ scripts


def apply_script(c: DoubleCircuitConfig, script: MoveScript, events: list | None = None) -> DoubleCircuitConfig:
    """The moves applied left to right in one batch, rewritten after each
    so it equals their fold; the first failing step aborts with its index.
    ``events`` gets ``Event(op, target, index, sizes after it)`` per move."""
    if not script.steps:
        return c
    batch = _opened(c)
    for idx, step in enumerate(script.steps):
        try:
            if step.op == "urban":
                urban_renewal(batch, step.target)
            elif step.op == "remove2":
                remove_degree2(batch, step.target)
            elif step.op == "add2":
                if step.partition is None or step.label is None:
                    raise MoveError("add2 needs a partition and a label")
                kind = HYPERPLANE if batch.graph.is_white(step.target) else POINT
                add_degree2(batch, step.target, step.partition, HomogeneousElement(step.label.coords, kind))
            else:
                raise MoveError(f"unknown op {step.op!r}")
        except MoveError as exc:
            raise ScriptError(idx, exc) from exc
        batch.graph.substitute_edges()
        if events is not None:
            events.append(Event(step.op, step.target, idx, batch.graph.sizes()))
    return _closed(batch)


def spoke_rename_map(before: DoubleCircuitConfig, mid: DoubleCircuitConfig, white_rule, black_rule) -> dict:
    """Template ids for the vertices created by a renewal phase.

    In ``mid``, a batch open after the urban renewals and before the
    removals, every new vertex has exactly one neighbor from ``before``:
    its spoke target.  The rules map that old vertex's id to the new
    vertex's template id, independent of face rotation conventions.
    """
    old = set(before.graph.white_ids) | set(before.graph.black_ids)
    g = mid.graph
    vmap = {}
    for v, ix in g.incidence().items():
        if v not in old:
            white = g.is_white(v)
            olds = {g.edge(ei).b if white else g.edge(ei).w for ei in ix} & old
            if len(olds) == 1:
                vmap[v] = (white_rule if white else black_rule)(*olds)
    return vmap


def step_on_config(c: DoubleCircuitConfig, renew, white_rule, black_rule, template: TorusGraph) -> DoubleCircuitConfig:
    """One dynamics step, one batch: urban renewal at the faces ``renew``,
    removal of the forced vertices, then renaming to the template's vertex
    and face ids.

    The forced vertices are the pre-step vertices the renewals left at
    degree two, removed in ``c.graph.white_ids + c.graph.black_ids`` order.
    New vertices are renamed by ``spoke_rename_map`` with the two rules,
    read from the batch between the renewals and the removals.  The batch
    records a plan in the store on c's graph, which the output's graph
    shares, and a later step with the same key whose h passes the plan's
    checks replays it.
    """
    g = c.graph
    if g._plans is None:
        g._plans = {}
    try:
        key = _plan_key(c, renew, white_rule, black_rule, template)
    except Exception:  # a rule that fails on an input id the moves may never give it: no plan
        key = None
    plan = g._plans.get(key)
    if plan is not None and _holds(plan.checks, g.edges):
        return _replayed(plan, c)
    plan, wl, bl = _recorded(c, renew, white_rule, black_rule, template)
    if key is not None:
        g._plans[key] = plan
    return DoubleCircuitConfig(_built(plan, g, plan.edges), c.d, wl, bl)


# -------------------------------------------------------------- step plans


def _plan_key(c: DoubleCircuitConfig, renew, white_rule, black_rule, template: TorusGraph) -> tuple:
    """All that a step's edits read: the graph's ids, edge endpoints, faces
    and number of basis cycles, d, the renewed faces, the template (by
    identity, which its plan keeps alive) and the rules' values on the
    input ids; not h, the basis-cycle walks or the labels."""
    g = c.graph
    ids = g.white_ids + g.black_ids
    return (
        g.white_ids, g.black_ids, tuple((e.w, e.b) for e in g.edges), tuple((f.id, f.edges) for f in g.faces),
        len(g.basis_cycles or ()),
        c.d, tuple(renew), id(template), tuple(map(white_rule, ids)), tuple(map(black_rule, ids)),
    )


class _Plan(NamedTuple):
    """What a step's moves made of one key.  ``program`` is their label
    work in move order: ((renewal args, new ids) of ``_renewal_labels``)
    or ((neighbors' side is black, v, u1, u2) of ``_check_merge``, None).
    The labels of the vertices in ``alive`` are kept and renamed by
    ``vmap``.  The output has the ids, edges and faces recorded, each
    edge's h given by its recipe (``_recipe``); its basis cycles are the
    input's rewritten along each of ``rewrites`` and numbered by
    ``position``.  ``checks`` are the h comparisons the moves made:
    (component, (slot, coefficient) pairs of the difference, outcome)."""

    template: TorusGraph
    checks: tuple
    program: tuple
    alive: frozenset
    vmap: dict
    white_ids: tuple
    black_ids: tuple
    edges: tuple
    recipes: tuple
    faces: tuple
    rewrites: tuple
    position: dict


class _Tracked:
    """An h component in a recording step: its value, and the same value
    as a signed sum of component ``comp`` of the input edges' h (slot ->
    coefficient).  The moves add and subtract h's componentwise, and the
    zero h; each comparison they make is logged."""

    __slots__ = ("value", "comp", "terms", "log")

    def __init__(self, value, comp, terms, log):
        self.value, self.comp, self.terms, self.log = value, comp, terms, log

    def _plus(self, other, sign):
        if not isinstance(other, _Tracked):
            return self if other == 0 else NotImplemented
        terms = dict(self.terms)
        for s, k in other.terms.items():
            k = terms.pop(s, 0) + sign * k
            if k:
                terms[s] = k
        return _Tracked(self.value + sign * other.value, self.comp, terms, self.log)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return _Tracked(-self.value, self.comp, {s: -k for s, k in self.terms.items()}, self.log)._plus(other, 1)

    def __eq__(self, other):
        diff = self._plus(other, -1)
        if diff is NotImplemented:
            return NotImplemented
        self.log.append((self.comp, tuple(diff.terms.items()), diff.value == 0))
        return diff.value == 0


class _Recording(GraphEdit):
    """The batch of a recording step: g opened with the given edges in
    place of its own and without basis cycles, which ``_built`` carries.
    It logs its moves' label program and the paths of each walk rewrite."""

    __slots__ = ("program", "rewrites")

    def __init__(self, g: TorusGraph, edges):
        super().__init__(g)
        self._edges, self._basis = dict(enumerate(edges)), []
        self.program, self.rewrites = [], []

    def substitute_edges(self) -> None:
        if self._paths:
            self.rewrites.append(self._paths)
        super().substitute_edges()


def _recorded(c: DoubleCircuitConfig, renew, white_rule, black_rule, template: TorusGraph) -> tuple:
    """(plan, output white labels, output black labels) of the step from
    c, from the moves run once on c's labels and on h's that carry their
    input terms."""
    g, log = c.graph, []
    tracked = [
        Edge(e.w, e.b, (_Tracked(e.h[0], 0, {s: 1}, log), _Tracked(e.h[1], 1, {s: 1}, log)))
        for s, e in enumerate(g.edges)
    ]
    rec = _Recording(g, tracked)
    batch = DoubleCircuitConfig(rec, c.d, dict(c.white_labels), dict(c.black_labels))
    for f in renew:
        urban_renewal(batch, f)
    vmap = spoke_rename_map(c, batch, white_rule, black_rule)
    inc = rec.incidence()
    for v in [v for v in g.white_ids + g.black_ids if len(inc[v]) == 2]:
        remove_degree2(batch, v)
    closed = _closed(batch)
    out = rename_faces_like(relabel(closed, vmap), template).graph
    recipes = tuple(map(_recipe, (e.h for e in out.edges)))
    plan = _Plan(
        template,
        tuple(log),
        tuple(rec.program),
        frozenset(closed.graph.white_ids + closed.graph.black_ids),
        vmap,
        out.white_ids,
        out.black_ids,
        tuple(Edge(e.w, e.b, _h_of(g.edges, r)) for e, r in zip(out.edges, recipes)),
        recipes,
        out.faces,
        tuple(rec.rewrites),
        {s: i for i, s in enumerate(rec._edges)},  # close numbers the edges by slot
    )
    return plan, *_kept_labels(plan, batch.white_labels, batch.black_labels)


def _recipe(h):
    """An output h as None when it is zero, the input slot it copies, or
    the (slot, coefficient) pairs of its signed sum of input h's."""
    a, b = (x.terms if isinstance(x, _Tracked) else {} for x in h)
    assert a == b, "a step's h arithmetic was not componentwise"
    if not a:
        return None
    return next(iter(a)) if list(a.values()) == [1] else tuple(a.items())


def _h_of(edges, recipe) -> tuple:
    """The h an output edge's recipe gives on these input edges."""
    if recipe is None:
        return 0, 0
    if type(recipe) is int:
        return edges[recipe].h
    x = y = 0
    for s, k in recipe:
        h = edges[s].h
        x, y = x + k * h[0], y + k * h[1]
    return x, y


def _holds(checks, edges) -> bool:
    """Whether every recorded h comparison comes out as recorded on these edges."""
    for comp, terms, outcome in checks:
        x = 0
        for s, k in terms:
            x += k * edges[s].h[comp]
        if (x == 0) != outcome:
            return False
    return True


def _kept_labels(plan: _Plan, wl: dict, bl: dict) -> tuple:
    """The step's label dicts: the labels of the closed batch's vertices,
    renamed, in the order the moves leave them."""
    m, alive = plan.vmap.get, plan.alive
    return tuple({m(v, v): x for v, x in labels.items() if v in alive} for labels in (wl, bl))


def _replayed(plan: _Plan, c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """The step from c by its plan: the label program on c's labels, with
    the meets and checks of the moves, and the graph built from the record."""
    wl, bl = dict(c.white_labels), dict(c.black_labels)
    for args, new in plan.program:
        if new is None:
            _check_merge(bl if args[0] else wl, *args[1:])
        else:
            wl[new[0]], wl[new[1]], bl[new[2]], bl[new[3]] = _renewal_labels(wl, bl, *args)
    g = c.graph
    edges = [e if r is None else Edge(e.w, e.b, _h_of(g.edges, r)) for e, r in zip(plan.edges, plan.recipes)]
    return DoubleCircuitConfig(_built(plan, g, edges), c.d, *_kept_labels(plan, wl, bl))


def _built(plan: _Plan, g: TorusGraph, edges) -> TorusGraph:
    """The output graph of the step from g: the recorded ids and faces, the
    given edges, and g's basis cycles carried along the recorded rewrites;
    it shares g's store of plans."""
    basis = list(g.basis_cycles or ())
    for paths in plan.rewrites:
        basis = [_rewrite_walk(z, paths) for z in basis]
    position = plan.position.__getitem__
    basis = tuple(tuple(map(position, z)) for z in basis) or None
    out = TorusGraph(plan.white_ids, plan.black_ids, edges, plan.faces, basis)
    out._plans = g._plans
    return out


def rename_faces_like(c: DoubleCircuitConfig, template: TorusGraph) -> DoubleCircuitConfig:
    """Give c's faces the ids of the template faces with the same vertex
    cycles (up to rotation/reflection).  Requires a bijection."""
    key_to_id = template.face_ids_by_key()
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
    g, m = c.graph, vmap.get
    graph = TorusGraph(
        tuple(m(v, v) for v in g.white_ids),
        tuple(m(v, v) for v in g.black_ids),
        tuple(Edge(m(e.w, e.w), m(e.b, e.b), e.h) for e in g.edges),
        g.faces,
        g.basis_cycles,
    )
    wl = {m(k, k): v for k, v in c.white_labels.items()}
    bl = {m(k, k): v for k, v in c.black_labels.items()}
    return DoubleCircuitConfig(graph, c.d, wl, bl)
