"""Double circuit configurations: labels on a torus graph plus the
condition validators and the cohomology class.

Condition (V): the labels of every vertex's neighbors form a circuit.
Condition (F): every face's multi-ratio equals one.

The cohomology class of a coherent configuration is the class of the
edge cocycle of pairings <l(b), A(w)>.  With the magnetic-matrix
convention used by the spectral module (entry kappa * lambda^h1 * mu^h2),
the class (lambda, mu) returned here satisfies
lambda^a * mu^b = period of any closed walk with signed h-sum (a, b);
that is the sign convention under which the class lies on the spectral
curve.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadBasis,
    DegreeExceedsBound,
    DimensionMismatch,
    VanishingPairing,
)
from .geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    face_coherent,
    is_circuit,
    pairing,
)
from .laurent import _ipow
from .scalars import FLOAT, RATIONAL, is_float, is_zero, parse_scalar, scalar_str
from .torusgraph import (
    Edge,
    Face,
    TorusGraph,
    face_vertex_sequence,
    vertex_edges,
    walk_h_sum,
)


@dataclass(frozen=True)
class DoubleCircuitConfig:
    graph: TorusGraph
    d: int
    white_labels: dict  # white id -> point
    black_labels: dict  # black id -> hyperplane


@dataclass(frozen=True)
class CohomologyClass:
    lam: object
    mu: object

    def __iter__(self):
        return iter((self.lam, self.mu))


@dataclass
class ConditionReport:
    ok: bool
    failures: list  # vertex ids or face ids
    messages: list
    suspicious_single_failure: bool = False

    def __str__(self):
        head = "pass" if self.ok else f"FAIL at {self.failures}"
        out = [head] + [f"  - {m}" for m in self.messages]
        if self.suspicious_single_failure:
            out.append("  - exactly one face fails: probable data/orientation bug")
        return "\n".join(out)


def neighbor_labels(c: DoubleCircuitConfig, v: str) -> list:
    """Labels of v's neighbors, one entry per incident edge."""
    labels = []
    for ei in vertex_edges(c.graph).get(v, []):
        e = c.graph.edges[ei]
        if v == e.w:
            labels.append(c.black_labels[e.b])
        else:
            labels.append(c.white_labels[e.w])
    return labels


def check_V(c: DoubleCircuitConfig) -> ConditionReport:
    """Circuit condition at every vertex."""
    _check_label_dims(c)
    inc = vertex_edges(c.graph)
    failures, messages = [], []
    for v in list(c.graph.white_ids) + list(c.graph.black_ids):
        deg = len(inc.get(v, []))
        if deg > c.d + 2:
            raise DegreeExceedsBound(f"vertex {v} has degree {deg} > d+2 = {c.d + 2}")
        labels = neighbor_labels(c, v)
        if len(labels) < 2 or not is_circuit(labels):
            failures.append(v)
            messages.append(f"vertex {v}: neighbor labels do not form a circuit")
    return ConditionReport(ok=not failures, failures=failures, messages=messages)


def face_label_cycle(c: DoubleCircuitConfig, face: Face) -> list:
    seq = face_vertex_sequence(c.graph, face)
    out = []
    for slot, v in enumerate(seq):
        out.append(c.white_labels[v] if slot % 2 == 0 else c.black_labels[v])
    return out


def check_F(c: DoubleCircuitConfig) -> ConditionReport:
    """Coherence (multi-ratio one) at every face.

    If exactly one face fails the report is flagged: a tiling with all
    faces coherent but one is impossible, so a single failure signals a
    data or orientation bug rather than genuine incoherence.
    """
    _check_label_dims(c)
    failures, messages = [], []
    for face in c.graph.faces:
        cyc = face_label_cycle(c, face)
        try:
            ok = face_coherent(cyc)
        except VanishingPairing as exc:
            raise VanishingPairing(f"face {face.id}: {exc}") from exc
        if not ok:
            failures.append(face.id)
            messages.append(f"face {face.id}: multi-ratio != 1")
    return ConditionReport(
        ok=not failures,
        failures=failures,
        messages=messages,
        suspicious_single_failure=len(failures) == 1,
    )


def _check_label_dims(c: DoubleCircuitConfig) -> None:
    for v in c.graph.white_ids:
        lbl = c.white_labels.get(v)
        if lbl is None or lbl.kind != POINT or lbl.dim != c.d:
            raise DimensionMismatch(f"white vertex {v}: missing or invalid point label")
    for v in c.graph.black_ids:
        lbl = c.black_labels.get(v)
        if lbl is None or lbl.kind != HYPERPLANE or lbl.dim != c.d:
            raise DimensionMismatch(f"black vertex {v}: missing or invalid hyperplane label")


def edge_pairing(c: DoubleCircuitConfig, ei: int):
    e = c.graph.edges[ei]
    val = pairing(c.black_labels[e.b], c.white_labels[e.w])
    scale = max(abs(a * b) for a, b in zip(c.black_labels[e.b].coords, c.white_labels[e.w].coords))
    if is_zero(val, scale=scale):
        raise VanishingPairing(f"edge {ei} ({e.w}, {e.b}): point lies on hyperplane")
    return val


def walk_period(c: DoubleCircuitConfig, walk):
    num = 1
    den = 1
    for slot, ei in enumerate(walk):
        v = edge_pairing(c, ei)
        if slot % 2 == 0:
            num *= v
        else:
            den *= v
    return num / den


def cohomology_class(c: DoubleCircuitConfig, z1=None, z2=None) -> CohomologyClass:
    """Class (lambda, mu) of the pairing cocycle in the basis dual to the
    standard homology basis implied by the h data.

    z1, z2 are closed alternating walks (edge-index sequences) whose
    signed h-sums form a Z-basis of Z^2; the graph's shipped basis cycles
    are used when omitted.  Coherence makes the result independent of the
    walk choice within fixed homology classes.
    """
    if z1 is None or z2 is None:
        if c.graph.basis_cycles is None:
            from .torusgraph import canonical_basis_cycles

            z1, z2 = canonical_basis_cycles(c.graph)
        else:
            z1, z2 = c.graph.basis_cycles
    a1, b1 = walk_h_sum(c.graph, z1)
    a2, b2 = walk_h_sum(c.graph, z2)
    det = a1 * b2 - b1 * a2
    if det not in (1, -1):
        raise BadBasis(f"period matrix {[(a1, b1), (a2, b2)]} has determinant {det}")
    p1 = walk_period(c, z1)
    p2 = walk_period(c, z2)
    # inverse of [[a1, b1], [a2, b2]] over Z
    n00, n01 = b2 // det, -b1 // det
    n10, n11 = -a2 // det, a1 // det
    lam = _ipow(p1, n00) * _ipow(p2, n01)
    mu = _ipow(p1, n10) * _ipow(p2, n11)
    return CohomologyClass(lam, mu)


def class_equal(c1: CohomologyClass, c2: CohomologyClass) -> bool:
    s1 = max(abs(c1.lam), abs(c2.lam))
    s2 = max(abs(c1.mu), abs(c2.mu))
    return is_zero(c1.lam - c2.lam, scale=s1) and is_zero(c1.mu - c2.mu, scale=s2)


# ------------------------------------------------------------------ JSON I/O


def scalar_kind(c: DoubleCircuitConfig) -> str:
    """FLOAT when any label has a float coordinate, else RATIONAL."""
    labels = (*c.white_labels.values(), *c.black_labels.values())
    return FLOAT if any(is_float(e.coords) for e in labels) else RATIONAL


def config_to_dict(c: DoubleCircuitConfig) -> dict:
    g = c.graph
    out = {
        "dimension": c.d,
        "scalar": scalar_kind(c),
        "white": [
            {"id": v, "coords": [scalar_str(x) for x in c.white_labels[v].coords]}
            for v in g.white_ids
            if v in c.white_labels
        ],
        "black": [
            ({"id": v, "coords": [scalar_str(x) for x in c.black_labels[v].coords]}
             if v in c.black_labels else {"id": v})
            for v in g.black_ids
        ],
        "edges": [{"w": e.w, "b": e.b, "h": [e.h[0], e.h[1]]} for e in g.edges],
        "faces": [_face_to_json(g, f) for f in g.faces],
        "face_ids": [f.id for f in g.faces],
    }
    if g.basis_cycles is not None:
        out["basis_cycles"] = {"z1": list(g.basis_cycles[0]), "z2": list(g.basis_cycles[1])}
    return out


def _face_to_json(g: TorusGraph, f: Face):
    # vertex-id form when consecutive endpoints determine edges uniquely,
    # explicit edge refs otherwise (parallel edges)
    pair_count = {}
    for e in g.edges:
        pair_count[(e.w, e.b)] = pair_count.get((e.w, e.b), 0) + 1
    if all(pair_count[(g.edges[ei].w, g.edges[ei].b)] == 1 for ei in f.edges):
        return face_vertex_sequence(g, f)
    return [{"e": ei} for ei in f.edges]


def config_from_dict(data: dict) -> DoubleCircuitConfig:
    """Parse the JSON form.  Coordinates are read as the file's "scalar"
    kind.  Raises ValueError for an unknown kind and for any structural
    defect (wrong JSON types, missing keys, short h vectors, edge refs out
    of range, malformed scalars)."""
    if not isinstance(data, dict):
        raise ValueError("configuration must be a JSON object")
    scalar = data.get("scalar", RATIONAL)
    if scalar not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    try:
        return _config_from_dict(data, scalar)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed configuration: {type(exc).__name__}: {exc}") from exc


def _config_from_dict(data: dict, scalar: str) -> DoubleCircuitConfig:
    d = int(data["dimension"])
    white_ids = tuple(w["id"] for w in data["white"])
    black_ids = tuple(b["id"] for b in data["black"])
    edges = tuple(
        Edge(e["w"], e["b"], (int(e["h"][0]), int(e["h"][1]))) for e in data["edges"]
    )
    face_ids = data.get("face_ids") or [f"f{i}" for i in range(len(data.get("faces", [])))]
    faces = _faces_from_json(white_ids, black_ids, edges, data.get("faces", []), face_ids)
    basis = None
    if "basis_cycles" in data and data["basis_cycles"]:
        basis = (
            tuple(int(i) for i in data["basis_cycles"]["z1"]),
            tuple(int(i) for i in data["basis_cycles"]["z2"]),
        )
    graph = TorusGraph(white_ids, black_ids, edges, faces, basis)
    white_labels = {
        w["id"]: _parse_label(w["coords"], POINT, d, scalar)
        for w in data["white"]
        if "coords" in w and w["coords"] is not None
    }
    black_labels = {
        b["id"]: _parse_label(b["coords"], HYPERPLANE, d, scalar)
        for b in data["black"]
        if "coords" in b and b["coords"] is not None
    }
    return DoubleCircuitConfig(graph, d, white_labels, black_labels)


def _parse_label(coords, kind, d, scalar):
    vals = [parse_scalar(x, scalar) for x in coords]
    if kind == POINT and len(vals) == d:
        vals.append(parse_scalar("1", scalar))  # affine input: lift with trailing 1
    return HomogeneousElement(tuple(vals), kind)


def _faces_from_json(white_ids, black_ids, edges, faces_json, face_ids):
    whites = set(white_ids)
    by_pair = {}
    for i, e in enumerate(edges):
        by_pair.setdefault((e.w, e.b), []).append(i)
    used = {}
    faces = []
    for fid, entry in zip(face_ids, faces_json):
        if entry and isinstance(entry[0], dict):
            refs = tuple(int(x["e"]) for x in entry)
            if not all(0 <= ei < len(edges) for ei in refs):
                raise ValueError(f"face {fid}: edge ref out of range 0..{len(edges) - 1} in {list(refs)}")
            faces.append(Face(fid, refs))
            continue
        seq = list(entry)
        if seq and seq[0] not in whites:
            seq = seq[1:] + seq[:1]
        idxs = []
        n = len(seq)
        for slot in range(n):
            v, vn = seq[slot], seq[(slot + 1) % n]
            pair = (v, vn) if slot % 2 == 0 else (vn, v)
            cands = by_pair.get(pair, [])
            if not cands:
                raise ValueError(f"face {fid}: no edge between {pair}")
            # round-robin over parallel edges: each edge used twice in total
            k = used.get(pair, 0)
            idxs.append(cands[(k // 2) % len(cands)] if len(cands) > 1 else cands[0])
            used[pair] = k + 1
        faces.append(Face(fid, tuple(idxs)))
    return tuple(faces)


def save_config(c: DoubleCircuitConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(c), fh, indent=1)
        fh.write("\n")


def load_config(path) -> DoubleCircuitConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def labels_projectively_equal(c1: DoubleCircuitConfig, c2: DoubleCircuitConfig) -> bool:
    if set(c1.white_labels) != set(c2.white_labels) or set(c1.black_labels) != set(c2.black_labels):
        return False
    return all(c1.white_labels[v] == c2.white_labels[v] for v in c1.white_labels) and all(
        c1.black_labels[v] == c2.black_labels[v] for v in c1.black_labels
    )


def rescaled_config(c: DoubleCircuitConfig, factors: dict) -> DoubleCircuitConfig:
    """New config with some labels multiplied by nonzero scalars (gauge test)."""
    wl = dict(c.white_labels)
    bl = dict(c.black_labels)
    for v, s in factors.items():
        labels = wl if v in wl else bl if v in bl else None
        if labels is not None:
            s = float(s) if is_float(labels[v].coords) else Fraction(s)
            labels[v] = HomogeneousElement(tuple(x * s for x in labels[v].coords), labels[v].kind)
    return DoubleCircuitConfig(c.graph, c.d, wl, bl)


def coboundary_shifted(c: DoubleCircuitConfig, potentials: dict) -> DoubleCircuitConfig:
    """New config whose h data differs by the coboundary of integer-pair
    vertex potentials: h'(e) = h(e) + phi(w) - phi(b)."""
    g = c.graph
    edges = []
    for e in g.edges:
        pw = potentials.get(e.w, (0, 0))
        pb = potentials.get(e.b, (0, 0))
        edges.append(Edge(e.w, e.b, (e.h[0] + pw[0] - pb[0], e.h[1] + pw[1] - pb[1])))
    graph = TorusGraph(g.white_ids, g.black_ids, tuple(edges), g.faces, g.basis_cycles)
    return DoubleCircuitConfig(graph, c.d, c.white_labels, c.black_labels)
