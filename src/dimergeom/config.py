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
from collections import Counter
from typing import NamedTuple

from .errors import (
    BadBasis,
    DegreeExceedsBound,
    DimensionMismatch,
    InputError,
    VanishingPairing,
)
from .geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    circuit_failure,
    face_coherent,
    is_circuit,
    multi_ratio,
)
from .scalars import FLOAT, RATIONAL, _ipow, parse_coords, parse_ints, scalar_str
from .torusgraph import (
    Edge,
    Face,
    TorusGraph,
    canonical_basis_cycles,
    face_vertex_sequence,
    vertex_edges,
    walk_h_sum,
)


class DoubleCircuitConfig(NamedTuple):
    graph: TorusGraph
    d: int
    white_labels: dict  # white id -> point
    black_labels: dict  # black id -> hyperplane


class CohomologyClass(NamedTuple):
    lam: object
    mu: object


class ConditionReport(NamedTuple):
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


def check_V(c: DoubleCircuitConfig) -> ConditionReport:
    """Circuit condition at every vertex."""
    failures, messages = _circuit_failures(c, [*c.graph.white_ids, *c.graph.black_ids])
    return ConditionReport(ok=not failures, failures=failures, messages=messages)


def _circuit_failures(c: DoubleCircuitConfig, vertices) -> tuple:
    """(failing vertices, messages) of the circuit condition at the given
    vertices, in order, after check_labels; DegreeExceedsBound at the
    first vertex of degree above d + 2.  spectral.BlackFibre reads the
    white vertices alone: its weights are the relations at the black ones."""
    check_labels(c)
    g = c.graph
    inc = vertex_edges(g)
    failures, messages = [], []
    for v in vertices:
        deg = len(inc[v])
        if deg > c.d + 2:
            raise DegreeExceedsBound(f"vertex {v} has degree {deg} > d+2 = {c.d + 2}")
        edges = [g.edges[ei] for ei in inc[v]]
        labels = [c.black_labels[e.b] if v == e.w else c.white_labels[e.w] for e in edges]
        if len(labels) < 2 or not is_circuit(labels):
            reason = f"degree {len(labels)}" if len(labels) < 2 else circuit_failure(labels)
            failures.append(v)
            messages.append(f"vertex {v}: neighbor labels do not form a circuit ({reason})")
    return failures, messages


def walk_label_cycle(c: DoubleCircuitConfig, walk) -> list:
    """Labels along a closed alternating walk of edge indices (a face
    boundary or a basis cycle): [A(w0), l(b0), A(w1), l(b1), ...]."""
    edges = [c.graph.edges[ei] for ei in walk]
    return [c.white_labels[e.w] if slot % 2 == 0 else c.black_labels[e.b] for slot, e in enumerate(edges)]


def check_F(c: DoubleCircuitConfig) -> ConditionReport:
    """Coherence (multi-ratio one) at every face.

    If exactly one face fails the report is flagged: a tiling with all
    faces coherent but one is impossible, so a single failure signals a
    data or orientation bug rather than genuine incoherence.
    """
    check_labels(c)
    failures, messages = [], []
    for face in c.graph.faces:
        cyc = walk_label_cycle(c, face.edges)
        try:
            ok = face_coherent(cyc)
        except VanishingPairing as exc:
            raise VanishingPairing(f"face {face.id}: {exc}") from exc
        if not ok:
            failures.append(face.id)
            messages.append(f"face {face.id}: multi-ratio != 1 (is {scalar_str(multi_ratio(cyc))})")
    return ConditionReport(
        ok=not failures,
        failures=failures,
        messages=messages,
        suspicious_single_failure=len(failures) == 1,
    )


def check_labels(c: DoubleCircuitConfig) -> None:
    """DimensionMismatch at the first vertex without a label of its kind in dimension d."""
    for v in c.graph.white_ids:
        lbl = c.white_labels.get(v)
        if lbl is None or lbl.kind != POINT or lbl.dim != c.d:
            raise DimensionMismatch(f"white vertex {v}: missing or invalid point label")
    for v in c.graph.black_ids:
        lbl = c.black_labels.get(v)
        if lbl is None or lbl.kind != HYPERPLANE or lbl.dim != c.d:
            raise DimensionMismatch(f"black vertex {v}: missing or invalid hyperplane label")


def walk_period(c: DoubleCircuitConfig, walk):
    """Period of a closed alternating walk: the multi-ratio of its labels."""
    return multi_ratio(walk_label_cycle(c, walk))


def cohomology_class(c: DoubleCircuitConfig) -> CohomologyClass:
    """Class (lambda, mu) of the pairing cocycle in the basis dual to the
    standard homology basis implied by the h data.

    It is read along the graph's basis cycles, or its canonical ones when
    it carries none: closed alternating walks whose signed h-sums must
    form a Z-basis of Z^2 (BadBasis otherwise).  Coherence makes the
    result independent of the walk choice within fixed homology classes.
    """
    z1, z2 = c.graph.basis_cycles or canonical_basis_cycles(c.graph)
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


# ------------------------------------------------------------------ JSON I/O


def scalar_kind(c: DoubleCircuitConfig) -> str:
    """FLOAT when any label has a float coordinate, else RATIONAL."""
    labels = (*c.white_labels.values(), *c.black_labels.values())
    return FLOAT if any(e.ints is None for e in labels) else RATIONAL


def config_to_dict(c: DoubleCircuitConfig) -> dict:
    g = c.graph
    pair_count = Counter((e.w, e.b) for e in g.edges)
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
        "faces": [_face_to_json(g, f, pair_count) for f in g.faces],
        "face_ids": [f.id for f in g.faces],
    }
    if g.basis_cycles is not None:
        out["basis_cycles"] = {"z1": list(g.basis_cycles[0]), "z2": list(g.basis_cycles[1])}
    return out


def _face_to_json(g: TorusGraph, f: Face, pair_count: Counter):
    # vertex-id form when consecutive endpoints determine edges uniquely,
    # explicit edge refs otherwise (parallel edges)
    if all(pair_count[(g.edges[ei].w, g.edges[ei].b)] == 1 for ei in f.edges):
        return face_vertex_sequence(g, f)
    return [{"e": ei} for ei in f.edges]


def config_from_dict(data: dict) -> DoubleCircuitConfig:
    """Parse the JSON form.  Coordinates are read as the file's "scalar"
    kind.  Raises InputError for an unknown kind and for any structural
    defect (wrong JSON types, a float or string where an integer belongs,
    missing keys, h vectors not of two entries, edge refs out of range in
    faces or basis cycles, vertex ids or face_ids not strings, face_ids
    not matching faces, label lengths not matching the dimension,
    malformed scalars)."""
    if not isinstance(data, dict):
        raise InputError("configuration must be a JSON object")
    scalar = data.get("scalar", RATIONAL)
    if scalar not in (RATIONAL, FLOAT):
        raise InputError(f"unknown scalar kind {scalar!r}")
    try:
        return _config_from_dict(data, scalar)
    except InputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed configuration: {type(exc).__name__}: {exc}") from exc


def _config_from_dict(data: dict, scalar: str) -> DoubleCircuitConfig:
    d = data["dimension"]
    if type(d) is not int:
        raise InputError(f"dimension: expected an integer, got {d!r}")
    white_ids, white_labels = _vertices(data, "white", POINT, d, scalar)
    black_ids, black_labels = _vertices(data, "black", HYPERPLANE, d, scalar)
    edges = tuple(_edge(i, e) for i, e in enumerate(_listed(data["edges"], "edges")))
    faces_json = _listed(data.get("faces", []), "faces")
    face_ids = data.get("face_ids")
    if face_ids is None:
        face_ids = [f"f{i}" for i in range(len(faces_json))]
    if not (isinstance(face_ids, list) and all(isinstance(fid, str) for fid in face_ids)):
        raise InputError("face_ids must be a list of strings")
    if len(face_ids) != len(faces_json):
        raise InputError(f"{len(face_ids)} face_ids for {len(faces_json)} faces")
    faces = _faces_from_json(white_ids, black_ids, edges, faces_json, face_ids)
    basis = None
    cycles = data.get("basis_cycles")
    if cycles is not None:
        if not (isinstance(cycles, dict) and all(isinstance(cycles.get(z), list) for z in ("z1", "z2"))):
            raise InputError("basis_cycles: expected an object with z1 and z2 edge lists")
        basis = tuple(parse_ints(cycles[z], f"basis_cycles {z}") for z in ("z1", "z2"))
        if not all(0 <= ei < len(edges) for walk in basis for ei in walk):
            raise InputError(f"basis_cycles: edge index out of range 0..{len(edges) - 1}")
    graph = TorusGraph(white_ids, black_ids, edges, faces, basis)
    return DoubleCircuitConfig(graph, d, white_labels, black_labels)


def _listed(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list, not {type(value).__name__}")
    return value


def _vertices(data: dict, side: str, kind: str, d: int, scalar: str):
    """(ids, labels) of the white or black entries: objects with a string
    id, and coords when labelled (d + 1 homogeneous ones, or d affine ones
    for a point)."""
    entries = _listed(data[side], side)
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "id" in entry):
            raise InputError(f"{side} entry {i}: expected an object with an id, got {entry!r}")
        if not isinstance(entry["id"], str):
            raise InputError(f"{side} entry {i}: id must be a string, got {entry['id']!r}")
    labels = {
        e["id"]: HomogeneousElement(parse_coords(e["coords"], f"{kind} {e['id']}", scalar, d, kind == POINT), kind)
        for e in entries
        if e.get("coords") is not None
    }
    return tuple(e["id"] for e in entries), labels


def _edge(i: int, e: dict) -> Edge:
    if not (isinstance(e, dict) and {"w", "b", "h"} <= e.keys()):
        raise InputError(f"edge {i}: expected an object with w, b and h, got {e!r}")
    for end in ("w", "b"):
        if not isinstance(e[end], str):
            raise InputError(f"edge {i}: {end} must be a vertex id string, got {e[end]!r}")
    h = parse_ints(e["h"], f"edge {i} h")
    if len(h) != 2:
        raise InputError(f"edge {i} h: expected two integers, got {list(h)!r}")
    return Edge(e["w"], e["b"], h)


def _faces_from_json(white_ids, black_ids, edges, faces_json, face_ids):
    whites = set(white_ids)
    by_pair = {}
    for i, e in enumerate(edges):
        by_pair.setdefault((e.w, e.b), []).append(i)
    used = {}
    faces = []
    for fid, entry in zip(face_ids, faces_json):
        if not (isinstance(entry, list) and any(all(isinstance(x, t) for x in entry) for t in (str, dict))):
            raise InputError(f"face {fid}: expected a list of vertex ids or of edge refs, got {entry!r}")
        if entry and isinstance(entry[0], dict):
            refs = parse_ints([x.get("e") for x in entry], f"face {fid} edge refs")
            if not all(0 <= ei < len(edges) for ei in refs):
                raise InputError(f"face {fid}: edge ref out of range 0..{len(edges) - 1} in {list(refs)}")
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
                raise InputError(f"face {fid}: no edge between {pair}")
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


def read_json(path):
    """The JSON value of a file; text that is not UTF-8 is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_config(path) -> DoubleCircuitConfig:
    return config_from_dict(read_json(path))


def labels_projectively_equal(c1: DoubleCircuitConfig, c2: DoubleCircuitConfig) -> bool:
    # dict equality: the same vertex ids, and labels equal up to scale
    return c1.white_labels == c2.white_labels and c1.black_labels == c2.black_labels
