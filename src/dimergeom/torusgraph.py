"""Bipartite graphs on the torus with a Z^2 homology cocycle per edge.

An edge carries the deck offset h in Z^2 of its white-to-black traversal:
in the universal cover, the edge from a lift of the white vertex reaches
the lift of the black vertex translated by h.  "Torus-embedded" means,
for this artifact: the signed h-sum around every face is (0,0) and the
lattice of signed h-sums over all closed walks has rank 2.

Faces are stored as cyclic edge-index lists; the traversal alternates
white-to-black on even slots and black-to-white on odd slots, starting
white-to-black.  That resolves parallel edges unambiguously (vertex-id
sequences cannot).
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import BadWalk, UnequalColorCounts


@dataclass(frozen=True)
class Edge:
    w: str
    b: str
    h: tuple  # (int, int)


@dataclass(frozen=True)
class Face:
    id: str
    edges: tuple  # edge indices, alternating traversal starting white->black


@dataclass(frozen=True)
class TorusGraph:
    white_ids: tuple
    black_ids: tuple
    edges: tuple  # of Edge
    faces: tuple  # of Face
    basis_cycles: tuple | None = None  # (walk, walk), walks = edge-index tuples


def vertex_edges(g: TorusGraph) -> dict:
    """vertex id -> list of incident edge indices, in stored edge order."""
    inc: dict = defaultdict(list)
    for i, e in enumerate(g.edges):
        inc[e.w].append(i)
        inc[e.b].append(i)
    for v in list(g.white_ids) + list(g.black_ids):
        inc.setdefault(v, [])
    return dict(inc)


def face_vertex_sequence(g: TorusGraph, face: Face) -> list:
    """Vertex ids along the face boundary: [w0, b0, w1, b1, ...]."""
    seq = []
    for slot, ei in enumerate(face.edges):
        e = g.edges[ei]
        seq.append(e.w if slot % 2 == 0 else e.b)
    return seq


def face_key(g: TorusGraph, face: Face) -> tuple:
    """Canonical form of the face's vertex cycle, invariant under rotation
    and reflection.  Used to re-identify faces across move sequences."""
    seq = face_vertex_sequence(g, face)
    variants = []
    for base in (list(seq), [seq[0]] + list(reversed(seq[1:]))):
        for s in range(0, len(base), 2):
            variants.append(tuple(base[s:] + base[:s]))
    return min(variants)


def _face_traversal_ok(g: TorusGraph, face: Face) -> str | None:
    """Check alternation and endpoint chaining; return a message on failure."""
    es = face.edges
    if len(es) < 2 or len(es) % 2 != 0:
        return f"face {face.id}: boundary length {len(es)} is not even >= 2"
    n = len(es)
    for slot in range(n):
        e, nxt = g.edges[es[slot]], g.edges[es[(slot + 1) % n]]
        if slot % 2 == 0:
            # w->b; next edge shares the black vertex
            if e.b != nxt.b:
                return f"face {face.id}: slots {slot},{slot + 1} do not share a black vertex"
        else:
            if e.w != nxt.w:
                return f"face {face.id}: slots {slot},{slot + 1} do not share a white vertex"
    return None


def walk_h_sum(g: TorusGraph, walk) -> tuple:
    a = b = 0
    for slot, ei in enumerate(walk):
        h = g.edges[ei].h
        if slot % 2 == 0:
            a, b = a + h[0], b + h[1]
        else:
            a, b = a - h[0], b - h[1]
    return a, b


def check_walk(g: TorusGraph, walk) -> None:
    msg = _face_traversal_ok(g, Face("walk", tuple(walk)))
    if msg is not None:
        raise BadWalk(msg.replace("face walk:", "walk:"))


def cycle_space_h_lattice(g: TorusGraph):
    """Generators of the lattice of signed h-sums over closed walks.

    Spanning-tree construction: each vertex gets a Z^2 potential from a BFS
    tree; every non-tree edge contributes (h(e) - phi(b) + phi(w)).
    """
    inc = vertex_edges(g)
    phi: dict = {}
    gens = []
    for root in list(g.white_ids) + list(g.black_ids):
        if root in phi:
            continue
        phi[root] = (0, 0)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for ei in inc[v]:
                e = g.edges[ei]
                other = e.b if v == e.w else e.w
                # potential convention: phi(b) = phi(w) + h along tree edges
                step = e.h if v == e.w else (-e.h[0], -e.h[1])
                if other not in phi:
                    phi[other] = (phi[v][0] + step[0], phi[v][1] + step[1])
                    queue.append(other)
    seen = set()
    for ei, e in enumerate(g.edges):
        if e.w in phi and e.b in phi:
            gen = (e.h[0] - phi[e.b][0] + phi[e.w][0], e.h[1] - phi[e.b][1] + phi[e.w][1])
            if gen != (0, 0) and gen not in seen:
                seen.add(gen)
                gens.append(gen)
    return gens


def _z_lattice_rank(gens) -> int:
    """Rank over Z of a list of integer pairs."""
    vecs = [v for v in gens if v != (0, 0)]
    if not vecs:
        return 0
    a = vecs[0]
    for v in vecs[1:]:
        if a[0] * v[1] - a[1] * v[0] != 0:
            return 2
    return 1


@dataclass
class GraphReport:
    ok: bool
    violations: list
    n_white: int
    n_black: int
    n_edges: int
    n_faces: int
    euler: int

    def __str__(self):
        head = "valid" if self.ok else "INVALID"
        lines = [
            f"{head}: white={self.n_white} black={self.n_black} "
            f"edges={self.n_edges} faces={self.n_faces} euler={self.euler}"
        ]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def validate_graph(g: TorusGraph) -> GraphReport:
    """Check all TorusGraph invariants; violations are reported, not raised."""
    violations = []
    whites, blacks = set(g.white_ids), set(g.black_ids)
    if whites & blacks:
        violations.append(f"ids in both colors: {sorted(whites & blacks)}")
    if len(whites) != len(g.white_ids) or len(blacks) != len(g.black_ids):
        violations.append("duplicate vertex ids")
    for i, e in enumerate(g.edges):
        if e.w not in whites:
            violations.append(f"edge {i}: unknown white vertex {e.w!r}")
        if e.b not in blacks:
            violations.append(f"edge {i}: unknown black vertex {e.b!r}")

    # every edge on exactly two faces (or twice on one face)
    use = defaultdict(int)
    for f in g.faces:
        msg = _face_traversal_ok(g, f)
        if msg:
            violations.append(msg)
        for ei in f.edges:
            use[ei] += 1
    if g.faces or g.edges:
        for ei in range(len(g.edges)):
            if use[ei] != 2:
                violations.append(f"edge {ei} lies on {use[ei]} face slots, expected 2")

    for f in g.faces:
        hs = walk_h_sum(g, f.edges)
        if hs != (0, 0):
            violations.append(f"face {f.id}: h-sum {hs} != (0, 0)")

    if g.edges:
        lat_rank = _z_lattice_rank(cycle_space_h_lattice(g))
        if lat_rank != 2:
            violations.append(f"period lattice rank {lat_rank} != 2")

    euler = len(g.white_ids) + len(g.black_ids) - len(g.edges) + len(g.faces)
    return GraphReport(
        ok=not violations,
        violations=violations,
        n_white=len(g.white_ids),
        n_black=len(g.black_ids),
        n_edges=len(g.edges),
        n_faces=len(g.faces),
        euler=euler,
    )


def delete_edge(g: TorusGraph, ei: int, merged_face_id: str | None = None) -> TorusGraph:
    """Remove one edge and merge its two (distinct) faces."""
    hosts = [f for f in g.faces if ei in f.edges]
    if len(hosts) != 2:
        raise BadWalk(f"edge {ei} lies on {len(hosts)} distinct faces, need 2")
    f1, f2 = hosts
    a, b = list(f1.edges), list(f2.edges)
    p1, p2 = a.index(ei), b.index(ei)
    merged = a[p1 + 1 :] + a[:p1] + b[p2 + 1 :] + b[:p2]
    candidates = [merged, merged[-1:] + merged[:-1]]
    index_map = {}
    edges = []
    for i, e in enumerate(g.edges):
        if i == ei:
            continue
        index_map[i] = len(edges)
        edges.append(e)
    fid = merged_face_id or f"{f1.id}+{f2.id}"
    faces = [Face(f.id, tuple(index_map[x] for x in f.edges)) for f in g.faces if f not in hosts]
    new_graph = None
    for cand in candidates:
        nf = Face(fid, tuple(index_map[x] for x in cand))
        trial = TorusGraph(g.white_ids, g.black_ids, tuple(edges), tuple(faces + [nf]), None)
        if _face_traversal_ok(trial, nf) is None:
            new_graph = trial
            break
    if new_graph is None:
        raise BadWalk(f"could not merge faces {f1.id}, {f2.id} after deleting edge {ei}")
    return new_graph


def dimension_report(g: TorusGraph, d: int) -> dict:
    """Equation/parameter counts for the black-data recovery problem."""
    k = len(g.white_ids)
    if k != len(g.black_ids):
        raise UnequalColorCounts(f"{k} white vs {len(g.black_ids)} black")
    return dimension_report_from_counts(k, len(g.edges), len(g.faces), d)


def dimension_report_from_counts(k: int, e: int, f: int, d: int) -> dict:
    euler = 2 * k - e + f
    return {
        "equations": k * (d + 2) - e + f - 1,
        "parameters": k * d,
        "euler": euler,
        "expected_dim": 1 - euler,
    }


def find_walk(g: TorusGraph, target: tuple, start_white: str | None = None, radius: int | None = None):
    """Closed walk (edge-index list) whose signed h-sum equals ``target``.

    BFS in the universal cover from a white vertex to its ``target``
    translate.  Used by template builders to ship canonical basis cycles.
    """
    inc = vertex_edges(g)
    if start_white is None:
        start_white = g.white_ids[0]
    if radius is None:
        radius = len(g.white_ids) + len(g.black_ids) + abs(target[0]) + abs(target[1]) + 4
    start = (start_white, 0, 0)
    goal = (start_white, target[0], target[1])
    prev: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        v, a, b = node
        for ei in inc[v]:
            e = g.edges[ei]
            if v == e.w:
                nxt = (e.b, a + e.h[0], b + e.h[1])
            else:
                nxt = (e.w, a - e.h[0], b - e.h[1])
            if abs(nxt[1]) > radius or abs(nxt[2]) > radius:
                continue
            if nxt not in prev:
                prev[nxt] = (node, ei)
                queue.append(nxt)
    if goal not in prev:
        raise BadWalk(f"no closed walk with h-sum {target} found")
    walk = []
    node = goal
    while prev[node] is not None:
        node, ei = prev[node]
        walk.append(ei)
    walk.reverse()
    check_walk(g, walk)
    return walk


def canonical_basis_cycles(g: TorusGraph):
    """Walks with h-classes (1,0) and (0,1)."""
    return tuple(find_walk(g, (1, 0))), tuple(find_walk(g, (0, 1)))


def with_basis_cycles(g: TorusGraph) -> TorusGraph:
    if g.basis_cycles is not None:
        return g
    z1, z2 = canonical_basis_cycles(g)
    return TorusGraph(g.white_ids, g.black_ids, g.edges, g.faces, (z1, z2))
