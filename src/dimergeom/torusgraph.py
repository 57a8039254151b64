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
from dataclasses import dataclass, replace

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


def walk_error(g: TorusGraph, walk, name: str) -> str | None:
    """Check that the edge-index sequence is a closed alternating walk
    (alternation and endpoint chaining); return a message naming it on
    failure."""
    n = len(walk)
    if n < 2 or n % 2 != 0:
        return f"{name}: boundary length {n} is not even >= 2"
    for slot in range(n):
        e, nxt = g.edges[walk[slot]], g.edges[walk[(slot + 1) % n]]
        if slot % 2 == 0:
            # w->b; next edge shares the black vertex
            if e.b != nxt.b:
                return f"{name}: slots {slot},{slot + 1} do not share a black vertex"
        else:
            if e.w != nxt.w:
                return f"{name}: slots {slot},{slot + 1} do not share a white vertex"
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
    msg = walk_error(g, walk, "walk")
    if msg is not None:
        raise BadWalk(msg)


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
    if len({f.id for f in g.faces}) != len(g.faces):
        violations.append("duplicate face ids")
    for i, e in enumerate(g.edges):
        if e.w not in whites:
            violations.append(f"edge {i}: unknown white vertex {e.w!r}")
        if e.b not in blacks:
            violations.append(f"edge {i}: unknown black vertex {e.b!r}")

    # every edge on exactly two faces (or twice on one face)
    use = defaultdict(int)
    for f in g.faces:
        msg = walk_error(g, f.edges, f"face {f.id}")
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

    if g.basis_cycles is not None:
        errors = [walk_error(g, walk, f"basis cycle {z}") for z, walk in zip(("z1", "z2"), g.basis_cycles)]
        violations += [m for m in errors if m]
        if not any(errors):
            (a1, b1), (a2, b2) = (walk_h_sum(g, walk) for walk in g.basis_cycles)
            det = a1 * b2 - b1 * a2
            if det not in (1, -1):
                violations.append(f"basis cycles: period matrix {[(a1, b1), (a2, b2)]} has determinant {det}")

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


def substitute_edges(
    g: TorusGraph, edits: dict, new_edges, paths: dict, drop_white=(), drop_black=(), add_white=(), add_black=()
) -> TorusGraph:
    """The one graph edit behind every move: a local edge substitution.

    ``edits`` maps an old edge index to its rewritten ``Edge``, or to None
    to delete it; survivors keep their order and ``new_edges`` follow them.
    A move names new edge j as ``len(g.edges) + j``.  ``paths`` maps an
    edge to the walk that replaces it, traversed from its white end to its
    black end; every deleted edge needs one.  Every face and both basis
    cycles are rewritten by ``_rewrite_walk``; a face left empty is
    dropped.  A path keeps the edge's endpoints and signed h-sum, so the
    basis cycles survive.
    """
    index_map = {}
    edges = []
    for i, e in enumerate(g.edges):
        e = edits.get(i, e)
        if e is not None:
            index_map[i] = len(edges)
            edges.append(e)
    n = len(g.edges)
    index_map.update((n + j, len(edges) + j) for j in range(len(new_edges)))
    edges.extend(new_edges)
    faces = tuple(Face(f.id, walk) for f in g.faces if (walk := _rewrite_walk(f.edges, paths, index_map)))
    basis = g.basis_cycles and tuple(_rewrite_walk(walk, paths, index_map) for walk in g.basis_cycles)
    white = tuple(v for v in g.white_ids if v not in drop_white) + tuple(add_white)
    black = tuple(v for v in g.black_ids if v not in drop_black) + tuple(add_black)
    return TorusGraph(white, black, tuple(edges), faces, basis)


def _rewrite_walk(walk, paths: dict, index_map: dict) -> tuple:
    """Replace each slot's edge by its path (reversed on odd slots, which
    run black to white), cancel immediate backtracks, also cyclically
    across the end, and start the result white to black again."""
    if paths.keys().isdisjoint(walk):
        return tuple(index_map[ei] for ei in walk)
    out = []  # (edge, 0 for white-to-black or 1 for black-to-white)
    for slot, ei in enumerate(walk):
        path = paths.get(ei, (ei,))
        if slot % 2:
            path = path[::-1]
        for k, x in enumerate(path):
            d = (slot + k) % 2
            if out and out[-1] == (x, 1 - d):
                out.pop()
            else:
                out.append((x, d))
    lo, hi = 0, len(out)
    while hi - lo >= 2 and out[lo][0] == out[hi - 1][0] and out[lo][1] != out[hi - 1][1]:
        lo, hi = lo + 1, hi - 1
    out = out[lo:hi]
    if out and out[0][1]:
        out = out[-1:] + out[:-1]
    return tuple(index_map[x] for x, _ in out)


def delete_edge(g: TorusGraph, ei: int, merged_face_id: str) -> TorusGraph:
    """Remove one edge and merge its two (distinct) faces: the edge is
    replaced by the rest of its first face, which rewrites to nothing."""
    hosts = [f for f in g.faces if ei in f.edges]
    if len(hosts) != 2:
        raise BadWalk(f"edge {ei} lies on {len(hosts)} distinct faces, need 2")
    a = hosts[0].edges
    p = a.index(ei)
    rest = a[p + 1 :] + a[:p]  # from the far end of slot p back to its near end
    graph = substitute_edges(g, {ei: None}, (), {ei: rest if p % 2 else rest[::-1]})
    merged = next(f for f in graph.faces if f.id == hosts[1].id)
    faces = tuple(f for f in graph.faces if f is not merged) + (Face(merged_face_id, merged.edges),)
    return replace(graph, faces=faces)


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
