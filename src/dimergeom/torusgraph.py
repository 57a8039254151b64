"""Bipartite graphs on the torus with a Z^2 homology cocycle per edge.

An edge carries the deck offset h in Z^2 of its white-to-black traversal:
in the universal cover, the edge from a lift of the white vertex reaches
the lift of the black vertex translated by h.  "Torus-embedded" means,
for this artifact: the signed h-sum around every face is (0,0) and the
lattice of signed h-sums over all closed walks has rank 2.

Faces are stored as cyclic edge lists; the traversal alternates
white-to-black on even slots and black-to-white on odd slots, starting
white-to-black.  That resolves parallel edges unambiguously (vertex-id
sequences cannot).

A graph numbers its edges by their position in ``edges``; walks are
lists of these edge slots, and a closed graph is read by position.  Moves
edit a ``GraphEdit``, a copy of a graph's containers made once per batch
of moves, which alone has the slot API (``edge``, ``face``, ``faces_on``,
``next_slot``): edges are rewritten or deleted in their slots and new
edges take the slots after the last one, faces are held by id, and the
faces and basis cycles are rewritten along the moves' paths when a read
or a move needs it.  ``close`` renumbers the surviving edges in slot
order.  The incidence and face-key indices are built on first use; the
faces through an edge are found by a scan of the faces.
"""
from __future__ import annotations

from bisect import insort
from collections import defaultdict, deque
from typing import NamedTuple

from .errors import BadWalk, MoveError, UnequalColorCounts
from .record import Record, setfield


class Edge(Record):
    __slots__ = _fields = ("w", "b", "h")

    def __init__(self, w: str, b: str, h: tuple):  # h: (int, int)
        setfield(self, "w", w)
        setfield(self, "b", b)
        setfield(self, "h", h)


class Face(Record):
    __slots__ = _fields = ("id", "edges")

    def __init__(self, id: str, edges: tuple):  # edge slots, alternating traversal starting white->black
        setfield(self, "id", id)
        setfield(self, "edges", edges)


class Event(NamedTuple):
    """One line of a run's progress: ``op`` is a script move's op (with
    ``sizes`` after it), or "step", "verify" or "solve"."""
    op: str
    target: str = ""
    step: int | None = None
    sizes: tuple | None = None
    outcome: str = ""


class TorusGraph:
    """Immutable torus graph: ``TorusGraph(white_ids, black_ids, edges,
    faces, basis_cycles=None)``, basis cycles a pair of walks, edges and
    faces read by position; moves read it through a ``GraphEdit``.  Its
    incidence and face-key indices, the cover walks ``find_walk`` has
    found on it and the store of step plans ``moves.step_on_config`` has
    recorded from it (not shared with the graphs stepped from it) are built
    on first use."""

    __slots__ = (
        "white_ids", "black_ids", "edges", "faces", "basis_cycles", "_white", "_black", "_inc", "_face_by_key",
        "_walks", "_plans",
    )

    def __init__(self, white_ids, black_ids, edges, faces, basis_cycles=None):
        self.white_ids, self.black_ids = tuple(white_ids), tuple(black_ids)
        self.edges, self.faces, self.basis_cycles = tuple(edges), tuple(faces), basis_cycles
        self._white, self._black = dict.fromkeys(self.white_ids), dict.fromkeys(self.black_ids)
        self._inc = self._face_by_key = self._walks = self._plans = None

    def sizes(self) -> tuple:
        """(white, black, edge, face) counts; a repeated id counts twice."""
        return len(self.white_ids), len(self.black_ids), len(self.edges), len(self.faces)

    def _key(self) -> tuple:
        return self.white_ids, self.black_ids, self.edges, self.faces, self.basis_cycles

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TorusGraph) else NotImplemented

    def __repr__(self):
        fields = zip(("white_ids", "black_ids", "edges", "faces", "basis_cycles"), self._key())
        return f"TorusGraph({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def is_white(self, v: str) -> bool:
        return v in self._white

    def has_vertex(self, v: str) -> bool:
        return v in self._white or v in self._black

    def incidence(self) -> dict:
        """vertex id -> tuple of incident edge slots, in slot order (read
        only; an open ``GraphEdit`` edits sorted lists), built on first use."""
        if self._inc is None:
            inc = defaultdict(list)
            for s, e in enumerate(self.edges):
                inc[e.w].append(s)
                inc[e.b].append(s)
            for v in (*self.white_ids, *self.black_ids):
                inc.setdefault(v, [])
            self._inc = {v: tuple(ix) for v, ix in inc.items()}
        return self._inc

    def face_ids_by_key(self) -> dict:
        """``face_key`` -> face id (of the last face with that key), built
        on first use: the index ``moves.rename_faces_like`` matches a
        stepped graph's faces against when this graph is their template."""
        if self._face_by_key is None:
            self._face_by_key = {face_key(self, f): f.id for f in self.faces}
        return self._face_by_key


def vertex_edges(g: TorusGraph) -> dict:
    """vertex id -> tuple of incident edge slots, in slot order: the
    graph's own incidence index, so read only."""
    return g.incidence()


def face_vertex_sequence(g: TorusGraph, face: Face) -> list:
    """Vertex ids along the face boundary: [w0, b0, w1, b1, ...]."""
    return [g.edges[ei].b if slot % 2 else g.edges[ei].w for slot, ei in enumerate(face.edges)]


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


def _lattice_rank(g: TorusGraph) -> int:
    """Rank over Z of the lattice of signed h-sums over closed walks.

    Spanning-tree construction: each vertex gets a Z^2 potential from a BFS
    tree; every non-tree edge between reached vertices contributes
    h(e) - phi(b) + phi(w), and the rank is 2 iff two of these are independent.
    """
    inc = vertex_edges(g)
    phi: dict = {}
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
    gens = ((e.h[0] - phi[e.b][0] + phi[e.w][0], e.h[1] - phi[e.b][1] + phi[e.w][1]) for e in g.edges
            if e.w in phi and e.b in phi)
    a = next((v for v in gens if v != (0, 0)), None)
    if a is None:
        return 0
    return 2 if any(a[0] * v[1] - a[1] * v[0] for v in gens) else 1


class GraphReport(NamedTuple):
    """``validate_graph``'s violations and the graph's ``sizes()``; ``str``
    adds the Euler number."""
    ok: bool
    violations: list
    sizes: tuple  # (white, black, edge, face) counts

    def __str__(self):
        head = "valid" if self.ok else "INVALID"
        w, b, e, f = self.sizes
        counts = f"white={w} black={b} edges={e} faces={f} euler={w + b - e + f}"
        return "\n".join([f"{head}: {counts}"] + [f"  - {v}" for v in self.violations])


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
        lat_rank = _lattice_rank(g)
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

    return GraphReport(not violations, violations, g.sizes())


class GraphEdit(TorusGraph):
    """A graph open for a batch of moves: its containers copied once, edges
    held by slot in ``_edges`` and faces by id in ``_faces``, each vertex's
    incident slots in a sorted list.  A graph whose face ids repeat raises
    MoveError.  What moves read of it is the slot API: ``edge``, ``face``,
    ``faces_on`` and ``next_slot``, with the ``incidence`` index.

    ``replace`` applies one move to edges, incidence lists and vertex sets
    in place, as the fold would, and logs its paths.  ``substitute_edges``
    rewrites the faces through replaced edges (found by a scan of the
    faces), and the basis cycles, along the logged paths: before a face
    read that needs it, before a move replaces an edge that a logged path
    passes through, and at ``close``.  A deferred rewrite gives each walk
    the fold's cyclic word but may start it elsewhere, so
    ``moves.apply_script`` rewrites after each of its moves.
    """

    __slots__ = ("_edges", "_faces", "_basis", "_next", "_paths", "_through")

    def __init__(self, g: TorusGraph):
        self._white, self._black = dict(g._white), dict(g._black)
        self._inc = {v: list(ix) for v, ix in g.incidence().items()}
        self._edges, self._faces = dict(enumerate(g.edges)), {f.id: f for f in g.faces}
        if len(self._faces) != len(g.faces):
            raise MoveError("duplicate face ids")
        self._basis, self._next = list(g.basis_cycles or ()), len(g.edges)
        self._paths, self._through = {}, set()

    def sizes(self) -> tuple:
        return len(self._white), len(self._black), len(self._edges), len(self._faces)

    @property
    def next_slot(self) -> int:
        """The slot a move gives its first new edge."""
        return self._next

    def edge(self, slot: int) -> Edge:
        return self._edges[slot]

    def face(self, face_id: str) -> Face | None:
        """The face with this id, rewritten first when a logged path
        touches it."""
        f = self._faces.get(face_id)
        if f is not None and not self._paths.keys().isdisjoint(f.edges):
            self.substitute_edges()
            f = self._faces.get(face_id)
        return f

    def faces_on(self, slots) -> list:
        """The distinct faces through any of the given edge slots, in face
        order, after a rewrite."""
        self.substitute_edges()
        slots = set(slots)
        return [f for f in self._faces.values() if not slots.isdisjoint(f.edges)]

    def replace(self, rewrites: dict, new_edges, paths: dict, drop_faces=(), add_faces=()) -> None:
        """One move.  ``rewrites`` maps an edge slot to its rewritten
        ``Edge``; new edge j gets slot ``next_slot + j``.  ``paths`` maps an
        edge slot to the walk of slots standing in for it, from its white
        end to its black end, keeping its endpoints and signed h-sum; a
        slot with a path and no rewrite is deleted.  A vertex joins its
        colour's ids with the first edge that names it and leaves with its
        last edge.  ``add_faces`` (walks in slots) are appended after the
        faces ``drop_faces`` are removed; an id still in use raises
        MoveError."""
        if not self._through.isdisjoint(paths):
            self.substitute_edges()
        faces = self._faces
        for f in add_faces:
            if f.id in faces and f.id not in drop_faces:
                raise MoveError(f"face id {f.id!r} already in use")
        inc, edges, first, ends = self._inc, self._edges, self._next, set()
        for s in paths.keys() | rewrites.keys():
            old = edges[s] if s in rewrites else edges.pop(s)
            inc[old.w].remove(s)
            inc[old.b].remove(s)
            ends.update((old.w, old.b))
        for s, e in (*rewrites.items(), *enumerate(new_edges, first)):
            edges[s] = e
            for v, ids in ((e.w, self._white), (e.b, self._black)):
                if v not in ids:
                    ids[v], inc[v] = None, []
                insort(inc[v], s)
        for v in ends:
            if not inc[v]:
                del inc[v]
                (self._white if v in self._white else self._black).pop(v)
        for fid in drop_faces:
            del faces[fid]
        for f in add_faces:
            faces[f.id] = f
        self._next = first + len(new_edges)
        self._paths.update(paths)
        self._through.update(s for path in paths.values() for s in path)

    def substitute_edges(self) -> None:
        """Rewrite every face through an edge replaced since the last
        rewrite, and the basis cycles, along the logged paths; a face left
        empty is dropped."""
        if not self._paths:
            return
        paths, faces = self._paths, self._faces
        for f in [f for f in faces.values() if not paths.keys().isdisjoint(f.edges)]:
            walk = _rewrite_walk(f.edges, paths)
            if walk:
                faces[f.id] = Face(f.id, walk)
            else:
                del faces[f.id]
        self._basis = [_rewrite_walk(z, paths) for z in self._basis]
        self._paths, self._through = {}, set()

    def close(self) -> TorusGraph:
        """The edited graph, its surviving edges numbered in slot order; the
        edit is spent."""
        self.substitute_edges()
        position = {s: i for i, s in enumerate(self._edges)}.__getitem__
        faces = (Face(f.id, tuple(map(position, f.edges))) for f in self._faces.values())
        basis = tuple(tuple(map(position, z)) for z in self._basis) or None
        return TorusGraph(self._white, self._black, self._edges.values(), faces, basis)


def _rewrite_walk(walk, paths: dict) -> tuple:
    """Replace each slot's edge by its path (reversed on odd slots, which
    run black to white), cancel immediate backtracks, also cyclically
    across the end, and start the result white to black again."""
    if paths.keys().isdisjoint(walk):
        return tuple(walk)
    out = []  # 2 * edge + (1 if black-to-white)
    for i, ei in enumerate(walk):
        path = paths.get(ei, (ei,))
        for k, x in enumerate(path[::-1] if i & 1 else path, i):
            code = 2 * x + (k & 1)
            if out and out[-1] == code ^ 1:
                out.pop()
            else:
                out.append(code)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and out[lo] == out[hi - 1] ^ 1:
        lo, hi = lo + 1, hi - 1
    out = out[lo:hi]
    if out and out[0] & 1:
        out = out[-1:] + out[:-1]
    return tuple(code >> 1 for code in out)


def delete_edge(g: TorusGraph, ei: int, merged_face_id: str) -> TorusGraph:
    """Remove one edge and merge its two (distinct) faces, both dropped
    for the merged one: the edge is replaced by the rest of its first
    face."""
    edit = GraphEdit(g)
    hosts = edit.faces_on((ei,))
    if len(hosts) != 2:
        raise BadWalk(f"edge {ei} lies on {len(hosts)} distinct faces, need 2")
    a = hosts[0].edges
    p = a.index(ei)
    rest = a[p + 1 :] + a[:p]  # from the far end of slot p back to its near end
    paths = {ei: rest if p % 2 else rest[::-1]}
    merged = Face(merged_face_id, _rewrite_walk(hosts[1].edges, paths))
    edit.replace({}, (), paths, drop_faces=(hosts[0].id, hosts[1].id), add_faces=(merged,))
    return edit.close()


def balanced_count(g: TorusGraph) -> int:
    """k, the number of white and of black vertices; UnequalColorCounts
    when the two differ."""
    k, b, _, _ = g.sizes()
    if k != b:
        raise UnequalColorCounts(f"{k} white vs {b} black")
    return k


def dimension_report(g: TorusGraph, d: int) -> dict:
    """Equation/parameter counts for the black-data recovery problem."""
    k = balanced_count(g)
    _, _, e, f = g.sizes()
    euler = 2 * k - e + f
    return {
        "equations": k * (d + 2) - e + f - 1,
        "parameters": k * d,
        "euler": euler,
        "expected_dim": 1 - euler,
    }


def find_walk(g: TorusGraph, target: tuple):
    """Closed walk (edge-index list) whose signed h-sum equals ``target``.

    BFS in the universal cover from the first white vertex to its
    ``target`` translate.  Used by template builders to ship canonical
    basis cycles.  The graph keeps each walk found, by target, so a repeat
    call searches nothing and returns a fresh copy; a failure is not kept.
    """
    if not g.white_ids:
        raise BadWalk(f"no closed walk with h-sum {target}: the graph has no white vertex")
    key = (target[0], target[1])
    if g._walks is None:
        g._walks = {}
    elif key in g._walks:
        return list(g._walks[key])
    inc = vertex_edges(g)
    root = g.white_ids[0]
    radius = len(g.white_ids) + len(g.black_ids) + abs(target[0]) + abs(target[1]) + 4
    start = (root, 0, 0)
    goal = (root, target[0], target[1])
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
    g._walks[key] = tuple(walk)
    return walk


def canonical_basis_cycles(g: TorusGraph):
    """Walks with h-classes (1,0) and (0,1)."""
    return tuple(find_walk(g, (1, 0))), tuple(find_walk(g, (0, 1)))


def with_basis_cycles(g: TorusGraph) -> TorusGraph:
    if g.basis_cycles is not None:
        return g
    return TorusGraph(g.white_ids, g.black_ids, g.edges, g.faces, canonical_basis_cycles(g))
