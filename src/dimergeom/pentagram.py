"""Pentagram maps T_k on polygons and their torus-graph realization.

The template graph has white vertices P0..P{n-1} and black q0..q{n-1},
with P_i adjacent to q_i, q_{i-1}, q_{i-k}, q_{i-k-1} (mod n).  Faces:

* ``d{i}``: P_i, q_i, P_{i+k}, q_{i-1}  (diagonal tiles; a step renews
  these), and
* ``s{i}``: P_{i+1}, q_i, P_i, q_{i-k}  (side tiles).

``build_tile_graph`` builds it with some edges q_j P_{j+k} removed; the
spiral templates are built that way, and ``tile_step`` is the one move
step of both families.

The h data comes from the square-lattice cover: whites at even lattice
positions parametrized by (s, t) with index ks + t, deck basis
gamma_1 = (0, n), gamma_2 = (1, -k).  In that basis the edge P_i q_{i+delta}
has h = ((i + delta) // n, -1 if delta < -1 else 0): one gamma_1 back when
the index i + delta wraps below 0, and one gamma_2 back for the far
neighbours delta = -k, -k-1.
"""
from __future__ import annotations

from functools import cache

from .config import DoubleCircuitConfig, check_labels
from .errors import BadParameters, DegenerateIntersection, SizeMismatch
from .geometry import incident_element, line_through, meet_hyperplanes
from .record import Record, setfield
from .torusgraph import Edge, Face, TorusGraph, with_basis_cycles


class Polygon(Record):
    """A cyclic polygon of P^2: its vertices are points, or lines for a
    polygon of the dual plane (the lines q_i of a pentagram configuration)."""

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: tuple):  # points or lines of P^2, cyclic
        setfield(self, "vertices", vertices)

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i % len(self.vertices)]


def _check_k(n: int, k: int) -> None:
    if not 2 <= k <= n - 2:
        raise BadParameters(f"need 2 <= k <= n-2, got k={k}, n={n}")


def _pentagram_step(x, k: int, s: int, t: int, what: str) -> tuple:
    """x'_i = d_i . d_{i+t} with the diagonals d_i = x_i . x_{i+s}, where .
    is the incident element of two elements: the map on points for
    (s, t) = (k, 1), and the same statement read in the dual plane, the map
    on lines, for (s, t) = (1, k).  Each diagonal is made once, when x'_i
    first needs it, so a failure names the index it named when each x'_i
    made its own two."""
    n = len(x)
    _check_k(n, k)
    d, out = [None] * n, []
    for i in range(n):
        pair = (i, (i + t) % n)
        try:
            for j in pair:
                if d[j] is None:
                    d[j] = incident_element([x[j], x[j + s]])
            out.append(incident_element([d[j] for j in pair]))
        except DegenerateIntersection as exc:
            raise DegenerateIntersection(f"{what} {i}: {exc}") from exc
    return tuple(out)


def pentagram_map(P: Polygon, k: int) -> Polygon:
    """P'_i = P_i P_{i+k} ^ P_{i+1} P_{i+k+1}."""
    return Polygon(_pentagram_step(P, k, k, 1, "vertex"))


def dual_pentagram_map(q: Polygon, k: int) -> Polygon:
    """q'_i = <q_i ^ q_{i+1}, q_{i+k} ^ q_{i+k+1}>."""
    return Polygon(_pentagram_step(q, k, 1, k, "line"))


def vertices_from_lines(q: Polygon, k: int) -> Polygon:
    """Q_i = q_i ^ q_{i-k}."""
    n = len(q)
    return Polygon(tuple(meet_hyperplanes([q[i], q[i - k]]) for i in range(n)))


def lines_from_vertices(Q: Polygon, k: int) -> Polygon:
    """q_i = Q_i Q_{i+k} (inverse of vertices_from_lines for generic data)."""
    n = len(Q)
    return Polygon(tuple(line_through(Q[i], Q[i + k]) for i in range(n)))


# ------------------------------------------------------------ the template


def _check_template(n: int, k: int) -> None:
    if n < 5:
        raise BadParameters("template needs n >= 5")
    _check_k(n, k)


@cache
def build_pentagram_graph(n: int, k: int) -> TorusGraph:
    """The template with its canonical basis cycles.  A graph is immutable
    and depends only on (n, k), so each shape is built, and its cover
    walks searched, once per process."""
    _check_template(n, k)
    return with_basis_cycles(build_tile_graph(n, k, ()))


def build_tile_graph(n: int, k: int, removed) -> TorusGraph:
    """The template on n index slots with the edges q_j P_{j+k} removed for
    the slots j in ``removed`` (any iterable), without basis cycles, built
    once per shape and process.  Each removal merges the tiles d{j} and
    s{j+k} into the hexagon h{j}: P_j, q_j, P_{j+k+1}, q_{j+k}, P_{j+k},
    q_{j-1}."""
    return _tile_graph(n, k, frozenset(removed))


@cache
def _tile_graph(n: int, k: int, removed: frozenset) -> TorusGraph:
    deltas = (0, -1, -k, -k - 1)
    edges = []
    eidx = {}
    for i in range(n):
        for delta in deltas:
            j = (i + delta) % n
            if delta == -k and j in removed:
                continue
            eidx[(i, delta)] = len(edges)
            edges.append(Edge(f"P{i}", f"q{j}", ((i + delta) // n, -1 if delta < -1 else 0)))
    faces = []
    for i in range(n):
        if i not in removed:
            ik = (i + k) % n
            faces.append(Face(f"d{i}", (eidx[(i, 0)], eidx[(ik, -k)], eidx[(ik, -k - 1)], eidx[(i, -1)])))
    for i in range(n):
        if (i - k) % n not in removed:
            i1 = (i + 1) % n
            faces.append(Face(f"s{i}", (eidx[(i1, -1)], eidx[(i, 0)], eidx[(i, -k)], eidx[(i1, -k - 1)])))
    for j in sorted(removed):
        jk, jk1 = (j + k) % n, (j + k + 1) % n
        hexagon = (eidx[(j, 0)], eidx[(jk1, -k - 1)], eidx[(jk1, -1)], eidx[(jk, 0)], eidx[(jk, -k - 1)], eidx[(j, -1)])
        faces.append(Face(f"h{j}", hexagon))
    return TorusGraph(
        tuple(f"P{i}" for i in range(n)),
        tuple(f"q{i}" for i in range(n)),
        tuple(edges),
        tuple(faces),
    )


def build_pentagram_config(P: Polygon, q: Polygon, k: int) -> DoubleCircuitConfig:
    if len(P) != len(q):
        raise SizeMismatch("polygon and line list sizes differ")
    n = len(P)
    g = build_pentagram_graph(n, k)
    white = {f"P{i}": P[i] for i in range(n)}
    black = {f"q{i}": q[i] for i in range(n)}
    return DoubleCircuitConfig(g, 2, white, black)


def tile_step(c: DoubleCircuitConfig, k: int, N: int, renew, removed) -> DoubleCircuitConfig:
    """One step by moves on the tiling of N index slots: urban renewal at
    the diagonal tiles d{j} for j in ``renew``, the forced removals of the
    old vertices, and renaming back to the ids of the template
    ``build_tile_graph(N, k, removed)``, so labels compare slot by slot
    with the direct-formula dynamics and the step can be iterated.

    A new white spoke-adjacent to the old black q_j carries the advanced
    point P'_j; a new black spoke-adjacent to the old white P_i carries
    the advanced line q'_{i-k-1}.  The renaming reads only the template's
    faces, so it gets the tile graph without basis cycles.
    """
    from .moves import step_on_config

    return step_on_config(
        c,
        [f"d{j}" for j in renew],
        lambda qid: f"P{int(qid[1:])}",
        lambda pid: f"q{(int(pid[1:]) - k - 1) % N}",
        build_tile_graph(N, k, removed),
    )


def pentagram_step_on_config(c: DoubleCircuitConfig, k: int) -> DoubleCircuitConfig:
    """One T_k step by moves: the tile step renewing every diagonal tile."""
    n = len(c.graph.white_ids)
    _check_template(n, k)
    return tile_step(c, k, n, range(n), ())


def k_from_config(c: DoubleCircuitConfig) -> int:
    """The diagonal parameter of a pentagram or spiral configuration, read
    from any diagonal tile: d{j} has the whites P_j and P_{j+k}."""
    g, n = c.graph, len(c.graph.white_ids)
    if set(g.white_ids) != {f"P{i}" for i in range(n)} or set(g.black_ids) != {f"q{i}" for i in range(n)}:
        raise BadParameters(f"vertex ids are not P0..P{n - 1} and q0..q{n - 1}: not a pentagram or spiral")
    tile = next((f for f in g.faces if f.id.startswith("d")), None)
    whites = {int(g.edges[ei].w[1:]) for ei in tile.edges} if tile else set()
    j = next((j for j in whites if tile.id == f"d{j}"), None)
    if len(whites) != 2 or j is None:
        raise BadParameters("no diagonal tile d{j} on the whites P_j and P_{j+k}: not a pentagram or spiral")
    return ((whites - {j}).pop() - j) % n


def polygon_from_config(c: DoubleCircuitConfig) -> Polygon:
    n = len(c.graph.white_ids)
    return Polygon(tuple(c.white_labels[f"P{i}"] for i in range(n)))


def lines_from_config(c: DoubleCircuitConfig) -> Polygon:
    n = len(c.graph.black_ids)
    return Polygon(tuple(c.black_labels[f"q{i}"] for i in range(n)))


def _k(c: DoubleCircuitConfig) -> int:
    """k of a labelled pentagram configuration; a spiral's hexagons are
    refused, since a step renews every diagonal tile d0..d{n-1}."""
    check_labels(c)
    if hexagons := sorted(f.id for f in c.graph.faces if f.id.startswith("h")):
        raise BadParameters(f"hexagon faces {hexagons}: a spiral, not a pentagram")
    return k_from_config(c)


def step(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """One T_k step by moves (pentagram_step_on_config), k read from c."""
    return pentagram_step_on_config(c, _k(c))


def formula(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """One T_k step by the direct formulas on c's points and lines, k read from c."""
    k = _k(c)
    P, q = pentagram_map(polygon_from_config(c), k), dual_pentagram_map(lines_from_config(c), k)
    return build_pentagram_config(P, q, k)
