"""Q-nets in P^3: checkerboard windows of points (or planes), Laplace
transforms, the point/plane transition, F-transforms, and the torus-grid
realization.

A point window lives on one parity class of Z^2; the net condition says
the four lattice neighbors of every opposite-parity site are coplanar.
The Laplace transform

    f'(i,j) = <f(i-1,j), f(i,j-1)> ^ <f(i+1,j), f(i,j+1)>

produces a window on the other parity (domains shrink by one ring).  The
transposed transform pairs the other diagonal, <f(i-1,j), f(i,j+1)> ^
<f(i+1,j), f(i,j-1)>; a move step realizes one or the other
depending on which half of the tiles is renewed.
"""
from __future__ import annotations

from functools import cache

from . import linalg
from .config import DoubleCircuitConfig, check_labels
from .errors import (
    BadParameters,
    CoincidentLines,
    DegenerateIntersection,
    NotQNet,
    NotQStarNet,
)
from .geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    element_rows,
    join_points,
    meet,
    meet_hyperplanes,
    proj_equal,
)
from .record import Record, setfield
from .torusgraph import Edge, Face, TorusGraph, with_basis_cycles


class QNetWindow(Record):
    __slots__ = _fields = ("values",)

    def __init__(self, values: dict):  # (i, j) -> point or hyperplane of P^3, keys of one parity
        if len({(i + j) % 2 for i, j in values}) > 1:
            raise BadParameters("window keys must share one parity class")
        setfield(self, "values", values)

    @property
    def parity(self) -> int:
        return next(iter((i + j) % 2 for i, j in self.values))

    @property
    def kind(self) -> str:
        return next(iter(self.values.values())).kind

    def __getitem__(self, key):
        return self.values[key]

    def __contains__(self, key):
        return key in self.values

    def sites(self):
        return sorted(self.values)


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1))  # W, S, E, N


def _quad(w: QNetWindow, site) -> list:
    """The window at the four lattice neighbors W, S, E, N of a site."""
    return [w[site[0] + di, site[1] + dj] for di, dj in _NEIGHBORS]


def _interior_sites(w: QNetWindow):
    """Opposite-parity sites whose four neighbors all lie in the window."""
    out = []
    for i, j in w.sites():
        for ci, cj in ((i + 1, j), (i, j + 1)):
            if all((ci + di, cj + dj) in w for di, dj in _NEIGHBORS):
                out.append((ci, cj))
    return sorted(set(out))


def _net_failures(w: QNetWindow, sites):
    bad = []
    for ci, cj in sites:
        if linalg.rank(element_rows(_quad(w, (ci, cj)))[0]) > 3:
            bad.append((ci, cj))
    return bad


def _side_rank(side) -> int:
    """Rank of the span of two points or planes: of two exact ones, 1 iff
    they are equal."""
    if side[0].ints is None:
        return linalg.rank([p.coords for p in side])
    return 1 if proj_equal(*side) else 2


def _laplace_sites(w: QNetWindow, pairing: str, kind: str, wrong_kind: str):
    if w.kind != kind:
        raise BadParameters(wrong_kind)
    sites = _interior_sites(w)
    bad = _net_failures(w, sites)
    if bad:
        raise (NotQNet if w.kind == POINT else NotQStarNet)(f"net condition fails at {bad}")
    out = {}
    for ci, cj in sites:
        W, S, E, N = _quad(w, (ci, cj))
        side1, side2 = ([W, S], [E, N]) if pairing == "ws-en" else ([W, N], [E, S])
        r1, r2 = _side_rank(side1), _side_rank(side2)
        if r1 != 2 or r2 != 2:
            raise CoincidentLines(f"site ({ci},{cj}): degenerate side points (side spans of rank {r1} and {r2})")
        try:
            out[(ci, cj)] = meet(side1, side2)
        except DegenerateIntersection as exc:
            raise CoincidentLines(f"site ({ci},{cj}): the two lines coincide ({exc})") from exc
    if not out:
        raise BadParameters("window too small: no interior sites")
    return QNetWindow(out)


def laplace(w: QNetWindow) -> QNetWindow:
    """Point Laplace transform; output parity is the opposite of the input."""
    return _laplace_sites(w, "ws-en", POINT, "laplace acts on point windows; use dual_laplace for planes")


def laplace_transposed(w: QNetWindow) -> QNetWindow:
    return _laplace_sites(w, "wn-es", POINT, "laplace_transposed acts on point windows")


def dual_laplace(G: QNetWindow) -> QNetWindow:
    """Plane Laplace transform G' = <G_W ^ G_N, G_E ^ G_S>, computed in the
    dual space (covector spans)."""
    return _laplace_sites(G, "wn-es", HYPERPLANE, "dual_laplace acts on plane windows")


def dual_laplace_transposed(G: QNetWindow) -> QNetWindow:
    return _laplace_sites(G, "ws-en", HYPERPLANE, "dual_laplace_transposed acts on plane windows")


def qstar_points(G: QNetWindow) -> QNetWindow:
    """g(i,j) = common point of the four neighbor planes."""
    if G.kind != HYPERPLANE:
        raise BadParameters("qstar_points acts on plane windows")
    out = {}
    for ci, cj in _interior_sites(G):
        try:
            out[(ci, cj)] = meet_hyperplanes(_quad(G, (ci, cj)))
        except DegenerateIntersection as exc:
            raise NotQStarNet(f"site ({ci},{cj}): planes do not meet in one point") from exc
    if not out:
        raise BadParameters("window too small: no interior sites")
    return QNetWindow(out)


def plane_of_quad(g: QNetWindow, base) -> HomogeneousElement:
    """Plane spanned by g at the four neighbors of an opposite-parity site."""
    try:
        return join_points(_quad(g, base))
    except DegenerateIntersection as exc:
        raise NotQNet(f"site {base}: neighbor points do not span a plane") from exc


# ----------------------------------------------------------- torus quotient


def _site_id(prefix: str, i: int, j: int) -> str:
    return f"{prefix}{i}x{j}"


def build_qnet_graph(a: int, b: int, white_parity: int = 0) -> TorusGraph:
    """Square-grid torus: whites at sites with (i+j) % 2 == white_parity,
    with its canonical basis cycles."""
    return with_basis_cycles(build_qnet_tile_graph(a, b, white_parity))


def build_qnet_tile_graph(a: int, b: int, white_parity: int) -> TorusGraph:
    """The square-grid torus without basis cycles, built once per shape and
    process."""
    return _qnet_tile_graph(a, b, white_parity)


@cache
def _qnet_tile_graph(a: int, b: int, white_parity: int) -> TorusGraph:
    if a < 4 or b < 4 or a % 2 or b % 2:
        raise BadParameters("fundamental domain needs even a, b >= 4")
    edges = []
    eidx = {}
    for i in range(a):
        for j in range(b):
            if (i + j) % 2 != white_parity:
                continue
            for drn, (di, dj) in (("E", (1, 0)), ("N", (0, 1)), ("W", (-1, 0)), ("S", (0, -1))):
                ni, nj = i + di, j + dj
                eidx[(i, j, drn)] = len(edges)
                edges.append(Edge(_site_id("W", i, j), _site_id("B", ni % a, nj % b), (ni // a, nj // b)))
    faces = []
    for i in range(a):
        for j in range(b):
            # the face with lower-left corner (i, j), from its two white corners u, v
            i1, j1 = (i + 1) % a, (j + 1) % b
            u, v, dirs = ((i, j), (i1, j1), "ESWN") if (i + j) % 2 == white_parity else ((i1, j), (i, j1), "NESW")
            es = (eidx[(*u, dirs[0])], eidx[(*v, dirs[1])], eidx[(*v, dirs[2])], eidx[(*u, dirs[3])])
            faces.append(Face(f"F{i}x{j}", es))
    whites = tuple(
        _site_id("W", i, j) for i in range(a) for j in range(b) if (i + j) % 2 == white_parity
    )
    blacks = tuple(
        _site_id("B", i, j) for i in range(a) for j in range(b) if (i + j) % 2 != white_parity
    )
    return TorusGraph(whites, blacks, tuple(edges), tuple(faces))


def _periodic_lookup(w: QNetWindow, a: int, b: int, i: int, j: int):
    """Window value at (i, j) modulo the (a, b) lattice, validating that all
    in-window representatives agree projectively."""
    found = None
    for (ki, kj), v in w.values.items():
        if (ki - i) % a == 0 and (kj - j) % b == 0:
            if found is None:
                found = v
            elif not proj_equal(found, v):
                raise BadParameters(f"window is not ({a},{b})-periodic at ({ki},{kj})")
    if found is None:
        raise BadParameters(f"window does not cover site ({i},{j}) mod ({a},{b})")
    return found


def build_qnet_config(f: QNetWindow, G: QNetWindow, a: int, b: int) -> DoubleCircuitConfig:
    """Torus config with point labels f (white) and plane labels G (black);
    labels repeat (a, b)-periodically from the windows."""
    if f.kind != POINT or G.kind != HYPERPLANE:
        raise BadParameters("need a point window and a plane window")
    if f.parity == G.parity:
        raise BadParameters("point and plane windows must have opposite parities")
    g = build_qnet_graph(a, b, white_parity=f.parity)
    white = {}
    black = {}
    for i in range(a):
        for j in range(b):
            if (i + j) % 2 == f.parity:
                white[_site_id("W", i, j)] = _periodic_lookup(f, a, b, i, j)
            else:
                black[_site_id("B", i, j)] = _periodic_lookup(G, a, b, i, j)
    return DoubleCircuitConfig(g, 3, white, black)


def qnet_step_on_config(c: DoubleCircuitConfig, a: int, b: int, base_parity: int) -> DoubleCircuitConfig:
    """Urban renewal at all faces whose base has the given parity, the
    forced removal of every old vertex, and renaming of the sites; the
    output's whites sit on the old black parity.  Every new vertex takes
    the site of its spoke's old endpoint with the color prefix flipped.
    base_parity == 1 - white parity realizes the plain Laplace transforms,
    the other parity the transposed ones.  The renaming reads only the
    template's faces, so it gets the tile graph without basis cycles."""
    from .moves import step_on_config

    return step_on_config(
        c,
        [f"F{i}x{j}" for i in range(a) for j in range(b) if (i + j) % 2 == base_parity],
        lambda bid: "W" + bid[1:],
        lambda wid: "B" + wid[1:],
        build_qnet_tile_graph(a, b, 1 - _config_white_parity(c)),
    )


def _site(v: str) -> tuple:
    """(i, j) of a Q-net vertex id such as W2x3."""
    try:
        i, j = v[1:].split("x")
        return int(i), int(j)
    except ValueError:
        raise NotQNet(f"vertex id {v!r} names no Q-net site") from None


def _config_window(ids, labels) -> QNetWindow:
    missing = [v for v in ids if v not in labels]
    if missing:
        raise NotQNet(f"vertex {missing[0]} has no label")
    return QNetWindow({_site(v): labels[v] for v in ids})


def _config_white_parity(c: DoubleCircuitConfig) -> int:
    return sum(_site(c.graph.white_ids[0])) % 2


def config_point_window(c: DoubleCircuitConfig) -> QNetWindow:
    return _config_window(c.graph.white_ids, c.white_labels)


def config_plane_window(c: DoubleCircuitConfig) -> QNetWindow:
    return _config_window(c.graph.black_ids, c.black_labels)


def period(c: DoubleCircuitConfig) -> tuple:
    """The torus period (a, b) of a labelled Q-net configuration, read from its site ids."""
    check_labels(c)
    sites = config_point_window(c).sites() + config_plane_window(c).sites()
    if not sites:
        raise NotQNet("no vertices: not a Q-net")
    return max(i for i, _ in sites) + 1, max(j for _, j in sites) + 1


def periodic_extension(w: QNetWindow, a: int, b: int, pad: int = 2) -> QNetWindow:
    """Extend a one-period window periodically by pad periods in each
    direction, for computing transforms of torus label data."""
    out = {}
    for (i, j), v in w.values.items():
        for s in range(-pad, pad + 1):
            for t in range(-pad, pad + 1):
                out[(i + s * a, j + t * b)] = v
    return QNetWindow(out)


def step(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """One plain Laplace step by moves (qnet_step_on_config), the period read from c."""
    a, b = period(c)
    return qnet_step_on_config(c, a, b, 1 - _config_white_parity(c))


def formula(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """The plain Laplace transforms (laplace, dual_laplace) of c's point and
    plane windows, each extended by one ring around one period."""
    a, b = period(c)

    def ring(w):
        ext = periodic_extension(w, a, b, 1)
        return QNetWindow({(i, j): v for (i, j), v in ext.values.items() if -1 <= i <= a and -1 <= j <= b})

    return build_qnet_config(laplace(ring(config_point_window(c))), dual_laplace(ring(config_plane_window(c))), a, b)
