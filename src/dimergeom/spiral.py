"""Spirals fixed by the pentagram map: seed windows, forward/backward
recursions, and the torus-graph realization.

A point seed is a window of n+1 points [P_i, ..., P_{i+n}] with the
collinearity conditions: P_{i+l}, P_{i+n-k+1+l}, P_{i+n-k+l} collinear
for 0 <= l <= k-1, and P_i, P_{i+k}, P_{i+n} collinear.  A line seed is
the window [q_j, ..., q_{j+n}] with the dual concurrency conditions.  One
type, ``SpiralSeed`` (also named ``LineSeed``), holds either window; the
line validator and recursions are the point ones on the reversed window,
read in the dual plane.

The graph is the pentagram template on n+1 index slots with the edges
q_j P_{j+k} removed for the k+1 values j = i-k-1, ..., i-1 (mod n+1);
each removal merges a d-tile with an s-tile into a hexagon.
"""
from __future__ import annotations

from . import linalg
from .config import DoubleCircuitConfig, check_labels
from .errors import BadParameters, KindMismatch, SeedInvalid, SizeMismatch
from .geometry import (
    HYPERPLANE,
    POINT,
    HomogeneousElement,
    element_rows,
    incident_element,
    line_through,
    meet_hyperplanes,
)
from .pentagram import build_tile_graph, k_from_config, tile_step
from .record import Record, setfield
from .torusgraph import TorusGraph, with_basis_cycles


class SpiralSeed(Record):
    """A seed window of n+1 consecutive elements of a spiral: the points
    [P_base, ..., P_{base+n}] of a point seed, or the lines
    [q_base, ..., q_{base+n}] of a line seed.  ``base`` is the absolute
    index of the first element."""

    __slots__ = _fields = ("k", "n", "base", "points")

    def __init__(self, k: int, n: int, base: int, points: tuple):
        if not (k >= 2 and n > k + 2):
            raise BadParameters(f"need k >= 2 and n > k+2, got k={k}, n={n}")
        if len(points) != n + 1:
            raise BadParameters(f"seed window must hold n+1 = {n + 1} elements")
        for name, value in zip(self._fields, (k, n, base, points)):
            setfield(self, name, value)

    def point(self, j: int):
        """Element with absolute index j (must lie in the window)."""
        if not self.base <= j <= self.base + self.n:
            raise IndexError(f"index {j} outside window [{self.base}, {self.base + self.n}]")
        return self.points[j - self.base]


LineSeed = SpiralSeed  # a line seed is a SpiralSeed holding lines


def _seed_conditions(window, k: int, kind: str):
    """The point-seed conditions on a window of n+1 elements of the given
    kind, in order: the three window slots of each and whether the
    elements there are dependent (collinear points, or concurrent lines)."""
    if any(e.kind != kind for e in window):
        raise KindMismatch(f"a {kind} seed needs a window of {kind}s")
    n = len(window) - 1
    slots = [(l, n - k + 1 + l, n - k + l) for l in range(k)] + [(0, k, n)]
    return [(t, linalg.rank(element_rows([window[m] for m in t])[0]) <= 2) for t in slots]


def validate_spiral_seed(s: SpiralSeed):
    """List of failing seed conditions (empty means valid)."""
    return [
        f"P_{s.base + a}, P_{s.base + b}, P_{s.base + c} not collinear"
        for (a, b, c), ok in _seed_conditions(s.points, s.k, POINT)
        if not ok
    ]


def validate_line_seed(s: SpiralSeed):
    """The point-seed conditions on the reversed window, which is the line
    window read in the dual plane.  Reversal takes slot m to n - m and
    point condition l < k to line condition k - 1 - l."""
    conds = _seed_conditions(s.points[::-1], s.k, HYPERPLANE)
    return [
        ", ".join(f"q_{s.base + s.n - m}" for m in sorted(t, reverse=True)) + " not concurrent"
        for t, ok in conds[s.k - 1 :: -1] + conds[s.k :]
        if not ok
    ]


def _require_valid(bad):
    if bad:
        raise SeedInvalid("; ".join(bad))


def _extend(window, k: int, steps: int) -> tuple:
    """The window shifted by the signed number of steps, with the point
    recursions written kind-generically (see spiral_extend)."""
    w, n = tuple(window), len(window) - 1
    for _ in range(abs(steps)):
        a, b, c, d = (w[1], w[k + 1], w[n], w[k]) if steps > 0 else (w[n - k - 1], w[n - k], w[n - 1], w[k - 1])
        new = incident_element([incident_element([a, b]), incident_element([c, d])])
        w = w[1:] + (new,) if steps > 0 else (new,) + w[:-1]
    return w


def spiral_extend(s: SpiralSeed, steps: int) -> SpiralSeed:
    """Shift the window by the signed number of steps using
    P_{i+n+1} = P_{i+1} P_{i+k+1} ^ P_{i+n} P_{i+k}  (forward) and
    P_{i-1} = P_{i+n-k-1} P_{i+n-k} ^ P_{i+n-1} P_{i+k-1}  (backward)."""
    _require_valid(validate_spiral_seed(s))
    return SpiralSeed(s.k, s.n, s.base + steps, _extend(s.points, s.k, steps))


def line_seed_extend(s: SpiralSeed, steps: int) -> SpiralSeed:
    """The point recursions on the reversed window, run the other way:
    q_{j+n+1} = <q_{j+1} ^ q_{j+n-k+1}, q_{j+k+1} ^ q_{j+k}>  (forward),
    q_{j-1} = <q_j ^ q_{j+n-k}, q_{j+n-1} ^ q_{j+n-k-1}>  (backward)."""
    _require_valid(validate_line_seed(s))
    return SpiralSeed(s.k, s.n, s.base + steps, _extend(s.points[::-1], s.k, -steps)[::-1])


def sample_spiral_seed(k: int, n: int, base: int, free_points, params) -> SpiralSeed:
    """Seed from free data: n-k+1 free points, then for each parameter t_l
    the point on the line of condition l at affine parameter t_l, and the
    final point as the intersection forced by the last two conditions."""
    if len(free_points) != n - k + 1:
        raise BadParameters(f"need n-k+1 = {n - k + 1} free points")
    if len(params) != k - 1:
        raise BadParameters(f"need k-1 = {k - 1} parameters")
    pts = list(free_points)
    # condition l: P_{i+n-k+1+l} on line(P_{i+l}, P_{i+n-k+l}); choose it at
    # parameter t_l along that line (affine combination of representatives)
    for l in range(k - 1):
        a, b = pts[l], pts[n - k + l]
        t = params[l]
        coords = tuple(x + t * (y - x) for x, y in zip(a.coords, b.coords))
        pts.append(HomogeneousElement(coords, a.kind))
    last = meet_hyperplanes(
        [line_through(pts[k - 1], pts[n - 1]), line_through(pts[0], pts[k])]
    )
    pts.append(last)
    seed = SpiralSeed(k, n, base, tuple(pts))
    _require_valid(validate_spiral_seed(seed))
    return seed


# ------------------------------------------------------------ the template


def removed_js(k: int, n: int, i: int):
    """Slots j with the edge q_j P_{j+k} removed: j = i-k-1, ..., i-1 (mod n+1)."""
    N = n + 1
    return [(i - k - 1 + m) % N for m in range(k + 1)]


def build_spiral_graph(k: int, n: int, i: int) -> TorusGraph:
    return with_basis_cycles(build_tile_graph(n + 1, k, removed_js(k, n, i)))


def build_spiral_config(sP: SpiralSeed, sq: SpiralSeed) -> DoubleCircuitConfig:
    """Labels from matched seeds: the point window based at i and the line
    window based at i-1."""
    if (sP.k, sP.n) != (sq.k, sq.n):
        raise SizeMismatch("seed shapes differ")
    if sq.base != sP.base - 1:
        raise BadParameters(f"line seed must be based at {sP.base - 1}, got {sq.base}")
    k, n, i = sP.k, sP.n, sP.base
    N = n + 1
    g = build_spiral_graph(k, n, i)
    white = {f"P{(i + m) % N}": sP.points[m] for m in range(N)}
    black = {f"q{(i - 1 + m) % N}": sq.points[m] for m in range(N)}
    return DoubleCircuitConfig(g, 2, white, black)


def seeds_from_config(c: DoubleCircuitConfig):
    """(point seed, line seed) of a labelled spiral configuration, the inverse of
    build_spiral_config: k from a diagonal tile, and the window base i
    from the hexagons h{j}, j = i-k-1, ..., i-1 (mod n+1)."""
    check_labels(c)
    k, N = k_from_config(c), len(c.graph.white_ids)
    hexagons = {f.id for f in c.graph.faces if f.id.startswith("h")}
    i = next((i for i in range(N) if hexagons == {f"h{j}" for j in removed_js(k, N - 1, i)}), None)
    if i is None:
        raise BadParameters(f"hexagons {sorted(hexagons)} are not the k + 1 = {k + 1} slots of a spiral window")
    sP = SpiralSeed(k, N - 1, i, tuple(c.white_labels[f"P{(i + m) % N}"] for m in range(N)))
    return sP, SpiralSeed(k, N - 1, i - 1, tuple(c.black_labels[f"q{(i - 1 + m) % N}"] for m in range(N)))


def spiral_step_on_config(c: DoubleCircuitConfig, k: int, n: int, i: int) -> DoubleCircuitConfig:
    """The tile step at the one tile d{i} = P_i q_i P_{i+k} q_{i-1},
    slot-comparable to build_spiral_config of the seeds shifted by one."""
    return tile_step(c, k, n + 1, [i % (n + 1)], removed_js(k, n, i + 1))


def step(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """One spiral step by moves (spiral_step_on_config), its shape read from c."""
    sP, _ = seeds_from_config(c)
    return spiral_step_on_config(c, sP.k, sP.n, sP.base)


def formula(c: DoubleCircuitConfig) -> DoubleCircuitConfig:
    """The configuration of c's seeds shifted by one by the direct recursions."""
    sP, sq = seeds_from_config(c)
    return build_spiral_config(spiral_extend(sP, 1), line_seed_extend(sq, 1))
