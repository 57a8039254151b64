"""Seeded inputs for the benchmark.

Every draw comes from ``random.Random`` streams derived from the run's
``--seed``; the program under test only ever sees the generated
configurations.  A draw whose validation raises or fails, or that fails
the caller's acceptance test, is rejected and the next sub-seed is
tried; rejections are counted and reported with set-up, never as failed
operations.

The grid-minus-edge input, like the spiral (fixtures.make_spiral_fixture),
is a frozen fixture of the package and does not depend on the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

from dimergeom.config import DoubleCircuitConfig, check_F, check_V
from dimergeom.errors import GeometryError
from dimergeom.fixtures import (
    default_pentagram_params,
    grid_minus_edge_curve_point,
    make_grid_minus_edge,
    make_pentagram_fixture,
)
from dimergeom.geometry import POINT, HomogeneousElement, point
from dimergeom.qnet import QNetWindow, build_qnet_config, plane_of_quad
from dimergeom.torusgraph import validate_graph

MAX_DRAWS = 50


@dataclass(frozen=True)
class Drawn:
    config: DoubleCircuitConfig
    sub_seed: int  # the accepted draw's seed, as the CLI's --seed takes it
    rejected: int  # draws rejected before it
    accepted: object = True  # what the acceptance test returned


def first_valid(seed: int, slot: str, make, accept=None) -> Drawn:
    """Call make(sub_seed) on the slot's sub-seed stream until it returns
    a valid input for which accept(config), when given, returns a true
    value."""
    rng = random.Random(f"{seed}:{slot}")
    for rejected in range(MAX_DRAWS):
        sub = rng.randrange(2**31)
        try:
            c = make(sub)
            verdict = is_valid(c) and (accept is None or accept(c))
            if verdict:
                return Drawn(c, sub, rejected, verdict)
        except GeometryError:
            pass
    raise RuntimeError(f"{slot}: no valid draw in {MAX_DRAWS} tries")


def is_valid(c: DoubleCircuitConfig) -> bool:
    return validate_graph(c.graph).ok and check_V(c).ok and check_F(c).ok


def pentagram_config(n: int, k: int, sub: int) -> DoubleCircuitConfig:
    """Conic pentagram pair with seeded parameters (k != n/2)."""
    return make_pentagram_fixture(n, k, default_pentagram_params(n, sub))[3]


def _distinct_rationals(rng: random.Random, count: int) -> list:
    out: list = []
    while len(out) < count:
        t = F(rng.randint(-40, 40), rng.randint(1, 9))
        if t not in out:
            out.append(t)
    return out


def qnet_config(a: int, sub: int) -> DoubleCircuitConfig:
    """Coherent a x a Q-net torus from period-a sequences on the quadric
    z = xy and a central collineation with a seeded axis, built with the
    public window API exactly as the package's 4 x 4 fixture is."""
    rng = random.Random(sub)
    xs, ys = _distinct_rationals(rng, a), _distinct_rationals(rng, a)
    axis = [F(rng.randint(1, 9), rng.randint(2, 9)) for _ in range(4)]

    def on_quadric(i, j):
        x, y = xs[i % a], ys[j % a]
        return point(x, y, x * y, 1)

    def collineate(p):
        coords = list(p.coords)
        coords[3] += sum(w * c for w, c in zip(axis, p.coords))
        return HomogeneousElement(tuple(coords), POINT)

    ring = range(-1, a + 1)
    f = QNetWindow({(i, j): on_quadric(i, j) for i in ring for j in ring if (i + j) % 2 == 0})
    mate = QNetWindow({s: collineate(v) for s, v in f.values.items()})
    cells = [(i, j) for i in range(a) for j in range(a)]
    f_one = QNetWindow({s: f[s] for s in cells if sum(s) % 2 == 0})
    planes = QNetWindow({s: plane_of_quad(mate, s) for s in cells if sum(s) % 2 == 1})
    return build_qnet_config(f_one, planes, a, a)


def draw_pentagram(seed: int, n: int, k: int, index: int = 0, accept=None) -> Drawn:
    """The index-th pentagram n/k input of the run."""
    return first_valid(seed, f"pentagram-{n}-{k}-{index}", lambda sub: pentagram_config(n, k, sub), accept)


def draw_qnet(seed: int, a: int, index: int = 0, accept=None) -> Drawn:
    """The index-th a x a Q-net input of the run."""
    return first_valid(seed, f"qnet-{a}-{index}", lambda sub: qnet_config(a, sub), accept)


def grid_minus_edge():
    """The frozen grid-minus-edge graph, white data and rational curve point."""
    g, white = make_grid_minus_edge()
    return g, white, grid_minus_edge_curve_point(g, white)
