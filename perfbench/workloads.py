"""The three workloads: seeded inputs, one round of operations each, and
the per-operation correctness oracle.

An operation (``Op``) is one unit of work a user waits for: a verified
dynamics step, one exact spectral curve, or one CLI subprocess.  Its
``run`` is timed and its ``check`` is not.  For the library workloads the
verification is part of the work, so ``run`` does it and returns whether
the output is correct; for the CLI, ``run`` is the subprocess and
``check`` inspects what it left behind.  A round lists the operations in
a fixed order; run.py runs whole rounds, so every run holds the same
mix of inputs.

Small and large inputs are separate classes.  Each class figure is the
geometric mean of the median times of the class's input types (run.py),
so a change to any one input type moves its class figure, whatever the
type's count in a round.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from dimergeom import cli, scalars
from dimergeom.config import (
    DoubleCircuitConfig,
    check_F,
    check_V,
    cohomology_class,
    config_from_dict,
    config_to_dict,
    labels_projectively_equal,
    save_config,
)
from dimergeom.fixtures import (
    SPIRAL_BASE,
    SPIRAL_CLASS_POINT,
    SPIRAL_K,
    SPIRAL_N,
    make_qnet_fixture,
    make_spiral_fixture,
)
from dimergeom.laurent import LaurentPoly2, newton_polygon, poly_to_json
from dimergeom.pentagram import (
    build_pentagram_config,
    dual_pentagram_map,
    lines_from_config,
    pentagram_map,
    pentagram_step_on_config,
    polygon_from_config,
)
from dimergeom.qnet import (
    QNetWindow,
    build_qnet_config,
    config_plane_window,
    config_point_window,
    dual_laplace,
    laplace,
    periodic_extension,
    qnet_step_on_config,
)
from dimergeom.render import RenderSpec, render_config
from dimergeom.spectral import kasteleyn_weights, on_curve, reconstruct_black, spectral_polynomial
from dimergeom.spiral import (
    LineSeed,
    SpiralSeed,
    build_spiral_config,
    line_seed_extend,
    spiral_extend,
    spiral_step_on_config,
)
from dimergeom.torusgraph import TorusGraph, validate_graph

from perfbench import inputs

SMALL, MID, LARGE = "small", "mid", "large"
CHAIN_STEPS = 4  # chain length from a fresh input; label heights stay in a fixed band
SMALL_REPEAT = 4  # spectral ops per small input in a round, so four rounds hold the 100 ops a p90 needs


@dataclass
class Op:
    name: str  # input type or command, e.g. "pentagram-64"
    cls: str  # SMALL, MID or LARGE
    run: object  # () -> result; this is what is timed
    check: object = bool  # result -> True when correct; not timed


@dataclass
class Workload:
    round: list  # list of Op, run in order
    rejected: int  # rejected input draws
    close: object = None  # () -> None, removes scratch files


def attempt(fn, *args) -> tuple:
    """(fn(*args), None), or (None, the exception's type name)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, type(exc).__name__


def run_op(op: Op, gauge) -> tuple:
    """(ok, reference seconds, error type or None) for one timed op.  An
    op that leaves the process-global scalar backend off rational fails
    (config_from_dict switches it on float files); the backend is then
    reset so the failure is counted once."""
    (result, error), dt = gauge.timed(attempt, op.run)
    ok = False
    if error is None:
        ok, error = attempt(op.check, result)
    if scalars.get_backend() != scalars.RATIONAL:
        ok, error = False, "backend-leak"
        scalars.set_backend(scalars.RATIONAL)
    return bool(ok), dt, error


# ------------------------------------------------------------------ dynamics


def verified(c: DoubleCircuitConfig) -> bool:
    return validate_graph(c.graph).ok and check_V(c).ok and check_F(c).ok


def pentagram_formula(prev: DoubleCircuitConfig, k: int) -> DoubleCircuitConfig:
    """T_k by the direct formulas on points and lines."""
    return build_pentagram_config(
        pentagram_map(polygon_from_config(prev), k),
        dual_pentagram_map(lines_from_config(prev), k),
        k,
    )


def qnet_formula(prev: DoubleCircuitConfig, a: int) -> DoubleCircuitConfig:
    """Laplace transforms of the periodically extended point and plane
    data, on the window of one period plus a ring, as a torus config."""

    def one_period(w):
        ext = periodic_extension(w, a, a, 1)
        return QNetWindow({s: v for s, v in ext.values.items() if -1 <= min(s) and max(s) <= a})

    return build_qnet_config(
        laplace(one_period(config_point_window(prev))), dual_laplace(one_period(config_plane_window(prev))), a, a
    )


def spiral_formula(prev: DoubleCircuitConfig, i: int) -> DoubleCircuitConfig:
    """The seed windows of prev shifted by one with the spiral recursions."""
    k, n = SPIRAL_K, SPIRAL_N
    N = n + 1
    sP = SpiralSeed(k, n, i, tuple(prev.white_labels[f"P{(i + m) % N}"] for m in range(N)))
    sq = LineSeed(k, n, i - 1, tuple(prev.black_labels[f"q{(i - 1 + m) % N}"] for m in range(N)))
    return build_spiral_config(spiral_extend(sP, 1), line_seed_extend(sq, 1))


def white_parity(c: DoubleCircuitConfig) -> int:
    i, j = c.graph.white_ids[0][1:].split("x")
    return (int(i) + int(j)) % 2


def pentagram_step(prev, k, _i):
    return pentagram_step_on_config(prev, k)


def qnet_step(prev, a, _i):
    return qnet_step_on_config(prev, a, a, 1 - white_parity(prev))


def spiral_step(prev, _k, i):
    return spiral_step_on_config(prev, SPIRAL_K, SPIRAL_N, i)


# family -> (move-script step, direct formula); both take (prev, parameter,
# step index), where the parameter is k for pentagrams and a for Q-nets
FAMILIES = {
    "pentagram": (pentagram_step, lambda prev, k, _i: pentagram_formula(prev, k)),
    "qnet": (qnet_step, lambda prev, a, _i: qnet_formula(prev, a)),
    "spiral": (spiral_step, lambda prev, _k, i: spiral_formula(prev, i)),
}


def step_ok(family: str, prev, nxt, param, index) -> bool:
    """The oracle: the stepped configuration is a valid graph with (V) and
    (F), and its labels equal the direct formulas' slot by slot."""
    formula = FAMILIES[family][1]
    return verified(nxt) and labels_projectively_equal(nxt, formula(prev, param, index))


def chain_states(family: str, param, base: int = 0, steps: int = CHAIN_STEPS):
    """accept(config) for input draws: the list of the `steps` states of
    the chain from config by the direct formulas, or None when a state or
    the last step's output degenerates (a point lands on a line, a circuit
    collapses).  Such draws are rejected in set-up."""
    formula = FAMILIES[family][1]

    def accept(c):
        states = [c]
        for i in range(base, base + steps):
            nxt = formula(states[-1], param, i)
            if not verified(nxt):
                return None
            states.append(nxt)
        return states[:-1]

    return accept


class Step:
    """One verified step from a fixed state of a chain.  The state is
    fixed, so every round repeats the same work; the chain positions a
    round uses cover the band of rational heights a short chain reaches."""

    def __init__(self, family: str, state, param, index: int):
        self.family, self.state, self.param, self.index = family, state, param, index
        self.out = None

    def __call__(self) -> bool:
        self.out = FAMILIES[self.family][0](self.state, self.param, self.index)
        return step_ok(self.family, self.state, self.out, self.param, self.index)


def dynamics_ops(seed: int):
    """(one round of dynamics ops, rejected draws).  Small types take one
    step from each of chain positions 0..3 from a fresh seeded input (the
    frozen spiral for the spiral); large types, which cost a second and
    more per step, take one step from position 1."""
    rejected = 0

    def chain(family, draw, *shape, param, steps=CHAIN_STEPS):
        nonlocal rejected
        d = draw(seed, *shape, accept=chain_states(family, param, steps=steps))
        rejected += d.rejected
        return d.accepted

    spiral = make_spiral_fixture()[2]
    spiral_states = chain_states("spiral", SPIRAL_K, SPIRAL_BASE)(spiral)
    if spiral_states is None:
        raise RuntimeError("the frozen spiral degenerates within a chain")
    p12 = {k: chain("pentagram", inputs.draw_pentagram, 12, k, param=k) for k in (2, 3)}
    q4 = chain("qnet", inputs.draw_qnet, 4, param=4)
    p64 = {k: chain("pentagram", inputs.draw_pentagram, 64, k, param=k, steps=2) for k in (2, 3)}
    q8 = chain("qnet", inputs.draw_qnet, 8, param=8, steps=2)

    def op(name, cls, family, states, param, pos, base=0):
        return Op(name, cls, Step(family, states[pos], param, base + pos))

    ops = [op("spiral", SMALL, "spiral", spiral_states, SPIRAL_K, pos, SPIRAL_BASE) for pos in range(4)]
    ops += [op("pentagram-12", SMALL, "pentagram", p12[2 + pos % 2], 2 + pos % 2, pos) for pos in range(4)]
    ops += [op("qnet-4", SMALL, "qnet", q4, 4, pos) for pos in range(4)]
    ops += [
        op("pentagram-64", LARGE, "pentagram", p64[2], 2, 1),
        op("qnet-8", LARGE, "qnet", q8, 8, 1),
        op("pentagram-64", LARGE, "pentagram", p64[3], 3, 1),
    ]
    return ops, rejected


def dynamics(seed: int) -> Workload:
    """One op is one verified step: the move-script step, validate_graph +
    check_V + check_F on its output, and equality with the direct formulas.
    Small: frozen spiral, pentagram n=12, Q-net 4x4.  Large: pentagram
    n=64 (k = 2, 3), Q-net 8x8."""
    ops, rejected = dynamics_ops(seed)
    for op in ops:
        if op.cls == SMALL:
            op.run()
    return Workload(ops, rejected)


# ------------------------------------------------------------------ spectral


def brute_force_determinant(g: TorusGraph, weights: dict) -> LaurentPoly2:
    """Signed sum over all dimer covers (permutations): the oracle for the
    cofactor determinant on small matrices."""
    k = len(g.black_ids)
    widx = {w: j for j, w in enumerate(g.white_ids)}
    bidx = {b: i for i, b in enumerate(g.black_ids)}
    entry = [[LaurentPoly2.zero() for _ in range(k)] for _ in range(k)]
    for ei, e in enumerate(g.edges):
        i, j = bidx[e.b], widx[e.w]
        entry[i][j] = entry[i][j] + LaurentPoly2.monomial(weights[ei], e.h[0], e.h[1])
    acc = LaurentPoly2.zero()
    for perm in permutations(range(k)):
        if any(entry[i][perm[i]].is_zero() for i in range(k)):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = LaurentPoly2.constant(Fraction((-1) ** inversions))
        for i in range(k):
            term = term * entry[i][perm[i]]
        acc = acc + term
    return acc


ORACLE_MAX_K = 6


@dataclass
class CurveInput:
    graph: TorusGraph
    d: int
    white: dict
    config: DoubleCircuitConfig | None  # coherent config, or None for white data only
    expect: str  # "unique" (round trip at the class point), "singular", "nonunique"
    point: tuple | None = None  # curve point for white-only data
    oracle: LaurentPoly2 | None = None  # brute-force determinant when k <= ORACLE_MAX_K

    def __call__(self) -> bool:
        g = self.graph
        poly = spectral_polynomial(g, kasteleyn_weights(g, self.white))
        ok = len(newton_polygon(poly)) > 0
        if self.oracle is not None:
            ok = ok and poly.terms == self.oracle.terms
        at = tuple(cohomology_class(self.config)) if self.config is not None else self.point
        ok = ok and on_curve(poly, *at)
        if self.expect == "unique":
            res = reconstruct_black(g, self.d, self.white, *at)
            ok = ok and res.status == "unique" and labels_projectively_equal(res.config, self.config)
        elif self.expect == "nonunique":
            ok = ok and reconstruct_black(g, self.d, self.white, *at).status == "nonunique"
        return ok


def reconstructs(c: DoubleCircuitConfig) -> bool:
    """The class point is smooth: reconstruction there is unique and
    gives back c's black labels."""
    res = reconstruct_black(c.graph, c.d, c.white_labels, *cohomology_class(c))
    return res.status == "unique" and labels_projectively_equal(res.config, c)


def coherent(c: DoubleCircuitConfig, expect: str) -> CurveInput:
    inp = CurveInput(c.graph, c.d, c.white_labels, c, expect)
    if len(c.graph.black_ids) <= ORACLE_MAX_K:
        inp.oracle = brute_force_determinant(c.graph, kasteleyn_weights(c.graph, c.white_labels))
    return inp


def spectral_sources(seed: int, draws: int = 1):
    """(name -> [CurveInput] of `draws` seeded inputs, rejected draws).
    The frozen spiral and grid-minus-edge have a single input."""
    rejected = 0

    def coherent_draws(expect, draw, *shape):
        nonlocal rejected
        out = []
        for index in range(draws):
            d = draw(seed, *shape, index=index, **({"accept": reconstructs} if expect == "unique" else {}))
            rejected += d.rejected
            out.append(coherent(d.config, expect))
        return out

    spiral = make_spiral_fixture()[2]
    if tuple(cohomology_class(spiral)) != SPIRAL_CLASS_POINT:
        raise RuntimeError("the frozen spiral lost its class point")
    g, white, at = inputs.grid_minus_edge()
    sources = {
        "spiral": [coherent(spiral, "unique")],
        "pentagram-9": coherent_draws("unique", inputs.draw_pentagram, 9, 2),
        "qnet-4": coherent_draws("singular", inputs.draw_qnet, 4),
        "grid-minus-edge": [CurveInput(g, 2, white, None, "nonunique", at)],
        "qnet-6": coherent_draws("singular", inputs.draw_qnet, 6),
        "pentagram-21": coherent_draws("unique", inputs.draw_pentagram, 21, 3),
        "pentagram-25": coherent_draws("unique", inputs.draw_pentagram, 25, 3),
    }
    return sources, rejected


SPECTRAL_DRAWS = 2  # inputs per seeded type, so a run's cost averages over input heights


def spectral(seed: int) -> Workload:
    """One op is one curve: weights, determinant, Newton polygon, class on
    the curve, and the reconstruction round trip where the class point is
    smooth.  Small: k <= 9.  Large: k >= 18."""
    sources, rejected = spectral_sources(seed, SPECTRAL_DRAWS)
    for name in ("spiral", "pentagram-9", "qnet-4", "grid-minus-edge"):
        for curve in sources[name]:
            curve()

    def ops(name, cls, times=1):
        """times ops per input of the type, inputs interleaved."""
        return [Op(name, cls, curve) for _ in range(times) for curve in sources[name]]

    small = [op for name in ("spiral", "qnet-4", "grid-minus-edge", "pentagram-9") for op in ops(name, SMALL, SMALL_REPEAT)]
    large = ops("qnet-6", LARGE) + ops("pentagram-21", LARGE) + ops("pentagram-25", LARGE)
    return Workload(small + large, rejected)


# ----------------------------------------------------------------------- cli


def json_bytes(data) -> bytes:
    """The bytes the CLI writes for a JSON document."""
    return (json.dumps(data, indent=1) + "\n").encode()


def saved_bytes(c: DoubleCircuitConfig) -> bytes:
    """What save_config writes for c."""
    return json_bytes(config_to_dict(c))


@dataclass
class Command:
    """One CLI invocation and what a correct run leaves behind."""

    argv: list
    expect_rc: int = 0
    out: str | None = None  # output file written by the command
    expect_out: bytes | None = None  # its exact expected content
    config_out: bool = False  # the output is a configuration file
    stdout_has: str = ""

    def check(self, rc: int, stdout: str) -> bool:
        if rc != self.expect_rc or self.stdout_has not in stdout:
            return False
        if self.out is None:
            return True
        with open(self.out, "rb") as fh:
            data = fh.read()
        os.remove(self.out)
        if self.expect_out is not None and data != self.expect_out:
            return False
        if self.out.endswith(".svg"):
            return ET.fromstring(data).tag.endswith("svg")
        if self.config_out:
            return saved_bytes(config_from_dict(json.loads(data))) == data
        return True


def subprocess_op(name: str, cls: str, cmd: Command, cwd: str, env: dict) -> Op:
    """One `python -m dimergeom.cli` run, timed from spawn to exit."""
    argv = [sys.executable, "-m", "dimergeom.cli", *cmd.argv]

    def run():
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    return Op(name, cls, run, lambda result: cmd.check(*result))


def in_process_op(name: str, cls: str, cmd: Command) -> Op:
    """The same command through cli.main(argv), its output captured."""

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(list(cmd.argv))
        return rc, out.getvalue()

    return Op(name, cls, run, lambda result: cmd.check(*result))


def cli_commands(seed: int, workdir: str):
    """(name -> (Command, class), rejected draws).  Input files are written
    to workdir; expected outputs are computed in this process."""

    def path(name):
        return os.path.join(workdir, name)

    chain = chain_states("pentagram", 2)
    pent = inputs.draw_pentagram(seed, 7, 2, accept=lambda x: reconstructs(x) and chain(x))
    c = pent.config
    lam, mu = cohomology_class(c)
    spiral = make_spiral_fixture()[2]
    qnet = make_qnet_fixture()[2]
    g, white, _ = inputs.grid_minus_edge()
    grid = DoubleCircuitConfig(g, 2, white, {})
    for name, cfg in (("pent.json", c), ("spiral.json", spiral), ("qnet.json", qnet)):
        save_config(cfg, path(name))
    with open(path("malformed.json"), "w", encoding="utf-8") as fh:
        fh.write('{"dimension": 2, "white": [')
    box = ["--box", "-8", "8", "-8", "8"]
    svg = render_config(c, RenderSpec(xmin=-8, xmax=8, ymin=-8, ymax=8)).encode()
    curve = spectral_polynomial(c.graph, kasteleyn_weights(c.graph, c.white_labels))
    recon = reconstruct_black(c.graph, c.d, c.white_labels, lam, mu).config
    qstep = qnet_step_on_config(qnet, 4, 4, 1 - white_parity(qnet))

    def make(cmd, cfg, *args):
        out = path(cmd + ".json")
        return Command([cmd, *args, "--out", out], 0, out, saved_bytes(cfg), True)

    commands = {
        "validate": (Command(["validate", path("pent.json")], stdout_has="condition (F): pass"), SMALL),
        "validate_spiral": (Command(["validate", path("spiral.json")], stdout_has="condition (F): pass"), SMALL),
        "validate_qnet": (Command(["validate", path("qnet.json")], stdout_has="condition (F): pass"), SMALL),
        "render": (Command(["render", path("pent.json"), "--out", path("pent.svg"), *box], 0, path("pent.svg"), svg), SMALL),
        "make_pentagram": (make("make-pentagram", c, "--n", "7", "--k", "2", "--seed", str(pent.sub_seed)), SMALL),
        "make_spiral": (make("make-spiral", spiral), SMALL),
        "make_qnet": (make("make-qnet", qnet), SMALL),
        "make_grid_minus_edge": (make("make-grid-minus-edge", grid), SMALL),
        "malformed": (Command(["validate", path("malformed.json")], expect_rc=2), SMALL),
        "run_pentagram": (
            Command(
                ["run", path("pent.json"), "--builtin", "pentagram", "--k", "2", "--verify", "--out", path("p1.json")],
                0, path("p1.json"), saved_bytes(pentagram_step_on_config(c, 2)), True, "formulas=match",
            ),
            MID,
        ),
        "run_spiral": (
            Command(
                ["run", path("spiral.json"), "--builtin", "spiral", "--verify", "--out", path("s1.json")],
                0, path("s1.json"), saved_bytes(spiral_step_on_config(spiral, SPIRAL_K, SPIRAL_N, SPIRAL_BASE)),
                True, "formulas=match",
            ),
            MID,
        ),
        "spectral": (
            Command(["spectral", path("pent.json"), "--out", path("curve.json")], 0, path("curve.json"),
                    json_bytes(poly_to_json(curve))),
            MID,
        ),
        "reconstruct": (
            Command(["reconstruct", path("pent.json"), f"--lam={lam}", f"--mu={mu}", "--out", path("rec.json")],
                    0, path("rec.json"), saved_bytes(recon), True, "outcome: Unique"),
            MID,
        ),
        "dual_curve": (Command(["experiment", "dual-curve", path("pent.json")], stdout_has="report:"), MID),
        "run_qnet": (
            Command(
                ["run", path("qnet.json"), "--builtin", "qnet", "--verify", "--out", path("q1.json")],
                0, path("q1.json"), saved_bytes(qstep), True, "formulas=match",
            ),
            LARGE,
        ),
        "birationality_probe": (
            Command(
                ["experiment", "birationality-probe", path("pent.json"), "--samples", "20", "--seed", str(seed % 1000)],
                stdout_has="report: sampled outcomes over 20 curve points",
            ),
            LARGE,
        ),
    }
    return commands, pent.rejected


def work_dir(root: str, tag: str) -> str:
    d = os.path.join(root, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    return d


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_workload(seed: int, root: str) -> Workload:
    """One op is one `python -m dimergeom.cli ...` subprocess, timed from
    spawn to exit.  Small: validate, render, make-*, the exit-2 probe.
    Large: run --builtin qnet --verify and the birationality probe."""
    workdir = work_dir(root, "cli")
    commands, rejected = cli_commands(seed, workdir)
    env = cli_env(root)
    ops = []
    for name, (cmd, cls) in commands.items():
        # the two large commands run twice, so each has a dozen samples in a run
        ops += [subprocess_op(name, cls, cmd, workdir, env)] * (2 if cls == LARGE else 1)
    return Workload(ops, rejected, lambda: shutil.rmtree(workdir, ignore_errors=True))
