"""The traced run: per-layer metrics.

It runs in its own process and does, in order:

1. the size sweeps with tracing off: pentagram steps at n = 16..64,
   Q-net steps at a = 4..10, spiral steps, and the spectral determinant
   ladder k = 8, 12, 18, 25 (Q-net 8x8 has k = 32 and does not finish the
   cofactor determinant in minutes, so the ladder stops at 25);
2. the CLI start-up probes: a bare interpreter, and one that imports
   dimergeom.cli;
3. one fixed pass of operations per workload with tracing on: the
   dynamics chains, one curve per spectral input, and every CLI command
   through cli.main(argv) in-process.  The CLI pass, and the named
   workload's pass, also run once with tracing off first: the untraced CLI
   pass gives the per-command in-process times, and the named workload's
   traced time over its untraced time is trace.overhead_ratio.

The work is fixed by the seed, not by the clock, so every count repeats
exactly between two traced runs with the same seed.
"""
from __future__ import annotations

import functools
import shutil
import statistics
import subprocess
import sys

from dimergeom import config, geometry, laurent, linalg, moves, pentagram, qnet, spectral, spiral, torusgraph
from dimergeom.fixtures import make_spiral_fixture
from dimergeom.laurent import LaurentPoly2
from dimergeom.spectral import kasteleyn_weights, spectral_polynomial

from perfbench import inputs, workloads
from perfbench.gauge import Gauge
from perfbench.tracer import Tracer
from perfbench.workloads import CHAIN_STEPS, SMALL, Op, in_process_op, run_op

SWEEP_STEPS = 3
PENTAGRAM_SIZES = (16, 32, 48, 64)
PENTAGRAM_SWEEP_K = 3
QNET_SIZES = (4, 6, 8, 10)
LADDER = (8, 12, 18, 25)  # determinant sizes k: Q-net 4x4, pentagram 12/5, Q-net 6x6, pentagram 25/3
SPAWNS = 5

SPANNED = {
    linalg: ("rref", "nullspace", "rank", "solve"),
    geometry: (
        "is_circuit", "multi_ratio", "meet", "meet_hyperplanes", "join_points", "line_through", "normalize_coords",
    ),
    torusgraph: ("vertex_edges", "find_walk", "with_basis_cycles", "validate_graph", "face_key"),
    config: (
        "check_V", "check_F", "cohomology_class", "labels_projectively_equal", "config_from_dict", "config_to_dict",
    ),
    moves: ("urban_renewal", "remove_degree2", "apply_script", "spoke_rename_map", "rename_faces_like", "relabel"),
    pentagram: ("build_pentagram_graph",),
    qnet: ("build_qnet_graph",),
    spiral: ("build_spiral_graph",),
    spectral: ("kasteleyn_weights", "spectral_polynomial", "reconstruct_black", "on_curve"),
    laurent: ("newton_polygon",),
}
COUNTED = {"laurent.mul": (LaurentPoly2, ("__mul__", "__rmul__")), "laurent.add": (LaurentPoly2, ("__add__",))}

# the per-layer metrics, in output order: (name, unit, better)
CALLS = (
    "linalg.rref", "linalg.nullspace", "linalg.rank", "linalg.solve",
    "geometry.is_circuit", "geometry.multi_ratio", "geometry.normalize_coords",
    "torusgraph.vertex_edges", "torusgraph.find_walk", "torusgraph.with_basis_cycles",
    "moves.urban_renewal", "moves.remove_degree2",
    "pentagram.build_pentagram_graph", "qnet.build_qnet_graph", "spiral.build_spiral_graph",
    "laurent.mul", "laurent.add",
)
SELF = (
    "linalg.rref", "linalg.nullspace", "linalg.solve",
    *(f"geometry.{n}" for n in SPANNED[geometry]),
    *(f"torusgraph.{n}" for n in SPANNED[torusgraph]),
    *(f"config.{n}" for n in SPANNED[config]),
    *(f"moves.{n}" for n in SPANNED[moves]),
    "pentagram.build_pentagram_graph", "qnet.build_qnet_graph", "spiral.build_spiral_graph",
    "pentagram.formula", "qnet.formula",
    *(f"spectral.{n}" for n in SPANNED[spectral]),
    "laurent.newton_polygon",
)
CLI_COMMANDS = (
    "validate", "validate_spiral", "validate_qnet", "render", "make_pentagram", "make_spiral", "make_qnet",
    "make_grid_minus_edge", "malformed", "run_pentagram", "run_spiral", "spectral", "reconstruct", "dual_curve",
    "run_qnet", "birationality_probe",
)
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [(f"{n}.self_s", "s", "lower") for n in SELF]
    + [(f"pentagram.step_s.n{n}", "s", "lower") for n in PENTAGRAM_SIZES]
    + [(f"qnet.step_s.a{a}", "s", "lower") for a in QNET_SIZES]
    + [("spiral.step_s", "s", "lower"), ("pentagram.step_scaling", "ratio", "lower")]
    + [("dynamics.label_bits.max", "bits", "lower")]
    + [(f"spectral.spectral_polynomial.s.k{k}", "s", "lower") for k in LADDER]
    + [("spectral.reconstruct.solves_per_black", "ratio", "lower")]
    + [("cli.python_start_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    + [(f"cli.{c}.in_process_s", "s", "lower") for c in CLI_COMMANDS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def traced_functions() -> dict:
    """Span name -> function, for every spanned library function plus the
    benchmark's own direct-formula checks."""
    functions = {
        f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": getattr(mod, name)
        for mod, names in SPANNED.items()
        for name in names
    }
    functions["pentagram.formula"] = workloads.pentagram_formula
    functions["qnet.formula"] = workloads.qnet_formula
    return functions


class Checks:
    """Checked operations in the traced run, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _chained(gauge: Gauge, step, start):
    """Median time of SWEEP_STEPS chained steps, with the first step's
    input and output."""
    times, outs = [], [start]
    for _ in range(SWEEP_STEPS):
        out, dt = gauge.timed(step, outs[-1])
        outs.append(out)
        times.append(dt)
    return statistics.median(times), outs[0], outs[1]


def sweeps(seed: int, curves: dict, checks: Checks, gauge: Gauge) -> dict:
    """Per-size step and determinant times, tracing off.  The first step
    of each size, and every determinant, is checked."""
    out = {}
    k = PENTAGRAM_SWEEP_K
    for n in PENTAGRAM_SIZES:
        c = inputs.draw_pentagram(seed, n, k, accept=workloads.chain_states("pentagram", k)).config
        out[f"pentagram.step_s.n{n}"], prev, nxt = _chained(gauge, lambda x: workloads.pentagram_step(x, k, 0), c)
        checks.record(workloads.step_ok("pentagram", prev, nxt, k, 0))
    out["pentagram.step_scaling"] = (out["pentagram.step_s.n64"] / 64) / (out["pentagram.step_s.n16"] / 16)
    for a in QNET_SIZES:
        c = inputs.draw_qnet(seed, a, accept=workloads.chain_states("qnet", a)).config
        out[f"qnet.step_s.a{a}"], prev, nxt = _chained(gauge, lambda x: workloads.qnet_step(x, a, 0), c)
        checks.record(workloads.step_ok("qnet", prev, nxt, a, 0))
    times = []
    start = make_spiral_fixture()[2]
    for _ in range(SWEEP_STEPS):
        cur = start
        for i in range(workloads.SPIRAL_BASE, workloads.SPIRAL_BASE + CHAIN_STEPS):
            cur, dt = gauge.timed(workloads.spiral_step, cur, workloads.SPIRAL_K, i)
            times.append(dt)
    checks.record(workloads.verified(cur))
    out["spiral.step_s"] = statistics.median(times)
    ladder = (curves["qnet-4"][0], workloads.coherent(inputs.draw_pentagram(seed, 12, 5).config, "singular"),
              curves["qnet-6"][0], curves["pentagram-25"][0])
    for k, inp in zip(LADDER, ladder):
        w = kasteleyn_weights(inp.graph, inp.white)
        times, polys = [], []
        for _ in range(SWEEP_STEPS):
            poly, dt = gauge.timed(spectral_polynomial, inp.graph, w)
            polys.append(poly)
            times.append(dt)
        checks.record(len(inp.graph.black_ids) == k and all(p.terms == polys[0].terms for p in polys))
        out[f"spectral.spectral_polynomial.s.k{k}"] = statistics.median(times)
    return out


def spawn_times(root: str, gauge: Gauge) -> dict:
    """Median time of a bare interpreter, and the extra time taken by
    importing dimergeom.cli."""
    env = workloads.cli_env(root)

    def spawn(code):
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def median_spawn(code):
        return statistics.median(gauge.timed(spawn, code)[1] for _ in range(SPAWNS))

    start = median_spawn("pass")
    return {"cli.python_start_s": start, "cli.import_s": median_spawn("import dimergeom.cli") - start}


def label_bits(c) -> int:
    """Largest coordinate bit length over all labels (labels are stored as
    primitive integer tuples)."""
    labels = list(c.white_labels.values()) + list(c.black_labels.values())
    return max(abs(x.numerator).bit_length() for lbl in labels for x in lbl.coords)


def _in_span(tracer: Tracer, name: str, op: int, fn):
    with tracer.span(name, op):
        return fn()


def run_pass(ops, checks: Checks, gauge: Gauge, tracer: Tracer | None = None, first_op: int = 0, after=None) -> list:
    """Run ops in order and return their times in reference seconds;
    after(op) runs outside the timed region."""
    times = []
    for i, op in enumerate(ops):
        spanned = op
        if tracer is not None:
            spanned = Op(op.name, op.cls, functools.partial(_in_span, tracer, f"op.{op.name}", first_op + i, op.run), op.check)
        ok, dt, _error = run_op(spanned, gauge)
        times.append(dt)
        checks.record(ok)
        if after is not None:
            after(op)
    return times


def traced_run(workload: str, seed: int, root: str, spans_path: str, gauge: Gauge):
    """Returns (per-layer metrics as name -> value, Checks).  Times are in
    reference seconds (see gauge.py); span self times are scaled by the
    run's median gauge reading."""
    checks = Checks()
    dynamics_ops, _ = workloads.dynamics_ops(seed)
    curves, _ = workloads.spectral_sources(seed)
    workdir = workloads.work_dir(root, "traced")
    try:
        commands, _ = workloads.cli_commands(seed, workdir)
        metrics = sweeps(seed, curves, checks, gauge)
        metrics.update(spawn_times(root, gauge))

        passes = {
            "dynamics": lambda: dynamics_ops,
            "spectral": lambda: [Op(name, SMALL, draws[0]) for name, draws in curves.items()],
            "cli": lambda: [in_process_op(name, cls, cmd) for name, (cmd, cls) in commands.items()],
        }
        untraced = {"cli": run_pass(passes["cli"](), checks, gauge)}
        if workload != "cli":
            untraced[workload] = run_pass(passes[workload](), checks, gauge)
        for name, t in zip(commands, untraced["cli"]):
            metrics[f"cli.{name}.in_process_s"] = t

        bits = []
        tracer = Tracer()
        traced, op_ranges, first = {}, {}, 0
        tracer.install(traced_functions(), COUNTED)
        try:
            for name, make in passes.items():
                ops = make()
                after = (lambda op: bits.append(label_bits(op.run.out))) if name == "dynamics" else None
                traced[name] = run_pass(ops, checks, gauge, tracer, first, after)
                op_ranges[name] = range(first, first + len(ops))
                first += len(ops)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in CALLS:
        metrics[f"{name}.calls"] = tracer.calls[name]
    for name in SELF:
        metrics[f"{name}.self_s"] = tracer.self_s[name] * gauge.run_scale()
    metrics["dynamics.label_bits.max"] = max(bits)
    blacks = sum(len(c[0].graph.black_ids) for c in curves.values() if c[0].expect in ("unique", "nonunique"))
    solves = tracer.calls_under("linalg.solve", "spectral.reconstruct_black", op_ranges["spectral"])
    metrics["spectral.reconstruct.solves_per_black"] = solves / blacks
    metrics["trace.overhead_ratio"] = sum(traced[workload]) / sum(untraced[workload])
    return metrics, checks
