"""Command-line front end.

Commands: validate, run, spectral, reconstruct, experiment, render, and
the fixture generators make-pentagram / make-spiral / make-qnet /
make-grid-minus-edge.  Exit codes: 0 success, 1 domain failure, 2 I/O or
parse error.  Every command is deterministic given its inputs; samplers
take explicit integer seeds.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .config import check_F, check_V, config_from_dict, labels_projectively_equal, load_config, save_config, scalar_kind
from .errors import GeometryError
from .geometry import POINT, HomogeneousElement
from .laurent import newton_polygon, poly_to_json
from .moves import apply_script, load_script
from .render import RenderSpec, render_config
from .scalars import parse_scalar
from .spectral import (
    EmptyKernel,
    kasteleyn_weights,
    on_curve,
    reconstruct_black,
    spectral_polynomial,
    spectral_polynomial_dual,
    spectral_polynomial_white,
)
from .torusgraph import dimension_report, validate_graph


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dimergeom", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="validate a configuration file")
    p.add_argument("config")

    p = sub.add_parser("run", help="apply a move script or builtin dynamics")
    p.add_argument("config")
    p.add_argument("--script", help="move script JSON file")
    p.add_argument("--builtin", choices=["pentagram", "spiral", "qnet"])
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--k", type=int, default=2, help="diagonal parameter (pentagram/spiral)")
    p.add_argument("--base", type=int, default=None, help="spiral seed base index")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("spectral", help="spectral polynomial and Newton polygon")
    p.add_argument("config")
    p.add_argument("--out")

    p = sub.add_parser("reconstruct", help="recover black data from a curve point")
    p.add_argument("white_config")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="observational reports (never asserts)")
    p.add_argument("name", choices=["dual-curve", "birationality-probe"])
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("render", help="deterministic SVG of a planar configuration")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--box", type=float, nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"), default=[-10, 10, -10, 10])
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--project", action="store_true", help="allow d=3 via the drop-z projection")
    p.add_argument("--no-labels", action="store_true")

    p = sub.add_parser("make-pentagram", help="write the conic pentagram fixture")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--params", help="comma-separated rational conic parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("make-spiral", help="write the frozen coherent spiral fixture")
    p.add_argument("--out", required=True)

    p = sub.add_parser("make-qnet", help="write the periodic coherent qnet fixture")
    p.add_argument("--out", required=True)

    p = sub.add_parser("make-grid-minus-edge", help="write the NonUnique example white data")
    p.add_argument("--out", required=True)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.cmd == "validate":
        return _cmd_validate(args)
    if args.cmd == "run":
        return _cmd_run(args)
    if args.cmd == "spectral":
        return _cmd_spectral(args)
    if args.cmd == "reconstruct":
        return _cmd_reconstruct(args)
    if args.cmd == "experiment":
        return _cmd_experiment(args)
    if args.cmd == "render":
        return _cmd_render(args)
    if args.cmd.startswith("make-"):
        return _cmd_make(args)
    raise ValueError(f"unknown command {args.cmd}")


def _cmd_validate(args) -> int:
    c = load_config(args.config)
    rep = validate_graph(c.graph)
    print(rep)
    ok = rep.ok
    if ok:
        v = check_V(c)
        print("condition (V):", v)
        f = check_F(c)
        print("condition (F):", f)
        print("dimension report:", dimension_report(c.graph, c.d))
        ok = v.ok and f.ok
    return 0 if ok else 1


def _cmd_run(args) -> int:
    c = load_config(args.config)
    if bool(args.script) == bool(args.builtin):
        raise ValueError("pass exactly one of --script or --builtin")
    trace: list = []
    if args.script:
        script = load_script(args.script, scalar_kind(c))
        cur = c
        for step in range(args.steps):
            cur = apply_script(cur, script, trace)
            if args.verify:
                _verify_step(cur, step, trace)
    else:
        cur = _run_builtin(c, args, trace)
    for line in trace:
        print(line)
    if args.out:
        save_config(cur, args.out)
        print(f"wrote {args.out}")
    return 0


def _run_builtin(c, args, trace):
    step, formula = _builtin_family(c, args)
    cur = c
    for i in range(args.steps):
        prev = cur
        cur = step(prev, i)
        trace.append(f"{args.builtin} step {i + 1} done")
        if args.verify:
            _verify_step(cur, i, trace)
            ok = labels_projectively_equal(cur, formula(prev, i))
            trace.append(f"verify step {i + 1}: formulas={'match' if ok else 'MISMATCH'}")
            if not ok:
                raise GeometryError(f"step {i + 1} disagrees with the direct-formula dynamics")
    return cur


def _builtin_family(c, args):
    """(move step, direct-formula step) of the builtin family; both map
    (config, step number) to the next config.  Shapes come from c."""
    if args.builtin == "pentagram":
        from . import pentagram as pg

        k = args.k

        def formula(prev, _i):
            P, q = pg.polygon_from_config(prev), pg.lines_from_config(prev)
            return pg.build_pentagram_config(pg.pentagram_map(P, k), pg.dual_pentagram_map(q, k), k)

        return (lambda prev, _i: pg.pentagram_step_on_config(prev, k)), formula

    if args.builtin == "spiral":
        from . import spiral as sp
        from .fixtures import SPIRAL_BASE

        base = args.base if args.base is not None else SPIRAL_BASE
        k, N = args.k, len(c.graph.white_ids)
        n = N - 1

        def formula(prev, step):
            i = base + step
            sP = sp.SpiralSeed(k, n, i, tuple(prev.white_labels[f"P{(i + m) % N}"] for m in range(N)))
            sq = sp.LineSeed(k, n, i - 1, tuple(prev.black_labels[f"q{(i - 1 + m) % N}"] for m in range(N)))
            return sp.build_spiral_config(sp.spiral_extend(sP, 1), sp.line_seed_extend(sq, 1))

        return (lambda prev, step: sp.spiral_step_on_config(prev, k, n, base + step)), formula

    from . import qnet as qn

    sites = qn.config_point_window(c).sites() + qn.config_plane_window(c).sites()
    a, b = max(i for i, _ in sites) + 1, max(j for _, j in sites) + 1

    def one_period_and_ring(w):
        ext = qn.periodic_extension(w, a, b, 1)
        return qn.QNetWindow({(i, j): v for (i, j), v in ext.values.items() if -1 <= i <= a and -1 <= j <= b})

    def formula(prev, _i):
        f = qn.laplace(one_period_and_ring(qn.config_point_window(prev)))
        G = qn.dual_laplace(one_period_and_ring(qn.config_plane_window(prev)))
        return qn.build_qnet_config(f, G, a, b)

    return (lambda prev, _i: qn.qnet_step_on_config(prev, a, b, 1 - qn._config_white_parity(prev))), formula


def _verify_step(cur, step, trace):
    rep = validate_graph(cur.graph)
    v, f = check_V(cur), check_F(cur)
    trace.append(f"verify step {step + 1}: graph={rep.ok} V={v.ok} F={f.ok}")
    if not (rep.ok and v.ok and f.ok):
        raise GeometryError(f"verification failed after step {step + 1}")


def _load_valid(path):
    """load_config, then validate_graph; an invalid graph prints its
    violations and raises GeometryError (exit 1)."""
    c = load_config(path)
    rep = validate_graph(c.graph)
    if not rep.ok:
        print(rep)
        raise GeometryError(f"invalid torus graph ({len(rep.violations)} violations)")
    return c


def _cmd_spectral(args) -> int:
    c = _load_valid(args.config)
    poly = spectral_polynomial_white(c)
    data = poly_to_json(poly)
    print(json.dumps(data))
    print("newton polygon:", newton_polygon(poly))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_reconstruct(args) -> int:
    c = _load_valid(args.white_config)
    kind = scalar_kind(c)
    lam, mu = parse_scalar(args.lam, kind), parse_scalar(args.mu, kind)
    try:
        res = reconstruct_black(c.graph, c.d, c.white_labels, lam, mu)
    except EmptyKernel:
        print("diagnosis: EmptyKernel (point is not on the spectral curve)")
        return 1
    for line in res.trace:
        print(" ", line)
    names = {"unique": "Unique", "nonunique": "NonUnique", "nosolution": "NoSolution"}
    print(f"outcome: {names[res.status]}" + (f" ({res.detail})" if res.detail else ""))
    if res.status == "unique":
        if args.out:
            save_config(res.config, args.out)
            print(f"wrote {args.out}")
        return 0
    return 1


def _cmd_experiment(args) -> int:
    c = _load_valid(args.config)
    if args.name == "dual-curve":
        pw = spectral_polynomial_white(c).normalized()
        pb = spectral_polynomial_dual(c).normalized()
        print("white-data curve:", pw)
        print("black-data curve:", pb)
        verdict = "equal after normalization" if pw.terms == pb.terms else "different"
        print(f"report: the two normalized polynomials are {verdict}")
        return 0
    return _birationality_probe(c, args.samples, args.seed)


def _birationality_probe(c, samples: int, seed: int) -> int:
    """Sample float curve points and count reconstruction outcomes."""
    import random

    import numpy as np

    weights = kasteleyn_weights(c.graph, c.white_labels)
    poly = spectral_polynomial(c.graph, weights)
    rng = random.Random(seed)
    outcomes: dict = {}
    tried = 0
    float_white = {k: HomogeneousElement(tuple(map(float, v.coords)), v.kind) for k, v in c.white_labels.items()}
    while sum(outcomes.values()) < samples and tried < samples * 40:
        tried += 1
        lam = rng.uniform(0.2, 3.0) * rng.choice([1, -1])
        coeffs: dict = {}
        for (i, j), cf in poly.terms:
            coeffs[j] = coeffs.get(j, 0.0) + float(cf) * lam**i
        if not coeffs:
            break
        lo = min(coeffs)
        arr = [coeffs.get(k, 0.0) for k in range(max(coeffs), lo - 1, -1)]
        roots = np.roots(arr)
        real = [r.real for r in roots if abs(r.imag) < 1e-9 and abs(r.real) > 1e-9]
        if not real:
            continue
        mu = float(rng.choice(real))
        if not on_curve(poly, lam, mu):
            continue
        try:
            res = reconstruct_black(c.graph, c.d, float_white, lam, mu)
            outcomes[res.status] = outcomes.get(res.status, 0) + 1
        except GeometryError as exc:
            outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
    print(f"report: sampled outcomes over {sum(outcomes.values())} curve points: {outcomes}")
    return 0


def _cmd_render(args) -> int:
    spec = RenderSpec(
        xmin=args.box[0],
        xmax=args.box[1],
        ymin=args.box[2],
        ymax=args.box[3],
        width=args.width,
        labels=not args.no_labels,
    )
    with open(args.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if "points" in data:
        # bare polygon file: {"points": [[x, y] or [x, y, z], ...]}
        from .render import render_points

        pts = []
        for entry in data["points"]:
            vals = [parse_scalar(x) for x in entry]
            if len(vals) == 2:
                vals.append(parse_scalar("1"))
            pts.append(HomogeneousElement(tuple(vals), POINT))
        svg = render_points(pts, spec)
    else:
        svg = render_config(config_from_dict(data), spec, project=args.project)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def _cmd_make(args) -> int:
    from . import fixtures

    if args.cmd == "make-pentagram":
        params = None
        if args.params:
            params = [Fraction(x) for x in args.params.split(",")]
        _, _, _, c = fixtures.make_pentagram_fixture(args.n, args.k, params, args.seed)
    elif args.cmd == "make-spiral":
        _, _, c = fixtures.make_spiral_fixture()
    elif args.cmd == "make-qnet":
        _, _, c = fixtures.make_qnet_fixture()
    else:
        from .config import DoubleCircuitConfig

        g, white = fixtures.make_grid_minus_edge()
        c = DoubleCircuitConfig(g, 2, white, {})
    save_config(c, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
