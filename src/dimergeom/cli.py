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
from importlib import import_module

from .config import (
    DoubleCircuitConfig,
    check_F,
    check_V,
    config_from_dict,
    labels_projectively_equal,
    load_config,
    read_json,
    save_config,
    scalar_kind,
)
from .errors import GeometryError, InputError
from .geometry import HomogeneousElement
from .scalars import float_coords, float_scale, is_zero, parse_coords, parse_scalar
from .torusgraph import Event, dimension_report, validate_graph


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dimergeom", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="validate a configuration file")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("config")

    p = sub.add_parser("run", help="apply a move script or builtin dynamics")
    p.set_defaults(handler=_cmd_run)
    p.add_argument("config")
    p.add_argument("--script", help="move script JSON file")
    p.add_argument("--builtin", choices=["pentagram", "spiral", "qnet"])
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--k", type=int, help="diagonal parameter (pentagram/spiral only), checked against the file's")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("spectral", help="spectral polynomial and Newton polygon")
    p.set_defaults(handler=_cmd_spectral)
    p.add_argument("config")
    p.add_argument("--out")

    p = sub.add_parser("reconstruct", help="recover black data from a curve point")
    p.set_defaults(handler=_cmd_reconstruct)
    p.add_argument("white_config")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="observational reports (never asserts)")
    p.set_defaults(handler=_cmd_experiment)
    p.add_argument("name", choices=["dual-curve", "birationality-probe"])
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("render", help="deterministic SVG of a planar configuration")
    p.set_defaults(handler=_cmd_render)
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--box", type=float, nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"), default=[-10, 10, -10, 10])
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--project", action="store_true", help="allow d=3 via the drop-z projection")
    p.add_argument("--no-labels", action="store_true")

    p = sub.add_parser("make-pentagram", help="write the conic pentagram fixture")
    p.set_defaults(handler=_cmd_make)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--params", help="comma-separated rational conic parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for name, text in (
        ("make-spiral", "write the frozen coherent spiral fixture"),
        ("make-qnet", "write the periodic coherent qnet fixture"),
        ("make-grid-minus-edge", "write the NonUnique example white data"),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=_cmd_make)
        p.add_argument("--out", required=True)

    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


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
    if args.steps < 0:
        raise InputError(f"--steps must be nonnegative, got {args.steps}")
    c = _load_valid(args.config)
    if bool(args.script) == bool(args.builtin):
        raise InputError("pass exactly one of --script or --builtin")
    if args.k is not None and args.builtin not in ("pentagram", "spiral"):
        raise InputError("--k applies to --builtin pentagram and spiral only")
    if args.k is not None and args.k < 1:
        raise InputError(f"--k must be positive, got {args.k}")
    events: list = []
    if args.script:
        from .moves import apply_script, load_script

        script = load_script(args.script, scalar_kind(c))
        for idx, s in enumerate(script.steps):
            if s.label is not None and len(s.label.coords) != c.d + 1:
                n = len(s.label.coords)
                raise InputError(f"script step {idx}: add2 label has {n} coordinates, need d + 1 = {c.d + 1}")
        step, formula = (lambda prev: apply_script(prev, script, events)), None
    else:
        family = import_module(f".{args.builtin}", __package__)
        if args.k is not None and args.k != (k := family.k_from_config(c)):
            raise GeometryError(f"--k {args.k} does not match the configuration's k = {k}")
        step, formula = family.step, family.formula
    # a bad input fails here, named, and not as a failure of step 1
    if args.verify and (bad := _first_violation(c)):
        raise GeometryError(f"input fails verification: {bad}")
    cur = c
    for i in range(args.steps):
        prev = cur
        cur = step(prev)
        if args.builtin:
            events.append(Event("step", args.builtin, i + 1, outcome="done"))
        if args.verify:
            if bad := _first_violation(cur):
                raise GeometryError(f"verification failed after step {i + 1}: {bad}")
            events.append(Event("verify", step=i + 1, outcome="graph=True V=True F=True"))
        if args.verify and formula:
            if not labels_projectively_equal(cur, formula(prev)):
                raise GeometryError(f"step {i + 1} disagrees with the direct-formula dynamics")
            events.append(Event("verify", step=i + 1, outcome="formulas=match"))
    for ev in events:
        print(_line(ev))
    if args.out:
        save_config(cur, args.out)
        print(f"wrote {args.out}")
    return 0


def _line(ev: Event) -> str:
    """The line that ``run`` or ``reconstruct`` prints for one event."""
    if ev.sizes:  # a script move
        return "step {}: {} {} -> v={}+{} e={} f={}".format(ev.step, ev.op, ev.target, *ev.sizes)
    if ev.op == "solve":
        return f"  {ev.target}: {ev.outcome}"
    if ev.op == "verify":
        return f"verify step {ev.step}: {ev.outcome}"
    return f"{ev.target} step {ev.step} {ev.outcome}"  # a dynamics step


def _first_violation(c):
    """The first violation that validate_graph, check_V or check_F finds
    in c, or None when c passes all three."""
    rep = validate_graph(c.graph)
    if not rep.ok:
        return rep.violations[0]
    return next((m for r in (check_V(c), check_F(c)) for m in r.messages), None)


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
    from .laurent import newton_polygon, poly_to_json
    from .spectral import spectral_polynomial_white

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
    from .spectral import EmptyKernel, reconstruct_black

    c = _load_valid(args.white_config)
    kind = scalar_kind(c)
    lam, mu = parse_scalar(args.lam, kind), parse_scalar(args.mu, kind)
    if lam == 0 or mu == 0:
        raise InputError(f"--lam and --mu must be nonzero, got {args.lam}, {args.mu}")
    try:
        res = reconstruct_black(c.graph, c.d, c.white_labels, lam, mu)
    except EmptyKernel:
        print("diagnosis: EmptyKernel (point is not on the spectral curve)")
        return 1
    for ev in res.events:
        print(_line(ev))
    names = {"unique": "Unique", "nonunique": "NonUnique", "nosolution": "NoSolution"}
    print(f"outcome: {names[res.status]}" + (f" ({res.detail})" if res.detail else ""))
    if res.status == "unique":
        if args.out:
            save_config(res.config, args.out)
            print(f"wrote {args.out}")
        return 0
    return 1


def _cmd_experiment(args) -> int:
    from .spectral import spectral_polynomial_dual, spectral_polynomial_white

    if args.name == "birationality-probe" and args.samples < 1:
        raise InputError(f"--samples must be positive, got {args.samples}")
    c = _load_valid(args.config)
    if args.name == "dual-curve":
        pw = spectral_polynomial_white(c).normalized()
        pb = spectral_polynomial_dual(c).normalized()
        print("white-data curve:", pw)
        print("black-data curve:", pb)
        # exact coefficients compare by ==, floats by the zero test at each pair's scale
        a, b = pw.as_dict(), pb.as_dict()
        same = a.keys() == b.keys() and all(is_zero(a[k] - b[k], max(abs(a[k]), abs(b[k]))) for k in a)
        verdict = "equal after normalization" if same else "different"
        print(f"report: the two normalized polynomials are {verdict}")
        return 0
    return _birationality_probe(c, args.samples, args.seed)


def _birationality_probe(c, samples: int, seed: int) -> int:
    """Sample float curve points and count reconstruction outcomes."""
    import random

    from .spectral import BlackFibre, fiber_polynomial, on_curve, real_roots, spectral_polynomial_white

    poly = spectral_polynomial_white(c)
    # rescaling a white label multiplies the curve by a constant: one past
    # the float range is divided exactly by a power of two
    if (scale := float_scale([x for _, x in poly.terms])) != 1:
        poly = poly * scale
    rng = random.Random(seed)
    outcomes: dict = {}
    tried = 0
    float_white = {k: HomogeneousElement(float_coords(v.coords), v.kind) for k, v in c.white_labels.items()}
    fibre = None  # built at the first point reached; a GeometryError in it is counted at every one
    while sum(outcomes.values()) < samples and tried < samples * 40:
        tried += 1
        lam = rng.uniform(0.2, 3.0) * rng.choice([1, -1])
        coeffs = fiber_polynomial(poly, lam)
        if not coeffs:
            break
        real = [r for r in real_roots(coeffs) if abs(r) > 1e-9]
        if not real:
            continue
        mu = rng.choice(real)
        if not on_curve(poly, lam, mu):
            continue
        try:
            fibre = fibre or BlackFibre(c.graph, c.d, float_white)
            res = fibre.at(lam, mu)
            outcomes[res.status] = outcomes.get(res.status, 0) + 1
        except GeometryError as exc:
            outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
    print(f"report: sampled outcomes over {sum(outcomes.values())} curve points: {outcomes}")
    return 0


def _cmd_render(args) -> int:
    from .render import RenderSpec, render_config, render_points

    spec = RenderSpec(*args.box, width=args.width, labels=not args.no_labels)
    data = read_json(args.config)
    if isinstance(data, dict) and "points" in data:
        # bare polygon file: {"points": [[x, y] or [x, y, z], ...]}
        entries = data["points"]
        if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) in (2, 3) for e in entries):
            raise InputError("points must be a list of [x, y] or [x, y, z] entries")
        pts = [parse_coords(e, f"points entry {n}", d=2, affine=True) for n, e in enumerate(entries)]
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
            params = [parse_scalar(x) for x in args.params.split(",")]
        _, _, _, c = fixtures.make_pentagram_fixture(args.n, args.k, params, args.seed)
    elif args.cmd == "make-spiral":
        _, _, c = fixtures.make_spiral_fixture()
    elif args.cmd == "make-qnet":
        _, _, c = fixtures.make_qnet_fixture()
    else:
        g, white = fixtures.make_grid_minus_edge()
        c = DoubleCircuitConfig(g, 2, white, {})
    save_config(c, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
