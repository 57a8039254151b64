"""Known mutants: one-place edits of the package, each of which a named
selection of tests must fail.

Run from anywhere as ``python tests/mutants.py``; it exits 0 when every
mutant is killed and 1 when one survives or its old text is not found
exactly once.  pytest does not collect this file.

Each edit is applied to a fresh copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and the selection runs
there: ``pyproject.toml`` puts ``src`` on pytest's path, so a run from the
checkout would test the unmutated package.  A no-op edit runs first and
must survive, so a selection that fails without any edit cannot pass for
a kill.  A change that claims "a mutant fails this test" adds its row.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file in src/dimergeom, exact old text, new text, pytest selection)
MUTANTS = [
    (
        "urban renewal: the i3 path reversed",
        "moves.py",
        "i3: (n, n + 7, n + 3)}",
        "i3: (n + 3, n + 7, n)}",
        ["tests/test_moves.py"],
    ),
    (
        "urban renewal: the spoke exponent hd negated, its assert removed",
        "moves.py",
        '_h_sub(eB_d.h, eB_c.h)\n    assert _h_add(hd, hA) == eA_d.h, "face h-sum was nonzero"\n',
        "_h_sub(eB_c.h, eB_d.h)\n",
        ["tests/test_moves.py", "tests/test_spectral.py"],
    ),
    (
        "urban renewal: one coordinate of label E negated",
        "moves.py",
        "wl[vE], wl[vF] = lab_E, lab_F",
        "wl[vE], wl[vF] = HomogeneousElement((-lab_E.coords[0], *lab_E.coords[1:]), lab_E.kind), lab_F",
        ["tests/test_moves.py"],
    ),
    (
        "add_degree2: the white path (tm, vm, e)",
        "moves.py",
        "paths = {ei: (vm, tm, ei) for ei in arc_b}",
        "paths = {ei: (tm, vm, ei) for ei in arc_b}",
        ["tests/test_moves.py"],
    ),
    (
        "find_walk: the walk memo keyed without the target",
        "torusgraph.py",
        "key = (target[0], target[1])",
        "key = ()",
        [
            "tests/test_torusgraph.py::test_each_class_keeps_its_own_walk",
            "tests/test_torusgraph.py::test_every_formula_graph_reads_the_walks_of_a_cold_search",
            "tests/test_cli.py::test_run_spiral_verifies_every_shape_twice",
        ],
    ),
    (
        "_rewrite_walk: no black-to-white rotation",
        "torusgraph.py",
        "    if out and out[0] & 1:\n        out = out[-1:] + out[:-1]\n",
        "",
        ["tests/test_moves.py::test_step_chains_match_pinned_outputs"],
    ),
    (
        "bareiss_eliminate: a row divided by the last pivot",
        "linalg.py",
        "d = div[i]",
        "d = last",
        ["tests/test_spectral.py"],
    ),
    (
        "det: over the denominators of all rows but the first",
        "linalg.py",
        "for x in row)) for row in rows)",
        "for x in row)) for row in rows[1:])",
        ["tests/test_linalg.py::test_exact_results_equal_fraction_gauss_jordan"],
    ),
    (
        "build_tile_graph: tuple(removed) as the cache key",
        "pentagram.py",
        "_tile_graph(n, k, frozenset(removed))",
        "_tile_graph(n, k, tuple(removed))",
        ["tests/test_families.py"],
    ),
    (
        "GraphEdit.replace: no rewrite before replacing an edge on a logged path",
        "torusgraph.py",
        "        if not self._through.isdisjoint(paths):\n            self.substitute_edges()\n",
        "",
        ["tests/test_moves.py"],
    ),
    (
        "apply_script: no rewrite after each move",
        "moves.py",
        "        batch.graph.substitute_edges()\n",
        "",
        ["tests/test_moves.py"],
    ),
    (
        "_monomials: lambda and mu swapped",
        "spectral.py",
        "(_ipow(lam, i) * _ipow(mu, j)).as_integer_ratio()",
        "(_ipow(mu, i) * _ipow(lam, j)).as_integer_ratio()",
        ["tests/test_spectral.py"],
    ),
    (
        "GraphEdit.next_slot: the count of live edges, not the next free slot",
        "torusgraph.py",
        "        return self._next\n",
        "        return len(self._edges)\n",
        ["tests/test_moves.py::test_step_chains_match_pinned_outputs"],
    ),
    (
        "cohomology_class: the canonical walks in place of the graph's basis cycles",
        "config.py",
        "c.graph.basis_cycles or canonical_basis_cycles(c.graph)",
        "canonical_basis_cycles(c.graph)",
        ["tests/test_config.py", "tests/test_cli.py"],
    ),
    (
        "circuit_failure: every failure read as a relation space of dimension 2",
        "geometry.py",
        "        return str(exc)\n    return None",
        '        return "relation space has dimension 2, need 1"\n    return None',
        ["tests/test_config.py"],
    ),
    (
        "GraphEdit.faces_on: the faces in reverse order",
        "torusgraph.py",
        "for f in self._faces.values() if not slots.isdisjoint(f.edges)]",
        "for f in reversed(self._faces.values()) if not slots.isdisjoint(f.edges)]",
        ["tests/test_golden.py::test_grid_minus_edge_file_is_pinned"],
    ),
    (
        "apply_script: a move's event numbered from 1",
        "moves.py",
        "Event(step.op, step.target, idx, batch.graph.sizes())",
        "Event(step.op, step.target, idx + 1, batch.graph.sizes())",
        ["tests/test_events.py"],
    ),
    (
        "BlackFibre.at: the circuit-constraint outcome dropped",
        "spectral.py",
        'outcome="solved (with circuit constraints)" if spans else "solved"',
        'outcome="solved"',
        ["tests/test_events.py"],
    ),
    (
        "TorusGraph.sizes: the id dicts counted, not the id tuples",
        "torusgraph.py",
        "return len(self.white_ids), len(self.black_ids), len(self.edges), len(self.faces)",
        "return len(self._white), len(self._black), len(self.edges), len(self.faces)",
        ["tests/test_golden.py::test_command_prints_its_golden_lines"],
    ),
    (
        "_integer_det: the Schur block eliminated from level 1, not the last pivot",
        "spectral.py",
        "linalg.bareiss_eliminate(schur, len(schur), last)",
        "linalg.bareiss_eliminate(schur, len(schur))",
        ["tests/test_spectral.py::test_fixture_curves_match_the_per_node_determinant"],
    ),
    (
        "_min_assignment: the greedy start takes a free column whatever its reduced cost",
        "spectral.py",
        "x - v[c + 1] == least and not owner[c + 1]",
        "x - v[c + 1] >= least and not owner[c + 1]",
        ["tests/test_spectral.py::test_min_assignment_equals_brute_force"],
    ),
    (
        "solve: the first kernel vector read as the rhs one",
        "linalg.py",
        "*ker, v = ker",
        "v, *ker = ker",
        ["tests/test_linalg.py::test_small_systems_equal_fraction_gauss_jordan"],
    ),
    (
        "on_curve: the terms of a row summed without the common-denominator factor",
        "spectral.py",
        "r[col] += p * (s // q)",
        "r[col] += p",
        ["tests/test_spectral.py::test_exact_on_curve_equals_the_fraction_value"],
    ),
    (
        "on_curve: a float sum tested without the division by the largest term",
        "spectral.py",
        "is_zero(sum(terms) / (max(map(abs, terms), default=0.0) or 1.0))",
        "is_zero(sum(terms))",
        ["tests/test_cli.py::test_a_float_curve_of_tiny_coefficients_is_tested_at_its_own_scale"],
    ),
    (
        "solve: a float x read from the first vector of the augmented kernel",
        "linalg.py",
        "[-a for a in v[:n]]",
        "[-a for a in ([*ker, v] if isinstance(v[n], float) else [v])[0][:n]]",
        ["tests/test_linalg.py::test_float_solve_equals_the_reference"],
    ),
    (
        "meet: a meet of rank 2 or more read as its first element",
        "geometry.py",
        '    if len(basis) > 1:\n        raise DegenerateIntersection(f"meet has rank {len(basis)}")\n',
        "",
        ["tests/test_moves.py::test_urban_renewal_names_the_meet_rank", "tests/test_qnet.py"],
    ),
    (
        "run --verify: the direct-formula check removed",
        "cli.py",
        "            if not labels_projectively_equal(cur, formula(prev)):\n"
        '                raise GeometryError(f"step {i + 1} disagrees with the direct-formula dynamics")\n',
        "",
        ["tests/test_cli.py::test_run_verify_names_the_step_that_disagrees_with_the_formula"],
    ),
    (
        "remove_degree2: the degree bound named as d+3",
        "moves.py",
        "exceeds degree d+2 = {c.d + 2}",
        "exceeds degree d+2 = {c.d + 3}",
        ["tests/test_moves.py::test_remove_degree2_refuses_a_merge_above_degree_d_plus_2"],
    ),
    (
        "GraphEdit.face: no rewrite before a read",
        "torusgraph.py",
        "        if f is not None and not self._paths.keys().isdisjoint(f.edges):\n"
        "            self.substitute_edges()\n            f = self._faces.get(face_id)\n",
        "",
        ["tests/test_moves.py::test_a_face_read_in_a_batch_is_rewritten_first"],
    ),
    (
        "Record.__eq__: the last field ignored",
        "record.py",
        "return self._values() == other._values()",
        "return self._values()[:-1] == other._values()[:-1]",
        ["tests/test_records.py"],
    ),
    (
        "Record: the assignment guard dropped",
        "record.py",
        '    def __setattr__(self, name, value=None):\n        raise AttributeError(f"cannot assign to field {name!r}")\n'
        "\n    __delattr__ = __setattr__\n",
        "",
        ["tests/test_records.py"],
    ),
    (
        "BlackFibre.at: (V) at the white vertices dropped",
        "spectral.py",
        "        if _circuit_failures(cfg, g.white_ids)[0]:  # (V) at the black vertices built the weights\n"
        '            return ReconstructionResult("nosolution", None, events, "result fails the circuit condition")\n',
        "",
        ["tests/test_spectral.py::test_a_float_point_can_fail_the_circuit_condition_at_a_white_vertex"],
    ),
    (
        "BlackFibre.at: the rows evaluated at the first point read at every point",
        "spectral.py",
        "m, _ = _evaluated(self._rows, len(g.white_ids), lam, mu, self._float)",
        'm, _ = self.__dict__.setdefault("_first", _evaluated(self._rows, len(g.white_ids), lam, mu, self._float))',
        ["tests/test_spectral.py::test_one_fibre_equals_the_fraction_reference_at_every_point"],
    ),
    (
        "_relation: an exact relation with a vanishing coefficient read as a circuit",
        "geometry.py",
        "if exact and all(c):",
        "if exact and any(c):",
        ["tests/test_geometry.py::test_circuit_coefficients_equal_the_fraction_reference"],
    ),
    (
        "incident_element: the sign of the kernel vector not made positive at its first entry",
        "geometry.py",
        "_element(tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v), kind)",
        "_element(tuple(v), kind)",
        ["tests/test_geometry.py::test_join_and_meet_hyperplanes_equal_the_fraction_reference"],
    ),
    (
        "meet: the element of a one-vector kernel not made primitive",
        "geometry.py",
        "return _element(_primitive(elems[0]), kind)",
        "return _element(tuple(elems[0]), kind)",
        ["tests/test_geometry.py::test_meet_equals_the_fraction_reference"],
    ),
    (
        "_element: the dim slot set to the coordinate count",
        "geometry.py",
        'setfield(e, "dim", len(prim) - 1)',
        'setfield(e, "dim", len(prim))',
        ["tests/test_geometry.py::test_dim_is_the_coordinate_count_less_one"],
    ),
    (
        "_kind_dim: a list of mixed kinds in one P^d let through",
        "geometry.py",
        "if e.kind != kind or e.dim != d:",
        "if e.dim != d:",
        ["tests/test_geometry.py::test_meet_rejects_malformed_generator_lists"],
    ),
    (
        "_kind_dim: no TooFew for an empty list",
        "geometry.py",
        '    if not elems:\n        raise TooFew("span of nothing")\n',
        "",
        ["tests/test_geometry.py::test_incident_elements_of_nothing_raise_too_few"],
    ),
    (
        "element_rows: float rows read unscaled",
        "geometry.py",
        "([[x * e.scale for x in e.coords] for e in elems], False)",
        "([list(e.coords) for e in elems], False)",
        ["tests/test_cli.py::test_float_verdicts_do_not_depend_on_a_label_representative"],
    ),
    (
        "incident: the coordinates' pairing tested in place of the rows' dot product",
        "geometry.py",
        "return _vanishes(sum(map(mul, u, w)), u, w)",
        "return _vanishes(pairing(h, p), h.coords, p.coords)",
        ["tests/test_geometry.py::test_float_zero_tests_do_not_depend_on_a_representative"],
    ),
    (
        "pairing: the rows' dot product divided by one label's scale only",
        "geometry.py",
        "Fraction(v, h.scale * p.scale) if exact else v / (h.scale * p.scale)",
        "Fraction(v, h.scale) if exact else v / h.scale",
        ["tests/test_geometry.py::test_float_zero_tests_do_not_depend_on_a_representative"],
    ),
]
NO_OP = ("no-op", "moves.py", "def _h_add(a, b):", "def _h_add(a, b):", ["tests/test_moves.py", "tests/test_config.py"])


def survives(name, file, old, new, selection) -> bool:
    """Whether the selection passes on a copy with the edit applied; exits
    when the old text is not found exactly once."""
    with tempfile.TemporaryDirectory(prefix="dimergeom-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, "src", "dimergeom", file)
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"{name}: old text found {text.count(old)} times in {file}, need once")
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
        return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True).returncode == 0


def main() -> int:
    start = time.perf_counter()
    if not survives(*NO_OP):
        print(f"the no-op edit fails {' '.join(NO_OP[4])}: the selection fails without any mutant")
        return 1
    alive = []
    for row in MUTANTS:
        t = time.perf_counter()
        ok = survives(*row)
        print(f"{'SURVIVED' if ok else 'killed  '} {time.perf_counter() - t:5.1f} s  {row[0]}")
        if ok:
            alive.append(row[0])
    print(f"{len(MUTANTS) - len(alive)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
