"""Self-test of the benchmark.

    python -m pytest -q perfbench/test_perfbench.py

Runs one round of each workload and one traced suite (about a minute on
two cores), checks that every metric named in BENCHMARK.json comes out
with its unit and that no operation fails, and checks that the oracle
counts a deliberately perturbed step output and a leaked float backend
as failures.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run.import_package()

from dimergeom import scalars  # noqa: E402
from dimergeom.geometry import HomogeneousElement  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.gauge import Gauge  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def one_round(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", dict.fromkeys(run.WORKLOADS, 1))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_emits_every_end_to_end_metric(workload, one_round, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    out = last_json(capsys)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == units
    assert out["metrics"]["ok_ratio"]["value"] == 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(capsys):
    assert run.main(["--workload", "dynamics", "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    out = last_json(capsys)
    assert out["correct"] and out["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == units
    calls = [k for k in units if k.endswith(".calls")]
    assert all(out["metrics"][k]["value"] > 0 for k in calls)


def perturbed(c):
    """c with one white label moved off its correct position."""
    wid = c.graph.white_ids[0]
    coords = list(c.white_labels[wid].coords)
    coords[0] += 1
    white = dict(c.white_labels)
    white[wid] = HomogeneousElement(tuple(coords), c.white_labels[wid].kind)
    return type(c)(c.graph, c.d, white, c.black_labels)


def test_perturbed_step_output_counts_as_failure(monkeypatch, one_round):
    ops, _ = workloads.dynamics_ops(3)
    pentagram = next(op for op in ops if op.name == "pentagram-12")
    spiral = next(op for op in ops if op.name == "spiral")
    step, formula = workloads.FAMILIES["pentagram"]
    monkeypatch.setitem(workloads.FAMILIES, "pentagram", (lambda *a: perturbed(step(*a)), formula))
    with Gauge() as gauge:
        samples, _ = run.timed_rounds([pentagram, spiral], 0, gauge)
    assert [ok for _, _, ok in samples] == [False, True]


def test_leaked_float_backend_counts_as_failure(one_round):
    def leaks():
        scalars.set_backend(scalars.FLOAT)
        return True

    with Gauge() as gauge:
        samples, errors = run.timed_rounds([workloads.Op("leak", workloads.SMALL, leaks)], 0, gauge)
    assert [ok for _, _, ok in samples] == [False]
    assert errors == {"backend-leak": 1}
    assert scalars.get_backend() == scalars.RATIONAL


def test_tracer_self_time_and_restore():
    import types

    mod = types.ModuleType("perfbench._probe")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    try:
        tracer.install({"probe.inner": inner, "probe.outer": outer}, {})
        with tracer.span("op.probe", 0):
            assert mod.outer() == 2
        tracer.uninstall()
    finally:
        del sys.modules[mod.__name__]
    assert mod.inner is inner and mod.outer is outer
    assert tracer.calls == {"op.probe": 1, "probe.outer": 1, "probe.inner": 2}
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(tracer.self_s.values()) - total) < 1e-9
    assert tracer.calls_under("probe.inner", "probe.outer", range(1)) == 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dynamics", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
