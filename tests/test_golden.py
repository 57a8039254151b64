"""Golden outputs: the exact stdout and exit code of the commands whose
lines report progress (`run`, `reconstruct`) and of `validate` on a file
that repeats a white id, the bytes of the `make-grid-minus-edge` file,
the stdout and `--out` file of `spectral` on four fixture files (the
golden files in `tests/golden/`), and the reports of `experiment
birationality-probe` on the fixture files and the stepped 7/2 pentagram."""
import hashlib
import json
from pathlib import Path

import pytest

from dimergeom.cli import main

GOLDEN = Path(__file__).parent / "golden"
GRID_MU = "-2312629/110955"  # the grid fixture's curve point is (1, GRID_MU)
README_SCRIPT = [
    {"op": "urban", "target": "d0"},
    {"op": "add2", "target": "q1", "label": ["1", "2", "3"], "partition": [0, 2]},
    {"op": "remove2", "target": "q1~"},
]


def _make(tmp_path, capsys, *argv):
    """The file one fixture command writes, its own output discarded."""
    path = tmp_path / f"{argv[0]}{'-'.join(argv[1:])}.json"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def _script(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(README_SCRIPT))
    return ["run", str(_make(tmp_path, capsys, "make-pentagram", "--n", "5", "--k", "2")), "--script", str(script)]


def _duplicate_white(tmp_path, capsys):
    data = json.loads(_make(tmp_path, capsys, "make-pentagram", "--n", "7", "--k", "2").read_text())
    data["white"].append(next(w for w in data["white"] if w["id"] == "P0"))
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(data))
    return ["validate", str(dup)]


CASES = {
    "run-script": (
        _script,
        0,
        "step 0: urban d0 -> v=7+7 e=24 f=10\n"
        "step 1: add2 q1 -> v=8+8 e=26 f=10\n"
        "step 2: remove2 q1~ -> v=7+7 e=24 f=10\n",
    ),
    "run-qnet-verify": (
        lambda tmp, cap: ["run", str(_make(tmp, cap, "make-qnet")), "--builtin", "qnet", "--verify", "--steps", "2"],
        0,
        "qnet step 1 done\n"
        "verify step 1: graph=True V=True F=True\n"
        "verify step 1: formulas=match\n"
        "qnet step 2 done\n"
        "verify step 2: graph=True V=True F=True\n"
        "verify step 2: formulas=match\n",
    ),
    "run-spiral": (
        lambda tmp, cap: ["run", str(_make(tmp, cap, "make-spiral")), "--builtin", "spiral", "--steps", "2"],
        0,
        "spiral step 1 done\nspiral step 2 done\n",
    ),
    "reconstruct-spiral": (
        lambda tmp, cap: ["reconstruct", str(_make(tmp, cap, "make-spiral")), "--lam=1/5", "--mu=2"],
        0,
        "  q1: solved\n"
        "  q2: solved\n"
        "  q3: solved\n"
        "  q5: solved (with circuit constraints)\n"
        "  q0: solved (with circuit constraints)\n"
        "  q4: solved (with circuit constraints)\n"
        "outcome: Unique\n",
    ),
    "reconstruct-grid": (
        lambda tmp, cap: ["reconstruct", str(_make(tmp, cap, "make-grid-minus-edge")), "--lam=1", f"--mu={GRID_MU}"],
        1,
        "  B0x1: solved\n"
        "  B0x3: solved\n"
        "  B1x2: solved\n"
        "  B2x1: solved\n"
        "  B2x3: solved\n"
        "  B3x0: solved\n"
        "  B3x2: solved\n"
        "outcome: NonUnique (underdetermined at ['B1x0']; no further circuit constraints)\n",
    ),
    "validate-duplicate-white": (
        _duplicate_white,
        1,
        "INVALID: white=8 black=7 edges=28 faces=14 euler=1\n  - duplicate vertex ids\n",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_command_prints_its_golden_lines(name, tmp_path, capsys):
    argv, code, out = CASES[name]
    argv = argv(tmp_path, capsys)
    assert main(argv) == code
    assert capsys.readouterr().out == out


def test_grid_minus_edge_file_is_pinned(tmp_path, capsys):
    # the merged face of delete_edge starts where its first host face
    # continues past the deleted edge
    path = _make(tmp_path, capsys, "make-grid-minus-edge")
    data = json.loads(path.read_text())
    assert data["faces"][data["face_ids"].index("hole")][0] == "W1x3"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "38a96ef5c494a7a6ad5ccc2d977e2a2140e32a3752eb24a874ba47a3b7856de4"


SPECTRAL_FILES = {
    "spiral": ["make-spiral"],
    "qnet": ["make-qnet"],
    "pentagram-7-2": ["make-pentagram", "--n", "7", "--k", "2"],
    "grid-minus-edge": ["make-grid-minus-edge"],
}


@pytest.mark.parametrize("name", SPECTRAL_FILES)
def test_spectral_prints_and_writes_its_golden_curve(name, tmp_path, capsys):
    out = tmp_path / "curve.json"
    assert main(["spectral", str(_make(tmp_path, capsys, *SPECTRAL_FILES[name])), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"spectral-{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"spectral-{name}.json").read_bytes()


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    """name -> path of the files whose probe reports are pinned: the 7/2
    pentagram (perfbench's `cli` input), the frozen spiral, grid and Q-net
    fixtures, and the 7/2 file after 12, 15 and 30 pentagram steps."""
    tmp = tmp_path_factory.mktemp("probe")
    files = {}
    for name, argv in {
        "7/2": ["make-pentagram", "--n", "7", "--k", "2"],
        "spiral": ["make-spiral"],
        "grid-minus-edge": ["make-grid-minus-edge"],
        "qnet": ["make-qnet"],
        **{f"7/2 after {n}": ["run", str(tmp / "7-2.json"), "--builtin", "pentagram", "--steps", str(n)] for n in (12, 15, 30)},
    }.items():
        files[name] = tmp / f"{name.replace('/', '-').replace(' ', '-')}.json"
        assert main([*argv, "--out", str(files[name])]) == 0
    return files


# (file, --samples, --seed, report after "sampled outcomes over ")
PROBE_REPORTS = [
    *(("7/2", 20, seed, "20 curve points: {'unique': 20}") for seed in (0, 1, 2, 601)),
    ("7/2", 5, 0, "5 curve points: {'unique': 5}"),
    *(("spiral", 20, seed, "20 curve points: {'unique': 20}") for seed in (0, 1, 2)),
    *(("grid-minus-edge", 10, seed, "10 curve points: {'nonunique': 10}") for seed in (0, 1)),
    ("qnet", 5, 0, "0 curve points: {}"),  # the curve is a square: every fiber root is double
    # the README's reports on the stepped 7/2 file
    ("7/2 after 12", 10, 0, "10 curve points: {'unique': 10}"),
    ("7/2 after 12", 10, 1, "10 curve points: {'unique': 7, 'nosolution': 3}"),
    ("7/2 after 12", 10, 2, "10 curve points: {'unique': 9, 'EmptyKernel': 1}"),
    ("7/2 after 15", 10, 0, "10 curve points: {'nosolution': 9, 'unique': 1}"),
    ("7/2 after 15", 10, 1, "10 curve points: {'unique': 5, 'nosolution': 5}"),
    ("7/2 after 15", 10, 2, "10 curve points: {'nosolution': 8, 'unique': 2}"),
    *(("7/2 after 30", 10, seed, "10 curve points: {'KernelNotOneDimensional': 10}") for seed in (0, 1, 2)),
]


@pytest.mark.parametrize("name, samples, seed, report", PROBE_REPORTS)
def test_birationality_probe_prints_its_golden_report(probe_files, name, samples, seed, report, capsys):
    capsys.readouterr()
    argv = ["experiment", "birationality-probe", str(probe_files[name]), "--samples", str(samples), "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr() == (f"report: sampled outcomes over {report}\n", "")
