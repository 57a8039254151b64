"""The family interface: `step(c)` and `formula(c)` of the pentagram,
spiral and Q-net modules read the family's shape from c, and agree with the
positional steps given that shape by hand and with the direct formulas."""
import json

import pytest

from dimergeom import pentagram, qnet, spiral
from dimergeom.cli import main
from dimergeom.config import config_from_dict, config_to_dict, labels_projectively_equal, save_config
from dimergeom.fixtures import (
    QNET_A,
    QNET_B,
    SPIRAL_BASE,
    SPIRAL_K,
    SPIRAL_N,
    make_pentagram_fixture,
    make_qnet_fixture,
    make_spiral_fixture,
)
from dimergeom.geometry import HomogeneousElement, hyperplane, point, proj_equal
from dimergeom.pentagram import build_pentagram_config, dual_pentagram_map, pentagram_map
from dimergeom.qnet import (
    QNetWindow,
    config_plane_window,
    config_point_window,
    dual_laplace,
    laplace,
    periodic_extension,
)
from dimergeom.spiral import (
    SpiralSeed,
    build_spiral_config,
    line_seed_extend,
    seeds_from_config,
    spiral_extend,
    validate_line_seed,
    validate_spiral_seed,
)
from helpers import is_qnet

# family -> (module, start, the positional step of step number i with the shape passed by hand)
BY_HAND = {
    "pentagram-8/3": (
        pentagram, lambda: make_pentagram_fixture(8, 3)[3], lambda c, i: pentagram.pentagram_step_on_config(c, 3),
    ),
    "spiral": (
        spiral,
        lambda: make_spiral_fixture()[2],
        lambda c, i: spiral.spiral_step_on_config(c, SPIRAL_K, SPIRAL_N, SPIRAL_BASE + i),
    ),
    # the fixture's whites sit on even sites, so the plain step renews the odd-based faces first
    "qnet-4x4": (qnet, lambda: make_qnet_fixture()[2], lambda c, i: qnet.qnet_step_on_config(c, QNET_A, QNET_B, 1 - i % 2)),
}


@pytest.mark.parametrize("name", BY_HAND)
def test_step_equals_the_positional_step_given_the_shape_by_hand(name):
    family, start, by_hand = BY_HAND[name]
    ours = theirs = start()
    for i in range(3):
        ours, theirs = family.step(ours), by_hand(theirs, i)
        assert config_to_dict(ours) == config_to_dict(theirs), f"step {i + 1}"


def test_pentagram_formula_is_the_pentagram_map():
    P, _, q, c = make_pentagram_fixture(8, 3)
    for i in range(3):
        c, P, q = pentagram.formula(c), pentagram_map(P, 3), dual_pentagram_map(q, 3)
        assert config_to_dict(c) == config_to_dict(build_pentagram_config(P, q, 3)), f"step {i + 1}"


def test_spiral_formula_is_the_seed_shift():
    sP, sq, c = make_spiral_fixture()
    for i in range(3):
        c, sP, sq = spiral.formula(c), spiral_extend(sP, 1), line_seed_extend(sq, 1)
        assert config_to_dict(c) == config_to_dict(build_spiral_config(sP, sq)), f"step {i + 1}"


def test_qnet_formula_is_the_laplace_transform_of_the_periodic_data():
    _, _, c = make_qnet_fixture()
    f, G = config_point_window(c), config_plane_window(c)

    def one_period(w):
        return QNetWindow({(i, j): v for (i, j), v in w.values.items() if 0 <= i < QNET_A and 0 <= j < QNET_B})

    for step in range(3):
        c = qnet.formula(c)
        f = one_period(laplace(periodic_extension(f, QNET_A, QNET_B, 1)))
        G = one_period(dual_laplace(periodic_extension(G, QNET_A, QNET_B, 1)))
        for ours, direct in ((config_point_window(c), f), (config_plane_window(c), G)):
            assert ours.sites() == direct.sites(), f"step {step + 1}"
            assert all(proj_equal(ours[s], direct[s]) for s in direct.sites()), f"step {step + 1}"


# ------------------------------------------------------------ float twins


def _float_twin(c):
    """c written with "scalar": "float": every label read as floats."""
    data = config_to_dict(c)
    data["scalar"] = "float"
    return config_from_dict(data)


def _floated(e):
    return HomogeneousElement(tuple(map(float, e.coords)), e.kind)


def test_the_float_rank_tests_give_the_exact_verdicts():
    _, _, c = make_qnet_fixture()
    twin = _float_twin(c)
    for window in (config_point_window, config_plane_window):
        exact = periodic_extension(window(c), QNET_A, QNET_B, 1)
        assert is_qnet(exact) == is_qnet(periodic_extension(window(twin), QNET_A, QNET_B, 1)) == []
    planes = periodic_extension(config_plane_window(c), QNET_A, QNET_B, 1)
    broken = QNetWindow({**planes.values, (1, 2): hyperplane(5, 7, 11, 1)})
    assert is_qnet(broken) == is_qnet(QNetWindow({s: _floated(v) for s, v in broken.values.items()})) != []

    _, _, cs = make_spiral_fixture()
    (sP, sq), (fP, fq) = seeds_from_config(cs), seeds_from_config(_float_twin(cs))
    assert validate_spiral_seed(sP) == validate_spiral_seed(fP) == []
    assert validate_line_seed(sq) == validate_line_seed(fq) == []
    moved = (point(1, 3, 1), *sP.points[1:])
    assert validate_spiral_seed(SpiralSeed(sP.k, sP.n, sP.base, moved)) == validate_spiral_seed(
        SpiralSeed(sP.k, sP.n, sP.base, tuple(map(_floated, moved)))
    ) != []


@pytest.mark.parametrize(
    "builtin, start",
    [
        ("qnet", lambda: make_qnet_fixture()[2]),
        ("spiral", lambda: make_spiral_fixture()[2]),
        ("pentagram", lambda: make_pentagram_fixture(9, 2)[3]),
    ],
)
def test_float_files_run_verified_with_matching_formulas(tmp_path, capsys, builtin, start):
    path = tmp_path / "float.json"
    save_config(_float_twin(start()), path)
    assert json.loads(path.read_text())["scalar"] == "float"
    assert main(["run", str(path), "--builtin", builtin, "--verify", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "verify step 1: formulas=match" in out and "verify step 2: formulas=match" in out


# ------------------------------------------------------- shared templates

# each cached template builder, as (name, builder, fresh build, one shape)
BUILDERS = [
    ("pentagram", pentagram.build_pentagram_graph, pentagram.build_pentagram_graph.__wrapped__, (8, 3)),
    ("tile", pentagram.build_tile_graph, lambda n, k, r: pentagram._tile_graph.__wrapped__(n, k, frozenset(r)),
     (6, 2, [3, 1, 2])),
    ("qnet tile", qnet.build_qnet_tile_graph, qnet._qnet_tile_graph.__wrapped__, (6, 4, 0)),
]


def _same_graph(g, fresh) -> bool:
    """Equal graphs with equal lazy indices: incidence and face keys."""
    return g == fresh and g.incidence() == fresh.incidence() and g.face_ids_by_key() == fresh.face_ids_by_key()


@pytest.mark.parametrize("name, builder, fresh, shape", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_a_template_is_built_once_per_shape(name, builder, fresh, shape):
    g = builder(*shape)
    assert builder(*shape) is g and _same_graph(g, fresh(*shape))


def test_a_tile_template_is_one_object_whatever_holds_its_removed_slots():
    graphs = [pentagram.build_tile_graph(6, 2, r) for r in ([3, 1, 2], (1, 2, 3), range(1, 4), {2, 3, 1})]
    assert all(g is graphs[0] for g in graphs)
    assert pentagram.build_tile_graph(6, 2, [1, 2]) is not graphs[0]


def test_a_qnet_tile_template_is_one_cache_entry_however_its_parity_is_passed():
    g = qnet.build_qnet_tile_graph(4, 8, 0)
    before = qnet._qnet_tile_graph.cache_info()
    assert qnet.build_qnet_tile_graph(4, 8, white_parity=0) is g
    assert qnet.build_qnet_tile_graph(a=4, b=8, white_parity=0) is g
    after = qnet._qnet_tile_graph.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 2)


def _templates(name, c):
    """The cached templates a step and a formula of c read, with their fresh builds."""
    if name == "qnet":
        a, b = qnet.period(c)
        p = qnet._config_white_parity(c)
        return [(qnet.build_qnet_tile_graph(a, b, 1 - p), qnet._qnet_tile_graph.__wrapped__(a, b, 1 - p))]
    n = len(c.graph.white_ids)
    if name == "pentagram":
        k = pentagram.k_from_config(c)
        return [(pentagram.build_pentagram_graph(n, k), pentagram.build_pentagram_graph.__wrapped__(n, k)),
                (pentagram.build_tile_graph(n, k, ()), pentagram._tile_graph.__wrapped__(n, k, frozenset()))]
    sP, _ = seeds_from_config(c)
    removed = frozenset(spiral.removed_js(sP.k, sP.n, sP.base))
    return [(pentagram.build_tile_graph(n, sP.k, removed), pentagram._tile_graph.__wrapped__(n, sP.k, removed))]


@pytest.mark.parametrize("name", ["pentagram", "spiral", "qnet"])
def test_a_step_chain_leaves_the_shared_templates_as_built(name):
    """Three steps and formulas of a family read the cached templates of
    its shapes: one pentagram shape, a spiral window base per step, and
    both white parities of the Q-net.  None of them is edited."""
    family = {"pentagram": pentagram, "spiral": spiral, "qnet": qnet}[name]
    c = {"pentagram": lambda: make_pentagram_fixture(8, 3)[3], "spiral": lambda: make_spiral_fixture()[2],
         "qnet": lambda: make_qnet_fixture()[2]}[name]()
    chain = [c]
    for _ in range(3):
        c, expected = family.step(c), family.formula(c)
        assert labels_projectively_equal(c, expected)
        chain.append(c)
    for c in chain:
        for g, fresh in _templates(name, c):
            assert _same_graph(g, fresh)
