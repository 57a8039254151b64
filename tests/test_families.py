"""The family interface: `step(c)` and `formula(c)` of the pentagram,
spiral and Q-net modules read the family's shape from c, and agree with the
positional steps given that shape by hand and with the direct formulas."""
import pytest

from dimergeom import pentagram, qnet, spiral
from dimergeom.config import config_to_dict
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
from dimergeom.geometry import proj_equal
from dimergeom.pentagram import build_pentagram_config, dual_pentagram_map, pentagram_map
from dimergeom.qnet import QNetWindow, config_plane_window, config_point_window, dual_laplace, laplace, periodic_extension
from dimergeom.spiral import build_spiral_config, line_seed_extend, spiral_extend

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
