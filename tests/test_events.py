"""The event record behind the progress lines of `run` and `reconstruct`:
its fields, and the events a script and a reconstruction record."""
import pytest

from dimergeom.cli import _line
from dimergeom.fixtures import SPIRAL_CLASS_POINT, make_pentagram_fixture, make_spiral_fixture
from dimergeom.geometry import hyperplane
from dimergeom.moves import MoveScript, MoveStep, apply_script
from dimergeom.spectral import reconstruct_black
from dimergeom.torusgraph import Event


def test_event_fields():
    assert Event._fields == ("op", "target", "step", "sizes", "outcome")
    with pytest.raises(AttributeError):
        Event("solve", "q0").op = "verify"


def test_a_script_records_each_move_with_the_sizes_after_it():
    c = make_pentagram_fixture(5, 2)[3]
    script = MoveScript(
        (MoveStep("urban", "d0"), MoveStep("add2", "q1", hyperplane(1, 2, 3), (0, 2)), MoveStep("remove2", "q1~"))
    )
    events = []
    apply_script(c, script, events)
    assert events == [
        Event("urban", "d0", 0, (7, 7, 24, 10)),
        Event("add2", "q1", 1, (8, 8, 26, 10)),
        Event("remove2", "q1~", 2, (7, 7, 24, 10)),
    ]
    assert _line(events[0]) == "step 0: urban d0 -> v=7+7 e=24 f=10"


def test_a_reconstruction_records_each_solved_black_vertex_in_order():
    _, _, c = make_spiral_fixture()
    res = reconstruct_black(c.graph, 2, c.white_labels, *SPIRAL_CLASS_POINT)
    assert [ev.target for ev in res.events] == ["q1", "q2", "q3", "q5", "q0", "q4"]
    assert {(ev.op, ev.step, ev.sizes) for ev in res.events} == {("solve", None, None)}
    spans = [ev.outcome == "solved (with circuit constraints)" for ev in res.events]
    assert spans == [False] * 3 + [True] * 3
    assert _line(res.events[3]) == "  q5: solved (with circuit constraints)"


@pytest.mark.parametrize(
    "event, line",
    [
        (Event("step", "qnet", 2, outcome="done"), "qnet step 2 done"),
        (Event("verify", step=1, outcome="formulas=match"), "verify step 1: formulas=match"),
        (Event("solve", "B0x1", outcome="solved"), "  B0x1: solved"),
    ],
)
def test_each_event_renders_as_one_line(event, line):
    assert _line(event) == line
