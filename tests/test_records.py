"""The record contract: construction, value equality and hashing,
immutability, copies, the repr and the construction errors of every
record type, the slotted ones (``record.Record``) and the NamedTuples."""
import copy
import pickle
import re
from fractions import Fraction

import pytest

from dimergeom.config import CohomologyClass, ConditionReport, DoubleCircuitConfig
from dimergeom.errors import BadParameters, InputError
from dimergeom.geometry import HYPERPLANE, POINT, HomogeneousElement, point
from dimergeom.laurent import LaurentPoly2
from dimergeom.moves import MoveScript, MoveStep
from dimergeom.pentagram import Polygon
from dimergeom.qnet import QNetWindow
from dimergeom.record import Record
from dimergeom.render import RenderSpec
from dimergeom.spectral import ReconstructionResult
from dimergeom.spiral import SpiralSeed
from dimergeom.torusgraph import Edge, Face, GraphReport, TorusGraph

P, Q = point(1, 2, 3), point(0, 1, 1)
GRAPH = TorusGraph(("W",), ("B",), (Edge("W", "B", (0, 0)),), ())

# (type, field values, the same values with the last one changed)
RECORDS = [
    (Edge, ("W", "B", (0, 0)), ("W", "B", (1, 0))),
    (Face, ("f", (0, 1)), ("f", (1, 0))),
    (HomogeneousElement, ((Fraction(1), Fraction(2)), POINT), ((Fraction(1), Fraction(2)), HYPERPLANE)),
    (LaurentPoly2, ((((0, 0), Fraction(1)),),), ((((0, 1), Fraction(1)),),)),
    (RenderSpec, (-8, 8, -8, 8, 320, True), (-8, 8, -8, 8, 320, False)),
    (Polygon, ((P, Q, P),), ((P, Q, Q),)),
    (SpiralSeed, (2, 5, 0, (P,) * 6), (2, 5, 0, (Q,) * 6)),
    (QNetWindow, ({(0, 0): P, (1, 1): Q},), ({(0, 0): P, (1, 1): P},)),
    (DoubleCircuitConfig, (GRAPH, 2, {"W": P}, {}), (GRAPH, 2, {"W": P}, {"B": P})),
    (CohomologyClass, (Fraction(1, 2), 3), (Fraction(1, 2), 4)),
    (ConditionReport, (False, ["W"], ["m"], False), (False, ["W"], ["m"], True)),
    (GraphReport, (True, [], (1, 1, 1, 0)), (True, [], (1, 1, 1, 1))),
    (ReconstructionResult, ("unique", None, [], ""), ("unique", None, [], "why")),
    (MoveStep, ("add2", "q1", P, (0, 2)), ("add2", "q1", P, (0, 1))),
    (MoveScript, ((MoveStep("urban", "d0"),),), ((MoveStep("urban", "d1"),),)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, other):
    assert cls(*values) == cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(cls(*values), name) for name in cls._fields) == values


def test_the_defaults_are_unchanged():
    assert RenderSpec() == RenderSpec(-10.0, 10.0, -10.0, 10.0, 640, True)
    assert RenderSpec().height == 640 and RenderSpec(xmax=0.0).height == 1280
    assert MoveStep("urban", "d0") == MoveStep("urban", "d0", None, None)
    assert ConditionReport(True, [], []).suspicious_single_failure is False
    assert ReconstructionResult("nonunique", None, []).detail == ""


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_equality_is_by_value_and_reads_every_field(cls, values, other):
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a == b and not a != b
    assert a != cls(*other)
    try:
        hash(a)
    except TypeError:  # a field holds a dict or a list, so the record has no hash
        return
    assert hash(a) == hash(b)


def test_records_of_different_types_are_never_equal():
    assert Edge("W", "B", (0, 0)) != Face("W", ("B", (0, 0)))
    assert Polygon((P,)) != LaurentPoly2((P,))
    assert Edge("W", "B", (0, 0)) != ("W", "B", (0, 0))
    assert len({Edge("W", "B", (0, 0)), Edge("W", "B", (0, 0)), Face("f", (0, 1))}) == 2


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_a_field_cannot_be_assigned_or_deleted(cls, values, other):
    rec = cls(*values)
    assert issubclass(cls, (Record, tuple)) and not hasattr(rec, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, other[-1])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(*values)


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=IDS)
def test_copies_and_pickles_round_trip(cls, values, other):
    rec = cls(*values)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec
        assert all(getattr(twin, name) == getattr(rec, name) for name in getattr(cls, "__slots__", ()))


def test_a_deep_copy_copies_the_containers_inside():
    labels = {"W": P}
    config = DoubleCircuitConfig(GRAPH, 2, labels, {})
    window = QNetWindow({(0, 0): P})
    assert copy.deepcopy(config).white_labels is not labels
    assert copy.deepcopy(window).values is not window.values
    assert copy.deepcopy({"W": P, "E": GRAPH.edges[0]}) == {"W": P, "E": GRAPH.edges[0]}


def test_the_repr_names_the_fields():
    assert repr(Edge("W", "B", (0, 0))) == "Edge(w='W', b='B', h=(0, 0))"
    assert repr(Face("f", (0, 1))) == "Face(id='f', edges=(0, 1))"
    assert repr(RenderSpec()) == (
        "RenderSpec(xmin=-10.0, xmax=10.0, ymin=-10.0, ymax=10.0, width=640, labels=True, height=640)"
    )
    assert repr(P) == "(1:2:3)"


def test_a_cohomology_class_unpacks_to_lambda_and_mu():
    lam, mu = CohomologyClass(Fraction(1, 2), 3)
    assert (lam, mu) == (Fraction(1, 2), 3)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: RenderSpec(xmin=1.0, xmax=0.0), InputError, "render box must be finite with positive size"),
        (lambda: RenderSpec(ymax=float("inf")), InputError, "render box must be finite with positive size"),
        (lambda: RenderSpec(width=0), InputError, "render width must be positive, got 0"),
        (
            lambda: RenderSpec(ymin=0.0, ymax=1e-9),
            InputError,
            "render box gives a pixel height of 3.2e-08; need a finite height of at least 1",
        ),
        (lambda: SpiralSeed(1, 5, 0, (P,) * 6), BadParameters, "need k >= 2 and n > k+2, got k=1, n=5"),
        (lambda: SpiralSeed(2, 4, 0, (P,) * 5), BadParameters, "need k >= 2 and n > k+2, got k=2, n=4"),
        (lambda: SpiralSeed(2, 5, 0, (P,) * 5), BadParameters, "seed window must hold n+1 = 6 elements"),
        (lambda: QNetWindow({(0, 0): P, (1, 0): Q}), BadParameters, "window keys must share one parity class"),
    ],
)
def test_construction_errors_are_unchanged(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
