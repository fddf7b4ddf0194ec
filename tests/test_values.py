"""Every immutable value class of the package copies, deep-copies and pickles
to an equal value with an equal hash, and refuses to set or delete an
attribute.  Classes are found, not listed: one whose `__setattr__` is its own
Python function and that has no sample below fails the suite."""

import copy
import importlib
import inspect
import json
import pickle
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import cartanlim
from cartanlim import exactq, jsonio
from cartanlim.bounds import bounds_report
from cartanlim.converge import ConvergenceTrace
from cartanlim.exactq import QMatrix
from cartanlim.limits import GroupElementParams, OrbitClass, OrbitKind, SeedMatrix
from cartanlim.obstruct import FlatnessReport, Poly, TierOneResult, TierReport, has_tier_one_element
from cartanlim.projgeo import (
    AugmentedBasis,
    CrossRatioTuple,
    ProjPoint,
    ProjTransform,
    unordered_cross_ratio,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
POINTS = [ProjPoint(c) for c in ([1, 0], [1, 1], [1, 2], [1, 3])]


def tier_one_result(fixture: str) -> TierOneResult:
    """The rank-one verdict the library returns on a family fixture."""
    family = jsonio.read_family(json.loads((FIXTURES / fixture).read_text()))
    return has_tier_one_element(family)


SEED = SeedMatrix([[1, 2], [F(1, 3), -1], [0, 5]])
assert SEED.generic  # its bracket table is built before it is copied

SAMPLES = [
    QMatrix([[1, F(1, 2)], [F(-3, 4), 0]]),
    ProjPoint([F(2, 3), -4, 0]),
    ProjTransform(QMatrix([[1, 2], [3, 5]])),
    AugmentedBasis(POINTS),
    CrossRatioTuple(POINTS[2:]),
    unordered_cross_ratio(POINTS),
    Poly._of(2, {(1, 0): F(1, 2), (0, 2): 3}),  # the constructor is deprecated; the class is immutable while it exists
    SEED,
    GroupElementParams.make([1, "2/3"], [-1]),
    OrbitClass(OrbitKind.EXCEPTIONAL, 2, frozenset({1})),
    bounds_report(7),
    ConvergenceTrace((F(1), F(2)), (0.5, 0.25), ((1.0,), (2.0,))),
    FlatnessReport("Flat", 1, 2, 9, (3, 3), ((F(1), F(0)),)),
    TierReport(1, (F(1, 2),)),
    tier_one_result("family_e.json"),  # its "No" certificate holds dicts of lists
    tier_one_result("family_lt_a3.json"),
]
assert [r.kind for r in SAMPLES if isinstance(r, TierOneResult)] == ["No", "Witness"]
RECORDS = sorted({type(value) for value in SAMPLES if type(value)._fields}, key=lambda cls: cls.__name__)


def sample_id(value) -> str:
    """The class name, and the verdict of the rank-one "Witness" sample."""
    if isinstance(value, TierOneResult) and value.kind == "Witness":
        return "TierOneResult-Witness"
    return type(value).__name__


def immutable_classes() -> set[type]:
    """Each class of a package module whose `__setattr__` is a Python
    function of its own (slot wrappers, as on `object` and exceptions, are
    the default behaviour), minus the shared immutable base."""
    found = set()
    for info in pkgutil.iter_modules(cartanlim.__path__):
        module = importlib.import_module(f"cartanlim.{info.name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and inspect.isfunction(cls.__setattr__)
            ):
                found.add(cls)
    return found - {exactq._Frozen}


def attribute_of(value) -> str:
    return (value._fields or type(value).__slots__)[0]


def clones(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def test_every_immutable_class_has_a_sample():
    assert immutable_classes() == {type(value) for value in SAMPLES}


@pytest.mark.parametrize("value", SAMPLES, ids=sample_id)
def test_copies_and_pickles_are_equal(value):
    for clone in clones(value):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)


@pytest.mark.parametrize("value", SAMPLES, ids=sample_id)
def test_attributes_cannot_be_set_or_deleted(value):
    name = attribute_of(value)
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before


def test_read_values_keep_their_derived_forms_through_a_copy():
    # rows and tuples derived before the copy are derived again after it
    matrix = QMatrix._from_ints(2, [1, 2, 3, 4], 2)
    uc = unordered_cross_ratio(POINTS)
    rows, tuples = matrix.rows, uc.tuples
    for clone in clones(matrix):
        assert clone.rows == rows
    for clone in clones(uc):
        assert clone.tuples == tuples and list(clone) == list(uc)


def test_seed_matrix_copies_and_pickles():
    fresh = SeedMatrix(SEED.matrix)
    assert fresh.generic
    for clone in clones(SEED):
        assert clone == fresh and hash(clone) == hash(fresh) and clone.generic
        assert clone._dual == fresh._dual


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    value = next(v for v in SAMPLES if type(v) is cls)
    names = cls._fields
    values = [getattr(value, name) for name in names]
    by_name = dict(zip(names, values))
    assert cls(*values) == cls(**by_name) == cls(values[0], **dict(list(by_name.items())[1:])) == value
    for bad_args, bad_kwargs in [
        (values[:-1], {}),  # a field missing
        ([], dict(list(by_name.items())[1:])),  # the first field missing by name
        (values, {"unknown": 0}),
        (values, {names[0]: values[0]}),  # a field twice
        ([*values, 0], {}),  # one value too many
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    # a record of another class with the same fields and values, and a tuple
    twin = type(cls.__name__, (exactq._Frozen,), {"__annotations__": dict.fromkeys(names)})
    for other in (twin(*values), tuple(values)):
        assert value != other and other != value


def test_records_print_as_dataclasses_did():
    assert repr(bounds_report(7)) == (
        "BoundsReport(k=7, best_m=4, best_n=2, best_value=1, lower_bound=Fraction(5, 8), upper_bound=42, ok=True)"
    )
    assert repr(OrbitClass(OrbitKind.EXCEPTIONAL, 2, frozenset({1}))) == (
        "OrbitClass(kind=<OrbitKind.EXCEPTIONAL: 'Exceptional'>, dim=2, vanishing=frozenset({1}))"
    )


@pytest.mark.parametrize("cls", [SeedMatrix, Poly, ProjTransform, AugmentedBasis], ids=lambda cls: cls.__name__)
def test_values_that_are_not_records_are_not_emitted(cls):
    value = next(v for v in SAMPLES if type(v) is cls)
    with pytest.raises(TypeError):
        jsonio.dumps(value)
