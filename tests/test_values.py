"""Every immutable value class of the package copies, deep-copies and pickles
to an equal value with an equal hash, and refuses to set or delete an
attribute.  Classes are found, not listed: one whose `__setattr__` is its own
Python function and that has no sample below fails the suite."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import cartanlim
from cartanlim import exactq
from cartanlim.bounds import bounds_report
from cartanlim.converge import ConvergenceTrace
from cartanlim.exactq import QMatrix
from cartanlim.limits import GroupElementParams, OrbitClass, OrbitKind, SeedMatrix
from cartanlim.obstruct import FlatnessReport, Poly, TierOneResult, TierReport
from cartanlim.projgeo import (
    AugmentedBasis,
    CrossRatioTuple,
    ProjPoint,
    ProjTransform,
    unordered_cross_ratio,
)

POINTS = [ProjPoint(c) for c in ([1, 0], [1, 1], [1, 2], [1, 3])]
SEED = SeedMatrix([[1, 2], [F(1, 3), -1], [0, 5]])
assert SEED.generic  # its bracket table is built before it is copied

SAMPLES = [
    QMatrix([[1, F(1, 2)], [F(-3, 4), 0]]),
    ProjPoint([F(2, 3), -4, 0]),
    ProjTransform(QMatrix([[1, 2], [3, 5]])),
    AugmentedBasis(POINTS),
    CrossRatioTuple(POINTS[2:]),
    unordered_cross_ratio(POINTS),
    Poly(2, {(1, 0): F(1, 2), (0, 2): 3}),
    SEED,
    GroupElementParams.make([1, "2/3"], [-1]),
    OrbitClass(OrbitKind.EXCEPTIONAL, 2, frozenset({1})),
    bounds_report(7),
    ConvergenceTrace((F(1), F(2)), (0.5, 0.25), ((1.0,), (2.0,))),
    FlatnessReport("Flat", 1, 2, 9, (3, 3), ((F(1), F(0)),)),
    TierReport(1, (F(1, 2),)),
    TierOneResult("No", None, ("minor", (1, 2))),
]


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
    if dataclasses.is_dataclass(value):
        return dataclasses.fields(value)[0].name
    return type(value).__slots__[0]


def clones(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def test_every_immutable_class_has_a_sample():
    assert immutable_classes() == {type(value) for value in SAMPLES}


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal(value):
    for clone in clones(value):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
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
