"""The immutable value records behave as frozen dataclasses do: equality,
hashing and repr by the field tuple, no assignment, checked construction."""

import copy
import inspect
import pickle

import pytest

from knotsum import seifert
from knotsum.braid import BraidWord, closure_data, murasugi_concat
from knotsum.distances import (
    STATUS_DISTINCT,
    STATUS_UNDETERMINED,
    DMInterval,
    dm_interval,
    load_distance_data,
    plan_triple_sum,
)
from knotsum.laurent import ONE, LaurentPolynomial
from knotsum.profiles import InvariantProfile
from knotsum.seifert import SeifertMatrix, seifert_matrix_of_braid
from knotsum.table import lookup

TREFOIL = BraidWord(2, (1, 1, 1))

SAMPLES = {
    "BraidWord": lambda: BraidWord(3, (1, -2)),
    "ClosureData": lambda: closure_data(BraidWord(3, (1, -2))),
    "CompositeBraid": lambda: murasugi_concat(TREFOIL, TREFOIL),
    "LaurentPolynomial": lambda: LaurentPolynomial(-1, (1, -1, 1)),
    "InvariantProfile": lambda: lookup("3_1").profile,
    "SeifertMatrix": lambda: seifert_matrix_of_braid(TREFOIL),
    "KnotTableEntry": lambda: lookup("3_1"),
    "KnotRecord": lambda: load_distance_data().knots["3_1"],
    "DistanceData": load_distance_data,
    "DMInterval": lambda: dm_interval("3_1", "3_1", "5_1"),
    "GonPlan": lambda: plan_triple_sum("3_1", "3_1", "4_1"),
}


def _fields(record) -> dict:
    # a record's fields are its constructor's parameters, in order
    names = inspect.signature(type(record)).parameters
    return {name: getattr(record, name) for name in names}


@pytest.fixture(params=SAMPLES, ids=str)
def record(request):
    value = SAMPLES[request.param]()
    assert type(value).__name__ == request.param
    return value


def test_equality_is_by_class_and_fields(record):
    cls, fields = type(record), _fields(record)
    twin = cls(**fields)
    assert twin is not record and twin == record and not twin != record
    other = type("Other", (cls,), {})(**fields)
    assert other != record and record != other
    assert record != tuple(fields.values())


def test_records_of_two_classes_with_equal_fields_differ():
    assert BraidWord(2, (1,)) != LaurentPolynomial(2, (1,))


def test_hash_is_the_hash_of_the_field_tuple(record):
    values = tuple(_fields(record).values())
    try:
        expected = hash(values)
    except TypeError:  # DistanceData holds dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_repr_names_every_field(record):
    fields = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__qualname__}({fields})"


def test_repr_text():
    assert repr(BraidWord(3, (1, -2))) == "BraidWord(strands=3, letters=(1, -2))"
    assert repr(ONE) == "LaurentPolynomial(lo=0, coeffs=(1,))"
    assert repr(SeifertMatrix(((-1,),))) == "SeifertMatrix(rows=((-1,),))"


def test_fields_cannot_be_assigned_or_deleted(record):
    before = _fields(record)
    for name in before:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before


def test_no_attribute_can_be_added(record):
    # a name that is not a field is refused as a field is
    with pytest.raises(AttributeError):
        record.extra = None


def test_copy_and_pickle_give_equal_records(record):
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_laurent_polynomials_have_no_instance_dict():
    assert not hasattr(ONE, "__dict__")


def test_seifert_matrix_computes_signature_and_determinant_once(monkeypatch):
    calls = []
    form = seifert.symmetric_form

    def counting(rows):
        calls.append(rows)
        return form(rows)

    monkeypatch.setattr(seifert, "symmetric_form", counting)
    matrix = seifert_matrix_of_braid(TREFOIL)
    for _ in range(2):
        assert (matrix.signature(), matrix.determinant_invariant()) == (-2, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("build, message", [
    # each input fails more than one check; the first check in order reports
    (lambda: BraidWord(0, (0, 3)), "braid letter 0 is not allowed"),
    (lambda: BraidWord(0, (3,)), "letter 3 exceeds the declared strand count 0"),
    (lambda: BraidWord(0), "strand count must be at least 1"),
    (lambda: LaurentPolynomial(1, ()), "non-canonical fields lo=1, coeffs=(); "
     "build from any coefficients with LaurentPolynomial.from_coeffs"),
    (lambda: InvariantProfile(ONE, 1, 3, 0, 1), "determinant must equal |alexander(-1)|"),
    (lambda: InvariantProfile(ONE, 1, 1, 0, 1), "knot signatures are even under this convention"),
    (lambda: SeifertMatrix(((1, 0),)), "Seifert matrix must be square"),
    (lambda: DMInterval(3, 5, (), STATUS_DISTINCT), "lower bound 3 must be even and >= 2"),
    (lambda: DMInterval(2, 5, (), STATUS_DISTINCT), "upper bound 5 must be even"),
    (lambda: DMInterval(4, 2, (), STATUS_UNDETERMINED), "bounds crossed: lower 4 > upper 2"),
    (lambda: DMInterval(2, None, (), STATUS_DISTINCT),
     "lower bound 2 contradicts certified distinctness"),
])
def test_construction_checks_run_in_order(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
