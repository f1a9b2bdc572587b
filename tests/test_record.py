"""The two kinds of value class. A Record checks its fields as it is built and
equals only a record of its own class; a NamedTuple bundle checks nothing and
compares as the tuple of its fields. Both hash, print, copy and pickle by the
field tuple and refuse assignment."""

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
from knotsum.plumbing import PlumbingWord, SearchBudget, normalize
from knotsum.profiles import InvariantProfile
from knotsum.record import Record
from knotsum.seifert import SeifertMatrix, seifert_matrix_of_braid
from knotsum.surgery import TripleBudget, TwistAnnulus, apply_crossing_changes, verify_triple
from knotsum.table import lookup

TREFOIL = BraidWord(2, (1, 1, 1))
TREFOIL_SUM = BraidWord(3, (1, 1, 1, 2))  # split at 1: the unknot and a trefoil

RECORDS = {
    "BraidWord": lambda: BraidWord(3, (1, -2)),
    "LaurentPolynomial": lambda: LaurentPolynomial(-1, (1, -1, 1)),
    "InvariantProfile": lambda: lookup("3_1").profile,
    "SeifertMatrix": lambda: seifert_matrix_of_braid(TREFOIL),
    "DMInterval": lambda: dm_interval("3_1", "3_1", "5_1"),
    "TwistAnnulus": lambda: TwistAnnulus(-1),
    "TripleBudget": lambda: TripleBudget(7, 4),
    "SearchBudget": lambda: SearchBudget(max_twist=2),
    "PlumbingWord": lambda: PlumbingWord((2, 0, -2)),
}

BUNDLES = {
    "ClosureData": lambda: closure_data(BraidWord(3, (1, -2))),
    "CompositeBraid": lambda: murasugi_concat(TREFOIL, TREFOIL),
    "KnotTableEntry": lambda: lookup("3_1"),
    "KnotRecord": lambda: load_distance_data().knots["3_1"],
    "DistanceData": load_distance_data,
    "GonPlan": lambda: plan_triple_sum("3_1", "3_1", "4_1"),
    "CrossingChangeResult": lambda: apply_crossing_changes(BraidWord(3, (1, -2)), [0]),
    "TripleWitness": lambda: verify_triple(TREFOIL_SUM, 1, ("unknot", "3_1", "3_1")),
    "TripleFailure": lambda: verify_triple(TREFOIL, 1, ("3_1",)),
    "RewriteTrace": lambda: normalize(PlumbingWord((2, 0, 2, 4, 0))),
}

SAMPLES = {**RECORDS, **BUNDLES}


def _fields(record) -> dict:
    # a value's fields are its constructor's parameters, in order
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
    if isinstance(record, Record):
        other = type("Other", (cls,), {})(**fields)
        assert other != record and record != other
        assert record != tuple(fields.values())
    else:
        # a bundle is a tuple: it equals any tuple of its fields
        assert record == tuple(fields.values())


def test_every_value_class_is_a_record_or_a_bundle(record):
    assert isinstance(record, Record) != isinstance(record, tuple)
    assert type(record).__name__ in (RECORDS if isinstance(record, Record) else BUNDLES)


def test_fields_are_the_constructor_parameters(record):
    assert type(record)._fields == tuple(_fields(record))


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
    assert repr(TripleBudget(7, 4)) == (
        "TripleBudget(max_total_letters=7, max_strands=4, max_shuffles=32)")
    assert repr(BUNDLES["ClosureData"]()) == "ClosureData(permutation=(3, 1, 2), components=1)"
    assert repr(BUNDLES["GonPlan"]()) == (
        "GonPlan(names=('3_1', '3_1', '4_1'), to_k3='3_1', to_unknot='3_1', p=1, q=1)")
    assert repr(BUNDLES["CrossingChangeResult"]()) == (
        "CrossingChangeResult(word=BraidWord(strands=3, letters=(-1, -2)), "
        "records=(TwistAnnulus(full_twists=-1),))")
    assert repr(BUNDLES["RewriteTrace"]()) == (
        "RewriteTrace(start=PlumbingWord(twists=(2, 0, 2, 4, 0)), "
        "end=PlumbingWord(twists=(4,)), steps=(RewriteStep(rule='2^-1', position=3, "
        "params=(4,)), RewriteStep(rule='3', position=1, params=())))")


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
    (lambda: TwistAnnulus(0), "an annulus with no twists is not a crossing change"),
    (lambda: TripleBudget(-1, -2, -3), "budget max_total_letters must be >= 0, got -1"),
    (lambda: TripleBudget(0, -2, -3), "budget max_strands must be >= 0, got -2"),
    (lambda: TripleBudget(0, 0, -3), "budget max_shuffles must be >= 0, got -3"),
    (lambda: SearchBudget(-1, -2, -3), "budget max_length must be >= 0, got -1"),
    (lambda: SearchBudget(0, -2, -3), "budget max_twist must be >= 0, got -2"),
    (lambda: SearchBudget(0, 0, -3), "budget max_states must be >= 0, got -3"),
    (lambda: PlumbingWord((2, True, 3)), "twist True is not an integer"),
    (lambda: PlumbingWord((2, 3, True)), "twist 3 is odd"),
])
def test_construction_checks_run_in_order(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
