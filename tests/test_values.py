"""The value classes of the package: equality, hashing, immutability, repr,
copy and pickle.

``LaurentSeries``, ``Polynomial``, ``SequenceValue``, ``VerificationReport``
and ``CheckRow`` behave as frozen records of their constructor fields: the
cached ``_coeffs`` of the first two takes part in none of this.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from stirnum.identities import CheckRow, VerificationReport
from stirnum.sequences import Polynomial, SequenceValue
from stirnum.series import ZERO, LaurentSeries

# (class, canonical field values, another canonical value for each field).
CASES = [
    (LaurentSeries, (2, (1, -2), 3), (1, (1, 2), 5)),
    (Polynomial, ((1, -2), 3), ((1, 2), 5)),
    (
        SequenceValue,
        ("euler_polynomial", 3, (("x", Fraction(1, 3)),), Fraction(-5, 27), "formula", ("a note",)),
        ("euler_number", 4, (("x", Fraction(1, 2)),), Fraction(1, 27), "oracle", ()),
    ),
    (
        VerificationReport,
        ("I1", 2, Fraction(2), Fraction(1, 2), 14, (0, 8), True, None),
        ("I2", 3, Fraction(-1), Fraction(2), 16, (1, 9), False, (3, Fraction(1), Fraction(2))),
    ),
    (CheckRow, ("mdet", {"j": 3, "k": 4}, True), ("stirling2", {"j": 3, "k": 5}, False)),
]
IDS = [case[0].__name__ for case in CASES]

# What each class's repr read when it was a dataclass.
REPRS = {
    LaurentSeries: "LaurentSeries(offset=2, nums=(1, -2), den=3)",
    Polynomial: "Polynomial(nums=(1, -2), den=3)",
    SequenceValue: (
        "SequenceValue(family='euler_polynomial', index=3, parameters=(('x', Fraction(1, 3)),), "
        "value=Fraction(-5, 27), provenance='formula', notes=('a note',))"
    ),
    VerificationReport: (
        "VerificationReport(identity_id='I1', k=2, alpha=Fraction(2, 1), lam=Fraction(1, 2), "
        "order=14, window=(0, 8), passed=True, first_discrepancy=None)"
    ),
    CheckRow: "CheckRow(check='mdet', fields={'j': 3, 'k': 4}, passed=True)",
}


def build(cls, values):
    # A fresh dict for CheckRow, so no two instances share one.
    return cls(*(dict(v) if isinstance(v, dict) else v for v in values))


def assert_same_hash(a, b):
    if isinstance(a, CheckRow):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, values, others", CASES, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_are_equal_with_equal_hashes(self, cls, values, others):
        a, b = build(cls, values), build(cls, values)
        assert a == b and not a != b
        assert_same_hash(a, b)

    def test_any_one_changed_field_is_unequal(self, cls, values, others):
        a = build(cls, values)
        for i, other in enumerate(others):
            changed = build(cls, values[:i] + (other,) + values[i + 1 :])
            assert a != changed and not a == changed, i

    def test_no_other_class_is_equal(self, cls, values, others):
        a = build(cls, values)
        assert a != values and values != a
        assert a.__eq__(values) is NotImplemented

    def test_fields_cannot_be_set_or_deleted(self, cls, values, others):
        a = build(cls, values)
        text = repr(a)
        for name in (*inspect.signature(cls).parameters, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert repr(a) == text

    def test_repr_is_the_dataclass_text(self, cls, values, others):
        a = build(cls, values)
        if cls in (LaurentSeries, Polynomial):
            a.coeffs  # fills the cache, which the repr leaves out
        assert repr(a) == REPRS[cls]


def test_a_series_and_a_polynomial_with_the_same_nums_differ():
    assert LaurentSeries(0, (1, 2), 1) != Polynomial((1, 2), 1)
    assert Polynomial((1, 2), 1) != LaurentSeries(0, (1, 2), 1)


@pytest.mark.parametrize(
    "value",
    [build(cls, values) for cls, values, _ in CASES] + [ZERO],
    ids=IDS + ["zero series"],
)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_deepcopy_and_pickle_round_trip(value, clone):
    twin = clone(value)
    assert twin == value and repr(twin) == repr(value)
