"""Tests for the records that check their input at construction, ``_make`` and ``_replace``."""

import pytest

from treespec.errors import DomainError, OutOfDomainError
from treespec.limits import StarlikeSpec
from treespec.recurrence import RecurrenceParams
from treespec.signs import DoubleBroom, PendantConfig


@pytest.mark.parametrize("record, good, bad, exc, message", [
    (RecurrenceParams, (1.0, -0.25), (1.0, 0.0), DomainError, "gamma must be nonzero"),
    (PendantConfig, (8, 1), (2, 1), OutOfDomainError, "n must be an integer >= 3, got 2"),
    (PendantConfig, (8, 1), (8, -1), OutOfDomainError, "r must be a nonnegative integer, got -1"),
    (DoubleBroom, (3, 4, 2, 3), (0, 1, 1, 1), OutOfDomainError, "r must be a positive integer, got 0"),
    (StarlikeSpec, (1, 2, 3), (1, 0, 1), OutOfDomainError, "m must be a positive integer, got 0"),
])
def test_checked_records_refuse_bad_input_and_stay_immutable(record, good, bad, exc, message):
    with pytest.raises(exc) as info:
        record(*bad)
    assert type(info.value) is exc and str(info.value) == message
    with pytest.raises(exc):
        record(**dict(zip(record._fields, bad)))
    rec = record(**dict(zip(record._fields, good)))
    assert rec == record(*good)
    # the NamedTuple helpers build through the checked constructor too
    for build in (lambda: rec._replace(**dict(zip(record._fields, bad))), lambda: record._make(bad)):
        with pytest.raises(exc) as info:
            build()
        assert type(info.value) is exc and str(info.value) == message
    assert type(record._make(good)) is record and record._make(good) == rec == rec._replace()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, good))
    assert repr(rec) == f"{record.__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], good[0])
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict
