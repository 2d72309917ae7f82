"""The four public records are NamedTuples: their fields, repr, equality,
hashing, immutability and validation messages are pinned here."""

import pickle

import pytest

from dagconvex import (
    CONNECTED_CONVEX,
    CONVEX,
    ConvexityWitness,
    EnumerationReport,
    FamilySpec,
    InvalidParameter,
    SizeBoundTable,
)

RECORDS = [
    (EnumerationReport(CONVEX, (3, 2, 1)), "EnumerationReport(kind='convex', histogram=(3, 2, 1))"),
    (
        SizeBoundTable(EnumerationReport(CONNECTED_CONVEX, (2, 1))),
        "SizeBoundTable(report=EnumerationReport(kind='connected-convex', histogram=(2, 1)))",
    ),
    (ConvexityWitness(0, 2, (0, 1, 2)), "ConvexityWitness(u=0, v=2, path=(0, 1, 2))"),
    (FamilySpec("dt", 4), "FamilySpec(family='dt', param=4, p=None, seed=None)"),
    (FamilySpec("rand", 8, 0.3, 42), "FamilySpec(family='rand', param=8, p=0.3, seed=42)"),
]
IDS = [text.split("(")[0] + str(i) for i, (_, text) in enumerate(RECORDS)]


def test_field_names_and_defaults():
    assert EnumerationReport._fields == ("kind", "histogram")
    assert SizeBoundTable._fields == ("report",)
    assert ConvexityWitness._fields == ("u", "v", "path")
    assert FamilySpec._fields == ("family", "param", "p", "seed")
    assert FamilySpec("gi", 2) == FamilySpec("gi", 2, None, None)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_equal_records_hash_alike(record, text):
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    # a record also equals the plain tuple of its fields
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_immutable(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance __dict__
    assert repr(record) == text


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EnumerationReport("weird", (1,)), "set class must be 'convex' or 'connected-convex'"),
        (lambda: EnumerationReport(CONVEX, (2, -1)), "histogram entries must be non-negative ints"),
        (lambda: EnumerationReport(CONVEX, (True,)), "histogram entries must be non-negative ints"),
        (lambda: EnumerationReport(CONVEX, (1.0,)), "histogram entries must be non-negative ints"),
        (lambda: FamilySpec("blah", 3), "unknown family 'blah'"),
        (lambda: FamilySpec("dt", 0), "family parameter must be >= 1, got 0"),
        (lambda: FamilySpec("rand", 8), "rand family needs an arc probability and a seed"),
        (lambda: FamilySpec("rand", 8, 0.3), "rand family needs an arc probability and a seed"),
        (lambda: FamilySpec("rand", 8, 2.0, 1), "arc probability must be in (0, 1], got 2.0"),
        (lambda: FamilySpec("rand", 8, 0.3, -1), "seed must fit in 64 unsigned bits"),
        (lambda: FamilySpec("dt", 4, 0.5, 1), "family 'dt' takes a single parameter"),
        (lambda: FamilySpec("path", 4, seed=1), "family 'path' takes a single parameter"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(InvalidParameter) as exc:
        make()
    assert str(exc.value) == message


def test_list_histogram_stored_as_tuple():
    # a list would leave the record unhashable, and mutable through it
    listed, tupled = EnumerationReport(CONVEX, [1, 2]), EnumerationReport(CONVEX, (1, 2))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.histogram) is tuple


def test_replace_validates():
    report = EnumerationReport(CONVEX, (1,))
    assert report._replace(histogram=(2, 1)) == EnumerationReport(CONVEX, (2, 1))
    assert type(report._replace(histogram=[2, 1]).histogram) is tuple
    assert type(FamilySpec("dt", 4)._replace(param=5)) is FamilySpec
    with pytest.raises(InvalidParameter):
        report._replace(kind="weird")
    with pytest.raises(InvalidParameter):
        FamilySpec("dt", 4)._replace(param=0)
    with pytest.raises(InvalidParameter):
        FamilySpec._make(["rand", 8])
