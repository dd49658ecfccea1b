"""The package's immutable records: equality, hashing, immutability,
construction and repr, which every record class shares through
``bitsets.Record``. The pinned reprs are those the records have always had."""

import pytest

from primdeg.bitsets import IndexSet, SupportFamily
from primdeg.cli import OracleCheckResult, RunReport
from primdeg.digraphs import PatternMatrix
from primdeg.families import DegreeWitness, ExponentSetResult
from primdeg.formats import SparseTensor
from primdeg.patterns import (
    ColumnTrace,
    Cycled,
    Exhausted,
    PatternTensor,
    PrimitivityReport,
    Reached,
    Violation,
    make_pattern,
)

TENSOR = make_pattern(3, 2, [(1, (1, 2)), (2, (1, 1))])
MATRIX = PatternMatrix(2, (IndexSet(1, 2), IndexSet(3, 2)))
MATRIX_REPR = "PatternMatrix(dim=2, rows=(IndexSet({1}, dim=2), IndexSet({1,2}, dim=2)))"
OUTCOMES = (Exhausted(2), Cycled(2, 1))

# (class, keyword arguments in signature order, repr)
CASES = [
    (IndexSet, {"mask": 5, "dim": 3}, "IndexSet({1,3}, dim=3)"),
    (SupportFamily, {"dim": 3, "masks": (1, 6)}, "SupportFamily(dim=3, [{1} {2,3}])"),
    (
        PatternTensor,
        {"order": 3, "dim": 2, "rows": TENSOR.rows},
        "PatternTensor(order=3, dim=2, rows=(SupportFamily(dim=2, [{1,2}]), SupportFamily(dim=2, [{1}])))",
    ),
    (Reached, {"step": 3}, "Reached(step=3)"),
    (Cycled, {"first_repeat_at": 4, "period": 2}, "Cycled(first_repeat_at=4, period=2)"),
    (Exhausted, {"bound": 5}, "Exhausted(bound=5)"),
    (
        ColumnTrace,
        {"column": 1, "masks": (2, 3), "dim": 2, "outcome": Reached(2)},
        "ColumnTrace(column=1, masks=(2, 3), dim=2, outcome=Reached(step=2))",
    ),
    (
        PrimitivityReport,
        {
            "primitive": False,
            "gamma": None,
            "gamma_by_column": (None, None),
            "outcomes": OUTCOMES,
            "bound": 2,
            "max_steps": 2,
            "tensor": TENSOR,
        },
        "PrimitivityReport(primitive=False, gamma=None, gamma_by_column=(None, None), "
        "outcomes=(Exhausted(bound=2), Cycled(first_repeat_at=2, period=1)), bound=2, max_steps=2)",
    ),
    (
        Violation,
        {"code": "no-branching", "vertex": None, "detail": "x"},
        "Violation(code='no-branching', vertex=None, detail='x')",
    ),
    (PatternMatrix, {"dim": 2, "rows": MATRIX.rows}, MATRIX_REPR),
    (
        DegreeWitness,
        {"order": 3, "degree": 2, "recipe": MATRIX},
        f"DegreeWitness(order=3, degree=2, recipe={MATRIX_REPR})",
    ),
    (
        ExponentSetResult,
        {"dim": 2, "witnesses": (), "failures": ((2, "bad"),)},
        "ExponentSetResult(dim=2, witnesses=(), failures=((2, 'bad'),))",
    ),
    (
        SparseTensor,
        {"order": 2, "dim": 2, "entries": (((1, 2), 1.5),)},
        "SparseTensor(order=2, dim=2, entries=(((1, 2), 1.5),))",
    ),
    (
        OracleCheckResult,
        {
            "trials": 4,
            "agreements": 3,
            "mismatches": [(1, "x")],
            "associativity_triples": 0,
            "explicit_power_trials": 2,
        },
        "OracleCheckResult(trials=4, agreements=3, mismatches=[(1, 'x')], associativity_triples=0, "
        "explicit_power_trials=2)",
    ),
]


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record(cls, kwargs, text):
    record = cls(*kwargs.values())
    assert cls(**kwargs) == record
    assert record == cls(*kwargs.values()) and not record != cls(*kwargs.values())
    assert repr(record) == text
    if cls is OracleCheckResult:  # its mismatches are a list
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**kwargs))
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_different_classes_differ():
    assert Reached(3) != Exhausted(3)
    assert Reached(3) == Reached(3) and Reached(3) != Reached(4)
    assert IndexSet(1, 2) != (1, 2)


def test_hidden_fields_stay_out_of_equality():
    other = make_pattern(3, 2, [(1, (1, 1))])
    kwargs = dict(CASES[7][1])
    assert PrimitivityReport(**kwargs) == PrimitivityReport(**{**kwargs, "tensor": other})
    assert SupportFamily(3, (1, 6)).singles == 1 and SupportFamily(3, (1, 6)).multis == (6,)


def test_run_report_stays_mutable():
    report = RunReport()
    report.add(record="meta")
    report.records = report.records + [{"record": "document"}]
    assert [r["record"] for r in report.records] == ["meta", "document"]
    assert "emit" in vars(RunReport)  # a class attribute, which bench/tracing.py wraps
