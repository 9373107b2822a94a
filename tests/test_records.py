"""The contract of the package's 14 record classes.

Each record keeps what its frozen dataclass gave it: the same `repr` (the
expected strings were printed by the dataclasses), `==` between records of
one class only, a hash equal to that of its compared fields, no assignment,
a pickle round trip, and every validation error with its type and message.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from hermite_lab import (
    AggregateReport,
    Convergent,
    DecimalSpec,
    ExperimentConfig,
    HermiteFlags,
    IntrinsicCoords,
    InvalidArgument,
    InvalidQuadratic,
    MinimalVector,
    ParseError,
    PartialQuotients,
    QuadraticReal,
    QuadraticSpec,
    RationalSpec,
    ThetaReport,
)
from hermite_lab.hermite import ScanState
from hermite_lab.stats import StatSummary

THREE_EIGHTHS = RationalSpec(Fraction(3, 8))
ROOT5 = QuadraticReal(-1, 1, 2, 5)
ULP = Fraction(1, 2**64)
REPORT = ThetaReport("3/8", 4, 3, 2, 2 / 3, 1.25, None, 0, True)
SUMMARY = StatSummary(0.75, 0.125, 0.0625, 0.79, -0.04)


def _decimal(bits: int) -> DecimalSpec:
    return DecimalSpec(Fraction(1, 8), bits, Fraction(1, 8), Fraction(1, 8) + ULP, "0.125")


# name: (fixture, expected repr, compared fields, [(bad call, error, message)])
RECORDS = {
    "PartialQuotients": (
        lambda: PartialQuotients((3, 1, 2), True),
        "PartialQuotients(quotients=(3, 1, 2), terminated=True)",
        ((3, 1, 2), True),
        [
            (lambda: PartialQuotients((2, 0), False), InvalidArgument,
             "partial quotients must be >= 1"),
            (lambda: PartialQuotients((1, 2), False), InvalidArgument,
             "a1 >= 2 is forced by x0 <= 1/2"),
            (
                lambda: PartialQuotients((2, 1), True),
                InvalidArgument,
                "canonical terminating expansion ends with a quotient >= 2",
            ),
        ],
    ),
    "Convergent": (lambda: Convergent(3, 10, 2), "Convergent(p=3, q=10, index=2)", (3, 10, 2), []),
    "HermiteFlags": (
        lambda: HermiteFlags(THREE_EIGHTHS, (True, False, None), "criterion"),
        "HermiteFlags(theta=RationalSpec(value=Fraction(3, 8)), flags=(True, False, None),"
        " method='criterion')",
        (THREE_EIGHTHS, (True, False, None), "criterion"),
        [],
    ),
    "ScanState": (
        lambda: ScanState(10, False, 3, (3, 1, 2)),
        "ScanState(q_cur=10, terminated=False, hermite_q=3, quotients=(3, 1, 2))",
        (10, False, 3, (3, 1, 2)),
        [],
    ),
    "MinimalVector": (
        lambda: MinimalVector(1, 3, 2, THREE_EIGHTHS),
        "MinimalVector(p=1, q=3, index=2)",
        (1, 3, 2),
        [],
    ),
    "IntrinsicCoords": (
        lambda: IntrinsicCoords(-1, (Fraction(1, 3), Fraction(1, 2)), Fraction(2, 5)),
        "IntrinsicCoords(eps=-1, x=(Fraction(1, 3), Fraction(1, 2)), y=Fraction(2, 5))",
        (-1, (Fraction(1, 3), Fraction(1, 2)), Fraction(2, 5)),
        [],
    ),
    "QuadraticReal": (
        lambda: QuadraticReal(-1, 1, 2, 5),
        "QuadraticReal(a=-1, b=1, c=2, d=5)",
        (-1, 1, 2, 5),
        [
            (lambda: QuadraticReal(1, 1, 0, 5), InvalidQuadratic, "c must be positive"),
            (lambda: QuadraticReal(1, 1, 1, 1), InvalidQuadratic,
             "d must be a non-square integer >= 2"),
            (lambda: QuadraticReal(1, 0, 1, 5), InvalidQuadratic,
             "b = 0 is a rational, not a quadratic"),
            (lambda: QuadraticReal(2, 2, 4, 5), InvalidQuadratic, "coefficients not reduced"),
        ],
    ),
    "RationalSpec": (
        lambda: RationalSpec(Fraction(-7, 3)),
        "RationalSpec(value=Fraction(-7, 3))",
        (Fraction(-7, 3),),
        [],
    ),
    "QuadraticSpec": (
        lambda: QuadraticSpec(ROOT5),
        "QuadraticSpec(value=QuadraticReal(a=-1, b=1, c=2, d=5))",
        (ROOT5,),
        [],
    ),
    "DecimalSpec": (
        lambda: _decimal(64),
        "DecimalSpec(value=Fraction(1, 8), declared_bits=64, window_lo=Fraction(1, 8),"
        " window_hi=Fraction(2305843009213693953, 18446744073709551616), text='0.125')",
        (Fraction(1, 8), 64, Fraction(1, 8), Fraction(1, 8) + ULP, "0.125"),
        [
            (lambda: _decimal(63), ParseError, "decimal precision must be >= 64 bits"),
            (lambda: _decimal(2**20 + 1), ParseError, "decimal precision must be <= 2**20 bits"),
        ],
    ),
    "ExperimentConfig": (
        lambda: ExperimentConfig(3, depth_n=60),
        "ExperimentConfig(sample_count=3, depth_n=60, seed=42, precision_bits=None,"
        " theta_source='uniform01', workers=1)",
        (3, 60, 42, None, "uniform01", 1),
        [
            (lambda: ExperimentConfig(0), InvalidArgument, "sample_count must be positive"),
            (lambda: ExperimentConfig(1, depth_n=9), InvalidArgument, "depth_n must be >= 10"),
            (
                lambda: ExperimentConfig(1, precision_bits=63),
                InvalidArgument,
                "precision_bits must be >= 64",
            ),
            (lambda: ExperimentConfig(1, workers=0), InvalidArgument, "workers must be >= 1"),
            (
                lambda: ExperimentConfig(1, theta_source="gauss"),
                InvalidArgument,
                "theta_source must be 'uniform01' or a sequence of specs",
            ),
            (
                lambda: ExperimentConfig(1, precision_bits=2**20 + 1),
                InvalidArgument,
                "effective_bits must be <= 2**20, got 1048577: lower depth_n or precision_bits",
            ),
            (
                lambda: ExperimentConfig(2**20, precision_bits=1025),
                InvalidArgument,
                "sample_count * effective_bits must be <= 2**30, got 1048576 * 1025:"
                " lower sample_count, depth_n or precision_bits",
            ),
        ],
    ),
    "ThetaReport": (
        lambda: REPORT,
        "ThetaReport(theta_id='3/8', depth=4, n_flags_decided=3, hermite_count=2,"
        " proportion=0.6666666666666666, levy_rate=1.25, hermite_growth=None,"
        " undecided_count=0, terminated=True)",
        ("3/8", 4, 3, 2, 2 / 3, 1.25, None, 0, True),
        [],
    ),
    "StatSummary": (
        lambda: SUMMARY,
        "StatSummary(mean=0.75, stddev=0.125, stderr=0.0625, target=0.79, deviation=-0.04)",
        (0.75, 0.125, 0.0625, 0.79, -0.04),
        [],
    ),
    "AggregateReport": (
        lambda: AggregateReport(1, 4, 7, SUMMARY, SUMMARY, SUMMARY, 0, (REPORT,)),
        "AggregateReport(sample_count=1, depth=4, seed=7,"
        " proportion=StatSummary(mean=0.75, stddev=0.125, stderr=0.0625, target=0.79,"
        " deviation=-0.04),"
        " levy_rate=StatSummary(mean=0.75, stddev=0.125, stderr=0.0625, target=0.79,"
        " deviation=-0.04),"
        " hermite_growth=StatSummary(mean=0.75, stddev=0.125, stderr=0.0625, target=0.79,"
        " deviation=-0.04), rejected_count=0)",
        (1, 4, 7, SUMMARY, SUMMARY, SUMMARY, 0, (REPORT,)),
        [],
    ),
}


class _Other:
    """A class whose instances claim equality with everything."""

    def __eq__(self, other):
        return True


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    build, expected_repr, compared, rejections = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == expected_repr
    # == compares the class and the compared fields, and nothing else
    twin = build()
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(compared)
    assert record.__eq__(compared) is NotImplemented
    assert record != compared and compared != record
    assert record == _Other()  # NotImplemented lets the other side answer
    for other in RECORDS.values():
        if other[0] is not build:
            assert record != other[0]()
    # no field can be set or deleted
    field = expected_repr[len(name) + 1 :].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    # pickling rebuilds the same record, hidden fields included
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and repr(back) == expected_repr
    if name == "MinimalVector":
        assert back.theta == record.theta
    for call, error, message in rejections:
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == message


def test_minimal_vector_leaves_theta_out_of_eq_and_hash():
    u = MinimalVector(1, 3, 2, THREE_EIGHTHS)
    v = MinimalVector(1, 3, 2, QuadraticSpec(ROOT5))
    assert u == v and hash(u) == hash(v) == hash((1, 3, 2))
    assert u != MinimalVector(1, 3, 3, THREE_EIGHTHS)


def test_class_constants_and_as_dict():
    assert DecimalSpec.MAX_BITS == 1 << 20
    assert ExperimentConfig(3).effective_bits == 19400
    assert ScanState(10, False, 3, (3, 1, 2)).quotient_count == 3
    report = AggregateReport(1, 4, 7, SUMMARY, SUMMARY, SUMMARY, 0, (REPORT,))
    stats = report.as_dict()["statistics"]
    assert list(stats) == ["proportion", "levy_rate", "hermite_growth"]
    assert list(stats["proportion"].items()) == [
        ("mean", 0.75),
        ("stddev", 0.125),
        ("stderr", 0.0625),
        ("target", 0.79),
        ("deviation", -0.04),
    ]
