"""The row records against their frozen-dataclass oracles in conftest."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import RECORD_ORACLES, MqmErrorOracle
from metricfit.corpus import (
    MqmError,
    MqmRating,
    ReferenceTranslation,
    Segment,
    SystemTranslation,
)
from metricfit.metrics import MetricScore
from metricfit.rankings import RelativeRanking

# Few short strings, so two draws are often equal and == is tried both ways.
_TEXT = st.text(alphabet="abé ", max_size=2)
_SPAN = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2))
_ERROR = [_TEXT, _TEXT, _SPAN]
_FLOAT = st.sampled_from([0.1, 1.0, -0.0, 0.0]) | st.floats()

# Drawn values per field, in field order.
FIELD_VALUES = {
    Segment: [_TEXT] * 5,
    SystemTranslation: [_TEXT] * 3 + [st.booleans()],
    ReferenceTranslation: [_TEXT] * 4 + [st.none() | _TEXT],
    MqmError: _ERROR,
    MqmRating: [_TEXT] * 3 + [st.lists(st.tuples(*_ERROR), max_size=2)],
    RelativeRanking: [_TEXT] * 7 + [_FLOAT] + [st.none() | _TEXT] * 2,
    MetricScore: [_TEXT] * 3 + [_FLOAT],
}


def _build(kind, values):
    """A record of ``kind`` (a record type or its oracle) from drawn values;
    a rating's drawn errors become errors of the same family."""
    if kind in (MqmRating, RECORD_ORACLES[MqmRating]) and len(values) == 4:
        error = MqmError if kind is MqmRating else MqmErrorOracle
        values = [*values[:3], tuple(error(*e) for e in values[3])]
    return kind(*values)


@st.composite
def _record_pairs(draw):
    """(record type, record values, other values): two draws of one type."""
    record_type = draw(st.sampled_from(sorted(FIELD_VALUES, key=lambda t: t.__name__)))
    fields = st.tuples(*FIELD_VALUES[record_type])
    return record_type, draw(fields), draw(fields)


@given(_record_pairs())
def test_records_behave_as_their_dataclass_oracles(drawn):
    record_type, values, other_values = drawn
    oracle_type = RECORD_ORACLES[record_type]
    record, oracle = _build(record_type, values), _build(oracle_type, values)
    other, other_oracle = (
        _build(record_type, other_values), _build(oracle_type, other_values)
    )

    assert repr(record) == repr(oracle)
    assert hash(record) == hash(oracle)
    assert (record == other) == (oracle == other_oracle)
    assert (record != other) == (oracle != other_oracle)
    for field in dataclasses.fields(oracle_type):  # repr: a NaN is not == itself
        assert repr(getattr(record, field.name)) == repr(getattr(oracle, field.name))
        with pytest.raises(AttributeError):
            setattr(record, field.name, getattr(other, field.name))

    required = [f for f in dataclasses.fields(oracle_type)
                if f.default is dataclasses.MISSING]
    shortest = _build(record_type, values[:len(required)])
    shortest_oracle = _build(oracle_type, values[:len(required)])
    assert repr(shortest) == repr(shortest_oracle)  # so the defaults agree


@pytest.mark.parametrize("record_type", list(RECORD_ORACLES), ids=lambda t: t.__name__)
def test_records_keep_their_fields_and_docstrings(record_type):
    oracle_type = RECORD_ORACLES[record_type]
    assert record_type._fields == tuple(f.name for f in dataclasses.fields(oracle_type))
    assert record_type.__doc__ == oracle_type.__doc__
