"""The one read/write path for TSV and JSON artefacts."""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from metricfit.artefacts import ArtefactError, read_tsv, write_json, write_tsv


@pytest.mark.parametrize("field", ["a\tb", "a\nb", "a\rb"])
def test_write_tsv_rejects_tab_and_line_breaks_in_a_field(tmp_path, field):
    with pytest.raises(ArtefactError) as excinfo:
        write_tsv(tmp_path / "x.tsv", ["a", "b"], [["1", "2"], ["3", field]])
    assert excinfo.value.line == 3


def test_tsv_round_trip_keeps_quotes_and_skips_blank_lines(tmp_path):
    path = tmp_path / "x.tsv"
    write_tsv(path, ["a", "b"], [['"q"', 'x"y'], ["", "z"]])
    assert path.read_bytes() == b'a\tb\n"q"\tx"y\n\tz\n'
    path.write_bytes(b'a\tb\r\n"q"\tx"y\r\n\r\n\tz\r\n')
    assert list(read_tsv(path, ["a", "b"])) == [
        (2, ['"q"', 'x"y']),
        (4, ["", "z"]),
    ]


def test_write_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ArtefactError, match="x.json"):
        write_json(path, {"tau": float("nan")})
    assert not path.exists()


# write_json renders lists of one scalar kind, lists of equal-length lists
# of them and string-keyed objects on fast paths; json.dumps is the oracle.
_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n\t", " ", "é", "\U0001d11e",
                     "\u2028", "\ud800", "a\"b\\c", ""]),
)
_INTEGERS = st.one_of(
    st.integers(-10, 10), st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1.5, -2.0]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _STRINGS, _INTEGERS, _FLOATS)
_LISTS = st.one_of(
    st.lists(_STRINGS, max_size=5), st.lists(_INTEGERS, max_size=5),
    st.lists(_FLOATS, max_size=5), st.lists(_SCALARS, max_size=5),
    # equal-length rows (as the scorer's bigrams), of one kind or mixed
    st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(_STRINGS, min_size=n, max_size=n), max_size=5)),
    st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(_INTEGERS | _FLOATS, min_size=n, max_size=n), max_size=5)),
    st.lists(st.lists(_STRINGS, max_size=3), max_size=5),  # unequal lengths
    st.lists(_SCALARS, max_size=3).map(tuple),
)
_PAYLOADS = st.recursive(
    _SCALARS | _LISTS | st.dictionaries(_STRINGS, _INTEGERS, max_size=5)
    | st.dictionaries(st.integers(-5, 5), _SCALARS, max_size=3),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(
    max_examples=500, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_PAYLOADS)
@example(payload={"bigrams": [["<s>", "a"], ["a", "</s>"]], "counts": {"a": 2}})
@example(payload=[[], [[]], {}, [{}], ""])
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, payload):
    path = tmp_path / "x.json"
    write_json(path, payload)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize(
    "payload",
    [
        [1.0, math.nan],
        {"a": [{"b": [0.5, math.inf]}]},
        [1, "x", -math.inf],
        [[1.0, 2.0], [math.nan, 3.0]],
        {"counts": {"a": 1}, "z": math.nan},
        {math.inf: 1},
    ],
    ids=repr,
)
def test_write_json_refuses_non_finite_numbers_anywhere(tmp_path, payload):
    path = tmp_path / "x.json"
    with pytest.raises(ArtefactError, match="x.json: cannot write: Out of range float"):
        write_json(path, payload)
    assert not path.exists()
