"""The one read/write path for TSV and JSON artefacts."""

import pytest

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
