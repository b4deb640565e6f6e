"""The one read/write path for the pipeline's TSV and JSON artefacts.

TSV: UTF-8, an exact header row, tab-separated fields without quoting (a
``"`` is a literal character) and no tab, CR or LF inside a field. Blank
lines are skipped and CRLF line ends read like LF; lines are written with LF.
JSON: two-space indent, sorted keys, a final newline, and never NaN or
infinity, which are not JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence


class ArtefactError(ValueError):
    """An artefact is missing or malformed; names the file and, if known, the line."""

    def __init__(self, path: Path | str, line: int | None, message: str):
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path = str(path)
        self.line = line


def _not_utf8(path: Path | str) -> ArtefactError:
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        line = None
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
    return ArtefactError(path, line, "not valid UTF-8")


def read_tsv(
    path: Path | str, columns: Sequence[str]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(line, row)`` per non-blank data line, ``row`` keyed by column."""
    try:
        with open(path, encoding="utf-8") as handle:  # universal newlines
            header = handle.readline()
            if not header:
                raise ArtefactError(path, 1, "empty file, expected a header row")
            header = header.rstrip("\n").split("\t")
            if header != list(columns):
                raise ArtefactError(
                    path, 1, f"bad header {header!r}, expected {list(columns)!r}"
                )
            for line, text in enumerate(handle, start=2):
                fields = text.rstrip("\n").split("\t")
                if fields == [""]:
                    continue
                if len(fields) != len(columns):
                    raise ArtefactError(
                        path, line, f"expected {len(columns)} fields, got {len(fields)}"
                    )
                yield line, dict(zip(columns, fields))
    except FileNotFoundError:
        raise ArtefactError(path, None, "missing file") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def write_tsv(
    path: Path | str, columns: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(columns) + "\n")
        for line, row in enumerate(rows, start=2):
            text = "\t".join(row)
            bad = "\n" in text or "\r" in text or text.count("\t") != len(row) - 1
            if bad or len(row) != len(columns):
                raise ArtefactError(
                    path, line, f"cannot write {list(row)!r}: expected "
                    f"{len(columns)} fields without a tab, CR or LF"
                )
            handle.write(text + "\n")


def parse_float(path: Path | str, line: int, column: str, text: str) -> float:
    """A TSV field that must hold a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ArtefactError(path, line, f"{column} is not a finite number: {text!r}")
    return value


def read_json(path: Path | str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ArtefactError(path, None, "missing file") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as err:
        raise ArtefactError(path, err.lineno, f"not JSON: {err.msg}") from None
    except ValueError as err:  # an integer with more digits than int() takes
        raise ArtefactError(path, None, f"not JSON: {err}") from None


def write_json(path: Path | str, payload: Any) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:  # NaN or infinity
        raise ArtefactError(path, None, f"cannot write: {err}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")
