"""The one read/write path for the pipeline's TSV and JSON artefacts.

TSV: UTF-8, an exact header row, tab-separated fields without quoting (a
``"`` is a literal character) and no tab, CR or LF inside a field. Blank
lines are skipped and CRLF line ends read like LF; lines are written with LF.
JSON: two-space indent, sorted keys, a final newline, and never NaN or
infinity, which are not JSON. ``write_json`` writes the bytes of
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` plus the
newline, which is its test oracle, but renders a list of strings, integers
or finite floats, a list of equal-length lists of such scalars (the scorer's
bigrams) and a string-keyed object of such values (its unigram counts) in a
few C-level passes instead of item by item; anything else is rendered by
``json.dumps`` itself.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` per non-blank data line, fields in column order."""
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
                yield line, fields
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


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _scalars(items: Sequence) -> Iterator[str] | None:
    """The items rendered, if all are strings, all integers (not booleans)
    or all finite floats; else None."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return map(_quote, items)
    if kinds == {int}:
        return map(int.__repr__, items)
    if kinds == {float} and all(map(math.isfinite, items)):
        return map(float.__repr__, items)
    return None


def _items(items: Sequence, indent: str) -> Iterable[str]:
    """Each item rendered at ``indent``: scalars of one kind in one pass,
    anything else one by one."""
    rendered = _scalars(items)
    return [_render(item, indent) for item in items] if rendered is None else rendered


def _list(items: Sequence, indent: str) -> str:
    """The (non-empty) items rendered at ``indent`` and joined as
    ``json.dumps`` joins them; equal-length lists of scalars of one kind are
    quoted in one pass and joined row by row."""
    widths = set(map(len, items)) if set(map(type, items)) == {list} else ()
    flat = _scalars(list(chain.from_iterable(items))) if len(widths) == 1 else None
    if flat is None:
        return (",\n" + indent).join(_items(items, indent))
    inner = "\n" + indent + "  "
    # zip takes each row's scalars in turn from the one flat iterator
    rows = map(("," + inner).join, zip(*[flat] * widths.pop()))
    between = "\n" + indent + "],\n" + indent + "[" + inner
    return "[" + inner + between.join(rows) + "\n" + indent + "]"


def _render(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps`` renders it (see the module docstring) at
    nesting ``indent``; it raises what that raises."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    inner = indent + "  "
    if (kind is list or kind is tuple) and value:
        return "[\n" + inner + _list(value, inner) + "\n" + indent + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        keys = sorted(value)
        values = _items(list(map(value.__getitem__, keys)), inner)
        items = map(": ".join, zip(map(_quote, keys), values))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + indent)  # a JSON string holds no raw newline


def write_json(path: Path | str, payload: Any) -> None:
    try:
        text = _render(payload, "")
    except ValueError as err:  # NaN or infinity
        raise ArtefactError(path, None, f"cannot write: {err}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")
