"""How a value from outside the program is typed, checked and located.

Every input file is read here: JSON through :func:`read_json` and the
decoders, CSV through :func:`read_csv`, other text through
:func:`read_text`. A malformed input raises ValueError that starts with
the file's path; a bad CSV row, or bytes that are not UTF-8 in a text
file, add the physical line. JSON types are strict: a number is an int or
a float, never a bool, and finite; an int is an int; a str is a str.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import fields
from itertools import chain
from pathlib import Path
from reprlib import repr as _show
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, get_type_hints

T = TypeVar("T")
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
# a tab or any character str.splitlines breaks on; a text holding one could
# forge a line or a cell of the tab-separated transcript
LINE_BREAK_OR_TAB = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")
_CSV_QUOTED = re.compile('[,"\r\n]')
# one line each, as a csv.reader over newline="" text counts them
_CSV_LINE_BREAK = re.compile("\r\n|\r|\n")


def number(value: object, name: str) -> float:
    """An int or float but not a bool, finite, returned as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {_show(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def check_number_cells(row: Sequence[str], columns: Sequence[str], first: int = 0) -> None:
    """Reject a CSV row whose number cells, those from ``first`` on (named by
    ``columns``), hold an underscore, which ``float()`` and ``int()`` read
    (``2_316`` is 2316) and JSON does not. One test of the joined row, names
    included, passes most rows unsliced; only the rest are scanned per cell."""
    if "_" in "".join(row):
        for column, cell in zip(columns[first:], row[first:]):
            if "_" in cell:
                raise ValueError(f"{column} must be a number, got {cell!r}")


def check_name(text: str, field: str) -> None:
    """Reject an empty or whitespace-padded name: a padded label would never
    match its unpadded twin. Inner spaces are allowed."""
    if not text or text.strip() != text:
        raise ValueError(f"{field} must be non-empty without leading or trailing whitespace, got {text!r}")


def typed(value: object, cls: type[T], name: str) -> T:
    """``value`` when its type is exactly ``cls``, so a bool is no int."""
    if type(value) is not cls:
        raise ValueError(f"{name} must be {_TYPE_NAMES[cls]}, got {_show(value)}".lstrip())
    return value


def box(value: object, name: str) -> tuple[float, float, float, float]:
    """A list of exactly four numbers."""
    if type(value) is not list or len(value) != 4:
        raise ValueError(f"{name} must be a list of 4 numbers, got {_show(value)}")
    return tuple(number(x, name) for x in value)


def keys(raw: object, required: Sequence[str], optional: Iterable[str] = (), name: str = ""):
    """Check that ``raw`` (called ``name``) is an object with every ``required``
    key and no key outside ``required`` and ``optional``."""
    typed(raw, dict, name)
    for key in required:
        if key not in raw:
            raise ValueError(f"missing key {key!r}")
    if len(raw) > len(required) and not raw.keys() <= {*required, *optional}:
        raise ValueError(f"unknown keys {sorted(raw.keys() - {*required, *optional})}")


def decode(cls: type[T], raw: object, where: str) -> T:
    """Dataclass ``cls`` from an object whose values are typed by the field
    annotations (float, int or str); absent keys keep their defaults."""
    types = get_type_hints(cls)
    typed(raw, dict, where)
    try:
        keys(raw, (), types)
        values = {
            k: number(v, k) if types[k] is float else typed(v, types[k], k) for k, v in raw.items()
        }
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def require_finite_fields(obj: object) -> None:
    """Reject a dataclass instance whose float fields hold NaN or an infinity."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float):
            number(value, f.name)


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; undecodable bytes are located as ``path:line``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from exc


def read_json(path: str | Path) -> object:
    """A JSON document; syntax and encoding errors name the path."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # including JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, as RFC 4180 does, when it holds a
    comma, a quote, CR or LF, and else as it is."""
    if _CSV_QUOTED.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_csv(path: str | Path, layouts: Mapping[tuple[str, ...], Callable[[list[str]], T]],
             header: str = "named", allow_empty: bool = False) -> list[T]:
    """One record per non-blank row: ``layouts`` maps column names to the
    function that makes a record of a row's values in that order.

    The first non-blank row is, by ``header``: ``"named"``, a required header
    naming the one layout's columns in any order among others; ``"exact"``, a
    required header equal to one layout's columns; ``"optional"``, a header
    when its first cell is the one layout's first column name. Rows must be as
    wide as the header (else the layout). An error in a row is located at the
    physical line where its record starts; an error in reading the next
    record (a ``csv.Error``, such as an unclosed quote or text after a
    closing quote) at the line where reading stopped. No records is an error
    unless ``allow_empty``.
    """
    # strict: a quote left open at the end of the file is an error, not a
    # cell that swallows the rest of it and its own record's line break
    reader = csv.reader(io.StringIO(read_text(path), newline=""), strict=True)
    records: list[T] = []
    try:
        rows = filter(None, reader)  # a blank line reads as []
        first = row = next(rows, None)
        cells = tuple(c.strip() for c in first or ())
        if header == "exact" and cells not in layouts:
            raise ValueError(f"unrecognized header {list(cells)}")
        (columns,) = [cells] if header == "exact" else layouts
        parse, width, pick = layouts[columns], len(columns), None
        if header == "optional" and first and cells[0] != columns[0]:
            rows = chain([first], rows)
        elif header == "named":
            missing = [c for c in columns if c not in cells]
            if missing:
                raise ValueError(f"missing columns {missing}")
            width, pick = len(cells), [cells.index(c) for c in columns]
        for row in rows:
            if len(row) != width:
                raise ValueError(f"expected {width} fields" + ("" if pick else f", got {len(row)}"))
            records.append(parse([row[i] for i in pick] if pick else row))
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    except ValueError as exc:  # ``row`` was read whole: back up over its line breaks
        line = reader.line_num - len(_CSV_LINE_BREAK.findall(",".join(row or ())))
        raise ValueError(f"{path}:{line or 1}: {exc}") from exc
    if not records and not allow_empty:
        raise ValueError(f"{path}: no data rows")
    return records
