"""How a value from outside the program is typed, checked and located.

Every input file is read here, its bytes decoded by :func:`read_text`
alone: JSON through :func:`read_json` and the decoders, CSV through
:func:`read_csv`. A malformed input raises ValueError that starts with
the file's path; a bad CSV row, or bytes that are not UTF-8 or are NUL in
any file, add the physical line. CSV cells are converted per column, and a table
error still names the line where the first failing record starts.
JSON types are strict: a number is an int or a float, never a bool, and
finite; an int is an int; a str is a str. Every number field's range lives
on its field, declared by :func:`ranged` and enforced by
:func:`check_fields` or :func:`check_range`; a class's own checks are
the rules that join several fields. :func:`collector_paused` is the
one pause of the cyclic garbage collector, shared by the scenario loader
and the AP engine.
"""

from __future__ import annotations

import codecs
import csv
import functools
import gc
import io
import json
import math
import re
from dataclasses import field, fields
from itertools import chain
from pathlib import Path
from reprlib import repr as _show
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, get_type_hints

T = TypeVar("T")
F = TypeVar("F", bound=Callable[..., object])
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
# a tab or any character str.splitlines breaks on; a text holding one could
# forge a line or a cell of the tab-separated transcript
LINE_BREAK_OR_TAB = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")
_CSV_QUOTED = re.compile('[,"\r\n]')
# a lone surrogate: a JSON \u escape can put one in a str, and no UTF-8 output can write it
_SURROGATE = re.compile("[\ud800-\udfff]")
# one line each, as a csv.reader over newline="" text counts them
_CSV_LINE_BREAK = re.compile("\r\n|\r|\n")
# Upper bound on a CSV table's data rows, checked once the rows are split
# and before any record is built; the largest benchmark table has ~2,600.
MAX_ROWS = 1_000_000
# a CSV layout's column names -> its table function, which takes one
# sequence of cells per column and returns the records
_Layouts = Mapping[tuple[str, ...], Callable[..., list]]


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


def number_cells(columns: Sequence[Sequence[str]], names: Sequence[str],
                 convert: Callable[[str], object] = float) -> list[list]:
    """Columns of CSV number cells, named by ``names``, each cell converted
    by ``convert``, in three phases, each over every column before the next
    starts:

    * a cell holding an underscore is rejected, which ``float()`` and
      ``int()`` read (``2_316`` is 2316) and JSON does not; one test of each
      joined column passes most tables;
    * a cell that ``convert`` rejects is named by its column, found by
      converting that column's cells again one by one on the failing path
      only;
    * unless ``convert`` is ``int``, whose huge values would overflow the
      test, a value that is NaN or an infinity (``nan``, ``inf``, ``1e999``)
      is rejected as :func:`number` rejects it, named by its column.

    Every phase is row-local, so on one-row columns the column named is the
    first failing one in the first phase that fails: an underscore anywhere
    in the row beats an earlier cell that will not convert. A caller with
    several converters makes one call per converter, and the first failing
    call names the error."""
    for name, cells in zip(names, columns):
        if "_" in "".join(cells):
            bad = next(cell for cell in cells if "_" in cell)
            raise ValueError(f"{name} must be a number, got {_show(bad)}")
    # converted row by row, so that a row's numbers lie together in memory
    # as a row-by-row reader leaves them: the detection metrics read a box's
    # four coordinates together
    try:
        flat = list(map(convert, chain.from_iterable(zip(*columns))))
    except ValueError:
        kind = _TYPE_NAMES.get(convert, "a number")
        for name, column in zip(names, columns):
            for cell in column:
                try:
                    convert(cell)
                except ValueError:
                    raise ValueError(f"{name} must be {kind}, got {_show(cell)}") from None
        raise
    values = [flat[k::len(columns)] for k in range(len(columns))]
    if convert is not int:
        for name, column in zip(names, values):
            # filter(None, ...) skips an absent optional value (None) and the
            # zeros, which are finite
            if not all(map(math.isfinite, filter(None, column))):
                bad = next(v for v in filter(None, column) if not math.isfinite(v))
                raise ValueError(f"{name} must be finite, got {bad}")
    return values


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


def string(value: object, name: str) -> str:
    """``value`` when it is a str that holds no lone surrogate."""
    text = typed(value, str, name)
    if not text.isascii() and _SURROGATE.search(text):
        raise ValueError(f"{name} must hold no lone surrogate, got {text!r}")
    return text


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


def ranged(default: T, lo: float, hi: float | None = None, *, above: bool = False) -> T:
    """A dataclass field with ``default`` (``dataclasses.MISSING`` for
    none) whose value must be at least ``lo`` (above it, with ``above``)
    and at most ``hi``, if given: the one home of the range, enforced by
    :func:`check_fields` and :func:`check_range`."""
    return field(default=default, metadata={"range": (lo, hi, above)})


def check_range(cls: type, name: str, value: float | None) -> None:
    """Reject ``value`` outside the range that field ``name`` of dataclass
    ``cls`` declares; None, an absent optional value, passes."""
    if value is None:
        return
    lo, hi, above = cls.__dataclass_fields__[name].metadata["range"]
    if not ((lo < value if above else lo <= value) and (hi is None or value <= hi)):  # NaN fails too
        if hi is not None:
            raise ValueError(f"{name} must be in {'(' if above else '['}{lo:g},{hi:g}]")
        words = (f"at least {lo:g}", f"above {lo:g}") if lo else ("non-negative", "positive")
        raise ValueError(f"{name} must be {words[above]}")


def check_fields(obj: object) -> None:
    """Reject a dataclass instance whose float fields hold NaN or an
    infinity, and then one with a field outside its declared range."""
    for f in fields(obj):
        if isinstance(value := getattr(obj, f.name), float):
            number(value, f.name)
    for f in fields(obj):
        if "range" in f.metadata:
            check_range(type(obj), f.name, getattr(obj, f.name))


def collector_paused(fn: F) -> F:
    """``fn`` run with the cyclic garbage collector paused.

    The wrapper notes whether the collector is enabled, disables it, calls
    ``fn`` and, in a ``finally``, enables it again only if it was on at
    entry, so the caller finds it as it was, whether ``fn`` returns or
    raises. The pause is process-wide: other threads run without
    collections until ``fn`` returns.

    Use it only for a call that builds no reference cycle and calls no
    caller-supplied code. Then reference counting frees everything the call
    drops, so a collection during the call would free nothing, and no code
    passed in by a caller can build cycles while the collector is off.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def read_text(path: str | Path) -> str:
    """A file's text, strict UTF-8 less one leading BOM; bad bytes and a NUL
    byte are named ``path:line``."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from exc
    if "\0" in text:  # no input file needs one, and UTF-16 text without a BOM is full of them
        line = text.count("\n", 0, text.index("\0")) + 1
        raise ValueError(f"{path}:{line}: NUL byte; input files are UTF-8 text, not UTF-16 or UTF-32")
    return text


def read_json(path: str | Path, build: Callable[[object], T]) -> T:
    """``build`` of a JSON file's document; a syntax or ``build`` ValueError is named ``path:``."""
    text = read_text(path)
    try:
        return build(json.loads(text))
    except (ValueError, RecursionError) as exc:  # including JSONDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, as RFC 4180 does, when it holds a
    comma, a quote, CR or LF, and else as it is."""
    if _CSV_QUOTED.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_rows(text: str) -> tuple[csv.reader, Iterator[list[str]]]:
    """A strict reader over ``text`` and its non-blank rows."""
    # strict: a quote left open at the end of the file is an error, not a
    # cell that swallows the rest of it and its own record's line break
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    return reader, filter(None, reader)  # a blank line reads as []


def _layout(first: list[str] | None, rows: Iterator[list[str]], layouts: _Layouts, optional_header: bool):
    """The table function that the first non-blank row ``first`` picks, the
    row width, the indices of the function's columns in a row, and the data
    rows. With several layouts, ``first`` must equal one layout's columns: a
    named header in the layout's order. With one, it names the columns, or
    it is data, read in the layout's order, when ``optional_header`` and its
    first cell names none of them."""
    cells = tuple(c.strip() for c in first or ())
    columns = cells if len(layouts) > 1 else next(iter(layouts))
    if columns not in layouts:
        raise ValueError(f"unrecognized header {list(cells)}")
    table = layouts[columns]
    if optional_header and not (cells and cells[0] in columns):  # no header
        return table, len(columns), range(len(columns)), chain([first], rows) if first else rows
    missing = [c for c in columns if c not in cells]
    if missing:
        raise ValueError(f"missing columns {missing}")
    return table, len(cells), [cells.index(c) for c in columns], rows


def _split_rows(text: str, layouts: _Layouts, optional_header: bool) -> tuple[Callable[..., list], list[list[str]]]:
    """The table function that ``text`` picks, and the cells of its data
    rows as one list per column of the function: every row's cells are
    read into one flat list, then sliced once per column."""
    _, rows = _csv_rows(text)
    table, width, pick, rows = _layout(next(rows, None), rows, layouts, optional_header)
    flat: list[str] = []
    extend = flat.extend
    for row in rows:
        if len(row) != width:
            raise ValueError(f"expected {width} fields, got {len(row)}")
        extend(row)
    return table, [flat[k::width] for k in pick]


def _locate_error(path: str | Path, text: str, layouts: _Layouts, optional_header: bool) -> None:
    """Read ``text`` again row by row, calling the table function on
    one-row columns, and raise the first failure as ``path:line: message``:
    a row's error at the line where its record starts, a ``csv.Error`` at
    the line where reading stopped. Returns when no row fails alone."""
    reader, rows = _csv_rows(text)
    row = None
    try:
        row = next(rows, None)
        table, width, pick, rows = _layout(row, rows, layouts, optional_header)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            table(*([row[k]] for k in pick))
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    except ValueError as exc:  # ``row`` was read whole: back up over its line breaks
        line = reader.line_num - len(_CSV_LINE_BREAK.findall(",".join(row or ())))
        raise ValueError(f"{path}:{line or 1}: {exc}") from exc


def read_csv(path: str | Path, layouts: _Layouts, optional_header: bool = False, allow_empty: bool = False) -> list:
    """The records of a CSV file: ``layouts`` maps column names to the table
    function that makes the records from one sequence of cells per column,
    in that order, one record per non-blank row.

    The first non-blank row is a header. With several layouts it must equal
    one layout's columns, which picks the layout, else it is an
    ``unrecognized header``. With one layout it names the layout's columns
    in any order among others; with ``optional_header`` too, a first row
    whose first cell names none of them is the first data row instead, its
    columns taken in the layout's order. Rows must be as wide as the header
    (else the layout). No records is an error unless ``allow_empty``.

    Cells are read into one flat list and converted per column. More than
    ``MAX_ROWS`` data rows is an error, raised before the table function
    builds any record. Every check of a table function must be row-local,
    so that a table passes exactly when each of its rows passes alone: when
    the read or the table function fails, the text is read again row by row
    to name the first failing record, at the physical line where it starts;
    an error in reading the next record (a ``csv.Error``, such as an
    unclosed quote or text after a closing quote) is named at the line
    where reading stopped, when no earlier row fails.
    """
    text = read_text(path)
    try:
        table, columns = _split_rows(text, layouts, optional_header)
    except (ValueError, csv.Error) as exc:
        _locate_error(path, text, layouts, optional_header)
        raise ValueError(f"{path}: {exc}") from exc  # no row fails alone
    if len(columns[0]) > MAX_ROWS:
        raise ValueError(f"{path}: {len(columns[0])} rows exceed {MAX_ROWS}")
    try:
        records = table(*columns)
    except ValueError as exc:
        _locate_error(path, text, layouts, optional_header)
        raise ValueError(f"{path}: {exc}") from exc
    if not records and not allow_empty:
        raise ValueError(f"{path}: no data rows")
    return records
