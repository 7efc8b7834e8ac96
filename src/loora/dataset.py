"""CSV dataset ingestion with one-hot expansion of categorical covariates.

Two schemas are accepted. Population mode carries both potential-outcome
columns (y1 and y0) and feeds simulations; observed mode carries the realized
outcome and the treatment indicator (y and d) and feeds estimation. Exactly
one of the two must be declared. Categorical covariates expand to one
indicator column per level, levels ordered by first appearance in the file.
"""

from __future__ import annotations

import itertools
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .exceptions import SchemaError


@dataclass(frozen=True)
class Dataset:
    """A parsed dataset: expanded covariates plus the declared outcome columns."""

    mode: str  # "population" or "observed"
    columns: tuple[str, ...]
    x: np.ndarray
    y1: np.ndarray | None = None
    y0: np.ndarray | None = None
    y: np.ndarray | None = None
    d: np.ndarray | None = None
    p: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]


def read_csv(path, delimiter: str = ",", has_header: bool = True, parse=None):
    """Read a delimited file into (column names, n x w array of its rows).

    Without ``parse`` the array holds each cell's text (object dtype). With
    ``parse``, a mapping from column name to ``None`` (a number) or to a
    ``defaultdict`` that codes the column's raw levels, the array is float64
    from one typed tokenizer pass (see ``_read_typed``); where numpy refuses
    that pass, the text array comes back instead, and the caller parses its
    cells with Python's ``float``.

    Both routes tokenize in C (``numpy.loadtxt``). The text route reads a
    handle opened with ``newline=""``, so quoted CR, LF and CRLF reach the
    cells verbatim, as RFC 4180 wants. Blank lines are skipped, ``#`` is data
    and ``""`` inside quotes is one quote. Rows in messages are data rows
    counted from 1.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in '"\r\n':
        raise SchemaError(
            f"delimiter must be one character other than a quote or a line break, got {delimiter!r}"
        )
    if parse is not None:
        try:
            typed = _read_typed(path, delimiter, has_header, parse)
        except (OSError, ValueError):  # ValueError includes UnicodeDecodeError
            typed = None
        if typed is not None:
            return typed
    return _read_cells(path, delimiter, has_header)


def _loadtxt(source, delimiter, **kwargs) -> np.ndarray:
    with warnings.catch_warnings():
        # An empty input is reported by _read_cells as a SchemaError, and a
        # blank line is skipped.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(
            source, delimiter=delimiter, quotechar='"', comments=None, ndmin=2, **kwargs
        )


def _read_typed(path, delimiter, has_header, parse):
    """(names, n x w float64 array) with numbers parsed in the tokenizer, or None.

    The header (or, without one, the first row's width) comes from the first
    physical line; the rest is one ``loadtxt(dtype=float64)`` call on the
    path, which numpy reads in chunks rather than line by line. Columns named
    in ``parse`` with ``None`` go through numpy's number parser, whose grammar
    is a strict subset of ``float(cell.strip())`` with the same values; the
    other named columns go through their level dict and every other column
    through ``len``, which never fails. None means the text route must
    decide: a refused cell, a non-finite number, a ragged row, a data width
    other than the header's, or a file the guards below cannot prove this
    pass reads as the text route does. ``usecols`` is not passed because
    with it ``loadtxt`` accepts a data row wider than the rest.
    """
    path = os.path.abspath(os.fsdecode(path))  # numpy's opener cannot take it for a URL
    # A pipe cannot be opened twice for the same bytes, and numpy would decompress these.
    if not os.path.isfile(path) or path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    with open(path, newline="", encoding="utf-8") as handle:
        first = _loadtxt([handle.readline()], delimiter, dtype=object)
    # skiprows counts physical lines, so the header must be all of the first:
    # not blank, and not open in quotes (its line break would end its last name).
    if first.size == 0 or first[0, -1].endswith(("\r", "\n")):
        return None
    names = [f"c{i}" for i in range(first.shape[1])]
    if has_header:
        names = [name.strip() for name in first[0]]
    converters = dict.fromkeys(range(len(names)), len)
    for col, codes in parse.items():
        if col in names:  # a missing column is reported by the caller
            converters[names.index(col)] = None if codes is None else codes.__getitem__
    converters = {j: convert for j, convert in converters.items() if convert is not None}
    values = _loadtxt(path, delimiter, dtype=np.float64, converters=converters,
                      skiprows=int(has_header), encoding="utf-8")
    # The path is read with universal newlines: a quoted CR or CRLF reached its
    # level dict as LF, so a level holding LF may stand for another.
    if any("\n" in level for codes in parse.values() if codes for level in codes):
        return None
    if values.shape[0] == 0 or values.shape[1] != len(names) or not np.isfinite(values).all():
        return None
    return names, values


def _read_cells(path, delimiter, has_header):
    """(names, n x w object array of cell strings); every read error is raised here."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            cells = _loadtxt(handle, delimiter, dtype=object)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {_utf8_error(path, exc)}") from None
    except ValueError as exc:
        raise SchemaError(f"{path}: {_ragged_row(exc, has_header)}") from None
    if cells.shape[0] == 0:
        raise SchemaError(f"{path}: file is empty")
    if has_header:
        names = [name.strip() for name in cells[0]]
        rows = cells[1:]
    else:
        names = [f"c{i}" for i in range(cells.shape[1])]
        rows = cells
    if rows.shape[0] == 0:
        raise SchemaError(f"{path}: no data rows")
    return names, rows


def _utf8_error(path, exc: UnicodeDecodeError) -> str:
    """Name the first byte that is not UTF-8 by its offset in the file.

    A text handle decodes chunk by chunk and reports offsets within a chunk,
    so the file is decoded once more, whole, on this error path only.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"


def _ragged_row(exc: ValueError, has_header: bool) -> str:
    """Restate loadtxt's ragged-row error; its row count includes the header."""
    found = re.search(r"changed from (\d+) to (\d+) at row (\d+)", str(exc))
    if found is None:
        return f"cannot parse: {exc}"
    expected, width, record = (int(group) for group in found.groups())
    row = record - 1 if has_header else record
    return f"row {row} has {width} fields, expected {expected}"


def _column_index(names, col, path) -> int:
    if col not in names:
        raise SchemaError(f"{path}: column {col!r} not found (available: {', '.join(names)})")
    return names.index(col)


def _numeric_column(names, rows, col, path, out=None) -> np.ndarray:
    """Column col as float64, written into out (a new array when None)."""
    j = _column_index(names, col, path)
    out = np.empty(rows.shape[0]) if out is None else out
    if rows.dtype != object:  # parsed, and checked finite, by _read_typed
        out[:] = rows[:, j]
        return out
    cells = rows[:, j].tolist()
    for i, cell in enumerate(cells):
        try:
            # float() strips a subset of what str.strip() strips (not U+001C-U+001F).
            out[i] = float(cell.strip())
        except ValueError:
            where = f"(row {i + 1}: {cell!r})"
            raise SchemaError(f"{path}: column {col!r} is not numeric {where}") from None
    if not np.all(np.isfinite(out)):
        where = _first(~np.isfinite(out), cells)
        raise SchemaError(f"{path}: column {col!r} contains non-finite values {where}")
    return out


def _categorical_codes(rows, j, level_codes, drop_first):
    """(indicator column of each row, its levels) of categorical column j.

    Levels are in first-appearance order; raw levels equal after ``str.strip``
    merge. With drop_first and two or more levels, the first level is dropped
    and its rows get -1. On the typed route the column holds codes, and
    ``level_codes`` (raw cell -> code, in first-appearance order) is the
    converter's dict that assigned them; the text route codes its cells so.
    """
    if rows.dtype == object:
        level_codes = defaultdict(itertools.count().__next__)
        column = np.fromiter(map(level_codes.__getitem__, rows[:, j]), np.intp, rows.shape[0])
    else:
        column = rows[:, j].astype(np.intp)
    stripped = [level.strip() for level in level_codes]
    levels = list(dict.fromkeys(stripped))
    dropped = int(drop_first and len(levels) > 1)
    index = {level: code - dropped for code, level in enumerate(levels)}
    recode = np.fromiter(map(index.__getitem__, stripped), np.intp, len(stripped))
    return recode[column], levels[dropped:]


def _first(bad: np.ndarray, values) -> str:
    """'(row r: value)' for the first True entry of bad; data rows count from 1.

    Error paths only: the checks that call it test the whole column first.
    """
    i = int(np.flatnonzero(bad)[0])
    return f"(row {i + 1}: {values[i]!r})"


def build_dataset(
    path,
    covariates: list[str] | None = None,
    categorical: list[str] | None = None,
    y1_col: str | None = None,
    y0_col: str | None = None,
    y_col: str | None = None,
    d_col: str | None = None,
    p_col: str | None = None,
    delimiter: str = ",",
    has_header: bool = True,
    drop_first: bool = False,
) -> Dataset:
    """Assemble a Dataset from a CSV file and declared column roles."""
    covariates = covariates or []
    categorical = categorical or []
    numeric = [*covariates, *(col for col in (p_col, y1_col, y0_col, y_col, d_col) if col)]
    level_codes = {col: defaultdict(itertools.count().__next__) for col in categorical}
    parse = None
    if not set(numeric) & set(level_codes):  # one column cannot be parsed both ways
        parse = dict.fromkeys(numeric) | level_codes
    names, rows = read_csv(path, delimiter=delimiter, has_header=has_header, parse=parse)

    population = y1_col is not None or y0_col is not None
    observed = y_col is not None or d_col is not None
    if population and observed:
        raise SchemaError(f"{path}: declare either y1/y0 columns or y/d columns, not both")
    if population and (y1_col is None or y0_col is None):
        missing = "y0" if y0_col is None else "y1"
        raise SchemaError(f"{path}: population mode needs both outcome columns; missing {missing}")
    if observed and (y_col is None or d_col is None):
        missing = "d" if d_col is None else "y"
        raise SchemaError(f"{path}: observed mode needs both columns; missing column role {missing}")
    if not population and not observed:
        raise SchemaError(f"{path}: no outcome columns declared")

    if not covariates and not categorical:
        raise SchemaError(f"{path}: at least one covariate column is required")
    # X is allocated once and filled in the order given; a missing categorical
    # column is reported in its turn, after the numeric columns' errors.
    coded = {col: _categorical_codes(rows, names.index(col), level_codes[col], drop_first)
             for col in categorical if col in names}
    width = len(covariates) + sum(len(coded[col][1]) for col in categorical if col in coded)
    x = np.zeros((rows.shape[0], width))
    for j, col in enumerate(covariates):
        _numeric_column(names, rows, col, path, out=x[:, j])
    columns = list(covariates)  # one name per column of x filled so far
    for col in categorical:
        _column_index(names, col, path)
        codes, levels = coded[col]
        units = np.flatnonzero(codes >= 0)
        x[units, len(columns) + codes[units]] = 1.0
        columns.extend(f"{col}={level}" for level in levels)

    p = _numeric_column(names, rows, p_col, path) if p_col else None
    if p is not None and (np.any(p <= 0.0) or np.any(p >= 1.0)):
        where = _first((p <= 0.0) | (p >= 1.0), p.tolist())
        raise SchemaError(f"{path}: column {p_col!r} must lie strictly inside (0, 1) {where}")

    if population:
        y1, y0 = (_numeric_column(names, rows, col, path) for col in (y1_col, y0_col))
        return Dataset(mode="population", columns=tuple(columns), x=x, y1=y1, y0=y0, p=p)
    y = _numeric_column(names, rows, y_col, path)
    d = _numeric_column(names, rows, d_col, path)
    binary = (d == 0.0) | (d == 1.0)
    if not np.all(binary):
        where = _first(~binary, d.tolist())
        raise SchemaError(f"{path}: column {d_col!r} must be binary 0/1 {where}")
    return Dataset(mode="observed", columns=tuple(columns), x=x, y=y, d=d, p=p)
