"""CSV dataset ingestion with one-hot expansion of categorical covariates.

Two schemas are accepted. Population mode carries both potential-outcome
columns (y1 and y0) and feeds simulations; observed mode carries the realized
outcome and the treatment indicator (y and d) and feeds estimation. Exactly
one of the two must be declared. Categorical covariates expand to one
indicator column per level, levels ordered by first appearance in the file.
"""

from __future__ import annotations

import re
import warnings
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


def read_csv(path, delimiter: str = ",", has_header: bool = True):
    """Read a delimited file into (column names, n x w object array of cell strings).

    One C tokenizer pass (``numpy.loadtxt``) over a handle opened with
    ``newline=""``, so quoted CR, LF and CRLF reach the cells verbatim, as
    RFC 4180 wants. Blank lines are skipped, ``#`` is data and ``""`` inside
    quotes is one quote. Rows in messages are data rows counted from 1.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in '"\r\n':
        raise SchemaError(
            f"delimiter must be one character other than a quote or a line break, got {delimiter!r}"
        )
    try:
        with open(path, newline="", encoding="utf-8") as handle, warnings.catch_warnings():
            # An empty input is reported below as a SchemaError.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            cells = np.loadtxt(
                handle, dtype=object, delimiter=delimiter, quotechar='"', comments=None, ndmin=2
            )
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


def _numeric_column(names, rows, col, path) -> np.ndarray:
    cells = rows[:, _column_index(names, col, path)].tolist()
    try:
        # float() strips the same padding as str.strip() except U+001C-U+001F,
        # which the stripped pass below still accepts.
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = _stripped_floats(cells, col, path)
    if not np.all(np.isfinite(values)):
        where = _first(~np.isfinite(values), cells)
        raise SchemaError(f"{path}: column {col!r} contains non-finite values {where}")
    return values


def _stripped_floats(cells, col, path) -> np.ndarray:
    values = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell.strip())
        except ValueError:
            where = f"(row {i + 1}: {cell!r})"
            raise SchemaError(f"{path}: column {col!r} is not numeric {where}") from None
    return values


def one_hot(values: list[str], name: str, drop_first: bool = False):
    """Indicator expansion with levels in first-appearance order."""
    levels = list(dict.fromkeys(values))
    index = {level: j for j, level in enumerate(levels)}
    codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    block = np.zeros((len(values), len(levels)))
    block[np.arange(len(values)), codes] = 1.0
    dropped = 1 if drop_first and len(levels) > 1 else 0
    return [f"{name}={level}" for level in levels[dropped:]], block[:, dropped:]


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
    names, rows = read_csv(path, delimiter=delimiter, has_header=has_header)

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

    blocks = []
    columns: list[str] = []
    for col in covariates:
        blocks.append(_numeric_column(names, rows, col, path)[:, None])
        columns.append(col)
    for col in categorical:
        raw = [cell.strip() for cell in rows[:, _column_index(names, col, path)]]
        cat_columns, block = one_hot(raw, col, drop_first=drop_first)
        columns.extend(cat_columns)
        blocks.append(block)
    if not blocks:
        raise SchemaError(f"{path}: at least one covariate column is required")
    x = np.hstack(blocks)

    p = _numeric_column(names, rows, p_col, path) if p_col else None
    if p is not None and (np.any(p <= 0.0) or np.any(p >= 1.0)):
        where = _first((p <= 0.0) | (p >= 1.0), p.tolist())
        raise SchemaError(f"{path}: column {p_col!r} must lie strictly inside (0, 1) {where}")

    if population:
        return Dataset(
            mode="population",
            columns=tuple(columns),
            x=x,
            y1=_numeric_column(names, rows, y1_col, path),
            y0=_numeric_column(names, rows, y0_col, path),
            p=p,
        )
    y = _numeric_column(names, rows, y_col, path)
    d = _numeric_column(names, rows, d_col, path)
    binary = (d == 0.0) | (d == 1.0)
    if not np.all(binary):
        where = _first(~binary, d.tolist())
        raise SchemaError(f"{path}: column {d_col!r} must be binary 0/1 {where}")
    return Dataset(mode="observed", columns=tuple(columns), x=x, y=y, d=d, p=p)
