"""CSV dataset ingestion with one-hot expansion of categorical covariates.

Two schemas are accepted. Population mode carries both potential-outcome
columns (y1 and y0) and feeds simulations; observed mode carries the realized
outcome and the treatment indicator (y and d) and feeds estimation. Exactly
one of the two must be declared. Categorical covariates expand to one
indicator column per level, levels ordered by first appearance in the file.
"""

from __future__ import annotations

import csv
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
    """Read a delimited file into (column names, list of row dicts)."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise SchemaError(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"{path}: file is empty")
    if has_header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
    else:
        names = [f"c{i}" for i in range(len(rows[0]))]
        data_rows = rows
    if not data_rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(names)
    for idx, row in enumerate(data_rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {idx + 1} has {len(row)} fields, expected {width}")
    return names, data_rows


def _column(names, rows, col, path):
    if col not in names:
        raise SchemaError(f"{path}: column {col!r} not found (available: {', '.join(names)})")
    j = names.index(col)
    return [row[j].strip() for row in rows]


def _numeric_column(names, rows, col, path) -> np.ndarray:
    raw = _column(names, rows, col, path)
    try:
        values = np.array([float(v) for v in raw], dtype=np.float64)
    except ValueError as exc:
        raise SchemaError(f"{path}: column {col!r} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{path}: column {col!r} contains non-finite values")
    return values


def one_hot(values: list[str], name: str, drop_first: bool = False):
    """Indicator expansion with levels in first-appearance order."""
    levels: list[str] = []
    for v in values:
        if v not in levels:
            levels.append(v)
    used = levels[1:] if drop_first and len(levels) > 1 else levels
    columns = [f"{name}={level}" for level in used]
    block = np.zeros((len(values), len(used)))
    index = {level: j for j, level in enumerate(used)}
    for i, v in enumerate(values):
        j = index.get(v)
        if j is not None:
            block[i, j] = 1.0
    return columns, block


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
        raw = _column(names, rows, col, path)
        cat_columns, block = one_hot(raw, col, drop_first=drop_first)
        columns.extend(cat_columns)
        blocks.append(block)
    if not blocks:
        raise SchemaError(f"{path}: at least one covariate column is required")
    x = np.hstack(blocks)

    p = _numeric_column(names, rows, p_col, path) if p_col else None
    if p is not None and (np.any(p <= 0.0) or np.any(p >= 1.0)):
        raise SchemaError(f"{path}: column {p_col!r} must lie strictly inside (0, 1)")

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
    if not np.all((d == 0.0) | (d == 1.0)):
        raise SchemaError(f"{path}: column {d_col!r} must be binary 0/1")
    return Dataset(mode="observed", columns=tuple(columns), x=x, y=y, d=d, p=p)
