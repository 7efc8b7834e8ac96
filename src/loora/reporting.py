"""Machine-readable records, run manifests, and human tables.

Machine output is line-delimited: one JSON object per line with insertion-
ordered keys and floats printed with 17 significant digits, so identical runs
produce identical bytes and reading a file back loses nothing. A non-finite
float (a method that failed on every replicate has NaN metrics) is written
as null, so every strict JSON parser reads the file. The manifest (which
carries wall time and the numeric environment) always goes to its own
sidecar file to keep report bytes reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import numpy as np


def format_float(value: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return format(float(value), ".17g")


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(value) if math.isfinite(value) else "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot render {type(value)} in a record")


def record_line(record: dict) -> str:
    """One machine record as a single JSON line with stable formatting."""
    return _render(dict(record))


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(record_line(record))
            handle.write("\n")


def read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def config_hash(config: dict) -> str:
    """Platform-stable digest of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_environment() -> dict:
    """numpy's version, the BLAS numpy was built against, and the BLAS thread
    variables (null where unset): what a run's bits and speed depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def manifest_path(out_path: str) -> str:
    return f"{out_path}.manifest.json"


def format_table(headers, rows) -> str:
    """Plain aligned text table for stdout."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    return "\n".join(lines)
