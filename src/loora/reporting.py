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

import functools
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


def _openblas(name: str, restype: str | None = "c_int", *argtypes: str):
    """OpenBLAS's function ``name`` declared with the ctypes types named, or None.

    numpy's bundled build prefixes and suffixes its symbols, other builds
    export the plain name. numpy loads its BLAS outside the global symbol
    namespace, so each library of this process whose file name holds "blas"
    (from /proc/self/maps) is searched. None where none exports it (another
    BLAS, or no /proc).
    """
    import ctypes  # imported on first use, not at start-up

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    paths = dict.fromkeys(f[5].strip() for f in fields if len(f) == 6)
    for path in paths:
        if "blas" not in os.path.basename(path).lower():
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = restype and getattr(ctypes, restype)
                function.argtypes = [getattr(ctypes, argtype) for argtype in argtypes]
                return function
    return None


@functools.lru_cache(maxsize=None)
def blas_core() -> str | None:
    """The kernel OpenBLAS runs on this CPU (SkylakeX, Haswell, ...), or None."""
    corename = _openblas("get_corename", "c_char_p")
    return None if corename is None else corename().decode()


@functools.cache  # once per process
def one_blas_thread() -> int | None:
    """Run OpenBLAS on one thread, since it splits a long dot or matrix product among
    its threads and the sum's bits follow their count; the count then, or None."""
    set_threads = _openblas("set_num_threads", None, "c_int")
    if set_threads is None:
        return None
    set_threads(1)
    return _openblas("get_num_threads")()


def run_environment() -> dict:
    """numpy's version, the BLAS numpy was built against, the kernel it runs,
    the BLAS thread variables (null where unset) and the thread count OpenBLAS
    ran on: what a run's bits and speed depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": blas_core(),
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "blas_threads": one_blas_thread(),
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
