"""Command-line interface: estimate on observed data, simulate, verify.

Exit codes: 0 success, 1 failed verification checks, 2 schema or
configuration errors, 3 numeric errors (singular leverage, rank deficiency,
enumeration guards, non-finite results), each with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import os
import sys
import time

try:
    import resource
except ImportError:  # Windows has none
    resource = None

import numpy as np

from . import __version__
from .dataset import _utf8_error, build_dataset
from .design import CompleteDesign, SimpleDesign
from .estimators import LambdaRule, Method
from .exceptions import (
    LeverageSingular,
    LooraError,
    NonFinite,
    ParameterOutOfRange,
    RankDeficient,
    SchemaError,
    TooLarge,
)
from .inference import plan_estimate
from .oracle import Population
from .reporting import config_hash, format_table, manifest_path, run_environment, write_records
from .simulation import DESIGN_CHOICES, SYNTH_KINDS, StudyConfig, run_study, synth_population
from .verify import CHECKS, run_checks

CONFIG_SCHEMA_VERSION = 1

_NUMERIC_ERRORS = (LeverageSingular, RankDeficient, NonFinite, TooLarge, ParameterOutOfRange)


def parse_lambda(text: str) -> LambdaRule:
    """Parse 'fixed:<value>' or 'auto:<c>' into a penalty rule."""
    kind, sep, value = str(text).partition(":")
    if not sep:
        raise SchemaError(f"lambda rule must look like fixed:<v> or auto:<c>, got {text!r}")
    try:
        number = float(value)
    except ValueError as exc:
        raise SchemaError(f"lambda rule value {value!r} is not a number") from exc
    if kind == "fixed":
        return LambdaRule.fixed(number)
    if kind == "auto":
        return LambdaRule.auto(number)
    raise SchemaError(f"lambda rule kind must be fixed or auto, got {kind!r}")


def load_config(path, keys) -> dict:
    """The settings of a YAML config file whose keys, but schema_version, all lie in keys."""
    import yaml  # only a run with --config pays for the import
    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {_utf8_error(path, exc)}") from None
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: config must be a mapping")
    version = data.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    for key in data:
        if key != "schema_version" and key not in keys:
            raise SchemaError(
                f"{path}: unknown key {key!r}; a config takes the command's long options "
                "but --config and --threads, spelled as on the command line"
            )
    return data


def _setting(args, config, key):
    """Flag value if given, else config-file value, else the command's default (args.defaults)."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return args.defaults.get(key)


_EXPECTED = {
    int: "an integer",
    float: "a number",
    Method: "one of " + ", ".join(m.value for m in Method),
    os.fspath: "a file path",
}


def _as(kind, key, value):
    """kind(value) for a kind in _EXPECTED; a SchemaError naming the key if it fails.

    A bool is never a number, and an int takes a float only if it is integral.
    """
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fraction):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")


def _typed_setting(args, config, key, kind):
    """_setting converted by _as; None stays None."""
    value = _setting(args, config, key)
    return None if value is None else _as(kind, key, value)


def _flag(args, config, key):
    """An on/off setting: the flag, or a YAML boolean in the config."""
    value = _setting(args, config, key)
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    return value


def _names(args, config, key):
    """A setting given as a comma-separated string or a list of names."""
    value = _setting(args, config, key)
    if value is None or isinstance(value, str):  # an empty YAML value lists no names
        return [t.strip() for t in (value or "").split(",") if t.strip()]
    if isinstance(value, (list, tuple)):
        return [str(t) for t in value]
    raise SchemaError(f"{key} must be a comma-separated string or a list, got {value!r}")


def _cannot_write(exc: OSError) -> SchemaError:
    return SchemaError(f"{exc.filename}: cannot write: {exc.strerror or exc}")


def _check_writable(out_path) -> None:
    """Fail now if --out or its manifest sidecar cannot be written, before any work.

    Each file is opened for appending, which truncates nothing, and a file
    this check creates is removed again.
    """
    if not out_path:
        return
    for path in (out_path, manifest_path(out_path)):
        existed = os.path.lexists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise _cannot_write(exc) from None
        if not existed:
            os.remove(path)


def _minor_faults() -> int | None:
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _emit(out_path, records, args, config, seed, started, stages, faults) -> None:
    """Write the records and their manifest; ``stages`` gains the write's own time.

    The config hash digests the command and every option but --out as _setting
    resolves it.
    """
    if not out_path:
        return
    settings = {key: _setting(args, config, key) for key in args.config_keys - {"out"}}
    try:
        writing = time.perf_counter()
        write_records(out_path, records)
        stages = {**stages, "write_s": time.perf_counter() - writing}
        manifest = {
            "record_type": "run_manifest",
            "command": args.command,
            "config_hash": config_hash({"command": args.command, **settings}),
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.monotonic() - started,
            "outputs": [out_path],
            "environment": run_environment(),
            "stages": stages,
            "minor_faults": None if faults is None else _minor_faults() - faults,
        }
        write_records(manifest_path(out_path), [manifest])
    except OSError as exc:  # the records file or its manifest sidecar
        raise _cannot_write(exc) from None


def _print_table(columns, records) -> None:
    """The records as a stdout table, one (header, record key, format spec) per column."""
    rows = [[format(record[key], spec) for _, key, spec in columns] for record in records]
    print(format_table([header for header, _, _ in columns], rows))


def _dataset(args, config, data, *roles):
    """The data CSV read with the shared column options and the command's role columns."""
    return build_dataset(
        data,
        covariates=_names(args, config, "covariates"),
        categorical=_names(args, config, "categorical"),
        delimiter=_setting(args, config, "delimiter"),
        has_header=not _flag(args, config, "no-header"),
        drop_first=_flag(args, config, "drop-first"),
        **{role.replace("-", "_"): _setting(args, config, role) for role in roles},
    )


# Each command's stdout table: (header, record key, format spec) per column.
_ESTIMATE_COLUMNS = (
    ("Method", "method", ""),
    ("Estimate", "tau_hat", ".6g"),
    ("Variance", "var_hat", ".6g"),
    ("CI low", "ci_low", ".6g"),
    ("CI high", "ci_high", ".6g"),
    ("Level", "level", "g"),
    ("Lambda", "lambda_used", ".6g"),
)
_SIMULATE_COLUMNS = (
    ("Method", "method", ""),
    ("Bias", "bias", ".6f"),
    ("STD", "std", ".6f"),
    ("RMSE", "rmse", ".6f"),
    ("CI coverage", "coverage", ".4f"),
    ("CI average length", "avg_ci_length", ".4f"),
)


def cmd_estimate(args, config) -> int:
    started, faults = time.monotonic(), _minor_faults()
    out = _typed_setting(args, config, "out", os.fspath)
    _check_writable(out)
    data = _typed_setting(args, config, "data", os.fspath)
    if data is None:
        raise SchemaError("estimate needs --data <csv>")
    reading = time.perf_counter()
    dataset = _dataset(args, config, data, "y-col", "d-col", "p-col")
    estimating = time.perf_counter()

    design = _setting(args, config, "design")
    if design == "simple":
        if dataset.p is not None:
            p = dataset.p
        else:
            p_value = _typed_setting(args, config, "p", float)
            if p_value is None:
                raise SchemaError("simple design needs --p <value> or --p-col <column>")
            p = np.full(dataset.n, p_value)
        spec = SimpleDesign(p)
    elif design == "complete":
        n_t = _typed_setting(args, config, "nt", int)
        if n_t is None:
            raise SchemaError("complete design needs --nt <count>")
        spec = CompleteDesign(dataset.n, n_t)
        if int(dataset.d.sum()) != spec.n_t:
            raise SchemaError(
                f"dataset treats {int(dataset.d.sum())} units but --nt is {spec.n_t}"
            )
    else:
        raise SchemaError(f"design must be simple or complete, got {design!r}")

    method = _typed_setting(args, config, "method", Method)
    rule = parse_lambda(_setting(args, config, "lambda"))
    level = _typed_setting(args, config, "level", float)
    allow_design_mismatch = _flag(args, config, "allow-design-mismatch")
    if allow_design_mismatch and isinstance(spec, SimpleDesign):
        print(
            "warning: applying a fixed-count method under simple assignment; "
            "using the realized treated count",
            file=sys.stderr,
        )
    plan = plan_estimate(method, dataset.x, spec, rule, level, allow_design_mismatch)
    fields = dataclasses.asdict(plan.evaluate(dataset.d, dataset.y))
    stages = {"read_s": estimating - reading, "estimate_s": time.perf_counter() - estimating}
    record = {
        "record_type": "estimate",
        "method": fields.pop("method").value,
        "n": dataset.n,
        "design": design,
        **fields,
    }
    _print_table(_ESTIMATE_COLUMNS, [record])
    _emit(out, [record], args, config, None, started, stages, faults)
    return 0


def cmd_simulate(args, config) -> int:
    started, faults = time.monotonic(), _minor_faults()
    out = _typed_setting(args, config, "out", os.fspath)
    _check_writable(out)
    data = _typed_setting(args, config, "data", os.fspath)
    if data is not None:
        dataset = _dataset(args, config, data, "y1-col", "y0-col")
        pop = Population(dataset.x, dataset.y1, dataset.y0)
    else:
        kind = _setting(args, config, "synth")
        if kind is None:
            raise SchemaError("simulate needs --data <csv> or --synth <kind>")
        pop = synth_population(
            kind,
            _typed_setting(args, config, "n", int),
            _typed_setting(args, config, "k", int),
            _typed_setting(args, config, "pop-seed", int),
        )

    reps_raw = _setting(args, config, "reps")
    reps = reps_raw if reps_raw == "enumerate" else _as(int, "reps", reps_raw)
    seed = _typed_setting(args, config, "seed", int)
    methods = [_as(Method, "methods", m) for m in _names(args, config, "methods")]
    cfg = StudyConfig(
        design=_setting(args, config, "design"),
        methods=tuple(methods),
        reps=reps,
        level=_typed_setting(args, config, "level", float),
        seed=seed,
        n_t=_typed_setting(args, config, "nt", int),
        lambda_rule=parse_lambda(_setting(args, config, "lambda")),
        allow_design_mismatch=_flag(args, config, "allow-design-mismatch"),
    )
    if cfg.allow_design_mismatch and cfg.design.startswith("simple"):
        print(
            "warning: fixed-count methods run under simple assignment; "
            "each replicate uses its realized treated count",
            file=sys.stderr,
        )
    report = run_study(pop, cfg)
    records = [
        {
            "record_type": "simulation",
            "design": report.design,
            **dataclasses.asdict(stats),
            "tau": report.tau,
            "level": report.level,
            "seed": report.seed,
        }
        for stats in report.stats
    ]
    print(f"design: {report.design}   reps: {report.reps}   level: {report.level}")
    _print_table(_SIMULATE_COLUMNS, records)
    _emit(out, records, args, config, seed, started, report.stages, faults)
    return 0


def cmd_verify(args, config) -> int:
    results = run_checks(args.check or CHECKS, args.seed)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed &= result.passed
        print(
            f"{status} {result.name}: worst discrepancy {result.worst:.3e} "
            f"(tolerance {result.tolerance:.3e}; {result.detail})"
        )
    return 0 if all_passed else 1


# Each command's value for an option that neither the flag nor --config gives;
# an option not listed has none (None). Every seed option starts from _SEED.
_SEED = 0
_SHARED_DEFAULTS = {
    "delimiter": ",",
    "lambda": "auto:2",
    "level": 0.95,
    **dict.fromkeys(("no-header", "drop-first", "allow-design-mismatch"), False),
}
_ESTIMATE_DEFAULTS = {**_SHARED_DEFAULTS, "method": Method.LOORA_HT.value}
_SIMULATE_DEFAULTS = {
    **_SHARED_DEFAULTS,
    "methods": _ESTIMATE_DEFAULTS["method"],
    "n": 100,
    "k": 5,
    "design": "simple-half",
    "reps": 10000,
    "pop-seed": _SEED,
    "seed": _SEED,
}


def _config_keys(parser) -> frozenset:
    """The keys a config file may carry: the parser's long options but --help, --config
    and --threads, which is accepted on the command line only and does nothing."""
    longs = {option[2:] for option in parser._option_string_actions if option.startswith("--")}
    return frozenset(longs - {"help", "config", "threads"})


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loora",
        description="Design-based ATE estimation with leave-one-out ridge adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options estimate and simulate share. Every option of both but
    # --config is read one way (_setting): the flag if given, else the
    # --config value, else the command's default.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="YAML config file (flags override it)")
    shared.add_argument("--data", help="observed-mode (estimate) or population-mode CSV")
    shared.add_argument("--delimiter")
    shared.add_argument("--no-header", action="store_const", const=True)
    shared.add_argument("--covariates", help="comma-separated numeric covariate columns")
    shared.add_argument("--categorical", help="comma-separated categorical columns (one-hot)")
    shared.add_argument("--drop-first", action="store_const", const=True)
    shared.add_argument("--nt", type=int, help="treated count (complete design)")
    shared.add_argument("--lambda", help="fixed:<v> or auto:<c>")
    shared.add_argument("--level", type=float)
    shared.add_argument("--out", help="machine-readable report path (JSON lines)")
    shared.add_argument("--allow-design-mismatch", action="store_const", const=True)

    est = sub.add_parser(
        "estimate", parents=[shared], help="estimate an ATE from an observed-mode CSV"
    )
    est.add_argument("--y-col")
    est.add_argument("--d-col")
    est.add_argument("--p-col")
    est.add_argument("--design", choices=["simple", "complete"])
    est.add_argument("--p", type=float, help="shared treatment probability (simple design)")
    est.add_argument("--method", choices=[m.value for m in Method])
    est.set_defaults(func=cmd_estimate, config_keys=_config_keys(est), defaults=_ESTIMATE_DEFAULTS)

    sim = sub.add_parser(
        "simulate", parents=[shared], help="run a Monte Carlo study over a population"
    )
    sim.add_argument("--y1-col")
    sim.add_argument("--y0-col")
    sim.add_argument("--synth", choices=SYNTH_KINDS)
    sim.add_argument("--n", type=int)
    sim.add_argument("--k", type=int)
    sim.add_argument("--pop-seed", type=int)
    sim.add_argument("--design", choices=list(DESIGN_CHOICES))
    sim.add_argument("--methods", help="comma-separated method names")
    sim.add_argument("--reps", help="replicate count or 'enumerate'")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    sim.set_defaults(func=cmd_simulate, config_keys=_config_keys(sim), defaults=_SIMULATE_DEFAULTS)

    ver = sub.add_parser("verify", help="run certification suites")
    ver.add_argument(
        "--check",
        action="append",
        choices=list(CHECKS),
        help="run a single named check (repeatable); default runs every check",
    )
    ver.add_argument("--seed", type=int, default=_SEED)
    ver.set_defaults(func=cmd_verify, defaults={})
    return parser


@functools.cache  # once per process
def keep_heap() -> None:
    """Keep freed memory in glibc's heap: trim from 64 MiB, mmap from 32 MiB.

    By default each study block's freed (B, n) arrays go back to the kernel and
    the next block faults them in again. Setting either threshold turns off
    glibc's dynamic ones, so both are set. Records keep their bits."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (not glibc), or no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    keep_heap()
    args = build_parser().parse_args(argv)
    config = {}
    try:
        if getattr(args, "config", None):
            config = load_config(args.config, args.config_keys)
        return args.func(args, config)
    except _NUMERIC_ERRORS as exc:
        message = f"numeric error: {exc}"
        if isinstance(exc, RankDeficient) and _setting(args, config, "categorical"):
            message += (
                " (one-hot expanded columns are exactly collinear at lambda = 0; "
                "consider --drop-first or a positive penalty)"
            )
        print(message, file=sys.stderr)
        return 3
    except LooraError as exc:  # every other error is a schema or configuration error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
