"""Command-line interface: estimate on observed data, simulate, verify.

Exit codes: 0 success, 1 failed verification checks, 2 schema or
configuration errors, 3 numeric errors (singular leverage, rank deficiency,
enumeration guards, non-finite results), each with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import functools
import math
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
from .design import DESIGN_CHOICES, SYNTH_KINDS, CompleteDesign, SimpleDesign
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
from .reporting import config_hash, format_table, manifest_path, run_environment, write_records
from .reporting import one_blas_thread

CONFIG_SCHEMA_VERSION = 1

_NUMERIC_ERRORS = (LeverageSingular, RankDeficient, NonFinite, TooLarge, ParameterOutOfRange)


def parse_lambda(text: str) -> LambdaRule:
    """Parse 'fixed:<value>' or 'auto:<c>' into a penalty rule."""
    kind, sep, value = str(text).partition(":")
    if not sep:
        raise SchemaError(f"lambda rule must look like fixed:<v> or auto:<c>, got {text!r}")
    if kind not in ("fixed", "auto"):
        raise SchemaError(f"lambda rule kind must be fixed or auto, got {kind!r}")
    try:
        number = float(value)
    except ValueError as exc:
        raise SchemaError(f"lambda rule value {value!r} is not a number") from exc
    if not (math.isfinite(number) and number >= 0.0):
        raise SchemaError(f"lambda must be finite and nonnegative, got {text!r}")
    return LambdaRule(kind, number)


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


_EXPECTED = {int: "an integer", float: "a number", os.fspath: "a file path"}


def _as(kind, key, value):
    """kind(value) for a kind in _EXPECTED; a SchemaError naming the key if it fails.

    A bool is never a number, an int takes a float only if it is integral, and
    a path is never an int (os.fspath refuses one).
    """
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fraction):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")


# Each converter takes (key, value) and returns the typed setting or raises a
# SchemaError naming the key; a flag's value reaches it as the string typed.
_int, _float, _path = (functools.partial(_as, kind) for kind in _EXPECTED)


def _fraction(key, value):
    """A number strictly between 0 and 1: a confidence level or a probability."""
    number = _float(key, value)
    if not 0.0 < number < 1.0:
        raise SchemaError(f"{key} must lie in (0, 1), got {number}")
    return number


def _given(key, value):
    """The value as given: a column name or the delimiter, which build_dataset checks."""
    return value


def _switch(key, value):
    """An on/off setting: the flag, or a YAML boolean in the config."""
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    return value


def _names(key, value):
    """A comma-separated string or a list of names, as a list."""
    if isinstance(value, str):
        return [t.strip() for t in value.split(",") if t.strip()]
    if isinstance(value, (list, tuple)):
        return [str(t) for t in value]
    raise SchemaError(f"{key} must be a comma-separated string or a list, got {value!r}")


def _methods(key, value):
    return tuple(_method(key, name) for name in _names(key, value))


def _lambda(key, value):
    return parse_lambda(value)


def _reps(key, value):
    return value if value == "enumerate" else _int(key, value)


def _one_of(*choices):
    """A converter to the choice equal to the value: a string, or a Method."""

    def convert(key, value):
        for choice in choices:
            if value == choice:
                return choice
        raise SchemaError(f"{key} must be one of {', '.join(choices)}, got {value!r}")

    convert.choices = choices
    return convert


_method = _one_of(*Method)


# A config-readable option. Its key is both the long flag without its dashes and
# the config key; its default passes through the converter too, and a default of
# None leaves the option unset.
Option = collections.namedtuple("Option", "key convert default help", defaults=(None, None))


# Each command's options: the shared rows, then its own. Every seed option starts
# from _SEED.
_SEED = 0
_SHARED_OPTIONS = (
    Option("data", _path, help="observed-mode (estimate) or population-mode CSV"),
    Option("delimiter", _given, ","),
    Option("no-header", _switch, False),
    Option("covariates", _names, "", "comma-separated numeric covariate columns"),
    Option("categorical", _names, "", "comma-separated categorical columns (one-hot)"),
    Option("drop-first", _switch, False),
    Option("nt", _int, help="treated count (complete design)"),
    Option("lambda", _lambda, "auto:2", "fixed:<v> or auto:<c>"),
    Option("level", _fraction, 0.95),
    Option("out", _path, help="machine-readable report path (JSON lines)"),
    Option("allow-design-mismatch", _switch, False),
)
_ESTIMATE_OPTIONS = _SHARED_OPTIONS + (
    Option("y-col", _given),
    Option("d-col", _given),
    Option("p-col", _given),
    Option("design", _one_of("simple", "complete")),
    Option("p", _fraction, help="shared treatment probability (simple design)"),
    Option("method", _method, Method.LOORA_HT),
)
_SIMULATE_OPTIONS = _SHARED_OPTIONS + (
    Option("y1-col", _given),
    Option("y0-col", _given),
    Option("synth", _one_of(*SYNTH_KINDS)),
    Option("n", _int, 100),
    Option("k", _int, 5),
    Option("pop-seed", _int, _SEED),
    Option("design", _one_of(*DESIGN_CHOICES), "simple-half"),
    Option("methods", _methods, Method.LOORA_HT, "comma-separated method names"),
    Option("reps", _reps, 10000, "replicate count or 'enumerate'"),
    Option("seed", _int, _SEED),
)


def resolve(args) -> dict:
    """The run's typed settings, one per option of its command: the flag if given,
    else the --config value, else the default, through the option's converter.

    A YAML null leaves the option unset; an unset option without a default is None.
    """
    config = load_config(args.config, {o.key for o in args.options}) if args.config else {}
    settings = {}
    for option in args.options:
        value = getattr(args, option.key.replace("-", "_"))
        if value is None:
            value = config.get(option.key)
        if value is None:
            value = option.default
        settings[option.key] = None if value is None else option.convert(option.key, value)
    return settings


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


def _usage(field: str):
    return None if resource is None else getattr(resource.getrusage(resource.RUSAGE_SELF), field)


def _emit(records, command, settings, seed, started, stages, faults) -> None:
    """Write the records to --out and their manifest; ``stages`` gains the write's own time.

    The config hash digests the command and every typed setting but --out.
    """
    hashed = dict(settings)
    out_path = hashed.pop("out")
    if not out_path:
        return
    try:
        writing = time.perf_counter()
        write_records(out_path, records)
        stages = {**stages, "write_s": time.perf_counter() - writing}
        manifest = {
            "record_type": "run_manifest",
            "command": command,
            "config_hash": config_hash({"command": command, **hashed}),
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.monotonic() - started,
            "outputs": [out_path],
            "environment": run_environment(),
            "stages": stages,
            "minor_faults": None if faults is None else _usage("ru_minflt") - faults,
            "max_rss_mb": None if resource is None else _usage("ru_maxrss") / 1024,  # KiB on Linux
        }
        write_records(manifest_path(out_path), [manifest])
    except OSError as exc:  # the records file or its manifest sidecar
        raise _cannot_write(exc) from None


def _print_table(columns, records) -> None:
    """The records as a stdout table, one (header, record key, format spec) per column."""
    rows = [[format(record[key], spec) for _, key, spec in columns] for record in records]
    print(format_table([header for header, _, _ in columns], rows))


def _dataset(settings, *roles):
    """The --data CSV read with the shared column options and the command's role columns."""
    keys = ("covariates", "categorical", "delimiter", "drop-first", *roles)
    return build_dataset(
        settings["data"],
        has_header=not settings["no-header"],
        **{key.replace("-", "_"): settings[key] for key in keys},
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


def cmd_estimate(args, settings) -> int:
    started, faults = time.monotonic(), _usage("ru_minflt")
    _check_writable(settings["out"])
    if settings["data"] is None:
        raise SchemaError("estimate needs --data <csv>")
    reading = time.perf_counter()
    dataset = _dataset(settings, "y-col", "d-col", "p-col")
    planning = time.perf_counter()

    design = settings["design"]
    if design == "simple":
        if dataset.p is not None:
            p = dataset.p
        elif settings["p"] is None:
            raise SchemaError("simple design needs --p <value> or --p-col <column>")
        else:
            p = np.full(dataset.n, settings["p"])
        spec = SimpleDesign(p)
    elif design == "complete":
        if settings["nt"] is None:
            raise SchemaError("complete design needs --nt <count>")
        spec = CompleteDesign(dataset.n, settings["nt"])
        if int(dataset.d.sum()) != spec.n_t:
            raise SchemaError(
                f"dataset treats {int(dataset.d.sum())} units but --nt is {spec.n_t}"
            )
    else:
        raise SchemaError("estimate needs --design simple or --design complete")

    allow_design_mismatch = settings["allow-design-mismatch"]
    if allow_design_mismatch and isinstance(spec, SimpleDesign):
        print(
            "warning: applying a fixed-count method under simple assignment; "
            "using the realized treated count",
            file=sys.stderr,
        )
    plan = plan_estimate(
        settings["method"], dataset.x, spec, settings["lambda"], settings["level"],
        allow_design_mismatch,
    )
    evaluating = time.perf_counter()
    fields = dataclasses.asdict(plan.evaluate(dataset.d, dataset.y))
    stages = {
        "read_s": planning - reading,
        "plan_s": evaluating - planning,
        "evaluate_s": time.perf_counter() - evaluating,
    }
    record = {
        "record_type": "estimate",
        "method": fields.pop("method").value,
        "n": dataset.n,
        "design": design,
        **fields,
    }
    _print_table(_ESTIMATE_COLUMNS, [record])
    _emit([record], args.command, settings, None, started, stages, faults)
    return 0


def cmd_simulate(args, settings) -> int:
    from .oracle import Population  # only a study loads the oracle and simulation modules
    from .simulation import StudyConfig, run_study, synth_population

    started, faults = time.monotonic(), _usage("ru_minflt")
    _check_writable(settings["out"])
    if settings["data"] is not None:
        dataset = _dataset(settings, "y1-col", "y0-col")
        pop = Population(dataset.x, dataset.y1, dataset.y0)
    elif settings["synth"] is None:
        raise SchemaError("simulate needs --data <csv> or --synth <kind>")
    else:
        pop = synth_population(*(settings[key] for key in ("synth", "n", "k", "pop-seed")))

    keys = ("design", "methods", "reps", "level", "seed", "nt", "lambda", "allow-design-mismatch")
    cfg = StudyConfig(*(settings[key] for key in keys))  # StudyConfig's fields, in order
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
    _emit(records, args.command, settings, cfg.seed, started, report.stages, faults)
    return 0


def cmd_verify(args, settings) -> int:
    from .verify import CHECKS, run_checks  # only verify loads the certification suites

    check = _one_of(*CHECKS)
    results = run_checks([check("check", name) for name in args.check or CHECKS], args.seed)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed &= result.passed
        print(
            f"{status} {result.name}: worst discrepancy {result.worst:.3e} "
            f"(tolerance {result.tolerance:.3e}; {result.detail})"
        )
    return 0 if all_passed else 1


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loora",
        description="Design-based ATE estimation with leave-one-out ridge adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, options, help in (
        ("estimate", cmd_estimate, _ESTIMATE_OPTIONS, "estimate an ATE from an observed-mode CSV"),
        ("simulate", cmd_simulate, _SIMULATE_OPTIONS, "run a Monte Carlo study over a population"),
    ):
        # Every option but --config is a string or an on/off switch here;
        # resolve converts it with the --config value and the default.
        command = commands[name] = sub.add_parser(name, help=help)
        command.add_argument("--config", help="YAML config file (flags override it)")
        for option in options:
            kind = {"action": "store_const", "const": True} if option.convert is _switch else {}
            if hasattr(option.convert, "choices"):  # listed in --help as argparse lists them
                kind["metavar"] = "{" + ",".join(option.convert.choices) + "}"
            command.add_argument(f"--{option.key}", help=option.help, **kind)
        command.set_defaults(func=func, options=options)
    commands["simulate"].add_argument(
        "--threads", type=int, help="accepted for compatibility; has no effect"
    )

    ver = sub.add_parser("verify", help="run certification suites")
    ver.add_argument(
        "--check",
        action="append",
        help="run a single named check (repeatable); default runs every check",
    )
    ver.add_argument("--seed", type=int, default=_SEED)
    ver.set_defaults(func=cmd_verify, options=(), config=None)
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
    one_blas_thread()
    args = build_parser().parse_args(argv)
    settings = {}
    try:
        settings = resolve(args)
        return args.func(args, settings)
    except _NUMERIC_ERRORS as exc:
        message = f"numeric error: {exc}"
        if isinstance(exc, RankDeficient) and settings.get("categorical"):
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
