"""Command-line interface: estimate on observed data, simulate, verify.

Exit codes: 0 success, 1 failed verification checks, 2 schema or
configuration errors, 3 numeric errors (singular leverage, rank deficiency,
enumeration guards, non-finite results), each with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .dataset import _utf8_error, build_dataset
from .design import Assignment, CompleteDesign, SimpleDesign
from .estimators import LambdaRule, Method, ObservedSample
from .exceptions import (
    LeverageSingular,
    LooraError,
    NonFinite,
    ParameterOutOfRange,
    RankDeficient,
    SchemaError,
    TooLarge,
)
from .inference import estimate_with_ci
from .oracle import Population
from .reporting import (
    RunManifest,
    config_hash,
    format_table,
    manifest_path,
    run_environment,
    write_manifest,
    write_records,
)
from .simulation import DESIGN_CHOICES, StudyConfig, run_study, synth_population
from .verify import CHECKS, CORE_CHECKS, run_checks

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
                "but --config, spelled as on the command line"
            )
    return data


def _setting(args, config, key, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


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


def _typed_setting(args, config, key, kind, default=None):
    """_setting converted by _as; None stays None."""
    value = _setting(args, config, key, default)
    return None if value is None else _as(kind, key, value)


def _flag(args, config, key):
    """An on/off setting: the flag, or a YAML boolean in the config."""
    value = _setting(args, config, key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    return value


def _check_threads(value) -> None:
    """Validate the thread count, which studies accept for compatibility and do not use."""
    if value is not None:
        _as(int, "threads", value)
    elif os.environ.get("LOORA_THREADS"):
        _as(int, "LOORA_THREADS", os.environ["LOORA_THREADS"])


def _names(args, config, key, default=""):
    """A setting given as a comma-separated string or a list of names."""
    value = _setting(args, config, key, default)
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


def _emit(out_path, records, command, cfg_dict, seed, started, stages=None) -> None:
    """Write the records and their manifest; ``stages`` gains the write's own time."""
    if not out_path:
        return
    try:
        writing = time.perf_counter()
        write_records(out_path, records)
        if stages is not None:
            stages = {**stages, "write_s": time.perf_counter() - writing}
        manifest = RunManifest(
            command=command,
            config_hash=config_hash(cfg_dict),
            seed=seed,
            version=__version__,
            wall_time_s=time.monotonic() - started,
            outputs=(out_path,),
            environment=run_environment(),
            stages=stages,
        )
        write_manifest(out_path, manifest)
    except OSError as exc:  # the records file or its manifest sidecar
        raise _cannot_write(exc) from None


def _dataset(args, config, data, *roles):
    """The data CSV read with the shared column options and the command's role columns."""
    return build_dataset(
        data,
        covariates=_names(args, config, "covariates"),
        categorical=_names(args, config, "categorical"),
        delimiter=_setting(args, config, "delimiter", ","),
        has_header=not _flag(args, config, "no-header"),
        drop_first=_flag(args, config, "drop-first"),
        **{role.replace("-", "_"): _setting(args, config, role) for role in roles},
    )


def cmd_estimate(args, config) -> int:
    started = time.monotonic()
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

    sample = ObservedSample(dataset.x, dataset.y, Assignment.from_d(dataset.d), spec)

    method = _typed_setting(args, config, "method", Method, "LOORA_HT")
    rule = parse_lambda(_setting(args, config, "lambda", "auto:2"))
    level = _typed_setting(args, config, "level", float, 0.95)
    allow_design_mismatch = _flag(args, config, "allow-design-mismatch")
    if allow_design_mismatch and isinstance(spec, SimpleDesign):
        print(
            "warning: applying a fixed-count method under simple assignment; "
            "using the realized treated count",
            file=sys.stderr,
        )
    report = estimate_with_ci(
        method, sample, rule, level, allow_design_mismatch=allow_design_mismatch
    )
    stages = {"read_s": estimating - reading, "estimate_s": time.perf_counter() - estimating}

    print(
        format_table(
            ["Method", "Estimate", "Variance", "CI low", "CI high", "Level", "Lambda"],
            [
                [
                    report.method.value,
                    f"{report.tau_hat:.6g}",
                    f"{report.var_hat:.6g}",
                    f"{report.ci_low:.6g}",
                    f"{report.ci_high:.6g}",
                    f"{report.level:g}",
                    f"{report.lambda_used:.6g}",
                ]
            ],
        )
    )
    cfg_dict = {
        "command": "estimate",
        "data": str(data),
        "design": design,
        "method": report.method.value,
        "level": level,
        "lambda": _setting(args, config, "lambda", "auto:2"),
    }
    record = {
        "record_type": "estimate",
        "method": report.method.value,
        "n": dataset.n,
        "design": design,
        "tau_hat": report.tau_hat,
        "var_hat": report.var_hat,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "level": report.level,
        "lambda_used": report.lambda_used,
    }
    _emit(out, [record], "estimate", cfg_dict, None, started, stages)
    return 0


def cmd_simulate(args, config) -> int:
    started = time.monotonic()
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
            _typed_setting(args, config, "n", int, 100),
            _typed_setting(args, config, "k", int, 5),
            _typed_setting(args, config, "pop-seed", int, 0),
        )

    reps_raw = _setting(args, config, "reps", 10000)
    reps = reps_raw if reps_raw == "enumerate" else _as(int, "reps", reps_raw)
    seed = _typed_setting(args, config, "seed", int, 0)
    methods = [_as(Method, "methods", m) for m in _names(args, config, "methods", "LOORA_HT")]
    cfg = StudyConfig(
        design=_setting(args, config, "design", "simple-half"),
        methods=tuple(methods),
        reps=reps,
        level=_typed_setting(args, config, "level", float, 0.95),
        seed=seed,
        n_t=_typed_setting(args, config, "nt", int),
        lambda_rule=parse_lambda(_setting(args, config, "lambda", "auto:2")),
        allow_design_mismatch=_flag(args, config, "allow-design-mismatch"),
    )
    _check_threads(_setting(args, config, "threads"))
    if cfg.allow_design_mismatch and cfg.design.startswith("simple"):
        print(
            "warning: fixed-count methods run under simple assignment; "
            "each replicate uses its realized treated count",
            file=sys.stderr,
        )
    report = run_study(pop, cfg)

    headers = ["Method", "Bias", "STD", "RMSE", "CI coverage", "CI average length"]
    rows = [
        [
            s.method,
            f"{s.bias:.6f}",
            f"{s.std:.6f}",
            f"{s.rmse:.6f}",
            f"{s.coverage:.4f}",
            f"{s.avg_ci_length:.4f}",
        ]
        for s in report.stats
    ]
    print(f"design: {report.design}   reps: {report.reps}   level: {report.level}")
    print(format_table(headers, rows))

    cfg_dict = {
        "command": "simulate",
        "design": cfg.design,
        "methods": list(cfg.methods),
        "reps": cfg.reps,
        "level": cfg.level,
        "seed": cfg.seed,
        "nt": cfg.n_t,
        "lambda": [cfg.lambda_rule.mode, cfg.lambda_rule.value],
        "allow_design_mismatch": cfg.allow_design_mismatch,
    }
    records = [
        {
            "record_type": "simulation",
            "design": report.design,
            "method": s.method,
            "bias": s.bias,
            "std": s.std,
            "rmse": s.rmse,
            "coverage": s.coverage,
            "avg_ci_length": s.avg_ci_length,
            "reps_used": s.reps_used,
            "failed": s.failed,
            "tau": report.tau,
            "level": report.level,
            "seed": report.seed,
        }
        for s in report.stats
    ]
    _emit(out, records, "simulate", cfg_dict, seed, started, report.stages)
    return 0


def cmd_verify(args, config) -> int:
    results = run_checks(args.check or CORE_CHECKS, args.seed, args.n)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed &= result.passed
        print(
            f"{status} {result.name}: worst discrepancy {result.worst:.3e} "
            f"(tolerance {result.tolerance:.3e}; {result.detail})"
        )
    return 0 if all_passed else 1


def _config_keys(parser) -> frozenset:
    """The keys a config file may carry: the parser's long options but --help and --config."""
    longs = {option[2:] for option in parser._option_string_actions if option.startswith("--")}
    return frozenset(longs - {"help", "config"})


@functools.cache  # built on first use, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loora",
        description="Design-based ATE estimation with leave-one-out ridge adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options estimate and simulate share. Every option of both but
    # --config is read one way (_setting): the flag if given, else the
    # --config value, else the default.
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
    est.set_defaults(func=cmd_estimate, config_keys=_config_keys(est))

    sim = sub.add_parser(
        "simulate", parents=[shared], help="run a Monte Carlo study over a population"
    )
    sim.add_argument("--y1-col")
    sim.add_argument("--y0-col")
    sim.add_argument("--synth", choices=["linear-heterogeneous", "leverage-stress", "binary-outcome"])
    sim.add_argument("--n", type=int)
    sim.add_argument("--k", type=int)
    sim.add_argument("--pop-seed", type=int)
    sim.add_argument("--design", choices=list(DESIGN_CHOICES))
    sim.add_argument("--methods", help="comma-separated method names")
    sim.add_argument("--reps", help="replicate count or 'enumerate'")
    sim.add_argument("--seed", type=int)
    sim.add_argument(
        "--threads", type=int, help="accepted for compatibility; has no effect (or LOORA_THREADS)"
    )
    sim.set_defaults(func=cmd_simulate, config_keys=_config_keys(sim))

    ver = sub.add_parser("verify", help="run certification suites")
    ver.add_argument(
        "--check",
        action="append",
        choices=list(CHECKS),
        help="run a single named check (repeatable); default runs the core suite",
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--n", type=int, default=5000, help="sample size for lin-equivalence")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
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
