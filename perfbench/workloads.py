"""The benchmark's four workloads: generated inputs and one pass of calls.

Every workload drives loora through its public entry points only:
``loora.cli.main([...])`` in-process for the CLI workloads and the public
``loora.oracle`` functions for the exact-variance workload. The program sees
only the generated inputs (``--pop-seed``/``--seed`` values and a CSV file).

A pass is the workload's fixed list of calls; the next pass starts when the
previous one returns (one client, closed loop).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("study-small", "study-large", "exact-large", "ingest")
# Calibration kernel whose mix matches each workload's (see calibrate.py).
CALIBRATION = {
    "study-small": "interpreter",
    "study-large": "interpreter",
    "exact-large": "blas",
    "ingest": "interpreter",
}

# Sizes keep one pass near half a second on a 2-core x86-64 host, so a run of
# run_seconds holds well over twenty passes and op_tail_s is a real tail.
SMALL_N, SMALL_K, SMALL_REPS = 120, 10, 100
ENUM_N, ENUM_K, ENUM_NT = 11, 3, 5
LARGE_N, LARGE_K, LARGE_REPS = 5000, 5, 70
EXACT_N, EXACT_K = 1024, 5
INGEST_ROWS, INGEST_LEVELS = 30_000, 20
INGEST_COVARIATES = ("x1", "x2", "x3", "x4")


@dataclass(frozen=True)
class Call:
    """One program call of a pass, with what its records must contain."""

    label: str
    argv: tuple[str, ...]
    out: str
    n: int
    reps: int = 1  # replicates per study record (assignments when enumerating)
    methods: tuple[str, ...] = ()


@dataclass
class Inputs:
    """Everything a pass needs, built during set-up."""

    name: str
    seed: int
    calls: list[Call] = field(default_factory=list)
    exact: tuple | None = None  # (population, n_t, lambda_dm, p, lambda_ht)


@dataclass
class PassOutput:
    """What one pass left behind, read back after the timed part."""

    failures: list[str]
    records: dict[str, list[dict]]  # call label -> parsed records
    raw: dict[str, bytes]  # call label -> bytes written
    estimates: int  # (assignment, method) evaluations completed
    rows: int  # unit rows entering those evaluations


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent 31-bit program seeds, all drawn from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) % 2**31 for s in state]


def ingest_csv_path(workdir: str) -> str:
    return os.path.join(workdir, "observed.csv")


def prepare(name: str, seed: int, workdir: str) -> None:
    """Benchmark-side data generation; not part of the program's set-up."""
    os.makedirs(workdir, exist_ok=True)
    if name == "ingest":
        write_ingest_csv(ingest_csv_path(workdir), seed)


def write_ingest_csv(path: str, seed: int, rows: int = INGEST_ROWS, binary_d: bool = True) -> None:
    """Observed-mode CSV: 4 numeric covariates, one 20-level category, y and d.

    Exactly half the rows are treated, so the same file serves the complete
    design (n_t = rows / 2) and simple assignment at p = 1/2. binary_d=False
    writes a d column the program must refuse (exit 2).
    """
    rng = np.random.default_rng(derived_seeds(seed, 1)[0])
    x = rng.standard_normal((rows, len(INGEST_COVARIATES)))
    level = rng.integers(0, INGEST_LEVELS, rows)
    level[:INGEST_LEVELS] = np.arange(INGEST_LEVELS)  # every level appears
    d = np.zeros(rows, dtype=np.int64)
    d[rng.permutation(rows)[: rows // 2]] = 1
    level_effect = rng.standard_normal(INGEST_LEVELS)
    y = (
        x @ rng.standard_normal(x.shape[1])
        + level_effect[level]
        + d * (1.0 + 0.5 * x[:, 0])
        + rng.standard_normal(rows)
    )
    if not binary_d:
        d[0] = 2
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(INGEST_COVARIATES) + ",grp,y,d\n")
        for xi, gi, yi, di in zip(x.tolist(), level.tolist(), y.tolist(), d.tolist()):
            handle.write(f"{xi[0]!r},{xi[1]!r},{xi[2]!r},{xi[3]!r},g{gi:02d},{yi!r},{di}\n")


def _simulate(label, workdir, n, reps, methods, synth, k, pop_seed, seed, design):
    out = os.path.join(workdir, f"{label}.jsonl")
    argv = (
        "simulate", "--synth", synth, "--n", str(n), "--k", str(k),
        "--pop-seed", str(pop_seed), *design, "--methods", ",".join(methods),
        "--reps", "enumerate" if reps is None else str(reps), "--seed", str(seed),
        "--threads", "1", "--out", out,
    )
    enum_reps = math.comb(n, int(design[-1])) if reps is None else reps
    return Call(label, argv, out, n, enum_reps, tuple(methods))


def _estimate(label, workdir, csv_path, design, method):
    out = os.path.join(workdir, f"{label}.jsonl")
    argv = (
        "estimate", "--data", csv_path, "--covariates", ",".join(INGEST_COVARIATES),
        "--categorical", "grp", "--drop-first", "--y-col", "y", "--d-col", "d",
        *design, "--method", method, "--out", out,
    )
    return Call(label, argv, out, INGEST_ROWS, 1, (method,))


def setup(name: str, seed: int, workdir: str) -> Inputs:
    """The program's set-up: import loora and build what the first pass needs.

    This is what setup_s measures, from a fresh interpreter.
    """
    import loora.cli  # noqa: F401  (the program's import is part of set-up)

    inputs = Inputs(name, seed)
    if name == "study-small":
        pop_a, pop_c, s_a, s_b, s_c = derived_seeds(seed, 5)
        common = ("binary-outcome", SMALL_K, pop_a)
        inputs.calls = [
            _simulate("a", workdir, SMALL_N, SMALL_REPS, ("DM", "ADJ", "INT", "RIDGE_REG", "LOORA_DM"),
                      *common, s_a, ("--design", "complete", "--nt", str(SMALL_N // 2))),
            _simulate("b", workdir, SMALL_N, SMALL_REPS, ("HT", "LOORA_HT"),
                      *common, s_b, ("--design", "simple-covariate-correlated")),
            _simulate("c", workdir, ENUM_N, None, ("DM", "LOORA_DM"),
                      "linear-heterogeneous", ENUM_K, pop_c, s_c,
                      ("--design", "complete", "--nt", str(ENUM_NT))),
        ]
    elif name == "study-large":
        pop, s_ht, s_dm = derived_seeds(seed, 3)
        common = ("linear-heterogeneous", LARGE_K, pop)
        inputs.calls = [
            _simulate("ht", workdir, LARGE_N, LARGE_REPS, ("LOORA_HT",), *common, s_ht,
                      ("--design", "simple-half")),
            _simulate("dm", workdir, LARGE_N, LARGE_REPS, ("LOORA_DM",), *common, s_dm,
                      ("--design", "complete", "--nt", str(LARGE_N // 2))),
        ]
    elif name == "exact-large":
        from loora.estimators import LambdaRule
        from loora.simulation import synth_population

        pop = synth_population("linear-heterogeneous", EXACT_N, EXACT_K, derived_seeds(seed, 1)[0])
        p = np.full(EXACT_N, 0.5)
        rule = LambdaRule.auto(2.0)
        lam_dm = rule.resolve(pop.x)
        lam_ht = rule.resolve(pop.x / np.sqrt(p * (1.0 - p))[:, None])
        inputs.exact = (pop, EXACT_N // 2, lam_dm, p, lam_ht)
    elif name == "ingest":
        csv_path = ingest_csv_path(workdir)
        inputs.calls = [
            _estimate("dm", workdir, csv_path, ("--design", "complete", "--nt", str(INGEST_ROWS // 2)),
                      "LOORA_DM"),
            _estimate("ht", workdir, csv_path, ("--design", "simple", "--p", "0.5"), "LOORA_HT"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return inputs


def clear_outputs(inputs: Inputs) -> None:
    """Remove the previous pass's records so a failed call cannot reuse them."""
    for call in inputs.calls:
        for path in (call.out, call.out + ".manifest.json"):
            if os.path.exists(path):
                os.remove(path)


def run_pass(inputs: Inputs):
    """The timed op: one pass over the workload's calls. Returns raw results."""
    if inputs.exact is not None:
        from loora import oracle

        pop, n_t, lam_dm, p, lam_ht = inputs.exact
        results = []
        for label, args in (("loora_dm_variance", (pop, n_t, lam_dm)),
                            ("loora_ht_variance", (pop, p, lam_ht))):
            try:
                results.append((label, getattr(oracle, label)(*args)))
            except Exception as exc:  # the program failed: a failed op, not ours
                results.append((label, f"{type(exc).__name__}: {exc}"))
        return results
    from loora import cli

    results = []
    for call in inputs.calls:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except Exception as exc:  # the program crashed: a failed op, not ours
                code = f"{type(exc).__name__}: {exc}"
        results.append((call.label, code, err.getvalue().strip()))
    return results


def collect(inputs: Inputs, results) -> PassOutput:
    """Read back what a pass wrote and count program-reported failures."""
    out = PassOutput(failures=[], records={}, raw={}, estimates=0, rows=0)
    if inputs.exact is not None:
        for label, value in results:
            if isinstance(value, str):
                out.failures.append(f"{label} raised {value}")
                continue
            record = {"quantity": label, "value": value}
            out.records[label] = [record]
            out.raw[label] = json.dumps(record).encode()
            if math.isfinite(value):
                out.estimates += 1
                out.rows += inputs.exact[0].n
        return out
    from loora.reporting import read_records

    for call, (label, code, stderr) in zip(inputs.calls, results):
        if code != 0:
            out.failures.append(f"call {label} exited {code}: {stderr}")
            continue
        with open(call.out, "rb") as handle:
            out.raw[label] = handle.read()
        records = read_records(call.out)
        out.records[label] = records
        for record in records:
            used = record.get("reps_used", 1)
            out.estimates += used
            out.rows += used * call.n
            if record.get("failed", 0):
                out.failures.append(
                    f"call {label} {record['method']}: {record['failed']} replicates failed"
                )
    return out
