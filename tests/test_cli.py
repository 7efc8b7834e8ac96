import hashlib
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import loora.cli
import loora.oracle
import loora.verify
from conftest import kernel_pin
from loora.cli import build_parser, main, parse_lambda
from loora.exceptions import SchemaError
from loora.reporting import blas_core, read_records
from loora.verify import check_variance_dm_exact

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_lambda():
    assert parse_lambda("fixed:0.5").mode == "fixed"
    assert parse_lambda("auto:2").value == 2.0
    for bad in ("0.5", "auto:x", "soft:1"):
        with pytest.raises(SchemaError):
            parse_lambda(bad)


_SYNTH = ("simulate", "--synth", "linear-heterogeneous", "--k", "2")
_SIM = _SYNTH + ("--n", "12", "--reps", "3")
_OBSERVED = ("estimate", "--data", str(DATA / "observed30.csv"), "--y-col", "y", "--d-col", "d")
_EST = _OBSERVED + ("--covariates", "age,score")
_HALF = ("--design", "simple", "--p", "0.5")


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (_SYNTH + ("--n", "12", "--reps", "abc"), None, "reps"),
        (_SIM, "level: high", "level"),
        (_SIM, "methods: 5", "methods"),
        (_SIM + ("--design", "complete"), "nt: many", "nt"),
        (_SIM + ("--methods", "FOO"), None, "methods"),
        # a flag's value passes through the converter a config value does
        (_SYNTH + ("--reps", "3", "--n", "x"), None, "n"),
        (_SIM + ("--design", "complete", "--nt", "1.5"), None, "nt"),
        (_SIM + ("--level", "high"), None, "level"),
        (_EST + ("--design", "simple", "--p", "high"), None, "p"),
        (_SIM + ("--design", "bogus"), None, "design"),
        (_EST + ("--p", "0.5", "--design", "bogus"), None, "design"),
        (_EST + _HALF + ("--method", "FOO"), None, "method"),
        (("simulate", "--n", "12", "--k", "2", "--reps", "3", "--synth", "bogus"), None, "synth"),
        (_SIM + ("--seed", "-1"), None, "seed"),
        (_SIM, "lambda: 2", "lambda"),
        (_EST + _HALF, "method: FOO", "method"),
        (_EST + ("--design", "complete"), "nt: many", "nt"),
        (_EST + _HALF, "level: high", "level"),
        (_OBSERVED + _HALF, "covariates: 5", "covariates"),
        (_EST + _HALF, 'drop-first: "false"', "drop-first"),
        (_EST + _HALF + ("--delimiter", ";;"), None, "delimiter"),
        (_EST + _HALF, "delimiter: 5", "delimiter"),
        (("verify", "--seed", "-1"), None, "seed"),
        # YAML floats and bools are not silently truncated to an int or read as a number
        (_SYNTH, "reps: 2.7", "reps"),
        (_SYNTH, "n: 30.9\nreps: 3", "n"),
        (_SYNTH, "reps: true", "reps"),
        (_SYNTH, "reps: .inf", "reps"),
        (_SYNTH, "n: 12\nreps: 3\nseed: true", "seed"),
        (_SYNTH, "n: 12\nreps: 3\nlevel: true", "level"),
        (_EST + ("--design", "complete"), "nt: 15.5", "nt"),
        (_EST + ("--design", "simple"), "p: true", "p"),
        # a path is never an integer, which open() would take as a file descriptor
        (_SIM, "out: 5", "out"),
        (("estimate", "--y-col", "y", "--d-col", "d") + _HALF, "data: 0", "data"),
    ],
    ids=[
        "reps-flag",
        "level-config",
        "methods-config",
        "nt-config",
        "methods-flag",
        "n-flag",
        "nt-flag",
        "level-flag",
        "p-flag",
        "design-flag",
        "estimate-design-flag",
        "method-flag",
        "synth-flag",
        "seed-flag",
        "lambda-config",
        "method-config",
        "estimate-nt-config",
        "estimate-level-config",
        "covariates-config",
        "drop-first-config",
        "delimiter-flag",
        "delimiter-config",
        "verify-seed-flag",
        "reps-float-config",
        "n-float-config",
        "reps-bool-config",
        "reps-inf-config",
        "seed-bool-config",
        "level-bool-config",
        "estimate-nt-float-config",
        "p-bool-config",
        "out-int-config",
        "data-int-config",
    ],
)
def test_malformed_option_value_is_a_schema_error_naming_the_key(
    tmp_path, capsys, argv, config, key
):
    if config is not None:
        path = tmp_path / "config.yaml"
        path.write_text(f"schema_version: 1\n{config}\n", encoding="utf-8")
        argv += ("--config", str(path))
    result = run(capsys, *argv)
    assert result[0] == 2
    assert result[2].startswith(f"error: {key} ")
    if config is None and argv[0] != "verify":
        # the flag's string given in a config fails the same way, not argparse's way
        flag, value = argv[-2:]
        assert flag == f"--{key}"
        twin = tmp_path / "twin.yaml"
        twin.write_text(yaml.safe_dump({"schema_version": 1, key: value}), encoding="utf-8")
        assert run(capsys, *argv[:-2], "--config", str(twin)) == result


def test_config_covariates_may_be_a_yaml_list(tmp_path, capsys):
    # each setting, spelled as a flag and as its config twin, gives one record and one hash
    for argv, flag, config in (
        (_OBSERVED + _HALF, ("--covariates", "age,score"), "covariates: [age, score]"),
        (_SYNTH + ("--reps", "3"), ("--n", "40"), "n: 40.0"),
        (_EST + _HALF, ("--lambda", "auto:2"), "lambda: auto:2.0"),
    ):
        cfg = tmp_path / "twin.yaml"
        cfg.write_text(f"schema_version: 1\n{config}\n", encoding="utf-8")
        reports = []
        for source in (("--config", str(cfg)), flag):
            out = tmp_path / f"{source[0][2:]}.jsonl"
            code, _, _ = run(capsys, *argv, *source, "--out", str(out))
            assert code == 0
            manifest = read_records(f"{out}.manifest.json")[0]
            reports.append((out.read_bytes(), manifest["config_hash"]))
        assert reports[0] == reports[1], flag


@pytest.mark.parametrize(
    "argv, config",
    [(_EST + _HALF, "level:\nmethod:\nlambda:"), (_SIM, "level:\nseed:\ndesign:\nmethods:")],
    ids=["estimate", "simulate"],
)
def test_an_empty_config_value_leaves_the_option_at_its_default(tmp_path, capsys, argv, config):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text(f"schema_version: 1\n{config}\n", encoding="utf-8")
    # at level, seed and method a null value once ended in a TypeError or ValueError
    runs = []
    for source in (("--config", str(cfg)), ()):
        out = tmp_path / "out.jsonl"
        result = run(capsys, *argv, *source, "--out", str(out))
        assert result[0] == 0, result
        manifest = read_records(f"{out}.manifest.json")[0]
        runs.append((result, out.read_bytes(), manifest["config_hash"]))
    assert runs[0] == runs[1]


def test_estimate_two_row_ht(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("y,d,x\n3,1,0\n1,0,0\n", encoding="utf-8")
    out = tmp_path / "report.jsonl"
    code, stdout, _ = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--covariates",
        "x",
        "--y-col",
        "y",
        "--d-col",
        "d",
        "--design",
        "simple",
        "--p",
        "0.5",
        "--method",
        "HT",
        "--out",
        str(out),
    )
    assert code == 0
    records = read_records(out)
    assert records[0]["tau_hat"] == pytest.approx(2.0)
    assert "Method" in stdout and "HT" in stdout
    manifest = read_records(str(out) + ".manifest.json")[0]
    assert manifest["record_type"] == "run_manifest"
    assert manifest["command"] == "estimate"
    assert len(manifest["config_hash"]) == 64


def test_estimate_missing_column_exits_2(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("y,x\n3,0\n1,0\n", encoding="utf-8")
    code, _, stderr = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--covariates",
        "x",
        "--y-col",
        "y",
        "--design",
        "simple",
        "--p",
        "0.5",
        "--method",
        "HT",
    )
    assert code == 2
    assert "missing column role d" in stderr


@pytest.mark.parametrize(
    "command",
    [
        ("estimate", "--y-col", "y", "--d-col", "d") + _HALF,
        ("simulate", "--y1-col", "y", "--y0-col", "d", "--reps", "3"),
    ],
    ids=["estimate", "simulate"],
)
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_data_is_a_schema_error_naming_the_path(tmp_path, capsys, command, case):
    data = tmp_path / "data.csv"
    if case == "directory":
        data.mkdir()
    elif case == "not-utf8":
        data.write_bytes(b"y,d,x\n1,0,0.5\n2,1,caf\xe9\n")
    argv = (command[0], "--data", str(data), "--covariates", "x") + command[1:]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith(f"error: {data}: ")
    if case == "not-utf8":
        assert "byte 0xe9 at offset 21" in stderr


@pytest.mark.parametrize(
    "case, reason",
    [
        ("missing", "cannot read: "),
        ("directory", "cannot read: "),
        ("not-utf8", "not UTF-8: byte 0xe9 at offset 24"),
        ("not-yaml", "not valid YAML: "),
    ],
)
def test_unreadable_config_is_a_schema_error_naming_the_path(tmp_path, capsys, case, reason):
    cfg = tmp_path / "config.yaml"
    if case == "directory":
        cfg.mkdir()
    elif case == "not-utf8":
        cfg.write_bytes(b"schema_version: 1\nn: caf\xe9\n")
    elif case == "not-yaml":
        cfg.write_text("schema_version: 1\nmethods: [HT, DM\n", encoding="utf-8")
    code, _, stderr = run(capsys, *_SIM, "--config", str(cfg))
    assert code == 2
    assert stderr.startswith(f"error: {cfg}: {reason}")


@pytest.mark.parametrize("case", ["directory", "missing-parent", "manifest-directory"])
def test_unwritable_out_is_a_schema_error_naming_the_path(tmp_path, capsys, case):
    out = tmp_path / "study.jsonl"
    unwritable = out
    if case == "directory":
        out.mkdir()
    elif case == "missing-parent":
        out = unwritable = tmp_path / "absent" / "study.jsonl"
    else:
        unwritable = tmp_path / "study.jsonl.manifest.json"
        unwritable.mkdir()
    code, _, stderr = run(capsys, *_SIM, "--out", str(out))
    assert code == 2
    assert stderr.startswith(f"error: {unwritable}: cannot write: ")


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, command):
    def must_not_run(*args, **kwargs):
        pytest.fail(f"{command} did its work before checking --out")

    monkeypatch.setattr(loora.cli, "run_study", must_not_run)
    monkeypatch.setattr(loora.cli, "build_dataset", must_not_run)
    out = tmp_path / "out.jsonl"
    out.mkdir()
    argv = _SIM if command == "simulate" else _EST + _HALF
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: {out}: cannot write: ")


def test_the_writability_check_leaves_no_file_and_keeps_existing_records(tmp_path, capsys):
    out = tmp_path / "study.jsonl"
    code, _, _ = run(capsys, *_SIM, "--methods", "FOO", "--out", str(out))
    assert code == 2
    assert sorted(tmp_path.iterdir()) == []
    out.write_text("kept\n", encoding="utf-8")
    code, _, _ = run(capsys, *_SIM, "--methods", "FOO", "--out", str(out))
    assert code == 2
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_estimate_numeric_error_exits_3_naming_row(tmp_path, capsys):
    # one dominant row at lambda 0 trips the leverage guard
    rows = ["y,d,x"]
    rows += ["1,1,100000000"] + [f"{v},{v % 2},1" for v in range(9)]
    data = tmp_path / "lev.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, stderr = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--covariates",
        "x",
        "--y-col",
        "y",
        "--d-col",
        "d",
        "--design",
        "simple",
        "--p",
        "0.5",
        "--method",
        "LOORA_HT",
        "--lambda",
        "fixed:0",
    )
    assert code == 3
    assert "row 0" in stderr


def test_estimate_golden_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "estimate",
            "--data",
            str(DATA / "observed30.csv"),
            "--covariates",
            "age,score",
            "--categorical",
            "region",
            "--y-col",
            "y",
            "--d-col",
            "d",
            "--design",
            "complete",
            "--nt",
            "15",
            "--method",
            "LOORA_DM",
            "--out",
            str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _assert_fault_count(manifest, resource):
    """minor_faults follows stages: a count where resource exists, else null."""
    assert list(manifest)[-2:] == ["stages", "minor_faults"]
    faults = manifest["minor_faults"]
    assert faults is None if resource is None else isinstance(faults, int) and faults >= 0


def _timing_free(record):
    return not [key for key in record if key.endswith("_s") or key == "minor_faults"]


def test_estimate_manifest_times_its_stages_and_records_stay_timing_free(
    tmp_path, capsys, monkeypatch
):
    outs = []
    for name, resource in (("a.jsonl", loora.cli.resource), ("b.jsonl", None)):
        monkeypatch.setattr(loora.cli, "resource", resource)
        out = tmp_path / name
        code, _, _ = run(capsys, *_EST, "--categorical", "region", *_HALF, "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
        manifest = read_records(str(out) + ".manifest.json")[0]
        stages = manifest["stages"]
        assert list(stages) == ["read_s", "estimate_s", "write_s"]
        assert all(0.0 <= value <= manifest["wall_time_s"] for value in stages.values())
        _assert_fault_count(manifest, resource)
    assert outs[0] == outs[1]
    assert _timing_free(read_records(tmp_path / "a.jsonl")[0])


def test_simulate_manifest_times_its_stages_and_records_stay_timing_free(
    tmp_path, capsys, monkeypatch
):
    outs = []
    for name, resource in (("a.jsonl", loora.cli.resource), ("b.jsonl", None)):
        monkeypatch.setattr(loora.cli, "resource", resource)
        out = tmp_path / name
        code, _, _ = run(capsys, *_SIM, "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
        manifest = read_records(str(out) + ".manifest.json")[0]
        stages = manifest["stages"]
        assert list(stages) == ["plan_s", "evaluate_s", "aggregate_s", "write_s"]
        assert all(0.0 <= value <= manifest["wall_time_s"] for value in stages.values())
        _assert_fault_count(manifest, resource)
    assert outs[0] == outs[1]
    assert all(_timing_free(record) for record in read_records(tmp_path / "a.jsonl"))


def test_manifests_carry_the_numeric_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for name, argv in (("estimate", _EST + _HALF), ("simulate", _SIM)):
        out = tmp_path / f"{name}.jsonl"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        environment = read_records(str(out) + ".manifest.json")[0]["environment"]
        assert list(environment) == ["numpy", "blas", "blas_version", "blas_core", "threads"]
        assert environment["numpy"] == np.__version__
        assert environment["blas_core"] == blas_core()
        assert environment["threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }
        assert "environment" not in read_records(out)[0]


def test_manifests_keep_their_keys_in_order(tmp_path, capsys):
    keys = ["record_type", "command", "config_hash", "seed", "version", "wall_time_s",
            "outputs", "environment", "stages", "minor_faults"]
    for name, argv in (("estimate", _EST + _HALF), ("simulate", _SIM)):
        out = tmp_path / f"{name}.jsonl"
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        manifest = read_records(str(out) + ".manifest.json")[0]
        assert list(manifest) == keys
        assert list(manifest["environment"]) == [
            "numpy", "blas", "blas_version", "blas_core", "threads"
        ]
        assert (manifest["record_type"], manifest["command"]) == ("run_manifest", name)
        assert manifest["outputs"] == [str(out)]


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _estimate_pair_csvs(tmp_path, rows=400, seed=8):
    """The same data twice: plain, and with 1_000-style cells, fullwidth digits
    and an undeclared text column, which only Python's float grammar reads."""
    rng = np.random.default_rng(seed)
    count = rng.integers(0, 100_000, rows).tolist()
    small = rng.integers(0, 100, rows).tolist()
    level = rng.integers(0, 4, rows).tolist()
    d = [i % 2 for i in range(rows)]
    y = (rng.standard_normal(rows) + np.array(d) + 1e-5 * np.array(count)).tolist()
    plain, python_only = ["x1,x2,g,y,d"], ["x1,x2,note,g,y,d"]
    for i in range(rows):
        tail = f"g{level[i]},{y[i]!r},{d[i]}"
        plain.append(f"{count[i]},{small[i]},{tail}")
        python_only.append(f"{count[i]:_},{str(small[i]).translate(_FULLWIDTH)},n{i},{tail}")
    paths = tmp_path / "plain.csv", tmp_path / "python_only.csv"
    for path, lines in zip(paths, (plain, python_only)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("method, design", [("LOORA_DM", ("--design", "complete", "--nt", "200")),
                                            ("LOORA_HT", _HALF)])
def test_estimate_reads_python_only_numbers_to_the_same_record(tmp_path, capsys, method, design):
    outs = []
    for path in _estimate_pair_csvs(tmp_path):
        out = tmp_path / f"{path.stem}.jsonl"
        code, _, _ = run(capsys, "estimate", "--data", str(path), "--covariates", "x1,x2",
                         "--categorical", "g", "--drop-first", "--y-col", "y", "--d-col", "d",
                         *design, "--method", method, "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_thread_count_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for threads, name in ((1, "t1.jsonl"), (3, "t3.jsonl")):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "simulate",
            "--data",
            str(DATA / "population12.csv"),
            "--covariates",
            "x1,x2",
            "--y1-col",
            "y1",
            "--y0-col",
            "y0",
            "--design",
            "complete",
            "--nt",
            "6",
            "--methods",
            "DM,LOORA_DM",
            "--reps",
            "400",
            "--seed",
            "21",
            "--threads",
            str(threads),
            "--out",
            str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_table_column_order(capsys, tmp_path):
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--data",
        str(DATA / "population12.csv"),
        "--covariates",
        "x1,x2",
        "--y1-col",
        "y1",
        "--y0-col",
        "y0",
        "--design",
        "complete",
        "--nt",
        "6",
        "--methods",
        "DM",
        "--reps",
        "50",
        "--seed",
        "0",
    )
    assert code == 0
    header_line = [line for line in stdout.splitlines() if line.startswith("Method")][0]
    cols = [c for c in header_line.split("  ") if c.strip()]
    assert [c.strip() for c in cols] == [
        "Method",
        "Bias",
        "STD",
        "RMSE",
        "CI coverage",
        "CI average length",
    ]


_CI_OBSERVED = ("--data", str(DATA / "observed30.csv"), "--covariates", "age,score",
               "--categorical", "region", "--drop-first", "--y-col", "y", "--d-col", "d")


def test_estimate_stdout_is_pinned_byte_for_byte(capsys):
    stdout = []
    for method, design in (("HT", _HALF), ("LOORA_HT", _HALF)) + tuple(
        (method, ("--design", "complete", "--nt", "15"))
        for method in ("DM", "LOORA_DM", "ADJ", "INT", "RIDGE_REG")
    ):
        code, out, err = run(capsys, "estimate", *_CI_OBSERVED, "--method", method, *design)
        assert (code, err) == (0, "")
        stdout.append(out)
    assert "".join(stdout) == (DATA / "estimate_observed30.stdout").read_text(encoding="utf-8")


def test_simulate_stdout_is_pinned_byte_for_byte(capsys):
    # HT and LOORA_HT fail on every replicate of a complete design: their rows read nan
    code, stdout, err = run(
        capsys, "simulate", "--synth", "binary-outcome", "--n", "60", "--k", "4",
        "--pop-seed", "3", "--design", "complete", "--nt", "30",
        "--methods", "HT,DM,ADJ,INT,RIDGE_REG,LOORA_HT,LOORA_DM", "--reps", "50", "--seed", "7",
    )
    assert (code, err) == (0, "")
    assert stdout == (DATA / "simulate_binary60.stdout").read_text(encoding="utf-8")


def test_config_hash_digests_every_option_but_out(tmp_path, capsys):
    def config_hash(argv, out="run.jsonl"):
        path = tmp_path / out
        code, _, err = run(capsys, *argv, "--out", str(path))
        assert (code, err) == (0, "")
        return read_records(f"{path}.manifest.json")[0]["config_hash"]

    estimate = _OBSERVED + ("--covariates", "age") + _HALF + ("--method", "LOORA_HT")
    simulate = _SIM
    for base, changes in (
        (estimate, [("--covariates", "age,score"), ("--categorical", "region"), ("--nt", "14"),
                    ("--p", "0.4"), ("--lambda", "auto:3")]),
        (simulate, [("--synth", "leverage-stress"), ("--n", "13"), ("--k", "3"),
                    ("--pop-seed", "1"), ("--seed", "1"), ("--reps", "4"),
                    ("--lambda", "fixed:1")]),
    ):
        first = config_hash(base)
        assert config_hash(base) == first
        assert config_hash(base, out="elsewhere.jsonl") == first
        hashes = {config_hash(base + change) for change in changes}
        assert len(hashes) == len(changes) and first not in hashes, changes


def test_simulate_enumerate_mode_loora_bias_zero(tmp_path, capsys):
    out = tmp_path / "enum.jsonl"
    code, _, _ = run(
        capsys,
        "simulate",
        "--data",
        str(DATA / "population12.csv"),
        "--covariates",
        "x1,x2",
        "--y1-col",
        "y1",
        "--y0-col",
        "y0",
        "--design",
        "complete",
        "--nt",
        "6",
        "--methods",
        "LOORA_DM",
        "--reps",
        "enumerate",
        "--out",
        str(out),
    )
    assert code == 0
    record = read_records(out)[0]
    assert abs(record["bias"]) <= 1e-11


def test_simulate_synth_population_and_env_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOORA_THREADS", "abc")  # no longer read, so not checked either
    out = tmp_path / "synth.jsonl"
    code, _, _ = run(
        capsys,
        "simulate",
        "--synth",
        "linear-heterogeneous",
        "--n",
        "20",
        "--k",
        "2",
        "--pop-seed",
        "5",
        "--design",
        "simple-half",
        "--methods",
        "HT,LOORA_HT",
        "--reps",
        "100",
        "--seed",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    assert len(read_records(out)) == 2


def test_simulate_design_mismatch_needs_flag(tmp_path, capsys):
    args = [
        "simulate",
        "--data",
        str(DATA / "population12.csv"),
        "--covariates",
        "x1,x2",
        "--y1-col",
        "y1",
        "--y0-col",
        "y0",
        "--design",
        "simple-half",
        "--methods",
        "LOORA_DM",
        "--reps",
        "40",
        "--seed",
        "2",
    ]
    code, _, _ = run(capsys, *args)
    assert code == 0  # replicates fail per-method without the flag...
    code, stdout, stderr = run(capsys, *args + ["--allow-design-mismatch"])
    assert code == 0
    assert "realized treated count" in stderr


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "study.yaml"
    cfg.write_text(
        "schema_version: 1\n"
        "design: complete\n"
        "nt: 6\n"
        "methods: [DM, LOORA_DM]\n"
        "reps: 60\n"
        "seed: 4\n"
        "lambda: auto:2\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfg.jsonl"
    code, _, _ = run(
        capsys,
        "simulate",
        "--data",
        str(DATA / "population12.csv"),
        "--covariates",
        "x1,x2",
        "--y1-col",
        "y1",
        "--y0-col",
        "y0",
        "--config",
        str(cfg),
        "--methods",
        "DM",  # flag overrides the config's method list
        "--out",
        str(out),
    )
    assert code == 0
    records = read_records(out)
    assert [r["method"] for r in records] == ["DM"]
    assert records[0]["seed"] == 4


def test_config_rejects_wrong_schema_version(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("schema_version: 2\n", encoding="utf-8")
    code, _, stderr = run(
        capsys,
        "simulate",
        "--synth",
        "linear-heterogeneous",
        "--config",
        str(cfg),
    )
    assert code == 2
    assert "schema_version" in stderr


def test_estimate_one_hot_collinearity_hints_drop_first(tmp_path, capsys):
    # two exhaustive one-hot blocks are exactly collinear; at lambda 0 the
    # benchmark regression is singular and the error suggests --drop-first
    data = tmp_path / "cat.csv"
    lines = ["y,d,g"] + [f"{i},{i % 2},{'a' if i < 3 else 'b'}" for i in range(6)]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, stderr = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--categorical",
        "g",
        "--y-col",
        "y",
        "--d-col",
        "d",
        "--design",
        "complete",
        "--nt",
        "3",
        "--method",
        "ADJ",
    )
    assert code == 3
    assert "--drop-first" in stderr


@pytest.mark.parametrize(
    "method, penalty, code",
    [("ADJ", "fixed:0", 3), ("INT", "fixed:0", 3), ("LOORA_DM", "fixed:0", 3), ("LOORA_DM", "auto:2", 0)],
)
def test_estimate_near_collinear_covariates_fail_by_one_rule(tmp_path, capsys, method, penalty, code):
    # x2 = x1 + 1e-9 noise: [1, d, x1, x2] has kappa about 2.6e9, full rank
    # to an SVD rank check but far past negligible_pivot's angle; every
    # unpenalized fit names x2's column of its design, and a penalty makes
    # the same data well posed
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal(40)
    x2 = x1 + 1e-9 * rng.standard_normal(40)
    d = np.zeros(40, dtype=int)
    d[rng.permutation(40)[:20]] = 1
    y = x1 + d + rng.standard_normal(40)
    data = tmp_path / "collinear.csv"
    rows = zip(y.tolist(), d.tolist(), x1.tolist(), x2.tolist())
    data.write_text("y,d,x1,x2\n" + "".join(f"{a!r},{b},{c!r},{e!r}\n" for a, b, c, e in rows), encoding="utf-8")
    got, _, stderr = run(
        capsys, "estimate", "--data", str(data), "--covariates", "x1,x2", "--y-col", "y", "--d-col", "d",
        "--design", "complete", "--nt", "20", "--method", method, "--lambda", penalty,
    )
    assert got == code, stderr
    if code:
        column = 1 if method == "LOORA_DM" else 2  # x2 follows the intercept in [1, X]
        assert f"numeric error: column {column} of the design is numerically a combination" in stderr


@pytest.mark.parametrize(
    "method, design",
    [
        ("HT", ("--design", "simple", "--p", "0.5")),
        ("LOORA_HT", ("--design", "simple", "--p", "0.5")),
        ("LOORA_DM", ("--design", "complete", "--nt", "15")),
    ],
)
def test_estimate_overflowing_variance_exits_3_naming_stage(tmp_path, capsys, method, design):
    lines = (DATA / "observed30.csv").read_text(encoding="utf-8").splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        y, rest = line.split(",", 1)
        rows.append(f"{float(y) * 1e200!r},{rest}")
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, stderr = run(
            capsys,
            "estimate",
            "--data",
            str(data),
            "--covariates",
            "age,score",
            "--y-col",
            "y",
            "--d-col",
            "d",
            *design,
            "--method",
            method,
        )
    assert code == 3
    assert f"{method} variance is not finite" in stderr


@pytest.mark.parametrize(
    "method, design",
    [
        ("RIDGE_REG", ("--design", "complete", "--nt", "15")),
        ("LOORA_HT", _HALF),
        ("LOORA_DM", ("--design", "complete", "--nt", "15")),
    ],
)
def test_estimate_covariates_too_large_to_square_exit_2(tmp_path, capsys, method, design):
    # ||x_i||^2 overflows, so the auto penalty is infinite for every method
    # that resolves it; each says so before any arithmetic on it
    lines = (DATA / "observed30.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "y,d,age,score,region"
    rows = [lines[0]]
    for line in lines[1:]:
        y, d, age, score, region = line.split(",")
        rows.append(f"{y},{d},{float(age) * 1e160!r},{float(score) * 1e160!r},{region}")
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, stderr = run(
        capsys, "estimate", "--data", str(data), "--covariates", "age,score",
        "--y-col", "y", "--d-col", "d", *design, "--method", method,
    )
    assert code == 2
    assert stderr == "error: lambda must be finite and nonnegative, got inf\n"


@pytest.mark.parametrize("fixture", ["tiny_x2_subnormal.csv", "tiny_x2_e-201.csv"])
@pytest.mark.parametrize("method", ["ADJ", "RIDGE_REG", "INT"])
def test_estimate_on_a_tiny_covariate_exits_0(tmp_path, capsys, fixture, method):
    # x2 below 2**-1022 or 2**-512: its power-of-two scale and RIDGE_REG's
    # scaled penalty stay finite, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, stderr = run(
            capsys, "estimate", "--data", str(DATA / fixture), "--covariates", "x1,x2",
            "--y-col", "y", "--d-col", "d", "--design", "complete", "--nt", "6",
            "--method", method, "--out", str(tmp_path / "tiny.jsonl"),
        )
    assert (code, stderr) == (0, "")


def test_estimate_ht_with_both_infinite_arm_sums_exits_3(tmp_path, capsys):
    # y / p turns the two treated outcomes into +inf and -inf, whose sum
    # math.fsum refuses with ValueError; the estimate is simply not finite.
    data = tmp_path / "opposed.csv"
    data.write_text(
        "x1,y,d\n1,1.7e308,1\n2,-1.7e308,1\n3,1,1\n4,2,0\n5,3,0\n6,4,0\n", encoding="utf-8"
    )
    code, _, stderr = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--covariates",
        "x1",
        "--y-col",
        "y",
        "--d-col",
        "d",
        *_HALF,
        "--method",
        "HT",
    )
    assert code == 3
    assert "HT point estimate is not finite" in stderr


@pytest.mark.parametrize(
    "rows",
    [
        "1,1e308,0\n2,1e308,0\n",  # each effect is finite, their sum overflows
        "1,1.7e308,-1.7e308\n2,1,1\n",  # one effect y1 - y0 overflows
    ],
)
def test_simulate_population_whose_average_effect_overflows_exits_3(tmp_path, capsys, rows):
    data = tmp_path / "population.csv"
    data.write_text("x1,y1,y0\n" + rows + "3,1,2\n4,2,1\n5,3,1\n6,1,1\n", encoding="utf-8")
    code, stdout, stderr = run(
        capsys,
        "simulate",
        "--data",
        str(data),
        "--covariates",
        "x1",
        "--y1-col",
        "y1",
        "--y0-col",
        "y0",
        "--design",
        "complete",
        "--nt",
        "3",
        "--methods",
        "DM",
    )
    assert (code, stdout) == (3, "")
    assert "population average treatment effect is not finite" in stderr


def test_estimate_with_probability_column(tmp_path, capsys):
    data = tmp_path / "p.csv"
    data.write_text(
        "y,d,x,prob\n3,1,0.1,0.4\n1,0,-0.2,0.6\n2,1,0.3,0.5\n0,0,0.2,0.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "p.jsonl"
    code, _, _ = run(
        capsys,
        "estimate",
        "--data",
        str(data),
        "--covariates",
        "x",
        "--y-col",
        "y",
        "--d-col",
        "d",
        "--p-col",
        "prob",
        "--design",
        "simple",
        "--method",
        "HT",
        "--out",
        str(out),
    )
    assert code == 0
    # treated weight 1/p_i, control weight 1/(1 - p_i)
    expected = 0.25 * (3 / 0.4 + 2 / 0.5) - 0.25 * (1 / (1 - 0.6))
    assert read_records(out)[0]["tau_hat"] == pytest.approx(expected, rel=1e-12)


def test_verify_efficiency_check(capsys):
    code, stdout, _ = run(capsys, "verify", "--check", "efficiency")
    assert code == 0
    assert stdout.startswith("PASS efficiency:")
    assert "n=2048 " in stdout and "n=8192 " in stdout and "n=32768 " in stdout
    # the Monte Carlo study and its sample-size option are gone
    for argv in (("verify", "--n", "5000"), ("verify", "--check", "lin-equivalence")):
        with pytest.raises(SystemExit) as exited:
            run(capsys, *argv)
        assert exited.value.code == 2


def test_estimate_without_design_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("y,d,x\n1,1,0.2\n2,0,0.1\n", encoding="utf-8")
    code, _, stderr = run(
        capsys, "estimate", "--data", str(data), "--covariates", "x",
        "--y-col", "y", "--d-col", "d", "--method", "HT",
    )
    assert code == 2 and "design" in stderr


def test_estimate_complete_nt_must_match_data(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("y,d,x\n1,1,0.2\n2,0,0.1\n3,0,0.4\n", encoding="utf-8")
    code, _, stderr = run(
        capsys, "estimate", "--data", str(data), "--covariates", "x",
        "--y-col", "y", "--d-col", "d", "--design", "complete", "--nt", "2",
        "--method", "DM",
    )
    assert code == 2 and "treats 1 units" in stderr


def test_simulate_needs_population_source(capsys):
    code, _, stderr = run(capsys, "simulate", "--design", "simple-half", "--methods", "HT")
    assert code == 2 and "--data" in stderr


def test_simulate_enumeration_guard_surfaces_as_numeric_error(capsys):
    code, _, stderr = run(
        capsys,
        "simulate",
        "--synth",
        "linear-heterogeneous",
        "--n",
        "25",
        "--k",
        "2",
        "--pop-seed",
        "0",
        "--design",
        "simple-half",
        "--methods",
        "HT",
        "--reps",
        "enumerate",
    )
    assert code == 3 and "enumeration" in stderr


def test_verify_core_suite_passes(capsys):
    code, stdout, _ = run(capsys, "verify")
    assert code == 0
    assert stdout.count("PASS") == 7
    assert "PASS efficiency:" in stdout
    assert "FAIL" not in stdout


def corrupt_quadratic_form(monkeypatch):
    """Perturb the exact LOORA-DM variance's quadratic form T3 by 1e-3 t1_0 t1_1."""
    clean = loora.oracle._loora_dm_t3_low_rank

    def corrupted(sig, *args):
        return clean(sig, *args) + 1e-3 * sig.t1[0] * sig.t1[1]

    monkeypatch.setattr(loora.oracle, "_loora_dm_t3_low_rank", corrupted)


def test_verify_corrupted_quadratic_form_fails_by_name(capsys, monkeypatch):
    # The negative control: the certification must catch a corrupted
    # formula. The default family (seed 2) holds two n = 4 fixtures.
    corrupt_quadratic_form(monkeypatch)
    code, stdout, _ = run(capsys, "verify", "--check", "variance-dm-exact")
    assert code == 1
    assert stdout == (
        "FAIL variance-dm-exact: worst discrepancy 6.870e-01 "
        "(tolerance 1.000e-09; 30 fixtures)\n"
    )


def test_verify_inflated_efficiency_benchmark_fails_by_name(capsys, monkeypatch):
    # The negative control of the efficiency check: against a benchmark 5 %
    # too large, n V / V_Lin - 1 reads about -0.05, beyond its 1e-2 tolerance.
    clean = loora.verify.lin_asymptotic_variance
    monkeypatch.setattr(loora.verify, "lin_asymptotic_variance", lambda *a: 1.05 * clean(*a))
    code, stdout, _ = run(capsys, "verify", "--check", "efficiency")
    assert code == 1
    assert stdout.startswith("FAIL efficiency: worst discrepancy 4.")


def test_parser_is_built_once_and_no_flag_leaks_into_the_next_call(capsys):
    assert build_parser() is build_parser()
    outputs = []
    for argv in (
        ("verify", "--check", "leverage-bound", "--check", "pairwise-equivalence"),
        ("verify", "--check", "variance-dm-exact"),
        ("verify", "--check", "leverage-bound"),
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        outputs.append([line.split(":")[0] for line in stdout.splitlines()])
    assert outputs == [
        ["PASS leverage-bound", "PASS pairwise-equivalence"],
        ["PASS variance-dm-exact"],
        ["PASS leverage-bound"],
    ]


def test_dm_variance_check_catches_a_corrupted_quadratic_form_at_n4(monkeypatch):
    # seed 11 draws n = 4 for its only fixture
    assert np.random.default_rng(11).integers(4, 8) == 4
    assert check_variance_dm_exact(11, 1).passed
    corrupt_quadratic_form(monkeypatch)
    assert not check_variance_dm_exact(11, 1).passed


def test_study_with_an_all_failed_method_reads_back(tmp_path, capsys):
    # HT is defined under simple assignment only, so under a complete design
    # it fails every replicate and its metrics are NaN.
    out = tmp_path / "study.jsonl"
    code, _, _ = run(
        capsys, "simulate", "--synth", "binary-outcome", "--n", "20", "--k", "2",
        "--design", "complete", "--nt", "10", "--methods", "HT,DM", "--reps", "4",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    ht, dm = read_records(out)
    assert (ht["method"], ht["reps_used"], ht["failed"]) == ("HT", 0, 4)
    assert [ht[key] for key in ("bias", "std", "rmse", "coverage", "avg_ci_length")] == [None] * 5
    assert dm["reps_used"] == 4 and isinstance(dm["bias"], float)


def _long_options(command):
    """The long options of a subcommand, read from its parser, without --help, --config
    and the command-line-only --threads."""
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    options = {o[2:] for action in parser._actions for o in action.option_strings if o[1] == "-"}
    return sorted(options - {"help", "config", "threads"})


_OBSERVED30 = str(DATA / "observed30.csv")
_POPULATION12 = str(DATA / "population12.csv")
_POPULATION_ROLES = {"data": _POPULATION12, "y1-col": "y1", "y0-col": "y0", "covariates": "x1,x2"}
# Per command: the settings of a run that exits 0, and per option the value
# the option is set to, with any settings the option needs besides the base.
_BASE = {
    "estimate": {
        "data": _OBSERVED30, "y-col": "y", "d-col": "d", "covariates": "age,score",
        "design": "simple", "p": 0.5,
    },
    "simulate": {"synth": "linear-heterogeneous", "n": 12, "k": 2, "reps": 3},
}
_OPTION_CASES = {
    "estimate": {
        "data": (_OBSERVED30, {}),
        "delimiter": (";", {}),
        "no-header": (True, {}),
        "covariates": ("age,score", {}),
        "categorical": ("region", {}),
        "y-col": ("y", {}),
        "d-col": ("d", {}),
        "p-col": ("score", {}),
        "drop-first": (True, {"categorical": "region"}),
        "design": ("simple", {}),
        "p": (0.4, {}),
        "nt": (15, {"design": "complete", "method": "DM"}),
        "method": ("HT", {}),
        "lambda": ("fixed:0", {}),
        "level": (0.9, {}),
        "out": (None, {}),
        "allow-design-mismatch": (True, {"method": "LOORA_DM"}),
    },
    "simulate": {
        "data": (_POPULATION12, {k: v for k, v in _POPULATION_ROLES.items() if k != "data"}),
        "delimiter": (";", _POPULATION_ROLES),
        "no-header": (True, _POPULATION_ROLES),
        "covariates": ("x1,x2", _POPULATION_ROLES),
        "categorical": ("x1", _POPULATION_ROLES),
        "y1-col": ("y1", _POPULATION_ROLES),
        "y0-col": ("y0", _POPULATION_ROLES),
        "drop-first": (True, dict(_POPULATION_ROLES, categorical="x1")),
        "synth": ("leverage-stress", {}),
        "n": (14, {}),
        "k": (3, {}),
        "pop-seed": (5, {}),
        "design": ("complete", {}),
        "nt": (4, {"design": "complete", "methods": "DM"}),
        "methods": ("HT,DM", {}),
        "reps": (5, {}),
        "level": (0.9, {}),
        "seed": (4, {}),
        "lambda": ("fixed:0", {}),
        "out": (None, {}),
        "allow-design-mismatch": (True, {"methods": "LOORA_DM"}),
    },
}


def _as_flags(settings):
    argv = []
    for key, value in settings.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    return argv


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command in ("estimate", "simulate") for key in _long_options(command)],
)
def test_every_long_option_is_a_config_key_read_as_its_flag(tmp_path, capsys, command, key):
    # A KeyError here means a new option has no case in _OPTION_CASES.
    value, extra = _OPTION_CASES[command][key]
    out = tmp_path / "out.jsonl"
    value = str(out) if key == "out" else value
    settings = {**_BASE[command], "out": str(out), **extra}
    settings.pop(key, None)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"schema_version": 1, key: value}), encoding="utf-8")
    results = []
    for source in (["--config", str(cfg)], _as_flags({key: value}), []):
        code, stdout, stderr = run(capsys, command, *_as_flags(settings), *source)
        results.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
        if out.exists():
            out.unlink()
    from_config, from_flag, unset = results
    assert "unknown key" not in from_config[2]
    assert from_config == from_flag
    assert from_flag != unset  # so the equality above shows that the key is read


def _headerless(path, tmp_path):
    """A copy of a CSV without its header line; its columns are c0, c1, ..."""
    copy = tmp_path / f"headerless-{Path(path).name}"
    copy.write_text(Path(path).read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
    return str(copy)


@pytest.mark.parametrize(
    "command, data, argv",
    [
        ("estimate", _OBSERVED30, ["--y-col", "c0", "--d-col", "c1", "--covariates", "c2,c3",
                                  "--design", "simple", "--p", "0.5", "--method", "LOORA_DM"]),
        ("simulate", _POPULATION12, ["--y1-col", "c2", "--y0-col", "c3", "--covariates", "c0,c1",
                                    "--methods", "HT,LOORA_DM", "--reps", "20"]),
    ],
    ids=["estimate", "simulate"],
)
def test_data_out_no_header_and_mismatch_from_a_config_give_the_flags_bytes(
    tmp_path, capsys, command, data, argv
):
    settings = {
        "data": _headerless(data, tmp_path),
        "out": str(tmp_path / "out.jsonl"),
        "no-header": True,
        "allow-design-mismatch": True,
    }
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({"schema_version": 1, **settings}), encoding="utf-8")
    records = []
    for source in (["--config", str(cfg)], _as_flags(settings)):
        code, _, stderr = run(capsys, command, *argv, *source)
        assert code == 0 and "realized treated count" in stderr
        records.append((tmp_path / "out.jsonl").read_bytes())
        (tmp_path / "out.jsonl").unlink()
    assert records[0] == records[1]


@pytest.mark.parametrize(
    "argv, key",
    [
        (_SYNTH, "rep"),  # reps misspelt
        (_SYNTH, "method"),  # estimate's key; simulate's is methods
        (_SYNTH, "pop_seed"),  # keys are spelled as the flags: pop-seed
        (_SYNTH, "bogus"),
        (_SYNTH, "config"),
        (_EST + _HALF, "methods"),
        (_EST + _HALF, "threads"),
        (_SYNTH, "threads"),  # --threads is a command-line flag only
    ],
    ids=[
        "rep",
        "simulate-method",
        "pop_seed",
        "bogus",
        "config",
        "estimate-methods",
        "estimate-threads",
        "simulate-threads",
    ],
)
def test_unknown_config_key_exits_2_naming_key_and_file_before_any_work(
    tmp_path, capsys, monkeypatch, argv, key
):
    def must_not_run(*args, **kwargs):
        pytest.fail("the command read data or ran a study before checking its config keys")

    monkeypatch.setattr(loora.cli, "run_study", must_not_run)
    monkeypatch.setattr(loora.cli, "build_dataset", must_not_run)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"schema_version: 1\n{key}: 3\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code, stdout, stderr = run(capsys, *argv, "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: {cfg}: unknown key '{key}'")
    assert not out.exists()


def test_estimate_without_data_exits_2(capsys):
    code, stdout, stderr = run(capsys, "estimate", "--y-col", "y", "--d-col", "d", *_HALF)
    assert (code, stdout) == (2, "")
    assert stderr == "error: estimate needs --data <csv>\n"


def test_a_study_too_large_to_hold_is_a_numeric_error(tmp_path, capsys):
    # numpy refuses an array of 2**62 replicates before it allocates anything
    out = tmp_path / "study.jsonl"
    code, stdout, stderr = run(
        capsys, *_SYNTH, "--n", "12", "--methods", "HT,DM", "--reps", str(2**62), "--out", str(out)
    )
    assert (code, stdout) == (3, "")
    assert stderr.startswith(f"numeric error: a study of {2**62} replicates and 2 methods ")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["leverage-stress", "binary-outcome"])
@pytest.mark.parametrize("k", [0, -1])
def test_a_synthetic_population_without_covariates_is_a_schema_error(capsys, kind, k):
    argv = ("simulate", "--synth", kind, "--k", str(k), "--n", "10", "--design", "complete")
    code, stdout, stderr = run(capsys, *argv, "--nt", "5", "--methods", "DM")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: synthetic populations require n > k >= 1, got n = 10, k = {k}\n"


def test_a_synthetic_population_too_large_to_hold_is_a_numeric_error(capsys):
    # numpy refuses an array of 2**61 rows before it allocates anything
    argv = ("simulate", "--synth", "binary-outcome", "--k", "3", "--n", str(2**61))
    code, stdout, stderr = run(capsys, *argv, "--design", "complete", "--nt", "3")
    assert (code, stdout) == (3, "")
    assert stderr.startswith(
        f"numeric error: a synthetic population of {2**61} units and 3 covariates is too large"
    )


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """Run code in a new Python process that imports this checkout's loora."""
    src = str(Path(loora.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.skipif(
    blas_core() is None,
    reason="no loaded BLAS exports scipy_openblas_get_corename64_ or openblas_get_corename",
)
@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="Haswell is an x86-64 kernel"
)
def test_blas_core_names_the_kernel_openblas_runs():
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so a fresh process
    # under the override must report the kernel it was told to run.
    done = _fresh_interpreter(
        "import os; os.environ['OPENBLAS_CORETYPE'] = 'Haswell'; "
        "from loora.reporting import run_environment; print(run_environment()['blas_core'])"
    )
    assert (done.returncode, done.stdout) == (0, "Haswell\n"), done.stderr


def test_importing_the_cli_loads_neither_scipy_nor_yaml():
    # nor sets the heap policy, which only main does
    done = _fresh_interpreter(
        "import sys, loora.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml'))); "
        "print(loora.cli.keep_heap.cache_info().misses)"
    )
    assert (done.returncode, done.stdout) == (0, "[]\n0\n"), done.stderr


def test_every_command_runs_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes any import of scipy raise ImportError.
    methods = ("HT", "DM", "ADJ", "INT", "RIDGE_REG", "LOORA_HT", "LOORA_DM")
    complete = ("--design", "complete", "--nt", "15")
    commands = [[*_EST, "--method", m, *(_HALF if "HT" in m else complete)] for m in methods]
    commands.append(
        [*_SYNTH, "--n", "40", "--reps", "20", "--design", "simple-half", "--methods",
         ",".join(methods), "--allow-design-mismatch", "--out", str(tmp_path / "study.jsonl")]
    )
    commands.append(["verify"])
    done = _fresh_interpreter(
        "import sys; sys.modules['scipy'] = None; from loora.cli import main; "
        f"sys.exit(max(main(argv) for argv in {commands!r}))"
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout
    assert len(read_records(tmp_path / "study.jsonl")) == len(methods)


_FAULT_STUDY = (
    "simulate --synth linear-heterogeneous --n 5000 --k 5 --pop-seed 2 --design complete "
    "--nt 2500 --methods LOORA_DM --reps 700 --seed 3"
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the CLI's heap policy is glibc's mallopt",
)
def test_a_fresh_study_keeps_its_heap_and_the_policy_moves_no_bit(tmp_path):
    # Under glibc's default thresholds this study faults 90 to 120 pages in
    # per replicate; a fresh process's fixed cost (code pages, population,
    # plan) is about 1100 faults, so 700 replicates keep it under 2 each.
    outs = {}
    for name, patch in (("kept", ""), ("default", "cli.keep_heap = lambda: None; ")):
        out = tmp_path / f"{name}.jsonl"
        argv = [*_FAULT_STUDY.split(), "--out", str(out)]
        done = _fresh_interpreter(
            f"import sys, loora.cli as cli; {patch}sys.exit(cli.main({argv!r}))"
        )
        assert done.returncode == 0, done.stderr
        outs[name] = out.read_bytes()
    faults = read_records(str(tmp_path / "kept.jsonl") + ".manifest.json")[0]["minor_faults"]
    assert faults < 10 * 700
    assert outs["kept"] == outs["default"]


# sha256 of the records of CI's three byte-identity studies and of its n = 11
# enumeration, as `loora simulate ... --out` writes them, per BLAS kernel; any
# change in a record's bits changes its digest
PINNED_STUDY_RECORDS = {
    "--synth binary-outcome --n 60 --k 4 --pop-seed 3 --design complete --nt 30 "
    "--methods HT,DM,ADJ,INT,RIDGE_REG,LOORA_HT,LOORA_DM --reps 50 --seed 7": {
        "SkylakeX": "fe1a9fd7c7c1c5e1a105164e2bcc2d695594894d3e4962149c1b4c2310efe302",
        "Haswell": "7346718feb3eb38c66f94bafb56900fb6648bbb109351f014c7a71ddc21f5759",
    },
    "--synth binary-outcome --n 120 --k 10 --pop-seed 7 --design complete --nt 60 "
    "--methods DM,ADJ,INT,RIDGE_REG,LOORA_DM --reps 200 --seed 1": {
        "SkylakeX": "2a85e96bfc3ec9b0daf472253562162450a8cfcd7eef595f356de0de3889eb31",
        "Haswell": "7096fdaede7982ce3ec3bf2fc76ea25f0109f00d7451079147364bdf4021c0e7",
    },
    "--synth linear-heterogeneous --n 5000 --k 5 --pop-seed 2 --design simple-half "
    "--methods HT,DM,ADJ,INT,RIDGE_REG,LOORA_HT,LOORA_DM --allow-design-mismatch "
    "--reps 20 --seed 3": {
        "SkylakeX": "b88d905c4e2119b8067d4b99c1c1ddb0bf93e0192f669f7ad16a6575ee83e354",
        "Haswell": "8ea30cbe81828e2e202aa1fe89e3eedd7e5285d56e98bf2c74ffa390452d0187",
    },
    "--synth linear-heterogeneous --n 11 --k 3 --design complete --nt 5 "
    "--methods DM,LOORA_DM --reps enumerate": {
        "SkylakeX": "444060fef5c0b3f878064dbe11ff3b5647b62ab9d4f625b23319e8c0da4637cf",
        "Haswell": "444060fef5c0b3f878064dbe11ff3b5647b62ab9d4f625b23319e8c0da4637cf",
    },
}


@pytest.mark.parametrize("study", list(PINNED_STUDY_RECORDS), ids=["n60", "n120", "n5000", "n11"])
def test_study_records_keep_their_pinned_bytes(tmp_path, capsys, study):
    pinned = kernel_pin(PINNED_STUDY_RECORDS[study])
    out = tmp_path / "study.jsonl"
    code, _, _ = run(capsys, "simulate", *study.split(), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned
