"""Exact trace counts and failure accounting of the benchmark at this commit.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io

import pytest

import checks
import layer_trace
import run
import workloads as w
from loora import cli


def traced_metrics(inputs):
    tracer = layer_trace.Tracer()
    with tracer:
        out = w.collect(inputs, w.run_pass(inputs))
    assert not out.failures
    return tracer.pass_metrics()


def traced_cli(argv):
    tracer = layer_trace.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer.pass_metrics()


@pytest.mark.parametrize(
    "method, design, per_estimate",
    [
        ("LOORA_DM", ["--design", "complete", "--nt", "20"], 2),
        ("LOORA_HT", ["--design", "simple-half"], 1),
        ("HT", ["--design", "simple-half"], 0),
        ("DM", ["--design", "complete", "--nt", "20"], 0),
        ("ADJ", ["--design", "complete", "--nt", "20"], 0),
        ("INT", ["--design", "complete", "--nt", "20"], 0),
        ("RIDGE_REG", ["--design", "complete", "--nt", "20"], 0),
    ],
)
def test_cho_factor_per_estimate(method, design, per_estimate):
    m = traced_cli(
        ["simulate", "--synth", "linear-heterogeneous", "--n", "40", "--k", "3",
         "--reps", "7", "--methods", method, "--threads", "1", *design]
    )
    assert m["inference.estimate_with_ci.calls"] == 7
    assert m["linalg.cho_factor.per_estimate"] == per_estimate
    assert m["linalg.cho_factor.calls"] == 7 * per_estimate


def test_study_small_counts(tmp_path):
    inputs = w.setup("study-small", 3, str(tmp_path))
    m = traced_metrics(inputs)
    replicates = {"a": w.SMALL_REPS, "b": w.SMALL_REPS, "c": 462}  # C(11, 5) assignments
    expected = sum(len(c.methods) * replicates[c.label] for c in inputs.calls)
    assert [c.reps for c in inputs.calls] == [replicates[c.label] for c in inputs.calls]
    assert m["oracle.observed_sample.calls"] == expected == 5 * 100 + 2 * 100 + 2 * 462
    assert m["inference.estimate_with_ci.calls"] == expected
    assert m["design.draw_with.calls"] == 2 * w.SMALL_REPS
    assert m["design.enumerate.assignments"] == 462
    assert m["simulation.run_study.calls"] == 3
    # LOORA_DM factors its Gram twice per estimate, LOORA_HT once.
    loora_dm = w.SMALL_REPS + 462
    assert m["estimators.loora_dm_parts.calls"] == loora_dm
    assert m["estimators.loora_ht_parts.calls"] == w.SMALL_REPS
    assert m["linalg.cho_factor.calls"] == 2 * loora_dm + w.SMALL_REPS
    assert m["linalg.ridge_fit.calls"] == m["linalg.cho_factor.calls"]
    assert m["oracle.ridge_fit.calls"] == 0


def test_exact_large_counts(tmp_path):
    inputs = w.setup("exact-large", 3, str(tmp_path))
    assert inputs.exact[0].n > 512
    m = traced_metrics(inputs)
    assert m["oracle.ridge_fit.calls"] == 3
    assert m["oracle.ridge_fit.repeat_share"] == pytest.approx(1.0 / 3.0)
    assert m["linalg.cho_factor.calls"] == 3
    assert m["linalg.cho_factor.per_estimate"] == 0
    assert m["inference.estimate_with_ci.calls"] == 0


def test_ingest_counts(tmp_path):
    w.prepare("ingest", 3, str(tmp_path))
    m = traced_metrics(w.setup("ingest", 3, str(tmp_path)))
    assert m["dataset.rows"] == 2 * w.INGEST_ROWS
    # 4 numeric covariates plus 20 levels less the dropped first, per call.
    assert m["dataset.columns_out"] == 2 * (4 + w.INGEST_LEVELS - 1)
    assert m["linalg.cho_factor.calls"] == 3
    assert m["linalg.cho_factor.repeat_share"] == pytest.approx(1.0 / 3.0)
    assert m["reporting.bytes_written"] > 0


def test_missing_target_gives_zero_calls():
    targets = layer_trace.TARGETS + (
        ("loora.simulation", "no_such_function", "design.draw_with"),
        ("loora.no_such_module", "anything", "cli.main"),
    )
    tracer = layer_trace.Tracer(targets)
    with tracer:
        m = tracer.pass_metrics()
    assert tracer.missing == ["loora.simulation.no_such_function", "loora.no_such_module.anything"]
    assert all(value == 0 for value in m.values())
    assert set(m) == set(layer_trace.LAYER_METRICS)


def test_failing_op_counts_in_failure_ratio(tmp_path):
    csv_path = str(tmp_path / "bad.csv")
    w.write_ingest_csv(csv_path, 0, rows=200, binary_d=False)
    argv = ("estimate", "--data", csv_path, "--covariates", "x1,x2,x3,x4", "--y-col", "y",
            "--d-col", "d", "--design", "simple", "--p", "0.5", "--method", "LOORA_HT",
            "--out", str(tmp_path / "bad.jsonl"))
    inputs = w.Inputs("ingest", 0, calls=[w.Call("bad", argv, argv[-1], 200, 1, ("LOORA_HT",))])
    session = run.Session(w, inputs, references={})
    assert (session.attempted, session.failed) == (1, 1)
    assert "exited 2" in session.problems[0]


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_of_few_passes_is_the_slowest():
    # With 21 or fewer passes the ten-beyond percentile is not above the median.
    for count in (1, 10, 21):
        assert run.tail([float(i) for i in range(count)]) == (count - 1.0, 100.0, 0)
    assert run.tail([float(i) for i in range(22)])[0] == 11.0


def test_hook_time_is_outside_every_span():
    ticks = iter(range(0, 1000, 1))
    tracer = layer_trace.Tracer(clock=lambda: float(next(ticks)))

    def slow_hook(args, value):
        for _ in range(5):
            tracer._base_clock()  # five ticks of hashing

    tracer._run_hook(slow_hook, (), None)
    span = tracer._open("linalg.ridge_fit")
    tracer._close(span)
    assert tracer._hook_spent == 6.0
    assert span[2] - span[1] == 1.0


def test_reference_tolerance():
    ref = [{"method": "DM", "tau": 1.0, "bias": 1e-17, "std": 0.5, "reps_used": 3}]
    assert checks.compare_records("x", [dict(ref[0], bias=3e-17, std=0.5 * (1 + 1e-12))], ref) == []
    assert checks.compare_records("x", [dict(ref[0], std=0.5 * (1 + 1e-8))], ref)
    assert checks.compare_records("x", [dict(ref[0], reps_used=4)], ref)


def test_benchmark_json_names_every_metric():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w_["name"] for w_ in bench["workloads"]] == list(w.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_trace.LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "op_p50_s", "op_tail_s", "estimates_per_s", "rows_per_s", "peak_rss_mb"
    ]
