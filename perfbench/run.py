"""loora benchmark: CLI studies, exact oracles and CSV ingest.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --record-references 0-49

One process runs one workload, single-threaded with BLAS pinned to one
thread. After a warm-up pass, passes run back to back (one client, closed
loop) for --seconds. With --trace 0 the end-to-end metrics are printed; with
--trace 1 half the time runs untraced and half traced, and the per-layer
metrics are printed together with the tracing overhead. Every pass's output
is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A failed check prints what
failed and exits 1; a tree without the program's sources exits 2.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
from calibrate import CHILD_PROBE, SpeedProbe, child_seconds  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

SETUP_CHILD = CHILD_PROBE + (
    "import sys, workloads\n"
    "workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])\n"
    "report_probes()\n"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))


def fresh_setup_seconds(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """Fresh interpreter to ready inputs: (wall, calibrated) seconds.

    The wall time is taken from outside the child; the child's own probes
    calibrate it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, name, str(seed), workdir],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up child for {name} failed (exit {proc.returncode})")
    return elapsed, child_seconds(elapsed, line)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, where calibration runs too."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond).

    That percentile lies above the median only with more than 2 * TAIL_BEYOND + 1
    passes. With fewer, the slowest pass is returned (pct 100, 0 beyond), never
    a pass from the fast half.
    """
    ordered = sorted(times)
    if len(ordered) <= 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, cpu: int | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


class Session:
    """One workload's passes: timing, failure tallies and output checks."""

    def __init__(self, workloads, inputs, references):
        self.w = workloads
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mismatches = 0
        self.details: dict = {}  # stored in the result file beside the metrics
        self.probe = SpeedProbe(workloads.CALIBRATION[inputs.name])
        self.first = None
        self.first = self.one_pass()[2]  # warm-up, checked in full
        problems, self.reference_note = checks.check(inputs, self.first.records, references)
        self.problems.extend(problems)

    def one_pass(self):
        """Run one pass; returns (seconds of work, speed factor, output)."""
        self.w.clear_outputs(self.inputs)
        results, elapsed, factor = self.probe.time(lambda: self.w.run_pass(self.inputs))
        out = self.w.collect(self.inputs, results)
        self.attempted += 1
        if out.failures:
            self.failed += 1
            self.problems.extend(f"pass {self.attempted}: {f}" for f in out.failures)
        elif self.first is not None and out.raw != self.first.raw:
            self.mismatches += 1
            self.problems.append(f"pass {self.attempted}: records differ from the first pass")
        return elapsed, factor, out

    def timed_passes(self, seconds: float, after_pass=None) -> tuple[list[float], list[float]]:
        """Back-to-back passes until the next one would overrun `seconds`.

        Returns the uncalibrated and the calibrated times of the passes.
        """
        wall, calibrated = [], []
        start = time.perf_counter()
        while True:
            elapsed, factor, _ = self.one_pass()
            wall.append(elapsed)
            calibrated.append(elapsed * factor)
            if after_pass is not None:
                after_pass(factor)
            if time.perf_counter() - start + elapsed > seconds:
                return wall, calibrated


def measure(session, setup_times, setup_wall, seconds) -> dict:
    wall, times = session.timed_passes(seconds)
    p50 = statistics.median(times)
    tail_value, tail_pct, beyond = tail(times)
    first = session.first
    print(f"passes: {len(times)} timed after 1 warm-up; {session.reference_note}")
    print(f"uncalibrated pass time: p50 {statistics.median(wall):.4f} s, "
          f"min {min(wall):.4f} s, max {max(wall):.4f} s")
    if beyond:
        print(f"op_tail_s is p{tail_pct:.1f} of {len(times)} passes, {beyond} beyond it")
    else:
        print(f"WARNING: only {len(times)} timed passes; op_tail_s is the slowest of them")
    session.details.update(
        passes=len(times),
        op_tail={"percentile": tail_pct, "beyond": beyond},
        uncalibrated={
            "setup_s": statistics.median(setup_wall),
            "op_p50_s": statistics.median(wall),
            "op_tail_s": tail(wall)[0],
        },
    )
    print(
        f"failure_ratio {session.failed / session.attempted:.4g} "
        f"({session.failed} of {session.attempted} passes failed)"
    )
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_value, "s"),
        "estimates_per_s": (first.estimates / p50, "1/s"),
        "rows_per_s": (first.rows / p50, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(session, seconds, spans_path) -> dict:
    import layer_trace

    _, plain = session.timed_passes(seconds / 2.0)
    per_pass = []
    tracer = layer_trace.Tracer(clock=session.probe.clock)

    def record(factor):
        metrics = tracer.pass_metrics()
        per_pass.append({
            name: value * factor if layer_trace.LAYER_METRICS[name] == "s" else value
            for name, value in metrics.items()
        })
        if len(per_pass) == 1:
            with open(spans_path, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
        tracer.begin_pass(len(per_pass))

    with tracer:
        traced = session.timed_passes(seconds / 2.0, after_pass=record)[1]
    overhead = statistics.median(traced) - statistics.median(plain)
    session.details.update(passes={"untraced": len(plain), "traced": len(traced)},
                           tracing_overhead_s=overhead)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; {session.reference_note}")
    print(f"tracing overhead on op_p50_s: {overhead:+.4f} s "
          f"({statistics.median(plain):.4f} s untraced)")
    print("traced records byte-identical to untraced: " + ("no" if session.mismatches else "yes"))
    if tracer.missing:
        print("trace targets missing from the program (0 calls): " + ", ".join(tracer.missing))
    return {
        name: (statistics.median(m[name] for m in per_pass), unit)
        for name, unit in layer_trace.LAYER_METRICS.items()
    }


def run_workload(args) -> int:
    import workloads as w

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cpu = pin_to_one_cpu()
    try:
        w.prepare(args.workload, args.seed, workdir)
        setup_times, setup_wall = [], []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                wall, calibrated = fresh_setup_seconds(args.workload, args.seed, workdir)
                setup_wall.append(wall)
                setup_times.append(calibrated)
        inputs = w.setup(args.workload, args.seed, workdir)
        session = Session(w, inputs, checks.load_references())
        env = environment(args.seed, cpu)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print("env " + json.dumps(env))
        if setup_wall:
            print("uncalibrated set-up wall times: " + ", ".join(f"{t:.4f}" for t in setup_wall))
        if args.trace:
            spans = os.path.join(results_dir, f"{args.workload}.spans.jsonl")
            metrics = measure_traced(session, args.seconds, spans)
        else:
            metrics = measure(session, setup_times, setup_wall, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    correct = not session.problems
    for problem in session.problems[:20]:
        print(f"FAILED CHECK: {problem}")
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, **session.details, environment=env, problems=session.problems),
                  handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    import workloads as w

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in w.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})")
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
        print()
    print(json.dumps(combined))
    return status


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_references(text: str) -> int:
    """Run one pass per (seed, workload) and store its records as references."""
    import workloads as w

    references = checks.load_references()
    workdir = os.path.join(WORK, f"references-{os.getpid()}")
    try:
        for seed in parse_seeds(text):
            entry = references.setdefault(str(seed), {})
            for name in w.WORKLOADS:
                w.prepare(name, seed, workdir)
                inputs = w.setup(name, seed, workdir)
                out = w.collect(inputs, w.run_pass(inputs))
                problems = out.failures + checks.independent_checks(inputs, out.records)
                if problems:
                    print(f"seed {seed} {name}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                entry[name] = out.records
            print(f"seed {seed}: references recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = {k: references[k] for k in sorted(references, key=int)}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(ordered, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", metavar="SEEDS", help="e.g. 0-49")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "loora", "__init__.py")):
        print(f"error: the loora sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_references:
        return record_references(args.record_references)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
