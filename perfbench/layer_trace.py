"""Outside-in layer trace: spans and counters around loora's public functions.

The wrappers go on the names each module imported, from the benchmark's own
files; the package itself is not edited. A span records (name, start, end,
parent span, pass id); a layer's self time is its span's duration minus the
time its child spans cover. Span times leave out the time the counter hooks
take (hashing a Gram, for example), so no span's self time holds tracer work.
A target name that no longer exists in the program is skipped and simply
reports zero calls.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np

ESTIMATE_SPAN = "inference.estimate_with_ci"

# (module, imported name, span name). The same span name may appear at
# several import sites of one function.
TARGETS = (
    ("loora.cli", "main", "cli.main"),
    ("loora.cli", "build_dataset", "dataset.build_dataset"),
    ("loora.cli", "estimate_with_ci", ESTIMATE_SPAN),
    ("loora.cli", "run_study", "simulation.run_study"),
    ("loora.cli", "write_records", "reporting.write_records"),
    ("loora.simulation", "draw_with", "design.draw_with"),
    ("loora.simulation", "enumerate_assignments", "design.enumerate"),
    ("loora.simulation", "observed_sample", "oracle.observed_sample"),
    ("loora.simulation", "estimate_with_ci", ESTIMATE_SPAN),
    ("loora.inference", "loora_dm_parts", "estimators.loora_dm_parts"),
    ("loora.inference", "loora_ht_parts", "estimators.loora_ht_parts"),
    ("loora.inference", "estimate_dm", "estimators.estimate_dm"),
    ("loora.inference", "estimate_ht", "estimators.estimate_ht"),
    ("loora.estimators", "ridge_fit", "linalg.ridge_fit"),
    ("loora.oracle", "ridge_fit", "oracle.ridge_fit"),
    ("loora.oracle", "loora_dm_variance", "oracle.loora_dm_variance"),
    ("loora.oracle", "loora_ht_variance", "oracle.loora_ht_variance"),
    ("loora.dataset", "read_csv", "dataset.read_csv"),
    ("loora.dataset", "one_hot", "dataset.one_hot"),
    ("scipy.linalg", "cho_factor", "linalg.cho_factor"),
)

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "simulation.run_study.calls": "count",
    "simulation.run_study.self_s": "s",
    "design.draw_with.calls": "count",
    "design.draw_with.busy_s": "s",
    "design.enumerate.assignments": "count",
    "design.enumerate.busy_s": "s",
    "oracle.observed_sample.calls": "count",
    "oracle.observed_sample.busy_s": "s",
    "oracle.observed_sample.per_replicate": "count",
    "oracle.loora_dm_variance.busy_s": "s",
    "oracle.loora_ht_variance.busy_s": "s",
    "oracle.ridge_fit.calls": "count",
    "oracle.ridge_fit.busy_s": "s",
    "oracle.ridge_fit.repeat_share": "ratio",
    "estimators.loora_dm_parts.calls": "count",
    "estimators.loora_dm_parts.self_s": "s",
    "estimators.loora_ht_parts.calls": "count",
    "estimators.loora_ht_parts.self_s": "s",
    "estimators.unadjusted.busy_s": "s",
    "linalg.ridge_fit.calls": "count",
    "linalg.ridge_fit.self_s": "s",
    "linalg.cho_factor.calls": "count",
    "linalg.cho_factor.busy_s": "s",
    "linalg.cho_factor.per_estimate": "count",
    "linalg.cho_factor.repeat_share": "ratio",
    "inference.estimate_with_ci.calls": "count",
    "inference.estimate_with_ci.self_s": "s",
    "dataset.read_csv.busy_s": "s",
    "dataset.one_hot.busy_s": "s",
    "dataset.build_dataset.self_s": "s",
    "dataset.rows": "count",
    "dataset.columns_out": "count",
    "cli.main.self_s": "s",
    "reporting.write_records.busy_s": "s",
    "reporting.bytes_written": "bytes",
}


def _array_key(*parts) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        arr = np.ascontiguousarray(part)
        digest.update(repr((arr.dtype.str, arr.shape)).encode())
        digest.update(arr.tobytes())
    return digest.digest()


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self._base_clock = clock
        self._hook_spent = 0.0
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.begin_pass(0)

    # -- recording ---------------------------------------------------------
    def clock(self) -> float:
        """The span clock: it stands still while counter hooks run."""
        return self._base_clock() - self._hook_spent

    def _run_hook(self, hook, args, value) -> None:
        start = self._base_clock()
        hook(args, value)
        self._hook_spent += self._base_clock() - start

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def _repeat(self, name: str, key: bytes) -> None:
        """Count a call whose input was already seen earlier in this pass."""
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        seen.add(key)

    def _hooks(self, name):
        """Counters taken at a span's boundary: (before call, after call)."""

        def repeat(*inputs):
            self._repeat(name, _array_key(*inputs))

        def count(key, amount):
            self.counts[key] += amount

        return {
            "linalg.cho_factor": (lambda a, kw: repeat(a[0] if a else kw["a"]), None),
            "oracle.ridge_fit": (lambda a, kw: repeat(*a[:3]), None),
            "dataset.read_csv": (None, lambda a, r: count("dataset.rows", len(r[1]))),
            "dataset.build_dataset": (None, lambda a, r: count("dataset.columns_out", r.x.shape[1])),
            "reporting.write_records": (
                None,
                lambda a, r: count("reporting.bytes_written", os.path.getsize(a[0])),
            ),
        }.get(name, (None, None))

    def wrap(self, name: str, fn):
        before, after = self._hooks(name)

        def traced(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args, kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                self._run_hook(after, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name: str, fn):
        """Time each step of a returned iterator as its own span."""

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                self.counts[name + ".items"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap_iterator if name == "design.enumerate" else self.wrap
            setattr(module, attr, wrapper(name, original))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics -----------------------------------------------------------
    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        cho_in_estimate = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - covered[i]
            if name == "linalg.cho_factor" and self._has_ancestor(parent, ESTIMATE_SPAN):
                cho_in_estimate += 1
        c = self.counts
        replicates = calls["design.draw_with"] + c["design.enumerate.items"]
        estimates = calls[ESTIMATE_SPAN]

        def share(num, den):
            return num / den if den else 0.0

        return {
            "simulation.run_study.calls": calls["simulation.run_study"],
            "simulation.run_study.self_s": self_s["simulation.run_study"],
            "design.draw_with.calls": calls["design.draw_with"],
            "design.draw_with.busy_s": busy["design.draw_with"],
            "design.enumerate.assignments": c["design.enumerate.items"],
            "design.enumerate.busy_s": busy["design.enumerate"],
            "oracle.observed_sample.calls": calls["oracle.observed_sample"],
            "oracle.observed_sample.busy_s": busy["oracle.observed_sample"],
            "oracle.observed_sample.per_replicate": share(
                calls["oracle.observed_sample"], replicates
            ),
            "oracle.loora_dm_variance.busy_s": busy["oracle.loora_dm_variance"],
            "oracle.loora_ht_variance.busy_s": busy["oracle.loora_ht_variance"],
            "oracle.ridge_fit.calls": calls["oracle.ridge_fit"],
            "oracle.ridge_fit.busy_s": busy["oracle.ridge_fit"],
            "oracle.ridge_fit.repeat_share": share(
                c["oracle.ridge_fit.repeats"], calls["oracle.ridge_fit"]
            ),
            "estimators.loora_dm_parts.calls": calls["estimators.loora_dm_parts"],
            "estimators.loora_dm_parts.self_s": self_s["estimators.loora_dm_parts"],
            "estimators.loora_ht_parts.calls": calls["estimators.loora_ht_parts"],
            "estimators.loora_ht_parts.self_s": self_s["estimators.loora_ht_parts"],
            "estimators.unadjusted.busy_s": busy["estimators.estimate_dm"]
            + busy["estimators.estimate_ht"],
            "linalg.ridge_fit.calls": calls["linalg.ridge_fit"],
            "linalg.ridge_fit.self_s": self_s["linalg.ridge_fit"],
            "linalg.cho_factor.calls": calls["linalg.cho_factor"],
            "linalg.cho_factor.busy_s": busy["linalg.cho_factor"],
            "linalg.cho_factor.per_estimate": share(cho_in_estimate, estimates),
            "linalg.cho_factor.repeat_share": share(
                c["linalg.cho_factor.repeats"], calls["linalg.cho_factor"]
            ),
            "inference.estimate_with_ci.calls": estimates,
            "inference.estimate_with_ci.self_s": self_s[ESTIMATE_SPAN],
            "dataset.read_csv.busy_s": busy["dataset.read_csv"],
            "dataset.one_hot.busy_s": busy["dataset.one_hot"],
            "dataset.build_dataset.self_s": self_s["dataset.build_dataset"],
            "dataset.rows": c["dataset.rows"],
            "dataset.columns_out": c["dataset.columns_out"],
            "cli.main.self_s": self_s["cli.main"],
            "reporting.write_records.busy_s": busy["reporting.write_records"],
            "reporting.bytes_written": c["reporting.bytes_written"],
        }

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] == name:
                return True
            index = span[3]
        return False
