"""Correctness gate: independent checks plus stored reference values.

The independent checks hold for any seed. Reference values were generated
by this benchmark (``run.py --record-references``) and pin every study
record, both exact variances and both estimate records to 1e-9 relative,
the package's own tolerance for exact quantities; counts and labels must
match exactly.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
REL_TOL = 1e-9
UNBIASED_TOL = 1e-11


def load_references(path: str = REFERENCE_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _scale(key: str, value: float, record: dict) -> float:
    # A bias is a difference of two means of size |tau|; everything else is
    # compared relative to itself.
    if key == "bias":
        return max(1.0, abs(record.get("tau", 0.0)))
    return abs(value)


def compare_records(label: str, got: list[dict], want: list[dict]) -> list[str]:
    problems = []
    if len(got) != len(want):
        return [f"{label}: {len(got)} records, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        for key, ref in w.items():
            value = g.get(key)
            where = f"{label}[{i}].{key}"
            if isinstance(ref, float) and isinstance(value, (int, float)):
                gap = abs(value - ref)
                if not gap <= REL_TOL * max(_scale(key, ref, w), _scale(key, value, g)):
                    problems.append(f"{where} = {value!r}, reference {ref!r}")
            elif value != ref:
                problems.append(f"{where} = {value!r}, reference {ref!r} (must match exactly)")
    return problems


def independent_checks(inputs, records: dict[str, list[dict]]) -> list[str]:
    """Checks that need no stored value."""
    problems = []
    if inputs.exact is not None:
        for label, recs in records.items():
            value = recs[0]["value"]
            if not (math.isfinite(value) and value > 0.0):
                problems.append(f"{label}: exact variance {value!r} is not finite and positive")
        return problems
    for call in inputs.calls:
        recs = records.get(call.label)
        if recs is None:
            continue  # its failed exit is already reported
        methods = tuple(r.get("method") for r in recs)
        if methods != call.methods:
            problems.append(f"call {call.label}: methods {methods}, expected {call.methods}")
        for r in recs:
            where = f"call {call.label} {r.get('method')}"
            if r["record_type"] == "simulation":
                if r["reps_used"] + r["failed"] != call.reps:
                    problems.append(
                        f"{where}: reps_used {r['reps_used']} + failed {r['failed']} != reps {call.reps}"
                    )
                if "enumerate" in call.argv:
                    # Exact unbiasedness over the full assignment distribution.
                    tol = UNBIASED_TOL * max(1.0, abs(r["tau"]))
                    if not abs(r["bias"]) <= tol:
                        problems.append(f"{where}: enumerated bias {r['bias']!r} exceeds {tol:.1e}")
            else:
                if r["n"] != call.n:
                    problems.append(f"{where}: n = {r['n']}, expected {call.n}")
                mid = 0.5 * (r["ci_low"] + r["ci_high"])
                if not (r["var_hat"] > 0.0 and r["ci_low"] < r["tau_hat"] < r["ci_high"]):
                    problems.append(f"{where}: interval or variance out of order")
                elif abs(mid - r["tau_hat"]) > REL_TOL * max(1.0, abs(r["tau_hat"])):
                    problems.append(f"{where}: interval is not centred on the estimate")
    return problems


def check(inputs, records: dict[str, list[dict]], references: dict) -> tuple[list[str], str]:
    """All checks on one pass's records; returns (problems, note on references)."""
    problems = independent_checks(inputs, records)
    entry = references.get(str(inputs.seed), {}).get(inputs.name)
    if entry is None:
        return problems, f"reference comparison skipped: no stored references for seed {inputs.seed}"
    for label, want in entry.items():
        if label not in records:
            problems.append(f"{label}: no records to compare with the reference")
            continue
        problems.extend(compare_records(label, records[label], want))
    return problems, f"reference comparison done for seed {inputs.seed}"
