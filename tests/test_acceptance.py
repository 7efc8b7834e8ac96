"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not calibrated elsewhere. Criteria
1-5 run the `loora verify` checks with their own seeds and fixture counts and
compare each worst discrepancy with the tolerance pinned here.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import loora
from loora.linalg import ridge_factor
from loora.oracle import Population, lin_asymptotic_variance
from loora.simulation import StudyConfig, run_study, synth_population
from loora.verify import (
    check_leverage_bound,
    check_loo_identities,
    check_pairwise_equivalence,
    check_unbiasedness,
    check_variance_dm_exact,
    check_variance_ht_exact,
)
from reference_routes import hat_full


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[acceptance] {'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_exact_unbiasedness():
    result = check_unbiasedness(1001, 100)
    report(
        "criterion 1 (exact unbiasedness by enumeration)",
        result.worst <= 1e-11,
        f"100 populations x both designs; worst relative gap {result.worst:.3e} (tol 1e-11)",
    )


def test_criterion_2_exact_variance_formulas():
    ht = check_variance_ht_exact(2002, 100)
    dm = check_variance_dm_exact(2002, 100)
    report(
        "criterion 2 (exact variance formulas vs enumeration)",
        ht.worst <= 1e-9 and dm.worst <= 1e-9,
        f"100 populations per design x two penalties, n = 4 included; worst relative gap "
        f"LOORA-HT {ht.worst:.3e}, LOORA-DM {dm.worst:.3e} (tol 1e-9)",
    )


def test_criterion_3_loo_identities():
    result = check_loo_identities(3003, 50)
    report(
        "criterion 3 (hat-identity estimators equal literal refits)",
        result.worst <= 1e-9,
        f"50 fixtures up to n=60, k=8; worst relative gap {result.worst:.3e} (tol 1e-9)",
    )


def test_criterion_4_leverage_bound():
    result = check_leverage_bound(4004, 200)
    report(
        "criterion 4 (capped-penalty leverage bound)",
        result.worst <= 1e-12,
        f"200 heavy-tailed matrices x four caps; worst excess {result.worst:.3e} (tol 1e-12)",
    )


def test_criterion_5_leave_two_out_equivalence():
    result = check_pairwise_equivalence(5005, 50)
    report(
        "criterion 5 (pairwise leave-two-out form equals the one-at-a-time form)",
        result.worst <= 1e-9,
        f"50 fixtures (both arms >= 2); worst relative gap {result.worst:.3e} (tol 1e-9)",
    )


def test_criterion_6_asymptotic_efficiency():
    n, k = 5000, 5
    pop = synth_population("linear-heterogeneous", n, k, 20250809)
    target = lin_asymptotic_variance(pop, 0.5)
    x_aug = np.column_stack([np.ones(n), pop.x])
    pop_aug = Population(x_aug, pop.y1, pop.y0)
    cfg = StudyConfig(design="simple-half", methods=("LOORA_HT",), reps=5000, seed=202)
    got_ht = n * run_study(pop_aug, cfg).stats[0].std ** 2
    gap_ht = abs(got_ht - target) / target
    cfg = StudyConfig(design="complete", methods=("LOORA_DM",), reps=5000, seed=102, n_t=n // 2)
    got_dm = n * run_study(pop, cfg).stats[0].std ** 2
    gap_dm = abs(got_dm - target) / target
    report(
        "criterion 6 (large-sample variance matches the efficiency benchmark)",
        gap_ht <= 0.05 and gap_dm <= 0.05,
        f"n=5000, 5000 reps: benchmark {target:.5f}; scaled MC variance "
        f"HT-side {got_ht:.5f} (rel {gap_ht:.3f}), DM-side {got_dm:.5f} "
        f"(rel {gap_dm:.3f}); tol 0.05",
    )


def test_criterion_7_coverage_pattern():
    pop = synth_population("binary-outcome", 120, 10, 7)
    cfg = StudyConfig(design="simple-half", methods=("LOORA_HT",), reps=20000, seed=1)
    cov_ht = run_study(pop, cfg).stats[0].coverage
    cfg = StudyConfig(design="complete", methods=("LOORA_DM",), reps=20000, seed=2, n_t=60)
    cov_dm = run_study(pop, cfg).stats[0].coverage
    in_band = 0.93 <= cov_ht <= 0.97 and 0.93 <= cov_dm <= 0.97

    stress = synth_population("leverage-stress", 36, 4, 77)
    cfg = StudyConfig(
        design="complete", methods=("ADJ", "LOORA_DM"), reps=20000, seed=3, n_t=18
    )
    rep = run_study(stress, cfg)
    stats = {s.method: s for s in rep.stats}
    adj, ldm = stats["ADJ"], stats["LOORA_DM"]
    reps = adj.reps_used
    se_cov = math.sqrt(
        adj.coverage * (1 - adj.coverage) / reps + ldm.coverage * (1 - ldm.coverage) / reps
    )
    undercovers = adj.coverage < ldm.coverage - 3.0 * se_cov
    se_bias = math.sqrt(adj.std**2 / reps + ldm.std**2 / reps)
    bias_ordered = abs(adj.bias) > abs(ldm.bias) + 3.0 * se_bias
    report(
        "criterion 7 (coverage pattern and single-fit undercoverage)",
        in_band and undercovers and bias_ordered,
        f"coverage LOORA-HT {cov_ht:.4f}, LOORA-DM {cov_dm:.4f} (band [0.93, 0.97]); "
        f"leverage-stress coverage ADJ {adj.coverage:.4f} vs LOORA-DM "
        f"{ldm.coverage:.4f} (3-sigma {3 * se_cov:.4f}); |bias| ADJ {abs(adj.bias):.4f} "
        f"vs LOORA-DM {abs(ldm.bias):.4f} (3-sigma {3 * se_bias:.4f})",
    )


def test_criterion_8_residual_monotonicity_and_frobenius_bound():
    rng = np.random.default_rng(8008)
    worst_mono = -np.inf
    worst_frob = -np.inf
    for _ in range(40):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(1, 5))
        x = rng.standard_normal((n, k))
        v = rng.standard_normal(n)
        lams = np.sort(rng.uniform(0.0, 8.0, 5))
        previous = None
        for lam in lams:
            factor = ridge_factor(x, lam)
            err = float(np.sum((x @ factor.fit(v) - v) ** 2))
            if previous is not None:
                worst_mono = max(worst_mono, previous - err)
            previous = err
            off = hat_full(factor)[np.triu_indices(n, k=1)]
            worst_frob = max(worst_frob, float(np.sum(off**2)) - k / 2.0)
    report(
        "criterion 8 (ridge residual monotonicity and off-diagonal leverage bound)",
        worst_mono <= 1e-10 and worst_frob <= 1e-10,
        f"40 fixtures x 5 penalties; worst monotonicity violation {worst_mono:.3e}, "
        f"worst pairwise-square excess over k/2 {worst_frob:.3e} (tol 1e-10)",
    )


# Each study runs in two processes, one with every BLAS library limited to one
# thread and one allowing two; numpy's and scipy's OpenBLAS read
# OPENBLAS_NUM_THREADS when they load, so the setting must be made per process.
_BLAS_THREAD_STUDIES = {
    "n = 120, 5 methods": (
        "--synth binary-outcome --n 120 --k 10 --pop-seed 7 --design complete --nt 60 "
        "--methods DM,ADJ,INT,RIDGE_REG,LOORA_DM --reps 200 --seed 1"
    ),
    "n = 5000, 7 methods": (
        "--synth linear-heterogeneous --n 5000 --k 5 --pop-seed 2 --design simple-half "
        "--methods HT,DM,ADJ,INT,RIDGE_REG,LOORA_HT,LOORA_DM --allow-design-mismatch "
        "--reps 20 --seed 3"
    ),
}


def _study_under_blas_threads(study: str, threads: int, out) -> bytes:
    src = str(Path(loora.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    argv = [sys.executable, "-m", "loora.cli", "simulate", *study.split(), "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return out.read_bytes()


def test_criterion_9_byte_identical_reports_across_threads(tmp_path):
    details, identical = [], True
    for label, study in _BLAS_THREAD_STUDIES.items():
        one, two = (
            _study_under_blas_threads(study, threads, tmp_path / f"{threads}.jsonl")
            for threads in (1, 2)
        )
        identical &= one == two
        details.append(f"{label}: {len(one)} and {len(two)} bytes")
    report(
        "criterion 9 (machine reports byte-identical across thread counts)",
        identical,
        "two processes per study under 1 and 2 BLAS threads; " + "; ".join(details),
    )
