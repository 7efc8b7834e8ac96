"""On-demand certification suites behind the `verify` CLI command.

Each check pits an implementation against an independent route: closed-form
variances against brute-force enumeration over every assignment, the
leave-one-out estimates loora.estimate computes against literal refits,
leverage caps against randomized matrices, and the large-sample variance
against its analytic benchmark.

This module also holds the literal routes themselves, as private helpers
that nothing else in the package calls: the per-unit np.delete refits of
LOORA-HT and LOORA-DM and the pairwise leave-two-out form of LOORA-DM, each
a plain Python loop summed by math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import CompleteDesign, SimpleDesign, draw_with
from .estimators import (
    DEFAULT_LAMBDA_RULE,
    ArmCounts,
    LambdaRule,
    Method,
    ObservedSample,
    _loora_dm_responses,
    ht_outcome_scales,
    realized_arm_probability,
    require_simple,
    reweighted_outcomes_ht,
)
from .exceptions import InvalidInput
from .inference import estimate
from .linalg import check_loo_feasible, leverage_regularizer, ridge_factor, ridge_leverages_svd
from .oracle import (
    Population,
    enumeration_moments,
    lin_asymptotic_variance,
    loora_dm_variance,
    loora_ht_variance,
    observed_sample,
)
from .simulation import StudyConfig, run_study, synth_population

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _loora_ht_refit(s: ObservedSample, rule: LambdaRule = DEFAULT_LAMBDA_RULE) -> float:
    """LOORA-HT by n literal regressions.

    Per unit, outcomes are adjusted by x_i' beta^{(-i)} where beta^{(-i)} is
    the ridge fit of the reweighted outcomes on the inverse-weighted
    covariates with row i removed.
    """
    p = require_simple(s.spec, "LOORA_HT").p
    xw = s.x / np.sqrt(p * (1.0 - p))[:, None]
    lam = rule.resolve(xw)
    d, z, y, n = s.assignment.d, s.assignment.z, s.y, s.x.shape[0]
    yw = reweighted_outcomes_ht(y, d, ht_outcome_scales(p))
    q = realized_arm_probability(p, d)
    terms = []
    for i in range(n):
        beta = ridge_factor(np.delete(xw, i, axis=0), lam).fit(np.delete(yw, i))
        terms.append(z[i] / q[i] * (y[i] - s.x[i] @ beta))
    return math.fsum(terms) / n


def _sample_counts(s: ObservedSample, allow_design_mismatch: bool):
    """LOORA-DM's arm counts of one sample, as one-row arrays; raises where they fail."""
    arms = ArmCounts.of("LOORA_DM", s.spec, allow_design_mismatch)
    n_t, n_c, failed = arms.counts(s.assignment.d[None])
    if failed:
        raise failed[0]
    return n_t, n_c


def _loora_dm_refit(
    s: ObservedSample, rule: LambdaRule = DEFAULT_LAMBDA_RULE, allow_design_mismatch: bool = False
) -> float:
    """LOORA-DM by n literal regressions.

    The response regressed without unit i is rescaled according to unit
    i's arm, so the leave-one-out fit has the right expectation under
    complete random assignment.
    """
    n_t, n_c = _sample_counts(s, allow_design_mismatch)
    d, z, y, x = s.assignment.d, s.assignment.z, s.y, s.x
    (for_treated, for_control), v = _loora_dm_responses(n_t, n_c, d[None], y[None])
    for_treated, for_control, v = for_treated[0], for_control[0], v[0]
    lam = rule.resolve(x)
    terms = []
    for i in range(x.shape[0]):
        resp = for_treated if d[i] == 1.0 else for_control
        beta = ridge_factor(np.delete(x, i, axis=0), lam).fit(np.delete(resp, i))
        terms.append(v[i] * z[i] * (y[i] - x[i] @ beta))
    return math.fsum(terms)


def _loora_dm_pairwise(
    s: ObservedSample, rule: LambdaRule = DEFAULT_LAMBDA_RULE, allow_design_mismatch: bool = False
) -> float:
    """LOORA-DM through its pairwise leave-two-out representation.

    tau_hat = (n_t n_c)^{-1} sum_{i<j} (d_i - d_j)(y_i - y_j - phi_ij), where
    phi_ij adjusts the pair using ridge fits that exclude both i and j's
    outcomes. Structurally verifies that each pair's adjustment depends only
    on the other units' assignments; the value matches LOORA-DM whenever
    both arms hold at least two units. With a singleton arm the rewriting
    degenerates (its rescaled outcome carries a zero-times-undefined weight)
    and the two forms may differ.
    """
    n_t, n_c = (int(c[0]) for c in _sample_counts(s, allow_design_mismatch))
    d, y, x, n = s.assignment.d, s.y, s.x, s.x.shape[0]
    lam = rule.resolve(x)
    # Unified rescaled outcomes; undefined own-group entries (n_t or n_c = 1)
    # are zeroed and only ever excluded, never read, in cross-arm pairs.
    a_t = n_c * (n - 1) / ((n_t - 1) * n) if n_t > 1 else 0.0
    a_c = n_t * (n - 1) / ((n_c - 1) * n) if n_c > 1 else 0.0
    yu = np.where(d == 1.0, a_t, a_c) * y
    factor = ridge_factor(x, lam)
    h = factor.hat_diag
    check_loo_feasible(h)
    # Row i of drop_one: x_i' (X_{-i}'X_{-i} + lam I)^{-1}, by Sherman-Morrison;
    # row i of z' is x_i' (X'X + lam I)^{-1}.
    base = factor.z.T
    drop_one = base + base * (h / (1.0 - h))[:, None]
    xty = x.T @ yu
    treated_idx = np.nonzero(d == 1.0)[0]
    control_idx = np.nonzero(d == 0.0)[0]
    terms = []
    for i in treated_idx:
        for j in control_idx:
            s_ij = xty - x[i] * yu[i] - x[j] * yu[j]
            phi = (drop_one[i] - drop_one[j]) @ s_ij
            terms.append(y[i] - y[j] - phi)
    return math.fsum(terms) / (n_t * n_c)


def _random_population(rng, n, k) -> Population:
    x = rng.standard_normal((n, k))
    x /= np.maximum(x.std(axis=0), 1e-9)
    y1 = rng.standard_normal(n) + 1.0
    y0 = rng.standard_normal(n)
    return Population(x, y1, y0)


def check_unbiasedness(seed: int = 0, trials: int = 25) -> CheckResult:
    """Enumeration mean of both leave-one-out estimators equals the ATE."""
    rng = np.random.default_rng(seed)
    tol = 1e-11
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 3))
        pop = _random_population(rng, n, k)
        p = rng.uniform(0.25, 0.75, n)
        mean, _ = enumeration_moments(pop, SimpleDesign(p), Method.LOORA_HT)
        worst = max(worst, _rel_gap(mean, pop.tau))
        n_t = int(rng.integers(2, n - 1))
        mean, _ = enumeration_moments(pop, CompleteDesign(n, n_t), Method.LOORA_DM)
        worst = max(worst, _rel_gap(mean, pop.tau))
    return CheckResult("unbiasedness", worst <= tol, worst, tol, f"{2 * trials} enumerations")


def check_variance_ht_exact(seed: int = 1, trials: int = 15) -> CheckResult:
    """Closed-form LOORA-HT variance equals the enumeration variance."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 3))
        pop = _random_population(rng, n, k)
        p = rng.uniform(0.3, 0.7, n)
        for rule in (LambdaRule.auto(2.0), LambdaRule.fixed(0.0)):
            r = np.sqrt(p * (1.0 - p))
            lam = rule.resolve(pop.x / r[:, None])
            _, enum_var = enumeration_moments(pop, SimpleDesign(p), Method.LOORA_HT, rule)
            worst = max(worst, _rel_gap(loora_ht_variance(pop, p, lam), enum_var))
    return CheckResult("variance-ht-exact", worst <= tol, worst, tol, f"{2 * trials} fixtures")


def check_variance_dm_exact(seed: int = 2, trials: int = 15) -> CheckResult:
    """Closed-form LOORA-DM variance (with its cross-unit quadratic form)
    equals the enumeration variance, n = 4 included."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 3))
        pop = _random_population(rng, n, k)
        n_t = int(rng.integers(2, n - 1))
        for rule in (LambdaRule.auto(2.0), LambdaRule.fixed(0.0)):
            lam = rule.resolve(pop.x)
            _, enum_var = enumeration_moments(pop, CompleteDesign(n, n_t), Method.LOORA_DM, rule)
            worst = max(worst, _rel_gap(loora_dm_variance(pop, n_t, lam), enum_var))
    return CheckResult("variance-dm-exact", worst <= tol, worst, tol, f"{2 * trials} fixtures")


def check_loo_identities(seed: int = 3, trials: int = 10) -> CheckResult:
    """loora.estimate's LOORA-HT and LOORA-DM equal literal per-unit refits."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    rule = LambdaRule.auto(2.0)
    for trial in range(trials):
        n = int(rng.integers(10, 61))
        k = int(rng.integers(1, 9))
        pop = _random_population(rng, n, k)
        p = rng.uniform(0.3, 0.7, n)
        spec_s = SimpleDesign(p)
        rng_draw = np.random.default_rng(seed + 1000 + trial)
        a = draw_with(spec_s, rng_draw)
        s = observed_sample(pop, a, spec_s)
        worst = max(worst, _rel_gap(estimate(Method.LOORA_HT, s, rule), _loora_ht_refit(s, rule)))
        n_t = n // 2
        spec_c = CompleteDesign(n, n_t)
        a = draw_with(spec_c, rng_draw)
        s = observed_sample(pop, a, spec_c)
        worst = max(worst, _rel_gap(estimate(Method.LOORA_DM, s, rule), _loora_dm_refit(s, rule)))
    return CheckResult("loo-identities", worst <= tol, worst, tol, f"{2 * trials} fixtures")


def check_leverage_bound(seed: int = 4, trials: int = 200) -> CheckResult:
    """Ridge leverages at the capped penalty stay below 1 / (1 + c)."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = -np.inf
    for _ in range(trials):
        n = int(rng.integers(3, 21))
        k = int(rng.integers(1, 7))
        x = rng.standard_t(df=2, size=(n, k))  # heavy-tailed rows
        for c in (0.5, 1.0, 2.0, 5.0):
            lam = leverage_regularizer(x, c)
            h = ridge_leverages_svd(x, lam)
            worst = max(worst, float(np.max(h)) - 1.0 / (1.0 + c))
    return CheckResult("leverage-bound", worst <= tol, worst, tol, f"{trials} matrices x 4 caps")


def check_pairwise_equivalence(seed: int = 5, trials: int = 10) -> CheckResult:
    """The pairwise leave-two-out form reproduces loora.estimate's LOORA-DM value."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    rule = LambdaRule.auto(2.0)
    for trial in range(trials):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(1, 4))
        pop = _random_population(rng, n, k)
        # The pairwise rewriting needs both arms to hold at least two units;
        # a singleton arm's rescaled outcome carries a 0 * undefined weight.
        n_t = int(rng.integers(2, n - 1))
        spec = CompleteDesign(n, n_t)
        a = draw_with(spec, np.random.default_rng(seed + trial))
        s = observed_sample(pop, a, spec)
        worst = max(worst, _rel_gap(estimate(Method.LOORA_DM, s, rule), _loora_dm_pairwise(s, rule)))
    return CheckResult("pairwise-equivalence", worst <= tol, worst, tol, f"{trials} fixtures")


def check_lin_equivalence(n: int = 5000, reps: int = 5000, seed: int = 6) -> CheckResult:
    """Monte Carlo variance of LOORA-HT matches the analytic benchmark.

    With equal assignment probabilities, centered covariates plus an
    intercept, the scaled variance converges to the interacted-adjustment
    asymptotic variance; this checks the finite-n value within 5%.
    """
    k = 5
    pop = synth_population("linear-heterogeneous", n, k, seed)
    target = lin_asymptotic_variance(pop, 0.5)
    x_aug = np.column_stack([np.ones(pop.n), pop.x])
    pop_est = Population(x_aug, pop.y1, pop.y0)
    cfg = StudyConfig(
        design="simple-half", methods=("LOORA_HT",), reps=reps, level=0.95, seed=seed
    )
    report = run_study(pop_est, cfg)
    got = n * report.stats[0].std ** 2
    worst = abs(got - target) / target
    return CheckResult(
        "lin-equivalence",
        worst <= 0.05,
        worst,
        0.05,
        f"n={n} reps={reps} scaled MC variance {got:.6f} vs benchmark {target:.6f}",
    )


# Every check by name, as run_checks(names, seed, n) calls it; each check's
# seed is offset by its place in the table.
CHECKS = {
    "unbiasedness": lambda seed, n: check_unbiasedness(seed),
    "variance-ht-exact": lambda seed, n: check_variance_ht_exact(seed + 1),
    "variance-dm-exact": lambda seed, n: check_variance_dm_exact(seed + 2),
    "loo-identities": lambda seed, n: check_loo_identities(seed + 3),
    "leverage-bound": lambda seed, n: check_leverage_bound(seed + 4),
    "pairwise-equivalence": lambda seed, n: check_pairwise_equivalence(seed + 5),
    "lin-equivalence": lambda seed, n: check_lin_equivalence(n=n, seed=seed + 6),
}
# The default suite: every check but the Monte Carlo study of lin-equivalence.
CORE_CHECKS = tuple(name for name in CHECKS if name != "lin-equivalence")


def run_checks(names, seed: int = 0, n: int = 5000) -> list[CheckResult]:
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    return [CHECKS[name](seed, n) for name in names]
