"""On-demand certification suites behind the `verify` CLI command.

Each check pits an implementation against an independent route: closed-form
variances against brute-force enumeration over every assignment, the
leave-one-out point estimates of loora.plan_estimate against literal refits,
leverage caps against randomized matrices, and n times either exact
variance against the interacted-adjustment benchmark it reaches in large
samples.

This module also holds the literal routes themselves, as private helpers
that nothing else in the package calls: the per-unit np.delete refits of
LOORA-HT and LOORA-DM and the pairwise leave-two-out form of LOORA-DM, each
a plain Python loop summed by math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import CompleteDesign, DesignSpec, SimpleDesign, draw_with
from .estimators import DEFAULT_LAMBDA_RULE, LambdaRule, Method
from .exceptions import InvalidInput, SpecMismatch
from .inference import plan_estimate, require_complete, require_simple
from .linalg import check_loo_feasible, leverage_regularizer, ridge_factor, ridge_leverages_svd
from .oracle import (
    Population,
    lin_asymptotic_variance,
    loora_dm_variance,
    loora_ht_variance,
    observe,
)
from .simulation import enumeration_moments, synth_population


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _loora_ht_refit(
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    spec: DesignSpec,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
) -> float:
    """LOORA-HT by n literal regressions.

    Per unit, outcomes are adjusted by x_i' beta^{(-i)} where beta^{(-i)} is
    the ridge fit of the reweighted outcomes on the inverse-weighted
    covariates with row i removed: treated outcomes scaled by
    (1-p)^(1/2) / p^(3/2), control outcomes by p^(1/2) / (1-p)^(3/2). Unit
    i's term is weighted z_i / q_i, with q_i the probability of its arm.
    """
    p = require_simple(spec, "LOORA_HT").p
    xw = x / np.sqrt(p * (1.0 - p))[:, None]
    lam = rule.resolve(xw)
    n = x.shape[0]
    z = 2.0 * d - 1.0
    treated = d == 1.0
    yw = np.where(treated, np.sqrt(1.0 - p) / p**1.5, np.sqrt(p) / (1.0 - p) ** 1.5) * y
    q = np.where(treated, p, 1.0 - p)
    terms = []
    for i in range(n):
        beta = ridge_factor(np.delete(xw, i, axis=0), lam).fit(np.delete(yw, i))
        terms.append(z[i] / q[i] * (y[i] - x[i] @ beta))
    return math.fsum(terms) / n


def _sample_counts(d: np.ndarray, spec: DesignSpec, allow_design_mismatch: bool) -> tuple[int, int]:
    """LOORA-DM's arm counts (n_t, n_c) of one assignment d; raises where they fail."""
    require_complete(spec, "LOORA_DM", allow_design_mismatch)
    n_t = int(d.sum())
    if not 0 < n_t < d.shape[0]:
        raise SpecMismatch("LOORA_DM needs at least one treated and one control unit")
    return n_t, d.shape[0] - n_t


def _loora_dm_refit(
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    spec: DesignSpec,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> float:
    """LOORA-DM by n literal regressions.

    The response regressed without unit i is rescaled according to unit
    i's arm, so the leave-one-out fit has the right expectation under
    complete random assignment: with c = n_t n_c (n - 1) / n, an outcome in
    unit i's arm, of size m, is weighted c / (m (m - 1)) and one in the other
    arm, of size m', c / m'^2. A singleton arm's own weight is undefined and
    set to 0; it belongs to the removed unit, so no fit reads it. Unit i's
    term carries its arm weight 1/n_arm.
    """
    n_t, n_c = _sample_counts(d, spec, allow_design_mismatch)
    z, n = 2.0 * d - 1.0, x.shape[0]
    scale = n_t * n_c * (n - 1) / n
    own_t = scale / (n_t * (n_t - 1)) if n_t > 1 else 0.0
    own_c = scale / (n_c * (n_c - 1)) if n_c > 1 else 0.0
    treated = d == 1.0
    for_treated = np.where(treated, own_t, scale / n_c**2) * y
    for_control = np.where(treated, scale / n_t**2, own_c) * y
    lam = rule.resolve(x)
    terms = []
    for i in range(n):
        resp, v = (for_treated, 1.0 / n_t) if treated[i] else (for_control, 1.0 / n_c)
        beta = ridge_factor(np.delete(x, i, axis=0), lam).fit(np.delete(resp, i))
        terms.append(v * z[i] * (y[i] - x[i] @ beta))
    return math.fsum(terms)


def _loora_dm_pairwise(
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    spec: DesignSpec,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
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
    n_t, n_c = _sample_counts(d, spec, allow_design_mismatch)
    n = x.shape[0]
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
    """The planned LOORA-HT and LOORA-DM point estimates equal literal per-unit refits."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    rule = LambdaRule.auto(2.0)
    for trial in range(trials):
        n = int(rng.integers(10, 61))
        k = int(rng.integers(1, 9))
        pop = _random_population(rng, n, k)
        p = rng.uniform(0.3, 0.7, n)
        rng_draw = np.random.default_rng(seed + 1000 + trial)
        for method, spec, refit in (
            (Method.LOORA_HT, SimpleDesign(p), _loora_ht_refit),
            (Method.LOORA_DM, CompleteDesign(n, n // 2), _loora_dm_refit),
        ):
            d = draw_with(spec, rng_draw)
            y = observe(pop, d)
            fast = plan_estimate(method, pop.x, spec, rule).point(d, y)
            worst = max(worst, _rel_gap(fast, refit(pop.x, y, d, spec, rule)))
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
    """The pairwise leave-two-out form reproduces the planned LOORA-DM point estimate."""
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
        d = draw_with(spec, np.random.default_rng(seed + trial))
        y = observe(pop, d)
        fast = plan_estimate(Method.LOORA_DM, pop.x, spec, rule).point(d, y)
        worst = max(worst, _rel_gap(fast, _loora_dm_pairwise(pop.x, y, d, spec, rule)))
    return CheckResult("pairwise-equivalence", worst <= tol, worst, tol, f"{trials} fixtures")


def check_efficiency(seed: int = 6) -> CheckResult:
    """n times each exact variance reaches the interacted-adjustment benchmark.

    On the linear-heterogeneous population with an intercept column, p = 1/2
    and n_t = n/2, n V / V_Lin - 1 shrinks as O(1/n) for LOORA-HT and
    LOORA-DM alike; both gaps must be within 1e-2 at n = 2^15. The gaps at
    2^11 and 2^13 are reported, not gated: they need not shrink monotonically.
    """
    tol = 1e-2
    rule = LambdaRule.auto(2.0)
    gaps = []
    for n in (2**11, 2**13, 2**15):
        pop = synth_population("linear-heterogeneous", n, 5, seed)
        target = lin_asymptotic_variance(pop, 0.5)
        x = np.column_stack([np.ones(n), pop.x])
        fitted = Population(x, pop.y1, pop.y0)
        p = np.full(n, 0.5)
        lam_ht = rule.resolve(x / np.sqrt(p * (1.0 - p))[:, None])
        ht = n * loora_ht_variance(fitted, p, lam_ht) / target - 1.0
        dm = n * loora_dm_variance(fitted, n // 2, rule.resolve(x)) / target - 1.0
        gaps.append((n, ht, dm))
    worst = max(abs(gaps[-1][1]), abs(gaps[-1][2]))
    detail = ", ".join(f"n={n} HT {ht:+.2e} DM {dm:+.2e}" for n, ht, dm in gaps)
    return CheckResult("efficiency", worst <= tol, worst, tol, f"n V / V_Lin - 1: {detail}")


# Every check by name, as run_checks(names, seed) calls it; each check's seed
# is offset by its place in the table.
CHECKS = {
    "unbiasedness": lambda seed: check_unbiasedness(seed),
    "variance-ht-exact": lambda seed: check_variance_ht_exact(seed + 1),
    "variance-dm-exact": lambda seed: check_variance_dm_exact(seed + 2),
    "loo-identities": lambda seed: check_loo_identities(seed + 3),
    "leverage-bound": lambda seed: check_leverage_bound(seed + 4),
    "pairwise-equivalence": lambda seed: check_pairwise_equivalence(seed + 5),
    "efficiency": lambda seed: check_efficiency(seed + 6),
}


def run_checks(names, seed: int = 0) -> list[CheckResult]:
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    return [CHECKS[name](seed) for name in names]
