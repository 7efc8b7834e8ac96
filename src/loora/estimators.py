"""Point estimators of the average treatment effect.

Covers the unadjusted Horvitz-Thompson and difference-in-means estimators,
the classical regression-adjusted benchmarks (with and without interactions,
and a ridge-penalized variant), and the leave-one-out ridge-adjusted
estimators LOORA-HT (simple random assignment) and LOORA-DM (complete random
assignment). Each LOORA estimator has a fast path computed from a single
ridge factorization through the leave-one-out identity, and a literal
per-unit refit path used to certify the fast path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .design import Assignment, CompleteDesign, DesignSpec, SimpleDesign
from .exceptions import InvalidInput, SpecMismatch
from .linalg import (
    RidgeFit,
    as_design_matrix,
    as_vector,
    check_loo_feasible,
    leverage_regularizer,
    ridge_fit,
)


class Method(str, enum.Enum):
    """Identifiers for every estimator the package exposes."""

    HT = "HT"
    DM = "DM"
    ADJ = "ADJ"
    INT = "INT"
    RIDGE_REG = "RIDGE_REG"
    LOORA_HT = "LOORA_HT"
    LOORA_DM = "LOORA_DM"


# Methods defined for each assignment mechanism.
SIMPLE_METHODS = frozenset({Method.HT, Method.LOORA_HT})
COMPLETE_METHODS = frozenset(
    {Method.DM, Method.ADJ, Method.INT, Method.RIDGE_REG, Method.LOORA_DM}
)


@dataclass(frozen=True)
class LambdaRule:
    """How to choose the ridge penalty: a fixed value, or c * ||X||_{2,inf}^2.

    The auto rule applies c to the matrix actually regressed (the
    inverse-weighted covariates for LOORA-HT, the raw covariates otherwise).
    """

    mode: str  # "fixed" or "auto"
    value: float

    @staticmethod
    def fixed(lam: float) -> "LambdaRule":
        if not (math.isfinite(lam) and lam >= 0.0):
            raise InvalidInput(f"fixed lambda must be finite and nonnegative, got {lam}")
        return LambdaRule("fixed", float(lam))

    @staticmethod
    def auto(c: float = 2.0) -> "LambdaRule":
        if not (math.isfinite(c) and c >= 0.0):
            raise InvalidInput(f"auto-rule constant must be finite and nonnegative, got {c}")
        return LambdaRule("auto", float(c))

    def resolve(self, regressed_matrix: np.ndarray) -> float:
        if self.mode == "fixed":
            return self.value
        if self.mode == "auto":
            return leverage_regularizer(regressed_matrix, self.value)
        raise InvalidInput(f"unknown lambda rule mode {self.mode!r}")


DEFAULT_LAMBDA_RULE = LambdaRule.auto(2.0)


@dataclass(frozen=True)
class ObservedSample:
    """What an analyst holds after the experiment: X, observed y, d, design."""

    x: np.ndarray
    y: np.ndarray
    assignment: Assignment
    spec: DesignSpec

    def __post_init__(self):
        x = as_design_matrix(self.x)
        y = as_vector(self.y, x.shape[0], "outcome")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        n = x.shape[0]
        if self.assignment.n != n:
            raise InvalidInput("assignment length does not match the design matrix")
        if isinstance(self.spec, SimpleDesign):
            if self.spec.n != n:
                raise InvalidInput("simple design length does not match the sample")
        elif isinstance(self.spec, CompleteDesign):
            if self.spec.n != n:
                raise InvalidInput("complete design size does not match the sample")
            if self.assignment.n_treated != self.spec.n_t:
                raise InvalidInput(
                    "assignment treats "
                    f"{self.assignment.n_treated} units but the design fixes {self.spec.n_t}"
                )

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _require_simple(s: ObservedSample, method: str) -> SimpleDesign:
    if not isinstance(s.spec, SimpleDesign):
        raise SpecMismatch(f"{method} is defined under simple random assignment only")
    return s.spec


def _group_counts(
    s: ObservedSample, method: str, allow_design_mismatch: bool
) -> tuple[int, int]:
    """Treated/control counts for the DM family, honoring the mismatch opt-in.

    Under the opt-in, a sample drawn from a simple design is analyzed as if
    the realized treated count had been fixed; that is how the simulation
    protocol applies the DM family under independent assignment.
    """
    if isinstance(s.spec, CompleteDesign):
        n_t = s.spec.n_t
    elif allow_design_mismatch:
        n_t = s.assignment.n_treated
    else:
        raise SpecMismatch(f"{method} is defined under complete random assignment only")
    n_c = s.n - n_t
    if n_t < 1 or n_c < 1:
        raise SpecMismatch(f"{method} needs at least one treated and one control unit")
    return n_t, n_c


def estimate_ht(s: ObservedSample) -> float:
    """Horvitz-Thompson estimate: inverse-probability-weighted arm difference."""
    spec = _require_simple(s, "HT")
    d, y, p, n = s.assignment.d, s.y, spec.p, s.n
    treated = math.fsum(d * y / p) / n
    control = math.fsum((1.0 - d) * y / (1.0 - p)) / n
    return treated - control


def estimate_dm(s: ObservedSample, allow_design_mismatch: bool = False) -> float:
    """Difference in means: treated-group mean minus control-group mean."""
    n_t, n_c = _group_counts(s, "DM", allow_design_mismatch)
    d, y = s.assignment.d, s.y
    return math.fsum(d * y) / n_t - math.fsum((1.0 - d) * y) / n_c


@dataclass(frozen=True)
class LooraHtParts:
    """Intermediate quantities of a LOORA-HT evaluation, reused by inference."""

    tau_hat: float
    lam: float
    xw: np.ndarray  # inverse-weighted covariates X / r
    yw: np.ndarray  # reweighted outcomes with expectation equal to the HT signal
    beta: np.ndarray  # full-sample ridge fit of yw on xw
    hat_diag: np.ndarray
    q: np.ndarray
    z: np.ndarray


def realized_arm_probability(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q_i = p_i d_i + (1 - p_i)(1 - d_i), the probability of the arm unit i got."""
    return p * d + (1.0 - p) * (1.0 - d)


def reweighted_outcomes_ht(y, d, p) -> np.ndarray:
    """Per-unit rescaled outcomes whose expectation is the HT signal vector.

    Treated units are scaled by (1-p)^(1/2) / p^(3/2), control units by
    p^(1/2) / (1-p)^(3/2).
    """
    treated_scale = np.sqrt(1.0 - p) / p**1.5
    control_scale = np.sqrt(p) / (1.0 - p) ** 1.5
    return np.where(d == 1.0, treated_scale, control_scale) * y


def _loora_ht_setup(s: ObservedSample, rule: LambdaRule):
    """Shared set-up of both LOORA-HT paths: (r, xw, yw, lam, q)."""
    spec = _require_simple(s, "LOORA_HT")
    d, p = s.assignment.d, spec.p
    r = np.sqrt(p * (1.0 - p))
    xw = s.x / r[:, None]
    yw = reweighted_outcomes_ht(s.y, d, p)
    return r, xw, yw, rule.resolve(xw), realized_arm_probability(p, d)


def loora_ht_parts(s: ObservedSample, rule: LambdaRule = DEFAULT_LAMBDA_RULE) -> LooraHtParts:
    """Run LOORA-HT and keep the pieces confidence intervals need."""
    r, xw, yw, lam, q = _loora_ht_setup(s, rule)
    z = s.assignment.z
    fit = ridge_fit(xw, yw, lam)
    # x_i' beta^{(-i)} with the raw row x_i = r_i * (x_i / r_i)
    adjustment = r * fit.loo_fitted()
    tau_hat = math.fsum(z / q * (s.y - adjustment)) / s.n
    return LooraHtParts(
        tau_hat=tau_hat, lam=lam, xw=xw, yw=yw, beta=fit.beta, hat_diag=fit.hat_diag, q=q, z=z
    )


def estimate_loora_ht(
    s: ObservedSample, rule: LambdaRule = DEFAULT_LAMBDA_RULE, refit: bool = False
) -> float:
    """Leave-one-out ridge-adjusted Horvitz-Thompson estimate.

    Per unit, outcomes are adjusted by x_i' beta^{(-i)} where beta^{(-i)} is
    the ridge fit of the reweighted outcomes on the inverse-weighted
    covariates with row i removed. With refit=True the n regressions are run
    literally; the default path uses the hat-matrix identity and must agree.
    """
    if not refit:
        return loora_ht_parts(s, rule).tau_hat
    _, xw, yw, lam, q = _loora_ht_setup(s, rule)
    z, y = s.assignment.z, s.y
    terms = []
    for i in range(s.n):
        sub = np.delete(xw, i, axis=0)
        fit = ridge_fit(sub, np.delete(yw, i), lam)
        terms.append(z[i] / q[i] * (y[i] - s.x[i] @ fit.beta))
    return math.fsum(terms) / s.n


def dm_response_weights(n_t: int, n_c: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit outcome weights of the two rescaled LOORA-DM responses.

    Returns (for_treated, for_control): the weights applied to the observed
    outcomes when the removed unit is treated, respectively control. Entries
    that would be undefined (own-group weight at n_t = 1 or n_c = 1) are set
    to zero; they belong to the single unit of that group, whose row is
    always the one removed, so the value never influences a fit.
    """
    n = n_t + n_c
    scale = n_t * n_c * (n - 1) / n
    w_tt = 1.0 / (n_t * (n_t - 1)) if n_t > 1 else 0.0
    w_cc = 1.0 / (n_c * (n_c - 1)) if n_c > 1 else 0.0
    f_treated = np.where(d == 1.0, w_tt, 1.0 / n_c**2)
    f_control = np.where(d == 1.0, 1.0 / n_t**2, w_cc)
    return scale * f_treated, scale * f_control


@dataclass(frozen=True)
class LooraDmParts:
    """Intermediate quantities of a LOORA-DM evaluation, reused by inference."""

    tau_hat: float
    lam: float
    u: np.ndarray  # per-unit adjusted outcomes y_i - x_i' beta^{(-i)}
    n_t: int
    n_c: int
    d: np.ndarray
    hat_diag: np.ndarray


def _loora_dm_setup(s: ObservedSample, rule: LambdaRule, allow_design_mismatch: bool):
    """Shared set-up of both LOORA-DM paths: (n_t, n_c, responses, lam, v).

    Column 0 of the (n, 2) responses is regressed when the removed unit is
    treated, column 1 when it is a control; v holds the arm weights 1/n_arm.
    """
    n_t, n_c = _group_counts(s, "LOORA_DM", allow_design_mismatch)
    d = s.assignment.d
    responses = np.column_stack(dm_response_weights(n_t, n_c, d)) * s.y[:, None]
    v = np.where(d == 1.0, 1.0 / n_t, 1.0 / n_c)
    return n_t, n_c, responses, rule.resolve(s.x), v


def loora_dm_parts(
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> LooraDmParts:
    """Run LOORA-DM and keep the pieces confidence intervals need."""
    n_t, n_c, responses, lam, v = _loora_dm_setup(s, rule, allow_design_mismatch)
    d = s.assignment.d
    fit = ridge_fit(s.x, responses, lam)
    # The removed unit's own response entry cancels in loo_fitted, so the
    # zero placeholders in the scalings are never read.
    loo = fit.loo_fitted()
    u = s.y - np.where(d == 1.0, loo[:, 0], loo[:, 1])
    tau_hat = math.fsum(v * s.assignment.z * u)
    return LooraDmParts(
        tau_hat=tau_hat, lam=lam, u=u, n_t=n_t, n_c=n_c, d=d, hat_diag=fit.hat_diag
    )


def estimate_loora_dm(
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    refit: bool = False,
    allow_design_mismatch: bool = False,
) -> float:
    """Leave-one-out ridge-adjusted difference-in-means estimate.

    The response being regressed is rescaled according to the removed unit's
    arm so the leave-one-out fit has the right expectation under complete
    random assignment. refit=True runs the n literal regressions.

    Exact unbiasedness requires both arms to hold at least two units: with a
    singleton arm, that arm's counterfactual outcomes never appear among the
    remaining units, so no rescaling can make the adjustment conditionally
    mean-correct. The estimate is still computed for singleton arms (the
    undefined own-group weight is never read) but carries adjustment bias
    there.
    """
    if not refit:
        return loora_dm_parts(s, rule, allow_design_mismatch).tau_hat
    _, _, responses, lam, v = _loora_dm_setup(s, rule, allow_design_mismatch)
    d, z, y, x = s.assignment.d, s.assignment.z, s.y, s.x
    terms = []
    for i in range(s.n):
        resp = responses[:, 0] if d[i] == 1.0 else responses[:, 1]
        fit = ridge_fit(np.delete(x, i, axis=0), np.delete(resp, i), lam)
        terms.append(v[i] * z[i] * (y[i] - x[i] @ fit.beta))
    return math.fsum(terms)


def estimate_loora_dm_pairwise(
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> float:
    """LOORA-DM through its pairwise leave-two-out representation.

    tau_hat = (n_t n_c)^{-1} sum_{i<j} (d_i - d_j)(y_i - y_j - phi_ij), where
    phi_ij adjusts the pair using ridge fits that exclude both i and j's
    outcomes. Structurally verifies that each pair's adjustment depends only
    on the other units' assignments; the value matches estimate_loora_dm
    whenever both arms hold at least two units. With a singleton arm the
    rewriting degenerates (its rescaled outcome carries a zero-times-
    undefined weight) and the two forms may differ.
    """
    n_t, n_c = _group_counts(s, "LOORA_DM", allow_design_mismatch)
    d, y, x, n = s.assignment.d, s.y, s.x, s.n
    lam = rule.resolve(x)
    # Unified rescaled outcomes; undefined own-group entries (n_t or n_c = 1)
    # are zeroed and only ever excluded, never read, in cross-arm pairs.
    a_t = n_c * (n - 1) / ((n_t - 1) * n) if n_t > 1 else 0.0
    a_c = n_t * (n - 1) / ((n_c - 1) * n) if n_c > 1 else 0.0
    yu = np.where(d == 1.0, a_t, a_c) * y
    fit = ridge_fit(x, yu, lam)
    h = fit.hat_diag
    check_loo_feasible(h)
    # Row i of drop_one: x_i' (X_{-i}'X_{-i} + lam I)^{-1}, by Sherman-Morrison;
    # row i of z' is x_i' (X'X + lam I)^{-1}.
    base = fit.z.T
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


def adj_design(s: ObservedSample) -> np.ndarray:
    """Design matrix [1, d, X] of the classic adjusted benchmark."""
    return np.column_stack([np.ones(s.n), s.assignment.d, s.x])


def int_design(s: ObservedSample) -> np.ndarray:
    """Design matrix [1, d, X - mean, d * (X - mean)] of the interacted benchmark."""
    xc = s.x - s.x.mean(axis=0)
    return np.column_stack([np.ones(s.n), s.assignment.d, xc, s.assignment.d[:, None] * xc])


def benchmark_fit(
    method: Method,
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> RidgeFit:
    """The regression of y behind ADJ, INT or RIDGE_REG; the estimate is beta[1].

    ADJ and INT are unpenalized least squares on their designs. RIDGE_REG
    penalizes only the X columns of [1, d, X], with the leverage rule applied
    to the covariate block, so the last entry of the fit's per-column penalty
    is the lambda used (zero for ADJ and INT).
    """
    method = Method(method)
    _group_counts(s, method.value, allow_design_mismatch)
    m = int_design(s) if method is Method.INT else adj_design(s)
    penalty = np.zeros(m.shape[1])
    if method is Method.RIDGE_REG:
        penalty[2:] = rule.resolve(s.x)
    return ridge_fit(m, s.y, penalty)


def estimate_adj(s: ObservedSample, allow_design_mismatch: bool = False) -> float:
    """Classic regression adjustment: coefficient on d in y ~ [1, d, X]."""
    return float(benchmark_fit(Method.ADJ, s, allow_design_mismatch=allow_design_mismatch).beta[1])


def estimate_int(s: ObservedSample, allow_design_mismatch: bool = False) -> float:
    """Interacted regression adjustment with full-sample-centered covariates."""
    return float(benchmark_fit(Method.INT, s, allow_design_mismatch=allow_design_mismatch).beta[1])


def estimate_ridge_reg(
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> float:
    """Ridge-penalized benchmark: y ~ [1, d, X] with only X columns penalized.

    The intercept and the treatment coefficient stay unpenalized; the penalty
    comes from the same leverage rule applied to the covariate block.
    """
    return float(benchmark_fit(Method.RIDGE_REG, s, rule, allow_design_mismatch).beta[1])


def estimate(
    method: Method,
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> float:
    """Dispatch a point estimate by method identifier."""
    method = Method(method)
    if method is Method.HT:
        return estimate_ht(s)
    if method is Method.DM:
        return estimate_dm(s, allow_design_mismatch)
    if method is Method.ADJ:
        return estimate_adj(s, allow_design_mismatch)
    if method is Method.INT:
        return estimate_int(s, allow_design_mismatch)
    if method is Method.RIDGE_REG:
        return estimate_ridge_reg(s, rule, allow_design_mismatch)
    if method is Method.LOORA_HT:
        return estimate_loora_ht(s, rule)
    if method is Method.LOORA_DM:
        return estimate_loora_dm(s, rule, allow_design_mismatch=allow_design_mismatch)
    raise InvalidInput(f"unknown method {method!r}")
