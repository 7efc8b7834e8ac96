"""Feasible variance estimates and confidence intervals.

The leave-one-out estimators admit a two-step regression view: residualize
outcomes with the ridge fit, then regress the residualized outcomes on the
treatment indicator. The heteroskedasticity-robust (HC0) sandwich variance of
that second step yields the interval half-widths. The same machinery, with a
zero adjustment, covers the unadjusted estimators, and a plain OLS sandwich
covers the regression benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .design import Assignment, DesignSpec
from .estimators import (
    DEFAULT_LAMBDA_RULE,
    ArmCounts,
    BenchmarkPlan,
    LambdaRule,
    LooraDmPlan,
    LooraHtPlan,
    Method,
    ObservedSample,
    difference_in_means,
    horvitz_thompson,
    realized_arm_probability,
    require_simple,
)
from .exceptions import InvalidInput, NonFinite, SelfCheckFailed, SpecMismatch
from .linalg import as_design_matrix, as_vector

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational approximation of the standard normal quantile (Acklam's
# coefficients), refined by one Halley step against erfc.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-9 on (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"quantile argument must lie in (0, 1), got {p}")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    # One Halley refinement step pins the result to machine precision.
    err = 0.5 * math.erfc(-x / _SQRT2) - p
    u = err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _interval_quantile(level: float) -> float:
    """z_{1 - alpha/2} of a two-sided normal interval at this confidence level."""
    if not 0.0 < level < 1.0:
        raise InvalidInput(f"confidence level must lie in (0, 1), got {level}")
    return normal_quantile(0.5 + level / 2.0)


def _interval(tau_hat: float, var_hat: float, quantile: float) -> tuple[float, float]:
    if not var_hat >= 0.0:
        raise InvalidInput(f"variance estimate must be nonnegative, got {var_hat}")
    half = quantile * math.sqrt(var_hat)
    return tau_hat - half, tau_hat + half


def confidence_interval(tau_hat: float, var_hat: float, level: float) -> tuple[float, float]:
    """Normal interval tau_hat +/- z_{1 - alpha/2} sqrt(var_hat)."""
    return _interval(tau_hat, var_hat, _interval_quantile(level))


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate with its estimated variance and confidence interval."""

    method: Method
    tau_hat: float
    var_hat: float
    ci_low: float
    ci_high: float
    level: float
    lambda_used: float


def _ht_hw_residuals(x: np.ndarray, y: np.ndarray, parts) -> np.ndarray:
    """Second-step residuals behind the LOORA-HT HC0 variance.

    Residualized outcomes (y_i - x_i' beta) / (q_i (1 - h_i)) are treated as
    a regression on the signed treatment indicator; since the regressor is
    +/-1 the sandwich collapses to n^{-2} times the sum of these squared.
    """
    resid_scaled = (y - (x @ parts.beta)) / (parts.q * (1.0 - parts.hat_diag))
    return resid_scaled - parts.z * parts.tau_hat


def _two_column_sandwich(u: np.ndarray, d: np.ndarray) -> tuple[float, float, float]:
    """OLS of u on [1, d] plus the HC0 variance of the second coefficient.

    Returns (intercept, slope, slope variance). The regression is the two
    arm means: intercept u_c, slope u_t - u_c, and with r the deviations
    from the arm means, row d of the sandwich bread times [1, d]' is 1/n_t
    on treated and -1/n_c on control units, so the variance is
    sum_t r^2 / n_t^2 + sum_c r^2 / n_c^2.
    """
    n = u.shape[0]
    n_t = float(d.sum())
    n_c = n - n_t
    if n_t < 1 or n_c < 1:
        raise SpecMismatch("auxiliary regression needs both arms occupied")
    c = 1.0 - d
    mean_t, mean_c = (d @ u) / n_t, (c @ u) / n_c
    r2 = (u - np.where(d == 1.0, mean_t, mean_c)) ** 2
    return float(mean_c), float(mean_t - mean_c), float((d @ r2) / n_t**2 + (c @ r2) / n_c**2)


def _dm_hw_variance_from_parts(parts) -> float:
    """HC0 variance of LOORA-DM from its parts.

    The leave-one-out adjusted outcomes u_i = y_i - x_i' beta^{(-i)} are
    regressed on an intercept and the treatment indicator; the estimator is
    the second coefficient of that regression, and its HC0 sandwich entry is
    the variance estimate. SelfCheckFailed if that coefficient does not
    reproduce the point estimate.
    """
    _, slope, var = _two_column_sandwich(parts.u, parts.d)
    if abs(slope - parts.tau_hat) > 1e-10 * max(1.0, abs(parts.tau_hat)):
        raise SelfCheckFailed(
            "auxiliary regression failed to reproduce the point estimate; "
            f"got {slope!r} vs {parts.tau_hat!r}"
        )
    return var


def _fsum_or_inf(a: np.ndarray) -> float:
    """Exact sum of a variance's terms; inf where math.fsum refuses to overflow."""
    try:
        return math.fsum(a.tolist())
    except OverflowError:
        return math.inf


class _MethodCore(Protocol):
    """The study-fixed part of one method; tau and tau_and_var evaluate one assignment."""

    def tau(self, assignment: Assignment, y: np.ndarray) -> float: ...

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]: ...


@dataclass(frozen=True)
class _HtCore:
    p: np.ndarray

    def tau(self, assignment: Assignment, y: np.ndarray) -> float:
        return horvitz_thompson(self.p, assignment.d, y)

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]:
        tau = self.tau(assignment, y)
        resid = y / realized_arm_probability(self.p, assignment.d) - assignment.z * tau
        return tau, _fsum_or_inf(resid**2) / y.shape[0] ** 2


@dataclass(frozen=True)
class _DmCore:
    arms: ArmCounts

    def tau(self, assignment: Assignment, y: np.ndarray) -> float:
        return difference_in_means(assignment.d, y, *self.arms.counts(assignment))

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]:
        return self.tau(assignment, y), _two_column_sandwich(y, assignment.d)[2]


@dataclass(frozen=True)
class _LooraHtCore:
    plan: LooraHtPlan

    def tau(self, assignment: Assignment, y: np.ndarray) -> float:
        return self.plan.parts(assignment, y).tau_hat

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]:
        parts = self.plan.parts(assignment, y)
        resid = _ht_hw_residuals(self.plan.x, y, parts)
        return parts.tau_hat, _fsum_or_inf(resid**2) / y.shape[0] ** 2


@dataclass(frozen=True)
class _LooraDmCore:
    plan: LooraDmPlan

    def tau(self, assignment: Assignment, y: np.ndarray) -> float:
        return self.plan.parts(assignment, y).tau_hat

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]:
        parts = self.plan.parts(assignment, y)
        return parts.tau_hat, _dm_hw_variance_from_parts(parts)


@dataclass(frozen=True)
class _BenchmarkCore:
    plan: BenchmarkPlan

    def tau(self, assignment: Assignment, y: np.ndarray) -> float:
        return self.plan.parts(assignment, y)[0]

    def tau_and_var(self, assignment: Assignment, y: np.ndarray) -> tuple[float, float]:
        tau, terms = self.plan.parts(assignment, y)
        return tau, _fsum_or_inf(terms**2)


@dataclass(frozen=True)
class EstimatePlan:
    """One method's estimate, split into a study-fixed and a per-assignment part.

    plan_estimate does once what depends only on (X, design, rule, level):
    it validates X, resolves lambda, factors the ridge Gram and checks its
    leverages, forms the HT weights and takes the interval's normal quantile. point() and evaluate() then do the
    work of one assignment. A Monte Carlo study or an enumeration builds one
    plan per method and evaluates it on every assignment.

    Both raise InvalidInput when the assignment or y (the observed outcomes)
    does not fit the planned sample, including a treated count other than
    the one a complete design fixes, and NonFinite, naming the method and
    the stage, when a result leaves the floating-point range (for example
    on outcomes of magnitude 1e200, whose squares overflow).
    """

    method: Method
    level: float
    lambda_used: float
    n: int
    core: _MethodCore
    quantile: float  # z_{1 - alpha/2} for level

    def _run(self, step, assignment: Assignment, y):
        """step(assignment, y) on checked inputs; an OverflowError is the point estimate's."""
        if assignment.n != self.n:
            raise InvalidInput("assignment length does not match the design matrix")
        y = as_vector(y, self.n, "outcome")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return step(assignment, y)
        except OverflowError:
            # variances already turn an overflowing fsum into inf
            raise NonFinite(self.method.value, "point estimate") from None

    def _finite(self, value: float, stage: str) -> float:
        if not math.isfinite(value):
            raise NonFinite(self.method.value, stage)
        return value

    def point(self, assignment: Assignment, y) -> float:
        """The point estimate alone for one assignment.

        Computes no variance, so it never fails where only the variance
        stage does (an overflowing variance, or the LOORA-DM auxiliary
        regression self-check).
        """
        return self._finite(self._run(self.core.tau, assignment, y), "point estimate")

    def evaluate(self, assignment: Assignment, y) -> EstimateReport:
        """Point estimate, HC0 variance and confidence interval for one assignment."""
        tau, var = self._run(self.core.tau_and_var, assignment, y)
        self._finite(tau, "point estimate")
        self._finite(var, "variance")
        low, high = _interval(tau, var, self.quantile)
        return EstimateReport(
            method=self.method,
            tau_hat=tau,
            var_hat=var,
            ci_low=low,
            ci_high=high,
            level=self.level,
            lambda_used=self.lambda_used,
        )


def plan_estimate(
    method: Method,
    x,
    spec: DesignSpec,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    level: float = 0.95,
    allow_design_mismatch: bool = False,
) -> EstimatePlan:
    """Build the study-fixed part of one method's estimate; see EstimatePlan.

    Raises what the method raises on any assignment of this design: for
    example SpecMismatch for a method the design does not support,
    RankDeficient, or LeverageSingular for a leverage too close to 1.
    """
    method = Method(method)
    x = as_design_matrix(x)
    if spec.n != x.shape[0]:
        raise InvalidInput("design size does not match the design matrix")
    core: _MethodCore
    lam = 0.0
    if method is Method.HT:
        core = _HtCore(require_simple(spec, "HT").p)
    elif method is Method.DM:
        core = _DmCore(ArmCounts.of("DM", spec, allow_design_mismatch))
    elif method is Method.LOORA_HT:
        ht = LooraHtPlan.build(x, spec, rule)
        core, lam = _LooraHtCore(ht), ht.lam
    elif method is Method.LOORA_DM:
        dm = LooraDmPlan.build(x, spec, rule, allow_design_mismatch)
        core, lam = _LooraDmCore(dm), dm.lam
    else:
        bench = BenchmarkPlan.build(method, x, spec, rule, allow_design_mismatch)
        core, lam = _BenchmarkCore(bench), bench.lam
    return EstimatePlan(
        method=method,
        level=level,
        lambda_used=lam,
        n=x.shape[0],
        core=core,
        quantile=_interval_quantile(level),
    )


def estimate_with_ci(
    method: Method,
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    level: float = 0.95,
    allow_design_mismatch: bool = False,
) -> EstimateReport:
    """Point estimate, HC0 variance, and confidence interval for any method.

    Builds the method's plan for this sample and evaluates it once; raises
    NonFinite as EstimatePlan.evaluate does.
    """
    plan = plan_estimate(method, s.x, s.spec, rule, level, allow_design_mismatch)
    return plan.evaluate(s.assignment, s.y)


def estimate(
    method: Method,
    s: ObservedSample,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
    allow_design_mismatch: bool = False,
) -> float:
    """Point estimate of any method on one sample; raises NonFinite as EstimatePlan.point does."""
    plan = plan_estimate(method, s.x, s.spec, rule, allow_design_mismatch=allow_design_mismatch)
    return plan.point(s.assignment, s.y)
