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
    fsum_rows,
    horvitz_thompson,
    realized_arm_probability,
    require_simple,
)
from .exceptions import InvalidInput, LooraError, NonFinite, SelfCheckFailed
from .linalg import as_design_matrix, as_vector, dot_rows, matvec_rows

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


def _interval(tau_hat, var_hat, quantile: float):
    """tau_hat +/- quantile * sqrt(var_hat), elementwise; InvalidInput on a negative variance."""
    var_hat = np.asarray(var_hat)
    nonnegative = var_hat >= 0.0
    if not nonnegative.all():
        raise InvalidInput(
            f"variance estimate must be nonnegative, got {float(var_hat[~nonnegative][0])}"
        )
    half = quantile * np.sqrt(var_hat)
    return tau_hat - half, tau_hat + half


def confidence_interval(tau_hat: float, var_hat: float, level: float) -> tuple[float, float]:
    """Normal interval tau_hat +/- z_{1 - alpha/2} sqrt(var_hat)."""
    low, high = _interval(tau_hat, var_hat, _interval_quantile(level))
    return float(low), float(high)


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
    """Second-step residuals behind the LOORA-HT HC0 variance, one row per assignment.

    Residualized outcomes (y_i - x_i' beta) / (q_i (1 - h_i)) are treated as
    a regression on the signed treatment indicator; since the regressor is
    +/-1 the sandwich collapses to n^{-2} times the sum of these squared.
    """
    resid_scaled = (y - matvec_rows(x, parts.beta)) / (parts.q * (1.0 - parts.hat_diag))
    return resid_scaled - parts.z * parts.tau_hat[:, None]


def _two_column_sandwich(u: np.ndarray, d: np.ndarray):
    """Slope of the OLS of each row of u on [1, d] and the HC0 variance of that slope.

    u and d are (B, n) blocks; returns the per-row (slope, slope variance)
    arrays. The regression is the two arm means: intercept u_c,
    slope u_t - u_c, and with r the deviations from the arm means, row d of
    the sandwich bread times [1, d]' is 1/n_t on treated and -1/n_c on
    control units, so the variance is sum_t r^2 / n_t^2 + sum_c r^2 / n_c^2.
    A row with an empty arm gives non-finite values; the methods calling
    this have already failed such rows through ArmCounts.counts.
    """
    n_t = d.sum(axis=1)
    n_c = u.shape[1] - n_t
    c = 1.0 - d
    mean_t, mean_c = dot_rows(d, u) / n_t, dot_rows(c, u) / n_c
    r2 = (u - np.where(d == 1.0, mean_t[:, None], mean_c[:, None])) ** 2
    return mean_t - mean_c, dot_rows(d, r2) / n_t**2 + dot_rows(c, r2) / n_c**2


def _dm_hw_variance_from_parts(parts) -> tuple[np.ndarray, dict[int, LooraError]]:
    """HC0 variance of LOORA-DM from its parts, per row, and the rows whose self-check fails.

    The leave-one-out adjusted outcomes u_i = y_i - x_i' beta^{(-i)} are
    regressed on an intercept and the treatment indicator; the estimator is
    the second coefficient of that regression, and its HC0 sandwich entry is
    the variance estimate. A row fails with SelfCheckFailed if that
    coefficient does not reproduce its point estimate.
    """
    slope, var = _two_column_sandwich(parts.u, parts.d)
    tau = parts.tau_hat
    off = np.abs(slope - tau) > 1e-10 * np.maximum(1.0, np.abs(tau))
    failed = {
        int(i): SelfCheckFailed(
            "auxiliary regression failed to reproduce the point estimate; "
            f"got {float(slope[i])!r} vs {float(tau[i])!r}"
        )
        for i in np.nonzero(off)[0]
    }
    return var, failed


class _MethodCore(Protocol):
    """The study-fixed part of one method; block() evaluates a block of assignments.

    d (B, n) holds one 0/1 assignment per row and y (B, n) the outcomes
    each reveals. block() returns the per-row point estimates, the per-row
    HC0 variances (None unless variance is true) and, keyed by row, the
    method failure each failing row would raise on its own. Point estimates
    whose exact sum overflows are nan.
    """

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool) -> tuple: ...


@dataclass(frozen=True)
class _HtCore:
    p: np.ndarray

    def block(self, d, y, variance):
        tau = horvitz_thompson(self.p, d, y)
        if not variance:
            return tau, None, {}
        resid = y / realized_arm_probability(self.p, d) - (2.0 * d - 1.0) * tau[:, None]
        return tau, fsum_rows(resid**2, math.inf) / y.shape[1] ** 2, {}


@dataclass(frozen=True)
class _DmCore:
    arms: ArmCounts

    def block(self, d, y, variance):
        n_t, n_c, failed = self.arms.counts(d)
        tau = difference_in_means(d, y, n_t, n_c)
        return tau, _two_column_sandwich(y, d)[1] if variance else None, failed


@dataclass(frozen=True)
class _LooraHtCore:
    plan: LooraHtPlan

    def block(self, d, y, variance):
        parts = self.plan.parts(d, y)
        if not variance:
            return parts.tau_hat, None, {}
        resid = _ht_hw_residuals(self.plan.x, y, parts)
        return parts.tau_hat, fsum_rows(resid**2, math.inf) / y.shape[1] ** 2, {}


@dataclass(frozen=True)
class _LooraDmCore:
    plan: LooraDmPlan

    def block(self, d, y, variance):
        parts = self.plan.parts(d, y)
        if not variance:
            return parts.tau_hat, None, parts.failed
        var, self_check = _dm_hw_variance_from_parts(parts)
        return parts.tau_hat, var, {**self_check, **parts.failed}


@dataclass(frozen=True)
class _BenchmarkCore:
    plan: BenchmarkPlan

    def block(self, d, y, variance):
        tau, terms, failed = self.plan.parts(d, y)
        return tau, fsum_rows(terms**2, math.inf) if variance else None, failed


@dataclass(frozen=True)
class BlockEstimates:
    """One plan's results on a block of assignments, one entry per row.

    failures maps a row to the method failure (LeverageSingular, NonFinite,
    RankDeficient, SelfCheckFailed or SpecMismatch) that row raises when
    evaluated alone; ok masks the other rows, and the failed rows' values
    read 0. var_hat, ci_low and ci_high are None from
    EstimatePlan.point_block.
    """

    tau_hat: np.ndarray
    var_hat: np.ndarray | None
    ci_low: np.ndarray | None
    ci_high: np.ndarray | None
    failures: dict[int, LooraError]
    ok: np.ndarray


def _fail_non_finite(failed: dict, values: np.ndarray, method: Method, stage: str) -> None:
    """Fail each row whose value is not finite with NonFinite, unless it failed earlier."""
    finite = np.isfinite(values)
    if not finite.all():
        for i in np.nonzero(~finite)[0]:
            failed.setdefault(int(i), NonFinite(method.value, stage))


@dataclass(frozen=True)
class EstimatePlan:
    """One method's estimate, split into a study-fixed and a per-assignment part.

    plan_estimate does once what depends only on (X, design, rule, level):
    it validates X, resolves lambda, factors the ridge Gram and checks its
    leverages, forms the HT weights and takes the interval's normal
    quantile. evaluate_block() and point_block() then do the work of a
    block of assignments; evaluate() and point() are the same code on a
    block of one, so a row's result never depends on the block it is in. A
    Monte Carlo study or an enumeration builds one plan per method and
    evaluates it on every block.

    The inputs raise InvalidInput when an assignment or the outcomes y do
    not fit the planned sample, including a treated count other than the
    one a complete design fixes. A row fails with NonFinite, naming the
    method and the stage, when a result leaves the floating-point range
    (for example on outcomes of magnitude 1e200, whose squares overflow).
    """

    method: Method
    level: float
    lambda_used: float
    n: int
    core: _MethodCore
    quantile: float  # z_{1 - alpha/2} for level

    def _estimates(self, d: np.ndarray, y: np.ndarray, variance: bool) -> BlockEstimates:
        """The core on a checked block, with each row's failure in the order a row meets it."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tau, var, failed = self.core.block(d, y, variance)
            _fail_non_finite(failed, tau, self.method, "point estimate")
            if variance:
                _fail_non_finite(failed, var, self.method, "variance")
            ok = np.ones(tau.shape[0], dtype=bool)
            if failed:
                ok[list(failed)] = False
                tau = np.where(ok, tau, 0.0)
                var = np.where(ok, var, 0.0) if variance else None
            if not variance:
                return BlockEstimates(tau, None, None, None, failed, ok)
            low, high = _interval(tau, var, self.quantile)
        return BlockEstimates(tau, var, low, high, failed, ok)

    def _block(self, d, y) -> tuple[np.ndarray, np.ndarray]:
        d = np.asarray(d, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != self.n:
            raise InvalidInput("assignment length does not match the design matrix")
        if y.shape != d.shape:
            raise InvalidInput(f"outcome block has shape {y.shape}, expected {d.shape}")
        if not np.isfinite(y).all():
            raise InvalidInput("outcome contains non-finite entries")
        return d, y

    def _row(self, assignment: Assignment, y) -> tuple[np.ndarray, np.ndarray]:
        if assignment.n != self.n:
            raise InvalidInput("assignment length does not match the design matrix")
        y = as_vector(y, self.n, "outcome")
        return np.asarray(assignment.d, dtype=np.float64)[None], y[None]

    def evaluate_block(self, d, y) -> BlockEstimates:
        """Point estimates, HC0 variances and confidence intervals for a block.

        d (B, n) holds one 0/1 assignment per row and y (B, n) the outcomes
        each reveals; every row gets the bits evaluate() gives it alone.
        """
        return self._estimates(*self._block(d, y), variance=True)

    def point_block(self, d, y) -> BlockEstimates:
        """The point estimates alone for a block, as point() gives each row."""
        return self._estimates(*self._block(d, y), variance=False)

    def point(self, assignment: Assignment, y) -> float:
        """The point estimate alone for one assignment.

        Computes no variance, so it never fails where only the variance
        stage does (an overflowing variance, or the LOORA-DM auxiliary
        regression self-check).
        """
        estimates = self._estimates(*self._row(assignment, y), variance=False)
        if estimates.failures:
            raise estimates.failures[0]
        return float(estimates.tau_hat[0])

    def evaluate(self, assignment: Assignment, y) -> EstimateReport:
        """Point estimate, HC0 variance and confidence interval for one assignment."""
        estimates = self._estimates(*self._row(assignment, y), variance=True)
        if estimates.failures:
            raise estimates.failures[0]
        return EstimateReport(
            method=self.method,
            tau_hat=float(estimates.tau_hat[0]),
            var_hat=float(estimates.var_hat[0]),
            ci_low=float(estimates.ci_low[0]),
            ci_high=float(estimates.ci_high[0]),
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
