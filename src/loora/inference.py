"""Dispatch, input checks and confidence intervals over the method plans.

plan_estimate is the one switch over method identifiers: it builds the
method's plan from loora.estimators, which computes the point estimates,
the HC0 (sandwich) variances and the per-row failures of a block of
assignments. EstimatePlan wraps it with the rest: the one checker of every
assignment and outcome it is given, the numpy error state under which the
plan runs, the NonFinite failure of any estimate or variance that leaves
the floating-point range, and the normal confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import Assignment, DesignSpec
from .estimators import (
    DEFAULT_LAMBDA_RULE,
    ArmCounts,
    BenchmarkPlan,
    DmPlan,
    HtPlan,
    LambdaRule,
    LooraDmPlan,
    LooraHtPlan,
    Method,
    ObservedSample,
    require_simple,
)
from .exceptions import InvalidInput, LooraError, NonFinite
from .linalg import as_design_matrix

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
    it validates X and builds the method's plan (core), which resolves
    lambda, factors the ridge Gram and checks its leverages or forms the HT
    weights, and it takes the interval's normal quantile.
    evaluate_block() and point_block() then do the work of a block of
    assignments; evaluate() and point() are the same code on a block of
    one, so a row's result never depends on the block it is in. A Monte
    Carlo study or an enumeration builds one plan per method and evaluates
    it on every block.

    Every route raises InvalidInput when an assignment or the outcomes y do
    not fit the planned sample: an assignment entry other than 0 or 1, a
    length other than n, mis-shaped or non-finite outcomes, or a treated
    count other than the one a complete design fixes. A row fails with
    NonFinite, naming the method and the stage, when a result leaves the
    floating-point range (for example on outcomes of magnitude 1e200, whose
    squares overflow).
    """

    method: Method
    level: float
    n: int
    core: HtPlan | DmPlan | LooraHtPlan | LooraDmPlan | BenchmarkPlan
    quantile: float  # z_{1 - alpha/2} for level

    def _estimates(self, d, y, variance: bool) -> BlockEstimates:
        """The core on a checked block, each row's failure in the order the row meets it."""
        d, y = self._checked(d, y)
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

    def _checked(self, d, y) -> tuple[np.ndarray, np.ndarray]:
        """The one input checker: d and y as float (B, n) blocks, or InvalidInput."""
        d = np.asarray(d, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != self.n:
            raise InvalidInput("assignment length does not match the design matrix")
        if not ((d == 0.0) | (d == 1.0)).all():
            raise InvalidInput("assignment entries must be 0 or 1")
        if y.shape != d.shape:
            raise InvalidInput(f"outcome has shape {y.shape}, expected {d.shape}")
        if not np.isfinite(y).all():
            raise InvalidInput("outcome contains non-finite entries")
        return d, y

    def evaluate_block(self, d, y) -> BlockEstimates:
        """Point estimates, HC0 variances and confidence intervals for a block.

        d (B, n) holds one 0/1 assignment per row and y (B, n) the outcomes
        each reveals; every row gets the bits evaluate() gives it alone.
        """
        return self._estimates(d, y, variance=True)

    def point_block(self, d, y) -> BlockEstimates:
        """The point estimates alone for a block, as point() gives each row."""
        return self._estimates(d, y, variance=False)

    def _one(self, assignment: Assignment, y, variance: bool) -> BlockEstimates:
        """One assignment as a block of one row; raises the row's failure."""
        estimates = self._estimates(np.asarray(assignment.d)[None], np.asarray(y)[None], variance)
        if estimates.failures:
            raise estimates.failures[0]
        return estimates

    def point(self, assignment: Assignment, y) -> float:
        """The point estimate alone for one assignment.

        Computes no variance, so it never fails where only the variance
        stage does (an overflowing variance, or the LOORA-DM auxiliary
        regression self-check).
        """
        return float(self._one(assignment, y, variance=False).tau_hat[0])

    def evaluate(self, assignment: Assignment, y) -> EstimateReport:
        """Point estimate, HC0 variance and confidence interval for one assignment."""
        estimates = self._one(assignment, y, variance=True)
        return EstimateReport(
            method=self.method,
            tau_hat=float(estimates.tau_hat[0]),
            var_hat=float(estimates.var_hat[0]),
            ci_low=float(estimates.ci_low[0]),
            ci_high=float(estimates.ci_high[0]),
            level=self.level,
            lambda_used=self.core.lam,
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
    if method is Method.HT:
        core = HtPlan(require_simple(spec, "HT").p)
    elif method is Method.DM:
        core = DmPlan(ArmCounts.of("DM", spec, allow_design_mismatch))
    elif method is Method.LOORA_HT:
        core = LooraHtPlan.build(x, spec, rule)
    elif method is Method.LOORA_DM:
        core = LooraDmPlan.build(x, spec, rule, allow_design_mismatch)
    else:
        core = BenchmarkPlan.build(method, x, spec, rule, allow_design_mismatch)
    return EstimatePlan(
        method=method, level=level, n=x.shape[0], core=core, quantile=_interval_quantile(level)
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
