"""Dispatch, design admission, input checks and confidence intervals over the method plans.

plan_estimate is the one switch over method identifiers: it admits the
design (HT and LOORA-HT under simple assignment; DM, LOORA-DM, ADJ, INT and
RIDGE_REG under complete assignment, or under simple assignment with the
mismatch opt-in) and builds the method's plan from loora.estimators, which
computes the point estimates, the HC0 (sandwich) variances and the per-row
failures of a block of assignments, reading its arm facts from the
CheckedBlock of the one input checker, check_block. EstimatePlan wraps it
with the numpy error state it runs under, the SpecMismatch failure of a row
that leaves an arm empty (for the methods of complete assignment), the
NonFinite failure of any estimate or variance that leaves the
floating-point range, and the normal confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import CompleteDesign, DesignSpec, SimpleDesign
from .estimators import (
    DEFAULT_LAMBDA_RULE,
    AdjPlan,
    DmPlan,
    HtPlan,
    IntPlan,
    LambdaRule,
    LooraDmPlan,
    LooraHtPlan,
    Method,
)
from .exceptions import InvalidInput, LooraError, NonFinite, SpecMismatch
from .linalg import as_design_matrix, read_only


def normal_quantile(p: float) -> float:
    """Standard normal quantile on (0, 1), by the standard library's NormalDist."""
    from statistics import NormalDist  # imported on first use, not at start-up

    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"quantile argument must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


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
    EstimatePlan.estimates(block, variance=False).
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


def _mask(d: np.ndarray) -> np.ndarray:
    """uint64, all bits set where d is 1: -d as int64, negated in place."""
    mask = d.astype(np.int64)
    np.negative(mask, out=mask)
    return mask.view(np.uint64)


@dataclass
class CheckedBlock:
    """check_block's d and y (B, n), with the arm facts every plan reads, each formed once.

    mask: uint64, all bits set where d is 1; n_t, n_c: per-row arm counts; control: 1 - d.
    Every array is a read-only view, so a plan's in-place chains write only to
    arrays of their own; the caller's d and y keep their flags.
    """

    d: np.ndarray
    y: np.ndarray
    mask = cached_property(lambda self: read_only(_mask(self.d)))
    n_t = cached_property(lambda self: read_only(self.d.sum(axis=1)))
    n_c = cached_property(lambda self: read_only(self.d.shape[1] - self.n_t))
    control = cached_property(lambda self: read_only(1.0 - self.d))


def _empty_arms(method: Method, block: CheckedBlock) -> dict[int, LooraError]:
    """SpecMismatch, keyed by row, for each row of the block that leaves an arm empty.

    Only the mismatch opt-in admits one; its arm counts give non-finite values, never read.
    """
    empty = (block.n_t == 0.0) | (block.n_c == 0.0)
    return {
        int(i): SpecMismatch(f"{method.value} needs at least one treated and one control unit")
        for i in np.nonzero(empty)[0]
    }


def check_block(d, y, spec: DesignSpec) -> CheckedBlock:
    """The one input checker: d and y as a float CheckedBlock, or InvalidInput.

    y is the outcomes, or a function that observes them from the block once
    its d is checked, so that a study forms 1 - d (block.control) once.
    One row off the treated count a complete design fixes fails the block.
    """
    d = read_only(np.asarray(d, dtype=np.float64))
    if d.ndim != 2 or d.shape[1] != spec.n:
        raise InvalidInput("assignment length does not match the design matrix")
    binary = d == 0.0
    binary |= d == 1.0
    if not binary.all():
        raise InvalidInput("assignment entries must be 0 or 1")
    block = CheckedBlock(d, None)
    block.y = y = read_only(np.asarray(y(block) if callable(y) else y, dtype=np.float64))
    if y.shape != d.shape:
        raise InvalidInput(f"outcome has shape {y.shape}, expected {d.shape}")
    if not np.isfinite(y).all():
        raise InvalidInput("outcome contains non-finite entries")
    if isinstance(spec, CompleteDesign):
        wrong = block.n_t != spec.n_t
        if wrong.any():
            raise InvalidInput(
                f"assignment treats {int(block.n_t[np.argmax(wrong)])} of {spec.n} units "
                f"but the design fixes {spec.n_t} of {spec.n}"
            )
    return block


@dataclass(frozen=True)
class EstimatePlan:
    """One method's estimate, split into a study-fixed and a per-assignment part.

    plan_estimate does once what depends only on (X, design, rule, level):
    it validates X and builds the method's plan (core), which resolves
    lambda, factors the ridge Gram and checks its leverages or forms the HT
    weights, and it takes the interval's normal quantile.
    estimates() then does the work of a block of assignments that
    check_block has checked against spec; evaluate() and point() check one
    assignment and run the same code on a block of one, so a row's result
    never depends on the block it is in, and raise check_block's
    InvalidInput on input that does not fit. A Monte Carlo study builds one
    plan per method and evaluates every plan on each block it checks once.
    A row of a method of complete assignment (both_arms) fails with
    SpecMismatch when it leaves an arm empty, which only the mismatch
    opt-in admits. A row fails with NonFinite, naming the method and the
    stage, when a result leaves the floating-point range (for example on
    outcomes of magnitude 1e200, whose squares overflow).
    """

    method: Method
    level: float
    spec: DesignSpec
    core: HtPlan | DmPlan | LooraHtPlan | LooraDmPlan | AdjPlan | IntPlan
    quantile: float  # z_{1 - alpha/2} for level
    both_arms: bool  # the method conditions on the realized arm counts

    def estimates(self, block: CheckedBlock, variance=True) -> BlockEstimates:
        """Point estimates, HC0 variances and confidence intervals for a checked block.

        block is check_block's value for d (B, n), one 0/1 assignment per
        row, and y (B, n), the outcomes each reveals, checked against this
        plan's spec; every row gets the bits evaluate() gives it alone, and
        each row's failure is the first it meets. variance=False gives the
        point estimates alone, as point() gives each row.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tau, var, failed = self.core.block(block, variance)
            if self.both_arms:
                failed.update(_empty_arms(self.method, block))
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

    def _one(self, d, y, variance: bool) -> BlockEstimates:
        """One 0/1 assignment vector d as a block of one row; raises the row's failure."""
        block = check_block(np.asarray(d)[None], np.asarray(y)[None], self.spec)
        estimates = self.estimates(block, variance)
        if estimates.failures:
            raise estimates.failures[0]
        return estimates

    def point(self, d, y) -> float:
        """The point estimate alone for one 0/1 assignment vector d.

        Computes no variance, so it never fails where only the variance
        stage does (an overflowing variance, or the LOORA-DM auxiliary
        regression self-check).
        """
        return float(self._one(d, y, variance=False).tau_hat[0])

    def evaluate(self, d, y) -> EstimateReport:
        """Point estimate, HC0 variance and confidence interval for one 0/1 assignment vector d."""
        estimates = self._one(d, y, variance=True)
        return EstimateReport(
            method=self.method,
            tau_hat=float(estimates.tau_hat[0]),
            var_hat=float(estimates.var_hat[0]),
            ci_low=float(estimates.ci_low[0]),
            ci_high=float(estimates.ci_high[0]),
            level=self.level,
            lambda_used=self.core.lam,
        )


def require_simple(spec: DesignSpec, method: str) -> SimpleDesign:
    """The design itself, or SpecMismatch if it is not simple random assignment."""
    if not isinstance(spec, SimpleDesign):
        raise SpecMismatch(f"{method} is defined under simple random assignment only")
    return spec


def require_complete(spec: DesignSpec, method: str, allow_design_mismatch: bool) -> None:
    """SpecMismatch unless the design is complete random assignment or the opt-in is given.

    Under the mismatch opt-in, a sample drawn from a simple design is
    analyzed as if its realized treated count had been fixed; that is how
    the simulation protocol applies the DM family under independent
    assignment.
    """
    if not (isinstance(spec, CompleteDesign) or allow_design_mismatch):
        raise SpecMismatch(f"{method} is defined under complete random assignment only")


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
    simple = method in (Method.HT, Method.LOORA_HT)
    if simple:
        p = require_simple(spec, method.value).p
        core = HtPlan(p) if method is Method.HT else LooraHtPlan.build(x, p, rule)
    else:
        require_complete(spec, method.value, allow_design_mismatch)
        if method is Method.DM:
            core = DmPlan()
        elif method is Method.LOORA_DM:
            core = LooraDmPlan.build(x, rule)
        elif method is Method.INT:
            core = IntPlan.build(x)
        else:  # ADJ is RIDGE_REG at lambda = 0
            core = AdjPlan.build(x, LambdaRule.fixed(0.0) if method is Method.ADJ else rule)
    return EstimatePlan(
        method=method,
        level=level,
        spec=spec,
        core=core,
        quantile=_interval_quantile(level),
        both_arms=not simple,
    )
