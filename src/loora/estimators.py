"""Point estimators of the average treatment effect and their HC0 variances.

Covers the unadjusted Horvitz-Thompson and difference-in-means estimators,
the classical regression-adjusted benchmarks (with and without interactions,
and a ridge-penalized variant), and the leave-one-out ridge-adjusted
estimators LOORA-HT (simple random assignment) and LOORA-DM (complete random
assignment). Each LOORA estimator is computed from a single ridge
factorization through the leave-one-out identity.

Each method is one plan (HtPlan, DmPlan, LooraHtPlan, LooraDmPlan or
BenchmarkPlan), built once from the covariates, the design and the penalty
rule. A plan holds its penalty lam and one method, block(d, y, variance): d
(B, n) holds one 0/1 assignment per row and y (B, n) the outcomes each
reveals; block returns the per-row point estimates (nan where an exact sum
overflows), the per-row HC0 variances (None unless variance is true) and,
keyed by row, the method failure each failing row would raise on its own.
Both steps of a LOORA estimate, the ridge fit and the regression on the
treatment indicator whose sandwich is the variance, share one set of
intermediates. A Monte Carlo study builds each plan once and evaluates it
on every block of replicates, and a single sample is a block of one row.
Each row carries the bits it would have alone: elementwise work runs on the
whole block, every matrix-vector product and dot product is one BLAS call
per row (linalg.matvec_rows, linalg.dot_rows) and every exact sum is
correctly rounded, with math.fsum's bits, by fsum_rows: math.fsum per row
on small blocks, else one error-free extraction pass over the whole block
whose rounded total each row certifies (further passes only for the rows it
does not), with math.fsum kept for the rows holding non-finite,
near-overflow or near-subnormal entries and for combining more than two
exact pieces. Per-unit constants that do not depend on the assignment (1 - h,
the arm probabilities' reciprocals) are formed once per plan, and a block
picks each unit's by its arm with the bits of forming it from d, on the bit
patterns rather than by a branch per unit (_by_arm). INT factors the arm Grams of a group of rows
in one stacked LAPACK call. The one switch over method identifiers is
loora.inference.plan_estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .design import Assignment, CompleteDesign, DesignSpec, SimpleDesign
from .exceptions import InvalidInput, LooraError, RankDeficient, SelfCheckFailed, SpecMismatch
from .linalg import (
    RidgeFactor,
    as_design_matrix,
    check_loo_feasible,
    cholesky_solve,
    dot_rows,
    full_rank_cholesky,
    full_rank_cholesky_rows,
    leverage_regularizer,
    loo_fitted_rows,
    matvec_rows,
    negligible_pivot,
    ridge_factor,
    singular_column,
    upper_inverse,
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
    """What an analyst holds after the experiment: X, observed y, d, design.

    Unchecked here: plan_estimate and EstimatePlan check it on every route.
    """

    x: np.ndarray
    y: np.ndarray
    assignment: Assignment
    spec: DesignSpec


def require_simple(spec: DesignSpec, method: str) -> SimpleDesign:
    """The design itself, or SpecMismatch if it is not simple random assignment."""
    if not isinstance(spec, SimpleDesign):
        raise SpecMismatch(f"{method} is defined under simple random assignment only")
    return spec


def _empty_arm(method: str) -> SpecMismatch:
    return SpecMismatch(f"{method} needs at least one treated and one control unit")


def _both_arms(method: str, n_t: int, n_c: int) -> tuple[int, int]:
    if n_t < 1 or n_c < 1:
        raise _empty_arm(method)
    return n_t, n_c


# Extraction works on rows whose nonzero entries are all at least 2**-969.
# Each such entry is a multiple of 2**-1021, and so is every piece and
# remainder the extraction forms from them: no intermediate is subnormal, as
# the error-free bounds of the extraction assume no underflow. Only a row
# whose smallest |entry| is below 2**-969 (a zero, or a tiny entry) is
# tested entry by entry: 0 < |x| < 2**-969 holds exactly when the bits of
# |x|, less one, fall below the bits of 2**-969 less one, as unsigned
# integers (0 wraps round).
_EXTRACTION_FLOOR = 2.0**-969
_EXTRACTION_FLOOR_BITS = np.float64(_EXTRACTION_FLOOR).view(np.uint64) - np.uint64(1)


# Blocks of fewer entries than this sum one row at a time: below it, the
# extraction's fixed cost of about 20 numpy calls exceeds a math.fsum per
# row. On a 2-core x86-64 host the two cross near 800 to 1000 entries for
# one row and for rows of 40 or 120 entries, and near 1500 for rows of 11.
_EXTRACTION_MIN_ENTRIES = 1200


def fsum_rows(a: np.ndarray, overflow: float = math.nan) -> np.ndarray:
    """math.fsum of each row of a (B, n), to the bit.

    A block of fewer than 1200 entries takes math.fsum row by row; a larger
    one takes _fsum_rows_extracted, block-wide passes that return the same
    bits. A row whose math.fsum raises (an intermediate overflow, or both
    +inf and -inf) gets `overflow`: nan for a point estimate (which then
    fails as not finite), inf for a variance.
    """
    if a.size < _EXTRACTION_MIN_ENTRIES:
        return np.array([_fsum_or(row, overflow) for row in a.tolist()], dtype=np.float64)
    return _fsum_rows_extracted(a, overflow)


def _fsum_rows_extracted(a: np.ndarray, overflow: float) -> np.ndarray:
    """math.fsum of each row of a (B, n), to the bit, in block-wide passes.

    ExtractVector (Rump, Ogita & Oishi 2008, Accurate floating-point
    summation): with m = ceil(log2(n + 2)) and e the exponent of a row's
    largest |entry| (all below 2**e), sigma = 2**(m + e) splits every entry
    p into q = (sigma + p) - sigma and r = p - q, both exact, with
    |r| <= 2**(m + e - 53). The qs are multiples of 2**(m + e - 53) whose
    sum stays below sigma, so their plain sum tau1 is exact in any order,
    and the row's exact sum is S = tau1 + sum(r).

    Certificate (the stopping rule of AccSum and NearSum in the same paper).
    t2, the plain sum of the rs, passes each r through at most n - 1
    roundings, none of them subnormal, so |sum(r) - t2| <= 2 n^2 2**-53
    2**(m + e - 53); err = n^2 2**(m + e - 103) is four times that. With
    res = fl(tau1 + t2) and rho = tau1 + t2 - res, exact by TwoSum,
    |S - res| <= |rho| + err / 4. The gap g from |res| down to the next
    double is the smaller of the two gaps beside a nonzero res, and
    fl(|rho| + err) rounds up by less than the 3 err / 4 it carries spare
    (|rho| is at most 2**(m + e - 53), so its rounding is below err / 8).
    So 2 fl(|rho| + err) < g puts S strictly inside res's rounding
    interval, whatever the tie rule: res is the correctly rounded sum and
    has math.fsum's bits. At res = 0, g = 0 and nothing is certified.

    Rows that fail the test (a sum near a rounding midpoint, cancellation
    to or near zero) go on from their remainders: passes repeat, with a
    new sigma per row, until every remainder is zero, and the exact sum is
    then the sum of the row's few pieces: one rounding of two pieces, or
    math.fsum of more. Both round correctly, half to even, as math.fsum
    does.

    Rows that hold a non-finite entry, whose largest |entry| reaches
    2**(1023 - m) (within 2**(m + 1) of overflow, where math.fsum's
    intermediate overflow lives), or that hold a nonzero entry below
    2**-969 take math.fsum itself, and `overflow` where it raises.
    """
    n = a.shape[1]
    m = (n + 1).bit_length()  # ceil(log2(n + 2))
    buf = np.abs(a)
    top = buf.max(axis=1, initial=0.0)
    fallback = ~(top < math.ldexp(1.0, 1023 - m))  # also every nan or inf row
    low = buf.min(axis=1) < _EXTRACTION_FLOOR  # a zero, or an entry below the floor
    if low.any():
        fallback |= low & (buf.view(np.uint64) - np.uint64(1) < _EXTRACTION_FLOOR_BITS).any(axis=1)
    rest = a
    if fallback.any():
        rest = np.where(fallback[:, None], 0.0, a)
        top[fallback] = 0.0
    sigma_exp = np.frexp(top)[1] + m  # m + e
    sigma = np.ldexp(1.0, sigma_exp)[:, None]
    q = np.add(rest, sigma, out=buf)
    q -= sigma
    tau1 = q.sum(axis=1)
    r = np.subtract(rest, q, out=buf)
    t2 = r.sum(axis=1)
    # err = n^2 2**(m + e - 103), kept at least 2**-1022 so that nothing here
    # is subnormal; rho = tau1 + t2 - out exactly, by TwoSum
    err = np.ldexp(float(n * n), np.maximum(sigma_exp - 103, -1022))
    out = tau1 + t2
    back = out - tau1
    rho = (tau1 - (out - back)) + (t2 - back)
    size = np.abs(out)
    certified = 2.0 * (np.abs(rho) + err) < size - np.nextafter(size, 0.0)
    if not certified.all():  # fallback rows never are
        todo = np.flatnonzero(~(certified | fallback))
        if todo.size:
            out[todo] = _extracted_rest(r[todo], tau1[todo], m)
        for i in np.flatnonzero(fallback):
            out[i] = _fsum_or(a[i].tolist(), overflow)
    return out


def _extracted_rest(rest: np.ndarray, first: np.ndarray, m: int) -> np.ndarray:
    """The exact sums tau1 + sum(rest) of _fsum_rows_extracted's uncertified rows.

    rest (G, n) holds the remainders of the first pass and first its pieces
    tau1; further passes extract until every remainder is zero.
    """
    pieces = [first]
    buf = np.abs(rest)
    top = buf.max(axis=1)
    while np.count_nonzero(top):
        sigma = np.ldexp(1.0, np.frexp(top)[1] + m)[:, None]
        q = np.add(rest, sigma, out=buf)
        q -= sigma
        rest -= q
        pieces.append(q.sum(axis=1))
        top = np.abs(rest, out=buf).max(axis=1)
    out = np.zeros(len(first))
    for piece in pieces[:2]:
        out += piece  # correctly rounded unless a later piece of the row is nonzero
    if len(pieces) > 2:
        late = np.flatnonzero(np.logical_or.reduce(pieces[2:]))
        out[late] = [math.fsum(row) for row in np.stack(pieces, axis=1)[late].tolist()]
    return out


def _fsum_or(row: list, overflow: float) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return overflow


@dataclass(frozen=True)
class ArmCounts:
    """Treated/control counts for the DM family, honoring the mismatch opt-in.

    A complete design fixes them for every assignment. Under the opt-in, a
    sample drawn from a simple design is analyzed as if the realized treated
    count had been fixed; that is how the simulation protocol applies the DM
    family under independent assignment.
    """

    method: str
    fixed: tuple[int, int] | None  # None: each assignment sets its own counts

    @classmethod
    def of(cls, method: str, spec: DesignSpec, allow_design_mismatch: bool) -> "ArmCounts":
        if isinstance(spec, CompleteDesign):
            return cls(method, _both_arms(method, spec.n_t, spec.n_c))
        if allow_design_mismatch:
            return cls(method, None)
        raise SpecMismatch(f"{method} is defined under complete random assignment only")

    def counts(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, LooraError]]:
        """Per-row (n_t, n_c) of an assignment block d (B, n), and the rows that fail.

        The counts are float arrays. A row that breaks the fixed counts is
        InvalidInput, raised; under the opt-in a row with an empty arm
        fails with SpecMismatch, returned keyed by row, and counts its empty
        arm as 1 so that no arithmetic on it divides by zero.
        """
        rows, n = d.shape
        treated = d.sum(axis=1).astype(np.int64)  # int(d.sum()) of each row
        if self.fixed is not None:
            n_t, n_c = self.fixed
            wrong = treated != n_t
            if n != n_t + n_c or wrong.any():
                raise InvalidInput(
                    f"assignment treats {treated[np.argmax(wrong)]} of {n} units "
                    f"but the design fixes {n_t} of {n_t + n_c}"
                )
            return np.full(rows, float(n_t)), np.full(rows, float(n_c)), {}
        empty = (treated < 1) | (treated > n - 1)
        n_t = np.maximum(treated, 1).astype(np.float64)
        n_c = np.maximum(n - treated, 1).astype(np.float64)
        return n_t, n_c, {int(i): _empty_arm(self.method) for i in np.nonzero(empty)[0]}


@dataclass(frozen=True)
class HtPlan:
    """Horvitz-Thompson: the inverse-probability-weighted arm difference."""

    p: np.ndarray
    lam = 0.0  # unpenalized

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool):
        """See the module docstring.

        The HC0 variance regresses y_i / q_i on the signed indicator z; since
        z is +/-1, the sandwich is n^{-2} times the sum of the squared
        residuals y_i / q_i - z_i tau_hat.
        """
        rows, n = y.shape
        arms = fsum_rows(np.concatenate([d * y / self.p, (1.0 - d) * y / (1.0 - self.p)])) / n
        tau = arms[:rows] - arms[rows:]
        if not variance:
            return tau, None, {}
        resid = y / realized_arm_probability(self.p, d) - (2.0 * d - 1.0) * tau[:, None]
        return tau, fsum_rows(resid**2, math.inf) / n**2, {}


@dataclass(frozen=True)
class DmPlan:
    """Difference in means: treated-group mean minus control-group mean."""

    arms: ArmCounts
    lam = 0.0  # unpenalized

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool):
        """See the module docstring; the HC0 variance is _two_column_sandwich's of y."""
        n_t, n_c, failed = self.arms.counts(d)
        arms = fsum_rows(np.concatenate([d * y, (1.0 - d) * y]))
        tau = arms[: d.shape[0]] / n_t - arms[d.shape[0] :] / n_c
        return tau, _two_column_sandwich(y, d)[1] if variance else None, failed


def _two_column_sandwich(u: np.ndarray, d: np.ndarray, mask: np.ndarray | None = None):
    """Slope of the OLS of each row of u on [1, d] and the HC0 variance of that slope.

    u and d are (B, n) blocks, and mask is d's _arm_mask if the caller has
    it; returns the per-row (slope, slope variance) arrays. The regression is the two arm means: intercept u_c,
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
    if mask is None:
        mask = _arm_mask(d)
    r2 = (u - _by_arm(mask, mean_t[:, None], mean_c[:, None])) ** 2
    return mean_t - mean_c, dot_rows(d, r2) / n_t**2 + dot_rows(c, r2) / n_c**2


def realized_arm_probability(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q_i = p_i d_i + (1 - p_i)(1 - d_i), the probability of the arm unit i got."""
    return p * d + (1.0 - p) * (1.0 - d)


def ht_outcome_scales(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit (treated, control) outcome scales of LOORA-HT.

    Treated units are scaled by (1-p)^(1/2) / p^(3/2), control units by
    p^(1/2) / (1-p)^(3/2).
    """
    return np.sqrt(1.0 - p) / p**1.5, np.sqrt(p) / (1.0 - p) ** 1.5


def reweighted_outcomes_ht(y, d, scales: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-unit rescaled outcomes whose expectation is the HT signal vector.

    scales is ht_outcome_scales(p): the treated units of each row of d take
    the first, the control units the second.
    """
    treated_scale, control_scale = scales
    return np.where(d == 1.0, treated_scale, control_scale) * y


def _arm_mask(d: np.ndarray) -> np.ndarray:
    """All 64 bits set where the 0/1 block d is 1 and none where it is 0 (uint64)."""
    return np.negative(d.astype(np.int64)).view(np.uint64)


def _by_arm(mask: np.ndarray, treated: np.ndarray, control: np.ndarray) -> np.ndarray:
    """treated where mask (an _arm_mask) is set and control elsewhere, bit for bit.

    treated and control are float64 arrays that broadcast against the mask.
    The bits are np.where(d == 1, treated, control)'s for any values, by
    ((treated ^ control) & mask) ^ control on the bit patterns. np.where
    branches on every unit, and on a random assignment its mispredicted
    branches cost about four times these passes (about 100 against 20 to 30
    microseconds on a block of 3 rows of 5000 units, 2-core x86-64 host).
    """
    base = control.view(np.uint64)
    picked = np.bitwise_xor(treated.view(np.uint64), base) & mask
    picked ^= base
    return picked.view(np.float64)


@dataclass(frozen=True)
class LooraHtPlan:
    """LOORA-HT on its study-fixed weights, penalty and ridge factor.

    Built once from (X, design, rule); block() evaluates a block of
    assignments. Every per-unit constant a block needs is formed here once:
    with q_i the probability of unit i's realized arm (p_i treated, 1 - p_i
    control) and z_i = 2 d_i - 1, block() picks the outcome scale, z/q and
    z q (1 - h) by the arm (_by_arm), with the bits of forming them from d.
    """

    x: np.ndarray
    r: np.ndarray  # Bernoulli standard deviations sqrt(p (1 - p))
    scales: tuple[np.ndarray, np.ndarray]  # ht_outcome_scales(p)
    lam: float
    ridge: RidgeFactor  # of the inverse-weighted covariates X / r
    z_over_q: tuple[np.ndarray, np.ndarray]  # (1 / p, -1 / (1 - p))
    zq_gap: tuple[np.ndarray, np.ndarray]  # (p (1 - h), -(1 - p) (1 - h))

    @classmethod
    def build(cls, x, spec: DesignSpec, rule: LambdaRule = DEFAULT_LAMBDA_RULE) -> "LooraHtPlan":
        x = as_design_matrix(x)
        p = require_simple(spec, "LOORA_HT").p
        r = np.sqrt(p * (1.0 - p))
        xw = x / r[:, None]
        lam = rule.resolve(xw)
        ridge = ridge_factor(xw, lam)
        check_loo_feasible(ridge.hat_diag)
        return cls(
            x=x,
            r=r,
            scales=ht_outcome_scales(p),
            lam=lam,
            ridge=ridge,
            z_over_q=(1.0 / p, -1.0 / (1.0 - p)),
            zq_gap=(p * ridge.gap, -((1.0 - p) * ridge.gap)),
        )

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool):
        """See the module docstring.

        The second step regresses the residualized outcomes
        (y_i - x_i' beta) / (q_i (1 - h_i)) on the signed indicator z; since
        z is +/-1, its HC0 sandwich collapses to n^{-2} times the sum of the
        squared residuals of that regression. Each residual is computed
        times z_i, as (y_i - x_i' beta) / (z_i q_i (1 - h_i)) - tau_hat: that
        is the residual negated, bit for bit, where z_i = -1, so its square
        has the residual's own bits.
        """
        ridge, n, mask = self.ridge, y.shape[1], _arm_mask(d)
        yw = _by_arm(mask, *self.scales) * y  # reweighted_outcomes_ht
        beta = ridge.solve_rows(yw)  # full-sample fits of the reweighted outcomes on X / r
        # x_i' beta^{(-i)} with the raw row x_i = r_i * (x_i / r_i)
        adjustment = self.r * loo_fitted_rows(ridge, yw, beta)
        tau = fsum_rows(_by_arm(mask, *self.z_over_q) * (y - adjustment)) / n
        if not variance:
            return tau, None, {}
        resid = (y - matvec_rows(self.x, beta)) / _by_arm(mask, *self.zq_gap) - tau[:, None]
        return tau, fsum_rows(resid**2, math.inf) / n**2, {}


def _own_arm_weight(count: np.ndarray) -> np.ndarray:
    """1 / (m (m - 1)) for arm sizes m > 1, and 0 where it is undefined (m <= 1)."""
    return np.where(count > 1, 1.0 / np.maximum(count * (count - 1), 1.0), 0.0)


def dm_response_weights(n_t, n_c, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit outcome weights of the two rescaled LOORA-DM responses.

    n_t and n_c are the per-row arm counts (B,) of an assignment block d
    (B, n). Returns (for_treated, for_control): the weights applied to the
    observed outcomes when the removed unit is treated, respectively
    control. Entries that would be undefined (own-group weight at n_t = 1
    or n_c = 1) are set to zero; they belong to the single unit of that
    group, whose row is always the one removed, so the value never
    influences a fit. The counts are exact in float64, so every weight
    carries the bits of the same integer arithmetic in Python. Each row's
    four weights are formed as (B,) scalars before they are spread over d.
    """
    own_t, cross_t, own_c, cross_c, _, _ = _dm_row_weights(n_t, n_c)
    treated = d == 1.0
    return np.where(treated, own_t, cross_t), np.where(treated, cross_c, own_c)


def _dm_row_weights(n_t, n_c) -> tuple[np.ndarray, ...]:
    """dm_response_weights' four weights (own_t, cross_t, own_c, cross_c) and the
    signed arm weights 1/n_t and -1/n_c of per-row arm counts (B,), as (B, 1) columns."""
    n = n_t + n_c
    scale = n_t * n_c * (n - 1) / n
    weights = (
        scale * _own_arm_weight(n_t),
        scale * (1.0 / n_c**2),
        scale * _own_arm_weight(n_c),
        scale * (1.0 / n_t**2),
        1.0 / n_t,
        -1.0 / n_c,
    )
    return tuple(w[:, None] for w in weights)


def _loora_dm_responses(n_t, n_c, d: np.ndarray, y: np.ndarray):
    """Per-assignment inputs of LOORA-DM and its literal refit, for a block: (responses, v).

    responses[0] (B, n) is regressed when the removed unit is treated,
    responses[1] when it is a control; v holds the arm weights 1/n_arm.
    """
    for_treated, for_control = dm_response_weights(n_t, n_c, d)
    v = np.where(d == 1.0, (1.0 / n_t)[:, None], (1.0 / n_c)[:, None])
    return (for_treated * y, for_control * y), v


@dataclass(frozen=True)
class LooraDmPlan:
    """LOORA-DM on its study-fixed arm counts, penalty and ridge factor of X.

    Built once from (X, design, rule); block() evaluates a block of assignments.
    Exact unbiasedness needs two units in each arm: a singleton arm's
    counterfactuals never appear among the other units, so the estimate
    carries adjustment bias there.
    """

    arms: ArmCounts
    lam: float
    ridge: RidgeFactor

    @classmethod
    def build(
        cls,
        x,
        spec: DesignSpec,
        rule: LambdaRule = DEFAULT_LAMBDA_RULE,
        allow_design_mismatch: bool = False,
    ) -> "LooraDmPlan":
        arms = ArmCounts.of("LOORA_DM", spec, allow_design_mismatch)
        x = as_design_matrix(x)
        lam = rule.resolve(x)
        ridge = ridge_factor(x, lam)
        check_loo_feasible(ridge.hat_diag)
        return cls(arms=arms, lam=lam, ridge=ridge)

    def adjusted(self, d: np.ndarray, y: np.ndarray, mask: np.ndarray | None = None):
        """(tau_hat, u, failed) for a block of assignments d (B, n) and outcomes y (B, n).

        Row i of u holds the adjusted outcomes y_j - x_j' beta^{(-j)} of
        assignment i; failed holds the rows whose arm counts fail, as
        ArmCounts.counts returns them. tau_hat sums v z u, with v the arm
        weights 1/n_arm of _loora_dm_responses and z = 2d - 1, each weight
        picked by the arm (_by_arm); mask is d's _arm_mask, built here if
        not given.
        """
        n_t, n_c, failed = self.arms.counts(d)
        own_t, cross_t, own_c, cross_c, inv_t, neg_inv_c = _dm_row_weights(n_t, n_c)
        if mask is None:
            mask = _arm_mask(d)
        # Both responses of every row (dm_response_weights times y) go to one
        # solve. The removed unit's own response entry cancels in the
        # leave-one-out identity, so the zero placeholders in the scalings are
        # never read.
        ridge, rows = self.ridge, d.shape[0]
        responses = np.empty((2 * rows, d.shape[1]))
        np.multiply(_by_arm(mask, own_t, cross_t), y, out=responses[:rows])
        np.multiply(_by_arm(mask, cross_c, own_c), y, out=responses[rows:])
        beta = ridge.solve_rows(responses)
        loo = loo_fitted_rows(ridge, responses, beta)
        u = y - _by_arm(mask, loo[:rows], loo[rows:])
        return fsum_rows(_by_arm(mask, inv_t, neg_inv_c) * u), u, failed

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool):
        """See the module docstring.

        The second step regresses u on an intercept and the treatment
        indicator; the estimate is that regression's slope, and its HC0
        sandwich entry is the variance. A row fails with SelfCheckFailed if
        the slope does not reproduce its point estimate.
        """
        mask = _arm_mask(d)
        tau, u, failed = self.adjusted(d, y, mask)
        if not variance:
            return tau, None, failed
        slope, var = _two_column_sandwich(u, d, mask)
        off = np.abs(slope - tau) > 1e-10 * np.maximum(1.0, np.abs(tau))
        self_check = {
            int(i): SelfCheckFailed(
                "auxiliary regression failed to reproduce the point estimate; "
                f"got {float(slope[i])!r} vs {float(tau[i])!r}"
            )
            for i in np.nonzero(off)[0]
        }
        return tau, var, {**self_check, **failed}


def _power_of_two_scales(a: np.ndarray) -> np.ndarray:
    """Per-column powers of two that bring each column's largest |entry| into [0.5, 1).

    Scaling by a power of two is exact, so it changes no fitted value; it
    only keeps rank tests, which compare columns with one another, blind to
    the units a covariate is measured in. An all-zero column keeps scale 1.
    """
    return np.ldexp(1.0, -np.frexp(np.max(np.abs(a), axis=0))[1])


@dataclass(frozen=True)
class BenchmarkPlan:
    """ADJ, INT and RIDGE_REG; block() evaluates a block of assignments, parts() its terms.

    ADJ regresses y on [1, d, X] and RIDGE_REG does so with the X columns
    penalized by lambda (the leverage rule applied to X); the estimate is
    the coefficient on d. With W = [1, X], per-column penalty P (0 on the
    intercept) and Z_W = (W'W + P)^{-1} W' factored once per study, the
    partial-ridge Frisch-Waugh-Lovell identity gives, for the unpenalized d,

        d~ = d - W Z_W d,   tau_hat = d~'y / d~'d,   row d of the full fit's
        (D'D + P_D)^{-1} D' = d~' / d~'d,

    so the HC0 variance is sum_i (d~_i r_i)^2 / (d~'d)^2 with the full fit's
    residuals r = y~ - d~ tau_hat, y~ = y - W Z_W y. Under ridge, W Z_W is
    not idempotent, so the denominator is d~'d, not d~'d~. ADJ's rank check
    on W runs once per study; per assignment, d~'d counts as zero by
    linalg.negligible_pivot against d'd and the (n, k + 2) design shape, and
    raises RankDeficient.

    INT regresses y on [1, d, Xc, d * Xc] with Xc = X minus its full-sample
    mean. That design is block-diagonal by arm, so tau_hat = alpha_t -
    alpha_c, the intercepts of the OLS of y on [1, Xc] within each arm, and
    its HC0 variance is the sum of the two intercepts' HC0 variances. The
    Gram of [1, Xc] is rank-checked once per study by
    linalg.full_rank_cholesky, and each arm's Gram per assignment by the
    same rule (linalg.full_rank_cholesky_rows).

    The X columns are scaled by powers of two before any factor or rank
    check (RIDGE_REG's penalty by the squared scales, which leaves its fit
    unchanged), so a covariate's units never make the design look singular.
    """

    method: Method
    arms: ArmCounts
    basis: np.ndarray  # [1, X] (ADJ, RIDGE_REG) or [1, X - mean] (INT), columns scaled
    ridge: RidgeFactor | None  # of (basis, P) for ADJ and RIDGE_REG; None for INT
    lam: float  # the penalty on the covariate block (zero for ADJ and INT)

    @classmethod
    def build(
        cls,
        method: Method,
        x,
        spec: DesignSpec,
        rule: LambdaRule = DEFAULT_LAMBDA_RULE,
        allow_design_mismatch: bool = False,
    ) -> "BenchmarkPlan":
        method = Method(method)
        arms = ArmCounts.of(method.value, spec, allow_design_mismatch)
        x = as_design_matrix(x)
        covariates = x - x.mean(axis=0) if method is Method.INT else x
        scales = _power_of_two_scales(covariates)
        basis = np.column_stack([np.ones(x.shape[0]), covariates * scales])
        lam = rule.resolve(x) if method is Method.RIDGE_REG else 0.0
        if method is Method.INT:
            full_rank_cholesky(basis)
            return cls(method=method, arms=arms, basis=basis, ridge=None, lam=lam)
        penalty = np.concatenate([[0.0], lam * scales**2])
        ridge = ridge_factor(basis, penalty)
        return cls(method=method, arms=arms, basis=basis, ridge=ridge, lam=lam)

    def block(self, d: np.ndarray, y: np.ndarray, variance: bool):
        """See the module docstring; the HC0 variance is the sum of parts()'s squared terms."""
        tau, terms, failed = self.parts(d, y)
        return tau, fsum_rows(terms**2, math.inf) if variance else None, failed

    def parts(self, d: np.ndarray, y: np.ndarray):
        """(tau_hat, terms, failed) for a block of assignments d (B, n) and outcomes y (B, n).

        Row i of terms is w r with w the estimate's linear weight on y
        (tau_hat = w'y) and r the full regression's residuals, so the HC0
        variance is the sum of its squares. failed holds, keyed by row,
        the arm-count and rank failures each row would raise alone.
        """
        _, _, failed = self.arms.counts(d)
        if self.method is Method.INT:
            return self._int_parts(d, y, failed)
        w, z = self.basis, self.ridge.z
        d_res = d - matvec_rows(w, matvec_rows(z, d))
        dd = dot_rows(d_res, d)
        singular = negligible_pivot(dd, dot_rows(d, d), (d.shape[1], w.shape[1] + 1))
        for i in np.nonzero(singular)[0]:
            failed.setdefault(
                int(i),
                RankDeficient(
                    "the assignment is numerically a combination of the covariates; "
                    "the coefficient on d is not identified"
                ),
            )
        tau_hat = dot_rows(d_res, y) / dd
        resid = y - matvec_rows(w, matvec_rows(z, y)) - d_res * tau_hat[:, None]
        return tau_hat, d_res * resid / dd[:, None], failed

    def _int_parts(self, d: np.ndarray, y: np.ndarray, failed: dict):
        """INT's parts: both arm fits of all rows that share a treated count at once.

        The rows still to fit are sorted by treated count, their units
        ordered treated first, each arm in unit order, and the basis rows
        gathered once; each run of rows with one count is then a (G, m,
        k + 1) view per arm. A row whose arm is rank-deficient fails as
        full_rank_cholesky fails it alone, the treated arm checked first.
        """
        tau_hat, terms = np.full(d.shape[0], math.nan), np.zeros(d.shape)
        treated = d == 1.0
        count = np.count_nonzero(treated, axis=1)
        live = np.ones(d.shape[0], dtype=bool)
        live[list(failed)] = False
        rows = np.flatnonzero(live)
        rows = rows[np.argsort(count[rows], kind="stable")]
        order = np.argsort(~treated[rows], axis=1, kind="stable")
        a = np.take(self.basis, order, axis=0)
        ya = np.take(y, order + d.shape[1] * rows[:, None])
        alpha, info = np.zeros((rows.size, 2)), np.zeros((rows.size, 2), dtype=np.int64)
        fit_terms = np.zeros(ya.shape)
        counts = count[rows].tolist()
        starts = [g for g in range(rows.size) if g == 0 or counts[g] != counts[g - 1]]
        for lo, hi in zip(starts, starts[1:] + [rows.size]):
            for arm, units in enumerate((slice(None, counts[lo]), slice(counts[lo], None))):
                alpha[lo:hi, arm], fit_terms[lo:hi, units], info[lo:hi, arm] = _arm_fits(
                    a[lo:hi, units], ya[lo:hi, units]
                )
        info = np.where(info[:, 0] != 0, info[:, 0], info[:, 1])
        ok = info == 0
        tau_hat[rows[ok]] = alpha[ok, 0] - alpha[ok, 1]
        terms[rows[ok]] = fit_terms[ok]
        for i, column in sorted(zip(rows[~ok].tolist(), info[~ok].tolist())):
            failed[i] = singular_column(column - 1)
        return tau_hat, terms, failed


def _arm_fits(a: np.ndarray, ya: np.ndarray):
    """(intercepts, HC0 terms, info) of the OLS of each row of ya (G, m) on its a (G, m, K).

    The intercept is alpha = beta[0] of (a'a) beta = a'ya and its HC0 terms
    are (a g) * (ya - a beta) with g = (a'a)^{-1} e0 = C (C' e0), C = R^{-1}
    for a'a = R'R, since row 0 of (a'a)^{-1} a' is (a g)'; C' e0 is row 0 of C.
    Every Gram is the one syrk call a 2-D a.T @ a makes, the factors and
    their inverses are stacked calls and every product is one BLAS call per
    row, so each row has the bits of its own fit. info is 0 for a full-rank
    arm, else 1 + its first column at fault, by full_rank_cholesky's rule,
    and such a row's intercept and terms are meaningless.
    """
    at = a.transpose(0, 2, 1)
    upper, info = full_rank_cholesky_rows(np.matmul(at, a), a.shape[1:])
    cho = upper_inverse(upper)
    beta = cholesky_solve(cho, matvec_rows(at, ya)[:, None])[:, 0]
    terms = matvec_rows(a, matvec_rows(cho, cho[:, 0])) * (ya - matvec_rows(a, beta))
    return beta[:, 0], terms, info
