"""Point estimators of the average treatment effect and their HC0 variances.

Covers the unadjusted Horvitz-Thompson and difference-in-means estimators,
the classical regression-adjusted benchmarks (with and without interactions,
and a ridge-penalized variant), and the leave-one-out ridge-adjusted
estimators LOORA-HT (simple random assignment) and LOORA-DM (complete random
assignment). Each LOORA estimator is computed from a single ridge
factorization through the leave-one-out identity.

Each method is one plan (HtPlan, DmPlan, LooraHtPlan, LooraDmPlan, AdjPlan
or IntPlan), arithmetic on the covariates, the assignment probabilities and
the penalty rule alone: ADJ is AdjPlan at lambda = 0 and RIDGE_REG is
AdjPlan at the user's rule. A plan holds its penalty lam and one method,
block(block, variance) on a loora.inference.CheckedBlock (d (B, n), one 0/1
assignment per row, the y (B, n) each reveals, their arm facts): per-row
point estimates and HC0 variances (None unless variance is true), nan where
an exact sum overflows, and, keyed by row, the failure each failing row
would raise alone. Which design admits a method, and the failure of a row
that leaves an arm empty, belong to loora.inference.plan_estimate, the one
switch over method identifiers.
Both steps of a LOORA estimate, the ridge fit and the regression on the
treatment indicator whose sandwich is the variance, share one set of
intermediates. A Monte Carlo study builds each plan once and evaluates it
on every block of replicates, and a single sample is a block of one row.
Each row carries the bits it would have alone: elementwise work runs on the
whole block, every matrix-vector product and dot product is one BLAS call
per row (linalg.matvec_rows, linalg.dot_rows) and every exact sum is
correctly rounded, with math.fsum's bits, by fsum_rows: math.fsum per row
on small blocks, else one error-free extraction pass over the whole block
whose rounded total each row certifies, and math.fsum for every row it does
not (those holding non-finite, near-overflow or near-subnormal entries among
them). Per-unit constants that do not depend on the assignment (1 - h,
the arm probabilities' reciprocals) are formed once per plan, and a block
picks each unit's by its arm with the bits of forming it from d, on the bit
patterns rather than by a branch per unit (_by_arm). INT factors the arm Grams of a group of rows
in one stacked LAPACK call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import InvalidInput, NonFinite, RankDeficient, SelfCheckFailed
from .linalg import (
    RidgeFactor,
    check_loo_feasible,
    cholesky_solve,
    dot_rows,
    full_rank_cholesky,
    full_rank_cholesky_rows,
    leverage_regularizer,
    loo_fitted_rows,
    matvec_rows,
    negligible_pivot,
    read_only,
    ridge_factor,
    singular_column,
    upper_inverse,
)

if TYPE_CHECKING:
    from .inference import CheckedBlock


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
            lam = leverage_regularizer(regressed_matrix, self.value)
            if not math.isfinite(lam):  # rows too large to square
                raise NonFinite(f"the auto:{self.value!r} lambda rule's", "penalty c * max_i ||x_i||^2")
            return lam
        raise InvalidInput(f"unknown lambda rule mode {self.mode!r}")


DEFAULT_LAMBDA_RULE = LambdaRule.auto(2.0)


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


def fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a (B, n), to the bit.

    A block of fewer than 1200 entries takes math.fsum row by row; a larger
    one takes _fsum_rows_extracted, a block-wide pass that returns the same
    bits. A row whose math.fsum raises (an intermediate overflow, or both
    +inf and -inf) gets nan, which fails as not finite.
    """
    if a.size < _EXTRACTION_MIN_ENTRIES:
        return np.array([_fsum_or_nan(row) for row in a.tolist()], dtype=np.float64)
    return _fsum_rows_extracted(a)


def _fsum_rows_extracted(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a (B, n), to the bit, from one block-wide pass.

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
    2**(m + e - 53); err = sigma n^2 2**-103 is four times that, and exact
    (at least 2**-1070, as e >= -968). With res = fl(tau1 + t2) and
    rho = tau1 + t2 - res, exact by TwoSum, |S - res| <= |rho| + err / 4.
    The gap g from |res| down to the next double is the smaller of the two
    gaps beside a nonzero res, and fl(|rho| + err) rounds up by less than
    the 3 err / 4 it carries spare (|rho| is at most 2**(m + e - 53), so its
    rounding is below err / 8). So 2 fl(|rho| + err) < g puts S strictly
    inside res's rounding interval, whatever the tie rule: res is the
    correctly rounded sum and has math.fsum's bits. At res = 0, g = 0 and
    nothing is certified.

    Tie rule, for the rows that test misses (a sum on a rounding midpoint
    never passes it). If every nonzero |entry| is at least 2**(e + 2m - 54),
    every entry, q and r is a multiple of u = 2**(e + 2m - 106), and every
    partial sum of the rs is below n 2**(m + e - 53) < 2**53 u: an integer
    times u that fits in 53 bits. So t2 = sum(r) exactly, and res is S
    rounded to nearest, ties to even, as math.fsum rounds. The test compares
    frexp exponents as integers, so nothing underflows.

    Every row neither rule certifies takes math.fsum itself, and nan where
    it raises: a sum at res = 0 (an all -0.0 row sums to -0.0), a near-tie
    whose entries span more binades, and the rows kept out of the pass,
    those that hold a non-finite entry, whose largest |entry| reaches
    2**(1023 - m) (within 2**(m + 1) of overflow, where math.fsum's
    intermediate overflow lives), or that hold a nonzero entry below 2**-969.
    """
    n = a.shape[1]
    m = (n + 1).bit_length()  # ceil(log2(n + 2))
    buf = np.abs(a)
    top = buf.max(axis=1, initial=0.0)
    fallback = ~(top < math.ldexp(1.0, 1023 - m))  # also every nan or inf row
    low = buf.min(axis=1) < _EXTRACTION_FLOOR  # a zero, or an entry below the floor
    rest = a
    if (fallback | low).any():  # the common case's one test
        if low.any():
            fallback |= low & (buf.view(np.uint64) - np.uint64(1) < _EXTRACTION_FLOOR_BITS).any(axis=1)
        if fallback.any():
            rest = np.where(fallback[:, None], 0.0, a)
            top[fallback] = 0.0
    sigma_exp = np.frexp(top)[1] + m  # m + e
    sigma = np.ldexp(1.0, sigma_exp)
    q = np.add(rest, sigma[:, None], out=buf)
    q -= sigma[:, None]
    tau1 = q.sum(axis=1)
    t2 = np.subtract(rest, q, out=buf).sum(axis=1)
    # rho = tau1 + t2 - out exactly, by TwoSum
    out = tau1 + t2
    back = out - tau1
    rho = (tau1 - (out - back)) + (t2 - back)
    size = np.abs(out)
    certified = 2.0 * (np.abs(rho) + sigma * math.ldexp(n * n, -103)) < size - np.nextafter(size, 0.0)
    if not certified.all():  # fallback rows sum to 0 and never are
        todo = np.flatnonzero(~certified & (out != 0.0))  # the tie rule's rows
        smallest = np.abs(a[todo]).min(axis=1, initial=np.inf, where=a[todo] != 0.0)
        certified[todo[np.frexp(smallest)[1] >= sigma_exp[todo] + (m - 53)]] = True
        todo = np.flatnonzero(~certified)
        out[todo] = [_fsum_or_nan(row) for row in a[todo].tolist()]
    return out


def exact_sum(values) -> float:
    """math.fsum of a vector through fsum_rows, to the bit; nan where math.fsum raises."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < _EXTRACTION_MIN_ENTRIES:
        return _fsum_or_nan(values.tolist())
    return float(_fsum_rows_extracted(values[None])[0])


def _fsum_or_nan(row: list) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return math.nan


@dataclass(frozen=True)
class HtPlan:
    """Horvitz-Thompson: the inverse-probability-weighted arm difference."""

    p: np.ndarray
    lam = 0.0  # unpenalized

    def __post_init__(self):
        object.__setattr__(self, "p", read_only(self.p))

    def block(self, block: CheckedBlock, variance: bool):
        """See the module docstring.

        The HC0 variance regresses y_i / q_i on the signed indicator z; since
        z is +/-1, the sandwich is n^{-2} times the sum of the squared
        residuals y_i / q_i - z_i tau_hat.
        """
        d, y, control = block.d, block.y, block.control
        rows, n = y.shape
        arms = _arm_products(block)
        arms[:rows] /= self.p
        arms[rows:] /= 1.0 - self.p
        arms = fsum_rows(arms) / n
        tau = arms[:rows] - arms[rows:]
        if not variance:
            return tau, None, {}
        q = np.multiply(self.p, d)  # the probability of each unit's arm
        scratch = np.multiply(1.0 - self.p, control)
        q += scratch
        resid = np.divide(y, q, out=q)
        z_tau = np.multiply(2.0, d, out=scratch)
        z_tau -= 1.0
        z_tau *= tau[:, None]
        resid -= z_tau
        resid *= resid
        return tau, fsum_rows(resid) / n**2, {}


@dataclass(frozen=True)
class DmPlan:
    """Difference in means: treated-group mean minus control-group mean."""

    lam = 0.0  # unpenalized

    def block(self, block: CheckedBlock, variance: bool):
        """See the module docstring; the HC0 variance is _two_column_sandwich's of y."""
        rows = block.d.shape[0]
        arms = fsum_rows(_arm_products(block))
        tau = arms[:rows] / block.n_t - arms[rows:] / block.n_c
        var = _two_column_sandwich(block.y, block)[1] if variance else None
        return tau, var, {}


def _arm_products(block: CheckedBlock) -> np.ndarray:
    """d o y stacked over (1 - d) o y, a (2B, n) array of a block of B rows."""
    d, y, rows = block.d, block.y, block.d.shape[0]
    arms = np.empty((2 * rows, d.shape[1]))
    np.multiply(d, y, out=arms[:rows])
    np.multiply(block.control, y, out=arms[rows:])
    return arms


def _two_column_sandwich(u: np.ndarray, block: CheckedBlock):
    """Slope of the OLS of each row of u on [1, d] and the HC0 variance of that slope.

    u is a (B, n) block and d the block's assignments; returns the per-row
    (slope, slope variance) arrays. The regression is the two arm means: intercept u_c,
    slope u_t - u_c, and with r the deviations from the arm means, row d of
    the sandwich bread times [1, d]' is 1/n_t on treated and -1/n_c on
    control units, so the variance is sum_t r^2 / n_t^2 + sum_c r^2 / n_c^2.
    A row with an empty arm gives non-finite values; EstimatePlan has
    already failed such rows.
    """
    d, c, n_t, n_c = block.d, block.control, block.n_t, block.n_c
    mean_t, mean_c = dot_rows(d, u) / n_t, dot_rows(c, u) / n_c
    r2 = _by_arm(block.mask, mean_t[:, None], mean_c[:, None])
    np.subtract(u, r2, out=r2)
    r2 *= r2  # the bits of r2**2: numpy squares by x * x
    return mean_t - mean_c, dot_rows(d, r2) / n_t**2 + dot_rows(c, r2) / n_c**2


def _by_arm(mask: np.ndarray, treated: np.ndarray, control: np.ndarray, out=None) -> np.ndarray:
    """treated where mask (a CheckedBlock's) is set and control elsewhere, bit for bit.

    treated and control are float64 arrays that broadcast against the mask.
    The bits are np.where(d == 1, treated, control)'s for any values, by
    ((treated ^ control) & mask) ^ control on the bit patterns, the passes
    over the block all in one float64 array of the mask's shape: out if given
    (it may be treated itself, never control), else one fresh array. Where
    treated is smaller than the mask (a column of per-row weights, a row of
    per-unit constants), treated ^ control is formed at its own shape first,
    a pass over the block fewer. np.where
    branches on every unit, and on a random assignment its mispredicted
    branches cost about four times these passes (about 100 against 20 to 30
    microseconds on a block of 3 rows of 5000 units, 2-core x86-64 host).
    """
    if out is None:
        out = np.empty(mask.shape)
    base, picked = control.view(np.uint64), out.view(np.uint64)
    full = treated.shape == mask.shape
    differ = np.bitwise_xor(treated.view(np.uint64), base, out=picked if full else None)
    np.bitwise_and(differ, mask, out=picked)
    picked ^= base
    return out


@dataclass(frozen=True)
class LooraHtPlan:
    """LOORA-HT on its study-fixed weights, penalty and ridge factor.

    Built once from (X, p, rule); block() evaluates a block of
    assignments. Every per-unit constant a block needs is formed here once:
    with q_i the probability of unit i's realized arm (p_i treated, 1 - p_i
    control) and z_i = 2 d_i - 1, block() picks the outcome scale, z/q and
    z q (1 - h) by the arm (_by_arm), with the bits of forming them from d.
    """

    x: np.ndarray
    r: np.ndarray  # Bernoulli standard deviations sqrt(p (1 - p))
    scales: tuple[np.ndarray, np.ndarray]  # the outcome scales, (treated, control)
    lam: float
    ridge: RidgeFactor  # of the inverse-weighted covariates X / r
    z_over_q: tuple[np.ndarray, np.ndarray]  # (1 / p, -1 / (1 - p))
    zq_gap: tuple[np.ndarray, np.ndarray]  # (p (1 - h), -(1 - p) (1 - h))

    def __post_init__(self):
        for name in ("x", "r"):  # read-only views, as the ridge factor's arrays are
            object.__setattr__(self, name, read_only(getattr(self, name)))
        for name in ("scales", "z_over_q", "zq_gap"):
            object.__setattr__(self, name, tuple(map(read_only, getattr(self, name))))

    @classmethod
    def build(cls, x: np.ndarray, p: np.ndarray, rule: LambdaRule) -> "LooraHtPlan":
        """The plan of a checked design matrix x (n, k) and treatment probabilities p (n,)."""
        r = np.sqrt(p * (1.0 - p))
        with np.errstate(over="ignore"):  # checked instead
            xw = x / r[:, None]
        if not np.isfinite(xw).all():
            row = int(np.argmax(~np.isfinite(xw).all(axis=1)))
            raise NonFinite("LOORA_HT", f"X / sqrt(p (1 - p)) at row {row}")
        lam = rule.resolve(xw)
        ridge = ridge_factor(xw, lam)
        check_loo_feasible(ridge.hat_diag)
        return cls(
            x=x,
            r=r,
            scales=(np.sqrt(1.0 - p) / p**1.5, np.sqrt(p) / (1.0 - p) ** 1.5),
            lam=lam,
            ridge=ridge,
            z_over_q=(1.0 / p, -1.0 / (1.0 - p)),
            zq_gap=(p * ridge.gap, -((1.0 - p) * ridge.gap)),
        )

    def block(self, block: CheckedBlock, variance: bool):
        """See the module docstring.

        The second step regresses the residualized outcomes
        (y_i - x_i' beta) / (q_i (1 - h_i)) on the signed indicator z; since
        z is +/-1, its HC0 sandwich collapses to n^{-2} times the sum of the
        squared residuals of that regression. Each residual is computed
        times z_i, as (y_i - x_i' beta) / (z_i q_i (1 - h_i)) - tau_hat: that
        is the residual negated, bit for bit, where z_i = -1, so its square
        has the residual's own bits.
        """
        ridge, y, mask, n = self.ridge, block.y, block.mask, block.y.shape[1]
        yw = _by_arm(mask, *self.scales)
        yw *= y  # reweighted: their expectation is the HT signal
        beta = ridge.solve_rows(yw)  # full-sample fits of the reweighted outcomes on X / r
        # x_i' beta^{(-i)} with the raw row x_i = r_i * (x_i / r_i); yw is scratch from here on
        adjusted = loo_fitted_rows(ridge, yw, beta)
        adjusted *= self.r
        np.subtract(y, adjusted, out=adjusted)
        signed = _by_arm(mask, *self.z_over_q, out=yw)
        signed *= adjusted
        tau = fsum_rows(signed) / n
        if not variance:
            return tau, None, {}
        resid = matvec_rows(self.x, beta)
        np.subtract(y, resid, out=resid)
        resid /= _by_arm(mask, *self.zq_gap, out=yw)
        resid -= tau[:, None]
        resid *= resid
        return tau, fsum_rows(resid) / n**2, {}


def _own_arm_weight(count: np.ndarray) -> np.ndarray:
    """1 / (m (m - 1)) for arm sizes m > 1, and 0 where it is undefined (m <= 1)."""
    return np.where(count > 1, 1.0 / np.maximum(count * (count - 1), 1.0), 0.0)


def _dm_row_weights(n_t, n_c) -> tuple[np.ndarray, ...]:
    """LOORA-DM's response and arm weights of per-row arm counts (B,), as (B, 1) columns.

    With c = n_t n_c (n - 1) / n, the response regressed when the removed
    unit is treated weights treated outcomes own_t = c / (n_t (n_t - 1)) and
    control outcomes cross_t = c / n_c^2; when it is a control, treated
    outcomes get cross_c = c / n_t^2 and control outcomes own_c =
    c / (n_c (n_c - 1)). An own-arm weight of a singleton arm is undefined
    and set to zero: it belongs to that arm's single unit, whose row is
    always the one removed, so no fit reads it. The counts are exact in
    float64, so every weight carries the bits of the same integer
    arithmetic in Python. Last come the signed arm weights 1/n_t and -1/n_c.
    """
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


@dataclass(frozen=True)
class LooraDmPlan:
    """LOORA-DM on its study-fixed arm counts, penalty and ridge factor of X.

    Built once from (X, rule); block() evaluates a block of assignments.
    Exact unbiasedness needs two units in each arm: a singleton arm's
    counterfactuals never appear among the other units, so the estimate
    carries adjustment bias there.
    """

    lam: float
    ridge: RidgeFactor

    @classmethod
    def build(cls, x: np.ndarray, rule: LambdaRule) -> "LooraDmPlan":
        """The plan of a checked design matrix x (n, k)."""
        lam = rule.resolve(x)
        ridge = ridge_factor(x, lam)
        check_loo_feasible(ridge.hat_diag)
        return cls(lam=lam, ridge=ridge)

    def adjusted(self, block: CheckedBlock):
        """(tau_hat, u) for a checked block of assignments and outcomes.

        Row i of u holds the adjusted outcomes y_j - x_j' beta^{(-j)} of
        assignment i. tau_hat sums v z u, with v the arm
        weights 1/n_arm and z = 2d - 1, each signed weight picked by the arm
        (_by_arm).
        """
        own_t, cross_t, own_c, cross_c, inv_t, neg_inv_c = _dm_row_weights(block.n_t, block.n_c)
        y, mask, rows = block.y, block.mask, block.y.shape[0]
        # Both responses of every row (its weights picked by arm, times y) go to
        # one solve. The removed unit's own response entry cancels in the
        # leave-one-out identity, so the zero placeholders in the scalings are
        # never read.
        responses = np.empty((2 * rows, y.shape[1]))
        removed_t, removed_c = responses[:rows], responses[rows:]
        _by_arm(mask, own_t, cross_t, out=removed_t)
        _by_arm(mask, cross_c, own_c, out=removed_c)
        removed_t *= y
        removed_c *= y
        beta = self.ridge.solve_rows(responses)
        loo = loo_fitted_rows(self.ridge, responses, beta)  # responses is scratch from here on
        u = _by_arm(mask, loo[:rows], loo[rows:], out=loo[:rows])
        np.subtract(y, u, out=u)
        signed = _by_arm(mask, inv_t, neg_inv_c, out=removed_t)
        signed *= u
        return fsum_rows(signed), u

    def block(self, block: CheckedBlock, variance: bool):
        """See the module docstring.

        The second step regresses u on an intercept and the treatment
        indicator; the estimate is that regression's slope, and its HC0
        sandwich entry is the variance. A row fails with SelfCheckFailed if
        the slope does not reproduce its point estimate.
        """
        tau, u = self.adjusted(block)
        if not variance:
            return tau, None, {}
        slope, var = _two_column_sandwich(u, block)
        off = np.abs(slope - tau) > 1e-10 * np.maximum(1.0, np.abs(tau))
        return tau, var, {
            int(i): SelfCheckFailed(
                "auxiliary regression failed to reproduce the point estimate; "
                f"got {float(slope[i])!r} vs {float(tau[i])!r}"
            )
            for i in np.nonzero(off)[0]
        }


def _power_of_two_scales(a: np.ndarray) -> np.ndarray:
    """Per-column powers of two that bring each column's largest |entry| into [0.5, 1).

    Scaling by a power of two is exact, so it changes no fitted value; it
    only keeps rank tests, which compare columns with one another, blind to
    the units a covariate is measured in. An all-zero column keeps scale 1,
    and a column whose largest |entry| is below 2**-1023 (subnormal) takes
    the largest finite power, 2**1023, which still scales it exactly.
    """
    return np.ldexp(1.0, np.minimum(-np.frexp(np.max(np.abs(a), axis=0))[1], 1023))


class _TermsPlan:
    """block() of a plan whose parts() gives tau_hat, the HC0 terms and the failures."""

    def block(self, block: CheckedBlock, variance: bool):
        """See the module docstring; the HC0 variance is the sum of parts()'s squared terms."""
        tau, terms, failed = self.parts(block)
        if not variance:
            return tau, None, failed
        terms *= terms  # the bits of terms**2: numpy squares by x * x
        return tau, fsum_rows(terms), failed


@dataclass(frozen=True)
class AdjPlan(_TermsPlan):
    """ADJ and RIDGE_REG; block() evaluates a block of assignments, parts() its terms.

    Both regress y on [1, d, X] with the X columns penalized by lambda, the
    rule applied to X: ADJ is this plan at lambda = 0 and RIDGE_REG at the
    user's rule; the estimate is the coefficient on d. With W = [1, X],
    per-column penalty P (0 on the intercept) and Z_W = (W'W + P)^{-1} W'
    factored once per study, the partial-ridge Frisch-Waugh-Lovell identity
    gives, for the unpenalized d,

        d~ = d - W Z_W d,   tau_hat = d~'y / d~'d,   row d of the full fit's
        (D'D + P_D)^{-1} D' = d~' / d~'d,

    so the HC0 variance is sum_i (d~_i r_i)^2 / (d~'d)^2 with the full fit's
    residuals r = y~ - d~ tau_hat, y~ = y - W Z_W y. Under ridge, W Z_W is
    not idempotent, so the denominator is d~'d, not d~'d~. W's rank check is
    ridge_factor's, once per study: linalg.negligible_pivot on the pivots of
    W'W + P; per assignment, d~'d counts as zero by the same rule against
    d'd and the (n, k + 2) design shape, and raises RankDeficient.

    The X columns are scaled by powers of two before the factor (the
    penalty by the squared scales, which leaves the fit unchanged), so a
    covariate's units never make the design look singular.
    """

    basis: np.ndarray  # [1, X], columns scaled
    ridge: RidgeFactor  # of (basis, P)
    lam: float  # the penalty on the covariate block

    def __post_init__(self):
        object.__setattr__(self, "basis", read_only(self.basis))

    @classmethod
    def build(cls, x: np.ndarray, rule: LambdaRule) -> "AdjPlan":
        """The plan of a checked design matrix x (n, k)."""
        scales = _power_of_two_scales(x)
        basis = np.column_stack([np.ones(x.shape[0]), x * scales])
        lam = rule.resolve(x)
        penalty = 0.0  # ADJ, and RIDGE_REG at lambda = 0
        if lam > 0.0:
            # the penalty in scaled units, capped at 2**1000: a column whose
            # lam * scale**2 would pass it (one below about 2**-500 of
            # sqrt(lam)) has a coefficient of zero to double precision at
            # either penalty, and the cap keeps the Gram and its pivots finite.
            with np.errstate(over="ignore"):
                penalty = np.concatenate([[0.0], np.minimum(lam * scales**2, 2.0**1000)])
        return cls(basis=basis, ridge=ridge_factor(basis, penalty), lam=lam)

    def parts(self, block: CheckedBlock):
        """(tau_hat, terms, failed) for a checked block of assignments and outcomes.

        Row i of terms is w r with w the estimate's linear weight on y
        (tau_hat = w'y) and r the full regression's residuals, so the HC0
        variance is the sum of its squares. failed holds, keyed by row,
        the rank failure each row would raise alone.
        """
        d, y, w, z = block.d, block.y, self.basis, self.ridge.z
        d_res = matvec_rows(w, matvec_rows(z, d))
        np.subtract(d, d_res, out=d_res)
        dd = dot_rows(d_res, d)
        singular = negligible_pivot(dd, dot_rows(d, d), (d.shape[1], w.shape[1] + 1))
        failed = {
            int(i): RankDeficient(
                "the assignment is numerically a combination of the covariates; "
                "the coefficient on d is not identified"
            )
            for i in np.nonzero(singular)[0]
        }
        tau_hat = dot_rows(d_res, y) / dd
        terms = matvec_rows(w, matvec_rows(z, y))
        np.subtract(y, terms, out=terms)
        terms -= d_res * tau_hat[:, None]  # the full fit's residuals
        np.multiply(d_res, terms, out=terms)
        terms /= dd[:, None]
        return tau_hat, terms, failed


@dataclass(frozen=True)
class IntPlan(_TermsPlan):
    """INT; block() evaluates a block of assignments, parts() its terms.

    INT regresses y on [1, d, Xc, d * Xc] with Xc = X minus its full-sample
    mean. That design is block-diagonal by arm, so tau_hat = alpha_t -
    alpha_c, the intercepts of the OLS of y on [1, Xc] within each arm, and
    its HC0 variance is the sum of the two intercepts' HC0 variances. The
    Gram of [1, Xc] is rank-checked once per study by
    linalg.full_rank_cholesky, and each arm's Gram per assignment by the
    same rule (linalg.full_rank_cholesky_rows). The Xc columns are scaled by
    powers of two first, as in AdjPlan.
    """

    basis: np.ndarray  # [1, X - mean], columns scaled
    lam = 0.0  # unpenalized

    def __post_init__(self):
        object.__setattr__(self, "basis", read_only(self.basis))

    @classmethod
    def build(cls, x: np.ndarray) -> "IntPlan":
        """The plan of a checked design matrix x (n, k)."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked instead
            covariates = x - x.mean(axis=0)
        bad = ~np.isfinite(covariates).all(axis=0)
        if bad.any():
            raise NonFinite("INT", f"centering of column {int(np.argmax(bad))} of X")
        basis = np.column_stack([np.ones(x.shape[0]), covariates * _power_of_two_scales(covariates)])
        full_rank_cholesky(basis)
        return cls(basis=basis)

    def parts(self, block: CheckedBlock):
        """(tau_hat, terms, failed) as AdjPlan.parts gives them, from both arm fits of each row.

        The rows with both arms filled are sorted by treated count, their
        units ordered treated first, each arm in unit order, and the basis
        rows gathered once; each run of rows with one count is then a (G, m,
        k + 1) view per arm. A row whose arm is rank-deficient fails as
        full_rank_cholesky fails it alone, the treated arm checked first. A
        row with an empty arm keeps tau_hat nan and is not fit.
        """
        d, y = block.d, block.y
        tau_hat, terms = np.full(d.shape[0], math.nan), np.zeros(d.shape)
        count = block.n_t.astype(np.int64)
        rows = np.flatnonzero((block.n_t != 0.0) & (block.n_c != 0.0))
        rows = rows[np.argsort(count[rows], kind="stable")]
        order = np.argsort(block.control[rows], axis=1, kind="stable")
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
        failed = {
            i: singular_column(column - 1)
            for i, column in sorted(zip(rows[~ok].tolist(), info[~ok].tolist()))
        }
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
