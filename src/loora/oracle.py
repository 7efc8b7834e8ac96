"""Ground-truth computations that require both potential outcomes.

Nothing here is feasible for a real analyst: every function sees the full
population (covariates plus both potential-outcome vectors) and returns exact
design-based quantities, such as the closed-form variances of the
leave-one-out adjusted estimators. They exist to certify the estimators and
the feasible variance machinery, and loora.simulation.enumeration_moments
certifies them in turn by brute force over every possible assignment.

Large cancellations appear in the cross-unit terms at small n, so final
reductions are correctly rounded sums throughout: math.fsum, or fsum_rows
(math.fsum's bits, row by row) where several sums of length n are stacked.
Every exact variance raises NonFinite, naming the method and the stage, when
a total leaves double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .estimators import exact_sum, fsum_rows
from .exceptions import InvalidInput, NonFinite, ParameterOutOfRange, RankDeficient
from .linalg import (
    RidgeFactor,
    as_design_matrix,
    as_vector,
    check_loo_feasible,
    matvec_rows,
    ridge_factor,
)


@dataclass(frozen=True)
class Population:
    """Full ground truth: covariates and both potential-outcome vectors."""

    x: np.ndarray
    y1: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        x = as_design_matrix(self.x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y1", as_vector(self.y1, x.shape[0], "treated outcomes"))
        object.__setattr__(self, "y0", as_vector(self.y0, x.shape[0], "control outcomes"))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def tau(self) -> float:
        """The estimand: the average unit-level treatment effect.

        Raises NonFinite if it leaves double precision: an effect y1 - y0
        that overflows, or a sum of effects that does.
        """
        with np.errstate(over="ignore"):
            effects = self.y1 - self.y0
        return _finite_total(effects, "population", "average treatment effect") / self.n


def observe(pop: Population, d: np.ndarray, control: np.ndarray | None = None) -> np.ndarray:
    """The outcomes a 0/1 assignment vector d reveals, or each row of a (B, n) block d.

    control is 1 - d, for a caller that has formed it already. The sum is
    formed in the first product's array, with its bits.
    """
    y = np.multiply(d, pop.y1)
    y += np.multiply(1.0 - d if control is None else control, pop.y0)
    return y


# ---------------------------------------------------------------------------
# Hat-matrix products from the ridge factor
# ---------------------------------------------------------------------------
#
# H = X (X'X + lam I)^{-1} X' = X Z has rank <= k, so the exact variances use
# it only through these O(nk^2) products and never build an n x n array.


def _hat_times(factor: RidgeFactor, v: np.ndarray) -> np.ndarray:
    """H v_i for every row v_i of v (m, n), each row the bits of x @ (z @ v_i)."""
    return matvec_rows(factor.x, matvec_rows(factor.z, v))


def _hat_sq_times(factor: RidgeFactor, v: np.ndarray) -> np.ndarray:
    """(H o H) v_i for every row v_i of v (m, n): entry k is x_k' Z diag(v_i) Z' x_k.

    Each row has the bits of einsum("ij,ij->i", x @ ((z * v_i) @ z.T), x): the
    stacked matmuls make that expression's gemm calls per row, and the einsum
    sums each x_k' (.) in its order.
    """
    inner = (factor.z * v[:, None, :]) @ factor.z.T
    return np.einsum("bij,ij->bi", factor.x @ inner, factor.x)


# ---------------------------------------------------------------------------
# Simple random assignment: HT-side signals and exact variances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HtSignal:
    """The vectors that drive HT-side variance under simple assignment.

    mu is the signal whose squared norm is the HT variance; t measures how
    far the reweighted-outcome proxy deviates from mu; r are the per-unit
    Bernoulli standard deviations; xw the inverse-weighted covariates X / r.
    """

    mu: np.ndarray
    t: np.ndarray
    r: np.ndarray
    xw: np.ndarray


def _check_probs(pop: Population, p) -> np.ndarray:
    p = as_vector(p, pop.n, "probability vector")
    if not ((p > 0.0) & (p < 1.0)).all():
        raise InvalidInput("probabilities must lie strictly inside (0, 1)")
    return p


def ht_signal(pop: Population, p) -> HtSignal:
    p = _check_probs(pop, p)
    r = np.sqrt(p * (1.0 - p))
    mu = np.sqrt((1.0 - p) / p) * pop.y1 + np.sqrt(p / (1.0 - p)) * pop.y0
    t = ((1.0 - p) ** 2 * pop.y1 - p**2 * pop.y0) / r
    return HtSignal(mu=mu, t=t, r=r, xw=pop.x / r[:, None])


def ht_variance(pop: Population, p) -> float:
    """Exact variance of the unadjusted HT estimator: ||mu||^2 / n^2."""
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked instead
        squares = ht_signal(pop, p).mu ** 2
    return _finite_total(squares, "HT", "exact variance") / pop.n**2


def adjusted_ht_variance(pop: Population, p, b) -> float:
    """Exact variance of the HT estimator on outcomes adjusted by a fixed b."""
    b = as_vector(b, pop.k, "coefficient vector")
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked instead
        sig = ht_signal(pop, p)
        squares = (sig.mu - sig.xw @ b) ** 2
    return _finite_total(squares, "adjusted HT", "exact variance") / pop.n**2


def _check_signal(mu: np.ndarray, method: str) -> None:
    """NonFinite where the signal left double precision, before its ridge fit refuses it."""
    if not np.isfinite(mu).all():
        raise NonFinite(method, "exact variance")


def loora_ht_variance_terms(pop: Population, p, lam: float) -> tuple[float, float]:
    """The two pieces of the exact LOORA-HT variance.

    The first term is the leverage-corrected squared distance between the
    signal mu and its infeasible ridge fit; the second collects the
    cross-unit error from regressing the random proxy instead of mu.
    """
    sig = ht_signal(pop, p)
    _check_signal(sig.mu, "LOORA_HT")
    n = pop.n
    factor = ridge_factor(sig.xw, lam)
    check_loo_feasible(factor.hat_diag)
    h, gap = factor.hat_diag, factor.gap
    # sum_{i<j} H_ij^2 (a_j / g_i + a_i / g_j)^2 with g = 1 - h: half the sum
    # over all i != j, i.e. the full (H o H) forms minus their diagonal.
    a = sig.t / sig.r
    ag = a / gap
    sq_a2, sq_ag = _hat_sq_times(factor, np.array([a**2, ag]))
    both = 2.0 * sq_a2 / gap**2 + 2.0 * ag * sq_ag - 4.0 * (h * ag) ** 2
    fit_error = ((sig.xw @ factor.solve_rows(sig.mu[None])[0] - sig.mu) / gap) ** 2
    sum1, sum2 = fsum_rows(np.array([fit_error, both])).tolist()
    return sum1 / n**2, 0.5 * sum2 / n**2


def _finite_total(terms, method: str, stage: str) -> float:
    """The correctly rounded sum of terms; NonFinite(method, stage) if it is not finite."""
    total = exact_sum(terms)
    if not math.isfinite(total):
        raise NonFinite(method, stage)
    return total


def loora_ht_variance(pop: Population, p, lam: float) -> float:
    """Exact finite-population variance of LOORA-HT at penalty lam.

    Raises NonFinite when the population's magnitudes drive it out of the
    floating-point range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked instead
        terms = loora_ht_variance_terms(pop, p, lam)
    return _finite_total(terms, "LOORA_HT", "exact variance")


# ---------------------------------------------------------------------------
# Complete random assignment: DM-side signals and exact variances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DmSignal:
    """Signal vectors for DM-side variance under complete assignment."""

    mu: np.ndarray  # n_c * y1 + n_t * y0
    t1: np.ndarray  # n_c^2 * y1 - n_t (n_t - 1) * y0
    t0: np.ndarray  # n_c (n_c - 1) * y1 - n_t^2 * y0


def _check_n_t(pop: Population, n_t: int) -> tuple[int, int]:
    n_t = int(n_t)
    if not 1 <= n_t <= pop.n - 1:
        raise ParameterOutOfRange(f"treated count must satisfy 1 <= n_t <= n - 1, got {n_t}")
    return n_t, pop.n - n_t


def dm_signal(pop: Population, n_t: int) -> DmSignal:
    n_t, n_c = _check_n_t(pop, n_t)
    return DmSignal(
        mu=n_c * pop.y1 + n_t * pop.y0,
        t1=n_c**2 * pop.y1 - n_t * (n_t - 1) * pop.y0,
        t0=n_c * (n_c - 1) * pop.y1 - n_t**2 * pop.y0,
    )


def dm_variance(pop: Population, n_t: int) -> float:
    """Exact DM variance as the centered squared norm of the DM signal."""
    n_t, n_c = _check_n_t(pop, n_t)
    with np.errstate(over="ignore", invalid="ignore"):  # each total is checked instead
        mu = dm_signal(pop, n_t).mu
        squares = (mu - _finite_total(mu, "DM", "exact variance") / pop.n) ** 2
    return _finite_total(squares, "DM", "exact variance") / (n_t * n_c * pop.n * (pop.n - 1))


# --- the exact LOORA-DM variance -------------------------------------------
#
# Writing the estimator error as G1 - G2 (signal dispersion minus the
# cross-unit proxy error), the variance splits into T1 = E[G1^2],
# T2 = -2 E[G1 G2], and T3 = E[G2^2]. T3 is a quadratic form in the stacked
# signal vectors (t1, t0) whose coefficients are expectations of products of
# assignment weights over at most four distinct units. Those expectations
# are computed exactly from falling-factorial joint probabilities below,
# classified by the coincidence pattern of the four indices.

# pattern name -> (distinct unit count, unit slot of each of (i, k, j, l))
_PATTERNS = {
    "pair_pair": (2, (0, 1, 0, 1)),  # i = j, k = l
    "shared_i": (3, (0, 1, 0, 2)),  # i = j, k != l
    "shared_k": (3, (0, 2, 1, 2)),  # k = l, i != j
    "crossed": (2, (0, 1, 1, 0)),  # i = l, k = j
    "hooked_left": (3, (0, 1, 2, 0)),  # i = l only
    "hooked_right": (3, (0, 1, 1, 2)),  # k = j only
    "disjoint": (4, (0, 2, 1, 3)),  # all four distinct
}


def _pattern_terms() -> np.ndarray:
    """One row per (pattern, joint arm assignment) term of the tables' sums.

    Columns: pattern index, distinct unit count m, treated count among the m
    units, and the arms of i, k, j and l. Rows run pattern by pattern, each
    pattern's assignments in the order of the bits 0 .. 2^m - 1.
    """
    rows = []
    for pattern, (m, slots) in enumerate(_PATTERNS.values()):
        for bits in range(1 << m):
            arms = [(bits >> s) & 1 for s in range(m)]
            rows.append((pattern, m, sum(arms), *(arms[s] for s in slots)))
    return np.array(rows).T


_TERMS = _pattern_terms()


def _falling(a: int) -> np.ndarray:
    """a (a - 1) ... (a - b + 1) for b = 0 .. 4, multiplied left to right."""
    return np.cumprod([1.0, a, a - 1, a - 2, a - 3])


@functools.lru_cache(maxsize=64)
def _pattern_tables(n: int, n_t: int) -> MappingProxyType:
    """Exact E[weight product | d_i = a, d_j = b] summed over the other arms.

    Returns, per coincidence pattern, a 2 x 2 table indexed by (a, b); entry
    (a, b) multiplies t1-or-t0 at position k (chosen by a) and at position l
    (chosen by b) in the quadratic form. Each term is the joint probability
    of its arms (falling factorials) times the weight product
    v_i z_i v_k^(-i) z_k v_j z_j v_l^(-j) z_l, and np.add.at sums the terms
    of a cell in the order of the bits. Requires n >= 4, n_t >= 2, n_c >= 2.
    Built once per (n, n_t), for up to 64 pairs, as a read-only mapping of
    read-only arrays that every caller shares.
    """
    n_c = n - n_t
    pattern, units, treated, di, dk, dj, dl = _TERMS
    prob = _falling(n_t)[treated] * _falling(n_c)[units - treated] / _falling(n)[units]
    v = 1.0 / np.array([n_c, n_t])  # indexed by the unit's arm
    v_minus = 1.0 / np.array([[n_c - 1, n_t], [n_c, n_t - 1]])  # by (removed, kept) arms
    z = np.array([-1.0, 1.0])
    weight = v[di] * z[di] * v_minus[di, dk] * z[dk] * v[dj] * z[dj] * v_minus[dj, dl] * z[dl]
    keep = prob != 0.0
    tables = np.zeros((len(_PATTERNS), 2, 2))
    np.add.at(tables, (pattern[keep], di[keep], dj[keep]), (prob * weight)[keep])
    tables.flags.writeable = False
    return MappingProxyType(dict(zip(_PATTERNS, tables)))


def _pair_value(c: dict[str, float], h_kl, j_kl, w_k, w_l, u_k, u_l, hw2_k, hw2_l):
    """The off-diagonal entry formula of the dense quadratic-form reference
    in tests/reference_routes.py, elementwise.

    h_kl = H_kl, j_kl = (H diag(w^2) H)_kl, u = H w - h w, hw2 = h w^2; c
    holds the pattern-table coefficients of one (a, b) block, or a column of
    them per block. Not divided by n^2.
    """
    excl_kl = u_k - h_kl * w_l
    excl_lk = u_l - h_kl * w_k
    j_excl = j_kl - hw2_k * h_kl - h_kl * hw2_l
    return (
        c["shared_i"] * j_excl
        + c["crossed"] * h_kl**2 * w_k * w_l
        + c["hooked_left"] * h_kl * w_l * excl_lk
        + c["hooked_right"] * h_kl * w_k * excl_kl
        + c["disjoint"] * (excl_kl * excl_lk - j_excl)
    )


# the arms (a, b) of the four quadratic-form blocks, one block per row
_BLOCK_A = np.array([0, 0, 1, 1])
_BLOCK_B = np.array([0, 1, 0, 1])


def _loora_dm_t3_low_rank(
    sig: DmSignal,
    factor: RidgeFactor,
    tables,
    w: np.ndarray,
    uprime: np.ndarray,
    u_dot: list[float],
) -> float:
    """T3 = sum_ab t^(a)' Q^(ab) t^(b) from the ridge factor in O(nk^2).

    Summing each block's off-diagonal formula over every (k, l), the double
    sum expands into three bilinear forms, S1 = a'Hb, S2 = a'(H o H)b and
    J = a'H diag(w^2) H b, plus a rank-one product. The k = l terms of that
    sum are then swapped for the diagonal entries. The four (a, b) blocks
    are the rows of (4, n) arrays, with their table coefficients as (4, 1)
    columns; u_dot holds t^(a)' u' for a = 0, 1.
    """
    h = factor.hat_diag
    n = h.shape[0]
    hw2 = h * w**2
    wu = w * uprime
    # (H diag(w^2) H)_kk, then (H o H)(w t) for each arm's signal t
    hat_sq = _hat_sq_times(factor, np.array([w**2, w * sig.t0, w * sig.t1]))
    colsum2, hat_sq_wt = hat_sq[0], hat_sq[1:]
    v2 = colsum2 - h * hw2
    c_k = uprime**2 - v2
    signals = np.array([sig.t0, sig.t1])  # indexed by arm
    hat_t = _hat_times(factor, signals)
    c = {name: table[_BLOCK_A, _BLOCK_B][:, None] for name, table in tables.items()}
    left, right, hat_right = signals[_BLOCK_A], signals[_BLOCK_B], hat_t[_BLOCK_B]
    same = c["shared_i"] - c["disjoint"]
    # J and the S1 terms whose weight sits on the column l
    row = _hat_times(
        factor,
        same * (w**2 * hat_right - hw2 * right)
        + (c["hooked_left"] - c["disjoint"]) * wu * right,
    )
    # the S1 terms whose weight sits on the row k
    row += ((c["hooked_right"] - c["disjoint"]) * wu - same * hw2) * hat_right
    # S2: every H_kl^2 w_k w_l term
    sq = c["crossed"] - c["hooked_left"] - c["hooked_right"] + c["disjoint"]
    row += sq * w * hat_sq_wt[_BLOCK_B]
    # k = l: swap the off-diagonal formula for the diagonal entry
    row += (
        c["pair_pair"] * v2
        + c["shared_k"] * c_k
        - _pair_value(c, h, colsum2, w, w, uprime, uprime, hw2, hw2)
    ) * right
    # the rank-one u_k u_l term of the disjoint pattern
    u_dot = np.array(u_dot)
    rank_one = c["disjoint"][:, 0] * u_dot[_BLOCK_A] * u_dot[_BLOCK_B]
    return fsum_rows(np.concatenate([fsum_rows(left * row), rank_one])[None])[0] / n**2


def loora_dm_variance_terms(pop: Population, n_t: int, lam: float) -> tuple[float, float, float]:
    """The three pieces of the exact LOORA-DM variance.

    T1 is the centered, leverage-corrected dispersion of the adjusted DM
    signal; T2 the signal-by-proxy cross term; T3 the quadratic form of the
    proxy error. Requires n >= 4, n_t >= 2 and n_c >= 2.
    """
    n = pop.n
    n_t, n_c = _check_n_t(pop, n_t)
    if n_t < 2 or n_c < 2:
        raise ParameterOutOfRange("exact LOORA-DM variance requires n_t >= 2 and n_c >= 2")
    if n < 4:
        raise ParameterOutOfRange("exact LOORA-DM variance requires n >= 4")
    sig = dm_signal(pop, n_t)
    _check_signal(sig.mu, "LOORA_DM")
    factor = ridge_factor(pop.x, lam)
    check_loo_feasible(factor.hat_diag)
    h = factor.hat_diag
    w = 1.0 / factor.gap
    hat_w, hat_mu = _hat_times(factor, np.array([w, sig.mu]))
    uprime = hat_w - h * w  # sum_{i != k} h_ik w_i, per k
    proxy = hat_mu - h * sig.mu  # sum_{k != j} h_jk mu_k, per j
    resid = (sig.mu - pop.x @ factor.solve_rows(sig.mu[None])[0]) * w
    sum_resid, cross_a, total_wp, *u_dot = fsum_rows(
        np.array([resid, resid * sig.mu * uprime, w * proxy, sig.t0 * uprime, sig.t1 * uprime])
    ).tolist()
    resid_bar = sum_resid / n
    dispersion, cross_b = fsum_rows(
        np.array([(resid - resid_bar) ** 2, resid * ((total_wp - w * proxy) - sig.mu * uprime)])
    ).tolist()
    t1_term = dispersion / (n * (n - 1) * n_t * n_c)
    t2_term = -2.0 * (cross_a - cross_b / (n - 2)) / (n**2 * (n - 1) * n_t * n_c)
    t3_term = _loora_dm_t3_low_rank(sig, factor, _pattern_tables(n, n_t), w, uprime, u_dot)
    return t1_term, t2_term, t3_term


def loora_dm_variance(pop: Population, n_t: int, lam: float) -> float:
    """Exact finite-population variance of LOORA-DM at penalty lam.

    Raises NonFinite when the population's magnitudes drive it out of the
    floating-point range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the total is checked instead
        terms = loora_dm_variance_terms(pop, n_t, lam)
    return _finite_total(terms, "LOORA_DM", "exact variance")


# ---------------------------------------------------------------------------
# Asymptotic benchmark variance
# ---------------------------------------------------------------------------


def _centered_residuals(pop: Population, outcomes: np.ndarray) -> np.ndarray:
    xc = pop.x - pop.x.mean(axis=0)
    yc = outcomes - _finite_total(outcomes, "INT", "asymptotic variance") / pop.n
    coef, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
    if rank < pop.k:
        raise RankDeficient("centered covariates are rank-deficient")
    return xc @ coef - yc


def lin_asymptotic_variance(pop: Population, p_t: float) -> float:
    """Finite-n value of the interacted-adjustment asymptotic variance.

    ((1 - p) / p) sT^2 + (p / (1 - p)) sC^2 + 2 sTC, with each sigma built
    from the centered least-squares residuals of the respective potential
    outcome vector. This is the efficiency benchmark both leave-one-out
    estimators attain in large samples.
    """
    p_t = float(p_t)
    if not 0.0 < p_t < 1.0:
        raise InvalidInput(f"treated fraction must lie in (0, 1), got {p_t}")
    n = pop.n
    with np.errstate(over="ignore", invalid="ignore"):  # each total is checked instead
        e_t = _centered_residuals(pop, pop.y1)
        e_c = _centered_residuals(pop, pop.y0)
        s_t, s_c, s_tc = (
            _finite_total(terms, "INT", "asymptotic variance") / n
            for terms in (e_t**2, e_c**2, e_t * e_c)
        )
    value = (1.0 - p_t) / p_t * s_t + p_t / (1.0 - p_t) * s_c + 2.0 * s_tc
    if not math.isfinite(value):
        raise NonFinite("INT", "asymptotic variance")
    return value
