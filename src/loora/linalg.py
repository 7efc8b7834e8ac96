"""Ridge regression, leverage scores, and leave-one-out identities.

Everything downstream (estimators, exact variance formulas, robust variance
estimates) is built on the machinery in this module: symmetric positive
definite ridge solves, the leverages (the hat matrix's diagonal) of a ridge
fit, and the rank-one identities that turn n leave-one-out refits into one factorization.

A design matrix here is any finite real ndarray of shape (n, k) with
n >= 1 and k >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput, LeverageSingular, NonFinite, RankDeficient

# (1 - h) below this threshold makes leave-one-out denominators meaningless.
LEVERAGE_GUARD = 1e-12
_EPS = float(np.finfo(np.float64).eps)


def as_design_matrix(x, finite: bool = True) -> np.ndarray:
    """Validate and return a design matrix as a float64 (n, k) array (finite=False: its shape only)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInput(f"design matrix must be 2-dimensional, got shape {x.shape}")
    n, k = x.shape
    if n < 1 or k < 1:
        raise InvalidInput(f"design matrix must have n >= 1 and k >= 1, got {x.shape}")
    if finite and not np.all(np.isfinite(x)):
        raise InvalidInput("design matrix contains non-finite entries")
    return x


def as_vector(y, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a finite float64 1-d array, optionally of length n."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise InvalidInput(f"{name} must be 1-dimensional, got shape {y.shape}")
    if n is not None and y.shape[0] != n:
        raise InvalidInput(f"{name} has length {y.shape[0]}, expected {n}")
    if not np.isfinite(y).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return y


def max_row_norm(x) -> float:
    """Largest Euclidean row norm of a design matrix (its (2, inf) norm)."""
    x = as_design_matrix(x, finite=False)
    norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", x, x))))
    if not math.isfinite(norm):  # a non-finite entry, or a row too large to square
        as_design_matrix(x)
    return norm


def matvec_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v_i for every row v_i of v (m, n), as the rows of an (m, k) array.

    a is one (k, n) matrix, or a stack (m, k, n) of one matrix per row.

    np.matmul over a stack of column vectors issues one BLAS matrix-vector
    call per row, the call a @ v_i makes on its own, so each row carries the
    bits of a single product. A matrix-matrix product (a @ v.T) may sum in
    another order.
    """
    return np.matmul(a, v[:, :, None])[:, :, 0]


def dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i . v_i for every pair of rows of u and v (m, n), one BLAS dot per row.

    Each entry carries the bits of u_i @ v_i, as in matvec_rows; einsum and
    (u * v).sum(axis=1) sum in other orders.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def loo_fitted_rows(factor: RidgeFactor, y: np.ndarray, beta) -> np.ndarray:
    """x_i' beta^{(-i)} for each response row of y (m, n) fit as beta (m, k).

    The rank-one identity x_i' beta^{(-i)} = (x_i' beta - h_i y_i) / (1 - h_i)
    applied row by row, from the factor's design, leverages and 1 - h; the
    caller has checked the leverages. The chain runs in place: h o y is
    written over y, a scratch response block the caller no longer needs (a
    read-only y raises ValueError), and the difference and the quotient go
    into matvec_rows's output, which is returned. Every step is the
    elementwise operation of the expression above, so each row keeps its bits.
    """
    fitted = matvec_rows(factor.x, beta)
    fitted -= np.multiply(factor.hat_diag, y, out=y)
    fitted /= factor.gap
    return fitted


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a: the array's owner keeps its own flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def _as_penalty(lam, k: int) -> float | np.ndarray:
    """Validate a scalar penalty or a length-k per-column penalty."""
    if np.ndim(lam) == 0:
        lam = float(lam)
        if math.isfinite(lam) and lam >= 0.0:
            return lam
    else:
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (k,):
            raise InvalidInput(f"per-column lambda has shape {lam.shape}, expected ({k},)")
        if np.all(np.isfinite(lam)) and np.all(lam >= 0.0):
            return lam
    raise InvalidInput(f"lambda must be finite and nonnegative, got {lam}")


@dataclass(frozen=True)
class RidgeFactor:
    """The response-free part of a ridge regression: one Cholesky factor.

    Everything here depends on (X, Lambda) only, so a caller that fits many
    responses against the same design pays for the factorization once. Every
    array is held as a read-only view, so no in-place block chain can write
    to it.

    Attributes
    ----------
    x : ndarray of shape (n, k)
        Design matrix.
    cho : ndarray of shape (k, k)
        R^{-1} for the upper Cholesky factor R of X'X + Lambda (see cholesky_solve).
    hat_diag : ndarray of shape (n,)
        Ridge leverage scores.
    gap : ndarray of shape (n,)
        1 - hat_diag, the leave-one-out denominators.
    z : ndarray of shape (k, n)
        (X'X + Lambda)^{-1} X'.
    """

    x: np.ndarray
    cho: np.ndarray
    hat_diag: np.ndarray
    z: np.ndarray
    gap: np.ndarray

    def __post_init__(self):
        for name in ("x", "cho", "hat_diag", "z", "gap"):  # read-only views
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def fit(self, y) -> np.ndarray:
        """beta of (X'X + Lambda) beta = X'y for one response y of shape (n,)."""
        y = as_vector(y, self.x.shape[0], "response")
        return self.solve_rows(y[None])[0]

    def solve_rows(self, y: np.ndarray) -> np.ndarray:
        """beta for each response row of a checked y (m, n), as the rows of an (m, k) array.

        X'y is one matvec_rows call and the solve one cholesky_solve, so every
        row has the bits of its own single-response fit.
        """
        return cholesky_solve(self.cho, matvec_rows(self.x.T, y))


def ridge_factor(x, lam) -> RidgeFactor:
    """Factor X'X + Lambda once; fit responses with RidgeFactor.fit.

    X'X + Lambda is factored as the Gram of [X; sqrt(Lambda)], whose rows are
    X's and one per penalized column, by full_rank_cholesky_rows's rule.

    Parameters
    ----------
    x : array_like of shape (n, k)
        Design matrix.
    lam : float or array_like of shape (k,)
        Nonnegative ridge penalty, shared by every coefficient or given per
        coefficient (zero leaves that coefficient unpenalized).

    Raises
    ------
    InvalidInput
        On non-finite input or a negative penalty.
    NonFinite
        checked_gram's, when X'X + Lambda overflows.
    RankDeficient
        singular_column's, naming the first column of [X; sqrt(Lambda)] that
        is numerically a combination of the columns before it; a penalty
        lost in the Gram's rounding counts as none.
    """
    x = as_design_matrix(x, finite=False)  # checked_gram checks x if the Gram is not finite
    n, k = x.shape
    lam = _as_penalty(lam, k)
    gram = checked_gram(x, lam)
    rows = n + (k * (lam > 0.0) if isinstance(lam, float) else int(np.count_nonzero(lam)))
    upper, info = full_rank_cholesky_rows(gram[None], (rows, k))
    if info[0]:
        raise singular_column(int(info[0]) - 1)
    cho = np.linalg.inv(upper[0])
    z = cho @ (cho.T @ x.T)
    hat_diag = np.einsum("ij,ji->i", x, z)
    return RidgeFactor(x=x, cho=cho, hat_diag=hat_diag, z=z, gap=1.0 - hat_diag)


def checked_gram(x: np.ndarray, lam: float | np.ndarray = 0.0) -> np.ndarray:
    """X'X + Lambda of an x (n, k) and a checked penalty; NonFinite (exit 3) where it overflows.

    The one Gram of ridge_factor and full_rank_cholesky. A finite Gram proves x finite, so x is
    checked (InvalidInput) only where the Gram is not."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked instead
        gram = x.T @ x
        gram.flat[:: x.shape[1] + 1] += lam
    if not np.isfinite(gram).all():
        as_design_matrix(x)
        raise NonFinite("Gram", "X'X + lambda")
    return gram


def _failing_minor(gram: np.ndarray) -> int:
    """Order of the first leading minor whose Cholesky factorization fails, of a Gram that fails."""
    for order in range(1, len(gram)):
        try:
            np.linalg.cholesky(gram[:order, :order], upper=True)
        except np.linalg.LinAlgError:
            return order
    return len(gram)


def upper_inverse(upper: np.ndarray) -> np.ndarray:
    """R^{-1} of each upper-triangular R, with a positive diagonal, of a stack (..., K, K).

    Column j is C[j, j] = 1 / R[j, j], C[:j, j] = -C[j, j] C[:j, :j] R[:j, j] (LAPACK's
    trti2 order), one BLAS call per R, so each R gets the bits of its own call; K
    stacked steps cost less than np.linalg.inv's LAPACK calls per matrix.
    """
    inv = np.zeros_like(upper)
    for j in range(upper.shape[-1]):
        inv[..., j, j] = 1.0 / upper[..., j, j]
        col = np.matmul(inv[..., :j, :j], upper[..., :j, j, None])[..., 0]
        inv[..., :j, j] = col * -inv[..., j, j, None]
    return inv


def cholesky_solve(cho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (R'R) x = b for every right-hand side b_i in the rows of b (..., m, K).

    cho is C = R^{-1}, or a stack (..., K, K) of one per leading index of b. The
    solutions C (C' b_i) come back as rows, each product one BLAS matrix-vector
    call per right-hand side, so each row has the bits of its own single solve.
    """
    cho = cho[..., None, :, :]
    return np.matmul(cho, np.matmul(np.swapaxes(cho, -1, -2), b[..., None]))[..., 0]


def negligible_pivot(pivot_sq, norm_sq, shape: tuple[int, int]):
    """Whether a Cholesky pivot of a Gram matrix counts as zero (elementwise).

    pivot_sq is the squared distance of one column from the span of the
    columns before it (a Schur complement of the Gram), norm_sq that
    column's squared norm, and shape the (rows, columns) of the design. The
    pivot counts as zero when pivot_sq <= max(rows, columns) * eps * norm_sq.
    This is the SVD rank tolerance max(n, k) * eps applied to squared
    lengths: a Gram carries rounding of order eps times a squared norm, so
    the rule flags a column whose angle to the others is below
    sqrt(max(n, k) * eps) (about 1.6e-7 at n = 120), where an SVD of the
    design would resolve angles down to max(n, k) * eps. It is the one rank
    rule of every fit: ridge_factor, INT's arm fits and ADJ's d~'d.
    """
    return np.logical_not(pivot_sq > max(shape) * _EPS * norm_sq)


def singular_column(column: int) -> RankDeficient:
    """The failure of a design whose column `column` depends on the columns before it."""
    return RankDeficient(
        f"column {column} of the design is numerically a combination of the "
        "columns before it; the normal equations are singular"
    )


def full_rank_cholesky(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R of the unpenalized Gram a'a (a'a = R'R).

    Raises RankDeficient, naming the first column at fault, when the Gram is
    not numerically positive definite or a pivot is negligible_pivot, and
    checked_gram's NonFinite when the Gram overflows.
    """
    upper, info = full_rank_cholesky_rows(checked_gram(a)[None], a.shape)
    if info[0]:
        raise singular_column(int(info[0]) - 1)
    return upper[0]


def full_rank_cholesky_rows(gram: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """full_rank_cholesky of every Gram a_g'a_g of a stack (G, K, K): (factors, info).

    shape is the (rows, columns) of each a_g. One stacked np.linalg.cholesky factors
    every Gram with the bits of its own call; only if it raises is each factored
    alone. info is 0 where full_rank_cholesky returns the factor, else 1 + the
    column it names, and that Gram's factor is the identity. With fewer rows
    than columns, column `rows` is a combination of the columns before it
    whenever no earlier column is, whatever the rounded pivots say. A stack that
    factors with no negligible pivot, from at least as many rows as columns,
    returns at once with info all zero.
    """
    count, k = gram.shape[:2]
    info = None
    try:
        upper = np.linalg.cholesky(gram, upper=True)
    except np.linalg.LinAlgError:
        upper = np.zeros_like(gram)
        info = np.zeros(count, dtype=np.int64)
        for g, one in enumerate(gram):
            try:
                upper[g] = np.linalg.cholesky(one, upper=True)
            except np.linalg.LinAlgError:
                info[g] = _failing_minor(one)
    pivot = upper.reshape(count, -1)[:, :: k + 1]  # the diagonals, as strided views
    weak = negligible_pivot(pivot * pivot, gram.reshape(count, -1)[:, :: k + 1], shape)
    if info is None:
        if shape[0] >= shape[1] and not weak.any():  # every Gram keeps its factor
            return upper, np.zeros(count, dtype=np.int64)
        info = np.zeros(count, dtype=np.int64)
    info = np.where((info == 0) & weak.any(axis=1), np.argmax(weak, axis=1) + 1, info)
    if shape[0] < shape[1]:
        info = np.where((info == 0) | (info > shape[0] + 1), shape[0] + 1, info)
    upper[info != 0] = np.eye(k)
    return upper, info


def check_loo_feasible(hat_diag: np.ndarray) -> None:
    """Raise LeverageSingular if any (1 - h_i) falls below the guard."""
    gap = 1.0 - hat_diag
    bad = np.nonzero(gap <= LEVERAGE_GUARD)[0]
    if bad.size:
        row = int(bad[np.argmin(gap[bad])])
        raise LeverageSingular(row, float(hat_diag[row]))


def ridge_leverages_svd(x, lam: float) -> np.ndarray:
    """Ridge leverage scores through the compact SVD of X.

    h_i = sum_j sigma_j^2 u_ij^2 / (sigma_j^2 + lam) over the nonzero
    singular values. Unlike the normal-equation route, this is well defined
    for rank-deficient X whenever lam > 0.
    """
    x = as_design_matrix(x)
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInput(f"lambda must be a finite nonnegative real, got {lam}")
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    tol = max(x.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    keep = s > tol
    u = u[:, keep]
    s2 = s[keep] ** 2
    if s2.size == 0:
        return np.zeros(x.shape[0])
    return (u * u) @ (s2 / (s2 + lam))


def leverage_regularizer(x, c: float) -> float:
    """Ridge penalty c * ||X||_{2,inf}^2 that caps every leverage at 1/(1+c).

    Any ridge leverage computed at the returned penalty is guaranteed to be
    at most 1 / (1 + c), uniformly over rows.
    """
    c = float(c)
    if not np.isfinite(c) or c < 0.0:
        raise InvalidInput(f"c must be a finite nonnegative real, got {c}")
    if c == 0.0:  # 0 whatever X is, where 0 * inf would be nan on rows too large to square
        return 0.0
    norm = max_row_norm(x)
    return c * (norm * norm)  # correctly rounded, unlike libm's pow, so exact under 2**a scaling
