import numpy as np
import pytest

from loora.linalg import check_loo_feasible, loo_fitted_rows
from loora.oracle import Population


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_population(rng, n, k, standardize=True):
    x = rng.standard_normal((n, k))
    if standardize:
        x /= np.maximum(x.std(axis=0), 1e-9)
    y1 = rng.standard_normal(n) + 1.0
    y0 = rng.standard_normal(n)
    return Population(x, y1, y0)


def rel_gap(a, b):
    """|a - b| scaled by max(1, |a|, |b|); inputs are O(1) by construction."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def loo_fitted(factor, y):
    """x_i' beta^{(-i)} of every row for a response y of shape (n,) or (n, m).

    The route the estimators take: check_loo_feasible on the factor's
    leverages, then linalg.loo_fitted_rows on the response columns as rows,
    their fits from one RidgeFactor.solve_rows call.
    """
    check_loo_feasible(factor.hat_diag)
    y = np.asarray(y, dtype=np.float64)
    rows = np.atleast_2d(np.ascontiguousarray(y.T))
    fitted = loo_fitted_rows(factor, rows, factor.solve_rows(rows))
    return fitted.T.reshape(y.shape)
