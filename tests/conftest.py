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


def loo_fitted(fit):
    """x_i' beta^{(-i)} of every row of a RidgeFit, shaped like its response.

    The route the estimators take: check_loo_feasible on the leverages, then
    linalg.loo_fitted_rows on each response column.
    """
    check_loo_feasible(fit.hat_diag)
    y, beta = np.ascontiguousarray(fit.y.T), np.ascontiguousarray(fit.beta.T)
    rows = loo_fitted_rows(fit.x, fit.hat_diag, np.atleast_2d(y), np.atleast_2d(beta))
    return rows.T.reshape(fit.y.shape)
