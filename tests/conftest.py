import numpy as np
import pytest

from loora.design import CompleteDesign, SimpleDesign, draw_with
from loora.linalg import check_loo_feasible, loo_fitted_rows
from loora.oracle import Population, observe
from loora.reporting import blas_core


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


def simple_sample(x, y, d, p):
    """(x, y, d, spec) of a simple design, in the literal routes' argument order."""
    p = np.asarray(p, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), d, SimpleDesign(p)


def complete_sample(x, y, d):
    """(x, y, d, spec) of the complete design that fixes d's treated count."""
    d = np.asarray(d, dtype=np.float64)
    spec = CompleteDesign(len(d), int(d.sum()))
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), d, spec


def drawn_sample(pop, spec, rng):
    """(x, y, d, spec) of one assignment drawn from spec."""
    d = draw_with(spec, rng)
    return pop.x, observe(pop, d), d, spec


def rel_gap(a, b):
    """|a - b| scaled by max(1, |a|, |b|); inputs are O(1) by construction."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def kernel_pin(pins):
    """The pin recorded for the BLAS kernel this process runs (reporting.blas_core()).

    Floating-point bits may differ between kernels, so each pin is recorded per
    kernel; on a kernel with none the test skips, naming the kernel.
    """
    core = blas_core()
    if core not in pins:
        pytest.skip(f"no pin recorded for the BLAS kernel {core!r}")
    return pins[core]


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
