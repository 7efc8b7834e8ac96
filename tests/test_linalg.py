import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import loo_fitted
from loora.estimators import AdjPlan, LambdaRule
from loora.exceptions import InvalidInput, LeverageSingular, NonFinite, RankDeficient
from loora.linalg import (
    cholesky_solve,
    full_rank_cholesky,
    leverage_regularizer,
    max_row_norm,
    ridge_factor,
    ridge_leverages_svd,
    upper_inverse,
)
from reference_routes import hat_full


def loo_residuals(x, y, lam):
    """y_i - x_i' beta^{(-i)} through the fit's leave-one-out identity."""
    y = np.asarray(y, dtype=np.float64)
    return y - loo_fitted(ridge_factor(x, lam), y)


def test_identity_design_ols():
    factor = ridge_factor(np.eye(2), 0.0)
    assert_allclose(factor.fit([3.0, 5.0]), [3.0, 5.0], atol=1e-12)
    assert_allclose(factor.hat_diag, [1.0, 1.0], atol=1e-12)


def test_identity_design_unit_ridge_shrinks_by_half():
    factor = ridge_factor(np.eye(2), 1.0)
    assert_allclose(factor.fit([3.0, 5.0]), [1.5, 2.5], atol=1e-12)
    assert_allclose(factor.hat_diag, [0.5, 0.5], atol=1e-12)


def test_ridge_fit_matches_independent_normal_equation_solve(rng):
    x = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    for lam in (0.0, 0.3, 2.0):
        expected = np.linalg.solve(x.T @ x + lam * np.eye(3), x.T @ y)
        assert_allclose(ridge_factor(x, lam).fit(y), expected, atol=1e-10)


def test_one_factor_fits_many_responses_bit_for_bit(rng):
    # A study fits every replicate against one factor; each fit, alone or
    # in a block of rows, must carry the bits of a fresh factor's fit of the
    # same response.
    x = rng.standard_normal((30, 4))
    factor = ridge_factor(x, 0.3)
    responses = rng.standard_normal((3, 30))
    for y, in_block in zip(responses, factor.solve_rows(responses)):
        fresh = ridge_factor(x, 0.3)
        assert np.array_equal(factor.fit(y), fresh.fit(y))
        assert np.array_equal(in_block, fresh.fit(y))
        assert np.array_equal(loo_fitted(factor, y), loo_fitted(fresh, y))
    with pytest.raises(InvalidInput):
        factor.fit(np.full(30, np.inf))
    with pytest.raises(InvalidInput):
        factor.fit(np.zeros(29))
    with pytest.raises(InvalidInput):
        factor.fit(np.zeros((30, 2)))  # one response; blocks go through solve_rows


def test_cholesky_solve_agrees_with_scipy_cho_solve(rng):
    x = rng.standard_normal((40, 5))
    factor = scipy.linalg.cho_factor(x.T @ x)
    for b in (rng.standard_normal((1, 5)), rng.standard_normal((3, 5)), x):
        expected = scipy.linalg.cho_solve(factor, b.T).T
        got = cholesky_solve(upper_inverse(full_rank_cholesky(x)), b)
        assert_allclose(got, expected, rtol=1e-12)


def test_cholesky_solve_solves_each_right_hand_side_alone(rng):
    # A block of solves must give every right-hand side the bits of its own
    # solve, against one factor and against a stack of factors alike, and a
    # stack of inverses each factor the bits of its own inverse.
    x = rng.standard_normal((4, 40, 5))
    cho = upper_inverse(np.stack([full_rank_cholesky(a) for a in x]))
    b = rng.standard_normal((4, 40, 5))
    for a, one, rows, got in zip(x, cho, b, cholesky_solve(cho, b)):
        assert np.array_equal(one, upper_inverse(full_rank_cholesky(a)))
        assert np.array_equal(got, cholesky_solve(one, rows))
        for i, row in enumerate(rows):
            assert np.array_equal(got[i], cholesky_solve(one, row[None])[0])


def test_full_rank_cholesky_flags_a_dependent_column(rng):
    a = rng.standard_normal((12, 3))
    c = full_rank_cholesky(a)
    assert_allclose(np.triu(c).T @ np.triu(c), a.T @ a, rtol=1e-12, atol=1e-12)
    # the rule is relative to each column's own norm: a tiny column counts
    # as dependent only when it lies in the span of the columns before it
    full_rank_cholesky(np.column_stack([a, 1e-30 * rng.standard_normal(12)]))
    for dependent in (a[:, 0] - 2.0 * a[:, 1], np.zeros(12), 1e-30 * a[:, 2]):
        with pytest.raises(RankDeficient, match="column 3"):
            full_rank_cholesky(np.column_stack([a, dependent]))
    with pytest.raises(RankDeficient, match="column 2"):
        full_rank_cholesky(np.column_stack([a[:, :2], a[:, 0] + a[:, 1], a[:, 2]]))


def test_full_rank_cholesky_refuses_fewer_rows_than_columns():
    # With m < K rows, column m lies in the span of the m columns before it,
    # even where rounding leaves its Cholesky pivot above negligible_pivot's
    # floor (as on some of these [1, X] fixtures at 3 x 4).
    for rows in (1, 2, 3):
        for seed in range(200):
            x = np.random.default_rng(seed).standard_normal((rows, 3))
            a = np.column_stack([np.ones(rows), x])
            with pytest.raises(RankDeficient, match=f"column {rows} "):
                full_rank_cholesky(a)


def test_rank_deficient_at_zero_lambda_raises():
    x = np.column_stack([np.ones(5), np.ones(5)])
    with pytest.raises(RankDeficient):
        ridge_factor(x, 0.0)
    # the same matrix is fine with any positive penalty
    ridge_factor(x, 1e-3).fit(np.arange(5.0))


def test_singular_gram_that_passes_the_rank_check_raises():
    # x has full rank by the SVD, but in float64 its Gram's second Cholesky
    # pivot, (4 + 2**-29) - (2 + 2**-31)**2, is exactly 0 (or below, where
    # the kernel fuses the product), so every BLAS refuses the factorization.
    # ADJ's basis [1, x / 2] carries the same Gram up to powers of two. Both
    # fail as singular_column, naming the second column.
    x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 2.0**-30]])
    assert np.linalg.matrix_rank(x) == 2
    with pytest.raises(RankDeficient, match="^column 1 of the design is numerically a combination"):
        ridge_factor(x, 0.0)
    with pytest.raises(RankDeficient, match="^column 1 of the design "):
        AdjPlan.build(x[:, 1:], LambdaRule.fixed(0.0))


def test_non_finite_input_rejected():
    with pytest.raises(InvalidInput):
        ridge_factor(np.array([[1.0], [np.nan]]), 0.0)
    with pytest.raises(InvalidInput):
        ridge_factor(np.eye(2), 0.0).fit([1.0, np.inf])
    with pytest.raises(InvalidInput):
        ridge_factor(np.eye(2), -0.5)
    # finite entries whose Gram overflows: refused as a magnitude failure,
    # never fit as if the overflowing columns carried an infinite penalty
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match="Gram X'X \\+ lambda is not finite"):
        ridge_factor(np.array([[1e160, 1.0], [2e160, 0.0], [0.0, 1.0]]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_finite_gram_or_row_norm_stands_for_the_check_of_x(bad):
    # ridge_factor and max_row_norm read x's entries only where the Gram or
    # the norm is not finite: a non-finite entry anywhere is still invalid input
    for i, j in ((0, 0), (2, 1)):
        x = np.arange(6.0).reshape(3, 2)
        x[i, j] = bad
        for call in (lambda: ridge_factor(x, 1.0), lambda: max_row_norm(x),
                     lambda: leverage_regularizer(x, 2.0), lambda: full_rank_cholesky(x)):
            with pytest.raises(InvalidInput, match="non-finite entries"):
                call()
    # and a finite row too large to square is an infinite norm
    assert max_row_norm(np.array([[1e160, 1.0], [0.0, 1.0]])) == math.inf


def test_full_hat_symmetric_and_trace_matches_diag(rng):
    x = rng.standard_normal((7, 3))
    factor = ridge_factor(x, 0.7)
    hat = hat_full(factor)
    assert np.max(np.abs(hat - hat.T)) < 1e-10
    assert abs(np.trace(hat) - math.fsum(factor.hat_diag)) < 1e-10


def test_loo_two_point_interpolation():
    fitted = loo_fitted(ridge_factor(np.array([[1.0], [1.0]]), 0.0), [0.0, 2.0])
    assert_allclose(fitted, [2.0, 0.0], atol=1e-12)


def test_loo_matches_direct_refit(rng):
    x = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    for lam in (0.0, 0.4):
        fast = loo_fitted(ridge_factor(x, lam), y)
        for i in range(10):
            refit = ridge_factor(np.delete(x, i, axis=0), lam).fit(np.delete(y, i))
            assert_allclose(fast[i], x[i] @ refit, atol=1e-9)


def test_loo_infinite_shrinkage_limit(rng):
    x = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    lam = 1e12 * max_row_norm(x) ** 2
    fitted = loo_fitted(ridge_factor(x, lam), y)
    assert np.max(np.abs(fitted)) <= 1e-6 * max_row_norm(x) * np.linalg.norm(y)


def test_loo_residuals_two_point_line():
    resid = loo_residuals(np.array([[1.0], [1.0]]), [0.0, 2.0], 0.0)
    assert_allclose(resid, [-2.0, 2.0], atol=1e-12)


def test_loo_residuals_match_refit(rng):
    x = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    resid = loo_residuals(x, y, 0.25)
    for i in range(10):
        refit = ridge_factor(np.delete(x, i, axis=0), 0.25).fit(np.delete(y, i))
        assert abs(resid[i] - (y[i] - x[i] @ refit)) < 1e-9


def test_loo_residuals_zero_for_exact_fit(rng):
    x = rng.standard_normal((9, 3))
    y = x @ np.array([1.0, -2.0, 0.5])
    assert np.max(np.abs(loo_residuals(x, y, 0.0))) < 1e-9


def test_leverage_guard_names_offending_row():
    # a duplicated-column design makes the lone heavy row's leverage 1 at lam=0
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    factor = ridge_factor(x, 0.0)
    with pytest.raises(LeverageSingular) as exc:
        loo_fitted(factor, np.arange(3.0))
    assert exc.value.row == 0


def test_svd_leverages_identity():
    assert_allclose(ridge_leverages_svd(np.eye(2), 1.0), [0.5, 0.5], atol=1e-12)


def test_svd_leverages_zero_row():
    x = np.array([[2.0, 0.0], [0.0, 0.0]])
    for lam in (0.5, 3.0):
        assert_allclose(ridge_leverages_svd(x, lam), [4.0 / (4.0 + lam), 0.0], atol=1e-12)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 3e-5])
@pytest.mark.parametrize("seed", range(5))
def test_near_collinear_leverages_track_the_svd(eps, seed):
    # [1, x1, x1 + eps * noise] at n = 120 has condition number kappa of about
    # 2 / eps, up to 7.8e4 here. The Gram squares kappa, so the leverages
    # carry errors of order kappa^2 * eps64: 0.002-0.10 times that on these
    # fixtures, and the worst of each eps at least 0.029 times it. The bound,
    # 0.25 * kappa^2 * eps64, is within ten times that worst at every eps.
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(120)
    x = np.column_stack([np.ones(120), x1, x1 + eps * rng.standard_normal(120)])
    kappa = np.linalg.cond(x)
    assert kappa <= 1e5
    err = np.max(np.abs(ridge_factor(x, 0.0).hat_diag - ridge_leverages_svd(x, 0.0)))
    assert err <= 0.25 * kappa**2 * np.finfo(np.float64).eps


def test_svd_leverages_match_normal_equation_route(rng):
    x = rng.standard_normal((9, 3))
    for lam in (0.0, 0.8, 5.0):
        direct = ridge_factor(x, lam).hat_diag
        assert_allclose(ridge_leverages_svd(x, lam), direct, atol=1e-10)


def test_leverage_regularizer_values():
    x = np.array([[2.0, 0.0], [1.0, 1.0]])
    assert leverage_regularizer(x, 2.0) == pytest.approx(8.0, abs=1e-12)
    assert leverage_regularizer(x, 0.0) == 0.0


def test_leverage_regularizer_squares_the_norm_correctly_rounded():
    # c * r * r, where libm's pow(r, 2) is off by an ulp for some r: then the
    # auto penalty would not scale by exactly 4**a when X scales by 2**a.
    rng = np.random.default_rng(15)
    for _ in range(5000):
        x = rng.standard_normal((4, 2))
        norm = max_row_norm(x)
        assert leverage_regularizer(x, 2.0) == 2.0 * (norm * norm)
        assert leverage_regularizer(np.ldexp(x, -7), 2.0) == math.ldexp(2.0 * (norm * norm), -14)


def test_leverage_cap_randomized(rng):
    for _ in range(200):
        n = int(rng.integers(3, 21))
        k = int(rng.integers(1, 7))
        x = rng.standard_t(df=2, size=(n, k))
        for c in (0.5, 1.0, 2.0, 5.0):
            h = ridge_leverages_svd(x, leverage_regularizer(x, c))
            assert np.max(h) <= 1.0 / (1.0 + c) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    k=st.integers(1, 4),
    lam=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_loo_identity_property(n, k, lam, seed):
    # full-sample residual equals (1 - h) times the leave-one-out residual
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    x /= np.maximum(x.std(axis=0), 1e-9)
    y = gen.standard_normal(n)
    try:
        factor = ridge_factor(x, lam)
        loo = loo_residuals(x, y, lam)
    except (RankDeficient, LeverageSingular):
        return
    full = y - x @ factor.fit(y)
    scale = np.maximum(1.0, np.abs(full))
    assert np.max(np.abs(full - (1.0 - factor.hat_diag) * loo) / scale) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 10),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_ridge_residual_monotone_in_lambda(n, k, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    v = gen.standard_normal(n)
    lams = sorted(gen.uniform(0.0, 5.0, size=4))
    errors = []
    for lam in lams:
        try:
            beta = ridge_factor(x, lam).fit(v)
        except RankDeficient:
            if lam > 0:
                raise
            return
        errors.append(float(np.sum((x @ beta - v) ** 2)))
    for small, large in zip(errors, errors[1:]):
        assert small <= large + 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    k=st.integers(1, 5),
    lam=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_offdiagonal_leverage_frobenius_bound(n, k, lam, seed):
    # sum over pairs of squared off-diagonal hat entries never exceeds k/2
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    try:
        hat = hat_full(ridge_factor(x, lam))
    except RankDeficient:
        return
    off = hat[np.triu_indices(n, k=1)]
    assert float(np.sum(off**2)) <= k / 2.0 + 1e-10


@pytest.mark.parametrize("penalty", [0.5, np.array([0.0, 0.5, 0.5, 1.0, 2.0, 0.5])], ids=["scalar", "per-column"])
def test_penalized_fit_with_more_columns_than_rows_answers(rng, penalty):
    # [X; sqrt(Lambda)] has a row per penalized column, so a penalized fit of
    # k = 6 columns on n = 3 rows never meets the fewer-rows rule, also with
    # an unpenalized intercept; unpenalized, the same design names column 3
    x = np.column_stack([np.ones(3), rng.standard_normal((3, 5))])
    y = rng.standard_normal(3)
    factor = ridge_factor(x, penalty)
    expected = np.linalg.solve(x.T @ x + np.diag(np.broadcast_to(penalty, 6)), x.T @ y)
    assert_allclose(factor.fit(y), expected, atol=1e-10)
    hat = hat_full(factor)
    assert_allclose(np.diag(hat), factor.hat_diag, atol=1e-12)
    assert float(np.sum(hat[np.triu_indices(3, k=1)] ** 2)) <= 6 / 2.0 + 1e-10
    with pytest.raises(RankDeficient, match="^column 3 of the design "):
        ridge_factor(x, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    extra=st.integers(2, 8),
    lam=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_response_and_loo_fitted_match_separate_fits_and_refits(k, extra, lam, seed):
    # n >= k + 2 keeps every leave-one-out refit overdetermined, so a refit at
    # tiny lambda is not an ill-posed problem that no route can match to 1e-9
    n = k + extra
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    y = gen.standard_normal((n, 2))
    try:
        factor = ridge_factor(x, lam)
        fitted = loo_fitted(factor, y)
    except (RankDeficient, LeverageSingular):
        return
    both = factor.solve_rows(np.ascontiguousarray(y.T))
    for col in range(2):
        single = ridge_factor(x, lam).fit(y[:, col])
        scale = np.maximum(1.0, np.abs(single))
        assert np.max(np.abs(both[col] - single) / scale) < 1e-12
        for i in range(n):
            try:
                refit = ridge_factor(np.delete(x, i, axis=0), lam).fit(np.delete(y[:, col], i))
            except RankDeficient:
                continue
            assert abs(fitted[i, col] - x[i] @ refit) < 1e-9 * max(1.0, abs(fitted[i, col]))


def test_per_column_penalty_matches_normal_equations(rng):
    x = rng.standard_normal((9, 3))
    y = rng.standard_normal(9)
    penalty = np.array([0.0, 0.5, 2.0])
    factor = ridge_factor(x, penalty)
    expected = np.linalg.solve(x.T @ x + np.diag(penalty), x.T @ y)
    assert_allclose(factor.fit(y), expected, atol=1e-10)
    assert_allclose(factor.z @ y, factor.fit(y), atol=1e-10)
    with pytest.raises(InvalidInput):
        ridge_factor(x, np.array([0.0, -1.0, 1.0]))
    with pytest.raises(InvalidInput):
        ridge_factor(x, np.zeros(2))
