import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import complete_sample, drawn_sample, random_population, rel_gap, simple_sample
import loora.estimators
from loora.design import CompleteDesign, SimpleDesign, draw_with
from loora.estimators import (
    IntPlan,
    LambdaRule,
    LooraHtPlan,
    Method,
    _fsum_rows_extracted,
    _power_of_two_scales,
    fsum_rows,
)
from loora.exceptions import LooraError, NonFinite, RankDeficient, SpecMismatch
from loora.inference import check_block, plan_estimate
from loora.linalg import full_rank_cholesky, max_row_norm, ridge_factor
from loora.oracle import Population, observe
from loora.simulation import enumeration_moments
from loora.verify import _loora_dm_pairwise, _loora_dm_refit, _loora_ht_refit
from reference_routes import fsum_rows_loop, int_parts_loop

AUTO2 = LambdaRule.auto(2.0)
DATA = Path(__file__).parent / "data"


def test_ht_hand_value():
    x, y, d, spec = simple_sample([[0.0], [0.0]], [3.0, 1.0], [1, 0], [0.5, 0.5])
    assert plan_estimate(Method.HT, x, spec).point(d, y) == pytest.approx(2.0, abs=1e-14)


def test_ht_zero_outcomes():
    x, y, d, spec = simple_sample([[1.0], [2.0]], [0.0, 0.0], [1, 0], [0.3, 0.8])
    assert plan_estimate(Method.HT, x, spec).point(d, y) == 0.0


def test_ht_requires_simple_design():
    x, _, _, spec = complete_sample([[1.0], [2.0]], [1.0, 2.0], [1, 0])
    with pytest.raises(SpecMismatch):
        plan_estimate(Method.HT, x, spec)


def test_ht_enumeration_mean_is_tau(rng):
    pop = random_population(rng, 4, 1)
    p = rng.uniform(0.3, 0.7, 4)
    mean, _ = enumeration_moments(pop, SimpleDesign(p), Method.HT)
    assert rel_gap(mean, pop.tau) < 1e-13


def test_dm_hand_value():
    x, y, d, spec = complete_sample([[0.0]] * 3, [4.0, 1.0, 3.0], [1, 0, 0])
    assert plan_estimate(Method.DM, x, spec).point(d, y) == pytest.approx(2.0, abs=1e-14)


def test_dm_constant_outcomes():
    x, y, d, spec = complete_sample([[0.0]] * 4, [3.3] * 4, [1, 1, 0, 0])
    assert plan_estimate(Method.DM, x, spec).point(d, y) == pytest.approx(0.0, abs=1e-15)


def test_dm_enumeration_mean_is_tau(rng):
    pop = random_population(rng, 5, 1)
    mean, _ = enumeration_moments(pop, CompleteDesign(5, 2), Method.DM)
    assert rel_gap(mean, pop.tau) < 1e-13


def test_loora_ht_zero_covariates_equals_ht(rng):
    n = 6
    y = rng.standard_normal(n)
    d = np.array([1, 0, 1, 1, 0, 0])
    p = rng.uniform(0.3, 0.7, n)
    x, y, d, spec = simple_sample(np.zeros((n, 1)), y, d, p)
    loora = plan_estimate(Method.LOORA_HT, x, spec, LambdaRule.fixed(1.0)).point(d, y)
    assert loora == pytest.approx(plan_estimate(Method.HT, x, spec).point(d, y), abs=1e-13)


def test_loora_ht_infinite_shrinkage_limit(rng):
    n = 8
    pop = random_population(rng, n, 2)
    p = rng.uniform(0.3, 0.7, n)
    x, y, d, spec = drawn_sample(pop, SimpleDesign(p), rng)
    r = np.sqrt(p * (1.0 - p))
    lam = 1e12 * max_row_norm(pop.x / r[:, None]) ** 2
    ht = plan_estimate(Method.HT, x, spec).point(d, y)
    loora = plan_estimate(Method.LOORA_HT, x, spec, LambdaRule.fixed(lam)).point(d, y)
    assert abs(loora - ht) <= 1e-6 * (1.0 + abs(ht))


def test_loora_ht_exactly_unbiased_by_enumeration(rng):
    pop = random_population(rng, 4, 1)
    spec = SimpleDesign(np.full(4, 0.5))
    mean, _ = enumeration_moments(pop, spec, Method.LOORA_HT, AUTO2)
    assert rel_gap(mean, pop.tau) < 1e-12


def test_loora_ht_reweighting_two_case_equals_exponent_form(rng):
    n = 12
    p = rng.uniform(0.2, 0.8, n)
    d = (rng.random(n) < 0.5).astype(np.float64)
    y = rng.standard_normal(n)
    z = 2.0 * d - 1.0
    q = p * d + (1.0 - p) * (1.0 - d)
    exponent_form = ((1.0 - p) / p) ** (z / 2.0) * y / q
    treated, control = LooraHtPlan.build(rng.standard_normal((n, 2)), p, AUTO2).scales
    assert_allclose(np.where(d == 1.0, treated, control) * y, exponent_form, atol=1e-13)


def test_loora_ht_fast_equals_refit(rng):
    pop = random_population(rng, 15, 3)
    x, y, d, spec = drawn_sample(pop, SimpleDesign(rng.uniform(0.3, 0.7, 15)), rng)
    for rule in (AUTO2, LambdaRule.fixed(0.5)):
        fast = plan_estimate(Method.LOORA_HT, x, spec, rule).point(d, y)
        slow = _loora_ht_refit(x, y, d, spec, rule)
        assert rel_gap(fast, slow) < 1e-9


def test_loora_dm_zero_covariates_equals_dm(rng):
    y = rng.standard_normal(6)
    d = np.array([1, 1, 1, 0, 0, 0])
    x, y, d, spec = complete_sample(np.zeros((6, 1)), y, d)
    loora = plan_estimate(Method.LOORA_DM, x, spec, LambdaRule.fixed(1.0)).point(d, y)
    assert loora == pytest.approx(plan_estimate(Method.DM, x, spec).point(d, y), abs=1e-13)


def test_loora_dm_null_effect_population_unbiased(rng):
    y_both = rng.standard_normal(5)
    pop = Population(rng.standard_normal((5, 2)), y_both, y_both.copy())
    mean, _ = enumeration_moments(pop, CompleteDesign(5, 2), Method.LOORA_DM, AUTO2)
    assert abs(mean) < 1e-13


def test_loora_dm_exactly_unbiased_by_enumeration(rng):
    pop = random_population(rng, 6, 2)
    mean, _ = enumeration_moments(pop, CompleteDesign(6, 3), Method.LOORA_DM, AUTO2)
    assert rel_gap(mean, pop.tau) < 1e-12


def test_loora_dm_fast_equals_refit_including_singleton_arms(rng):
    pop = random_population(rng, 12, 3)
    for n_t in (1, 2, 6, 11):
        x, y, d, spec = drawn_sample(pop, CompleteDesign(12, n_t), rng)
        for rule in (AUTO2, LambdaRule.fixed(0.8)):
            fast = plan_estimate(Method.LOORA_DM, x, spec, rule).point(d, y)
            slow = _loora_dm_refit(x, y, d, spec, rule)
            assert rel_gap(fast, slow) < 1e-9


def test_loora_dm_refit_under_design_mismatch_equals_fast_including_singleton_arms(rng):
    # Under the opt-in each simple-design draw sets its own arm counts, so the
    # refit's response and arm weights are formed from that draw's n_t and n_c.
    n = 10
    pop = random_population(rng, n, 3)
    spec = SimpleDesign(np.full(n, 0.5))
    draws = [draw_with(spec, rng) for _ in range(6)]
    # a singleton treated arm and a singleton control arm
    draws += [np.eye(n)[3], 1.0 - np.eye(n)[7]]
    plans = {
        rule: plan_estimate(Method.LOORA_DM, pop.x, spec, rule, allow_design_mismatch=True)
        for rule in (AUTO2, LambdaRule.fixed(0.8))
    }
    for d in draws:
        y = observe(pop, d)
        for rule, plan in plans.items():
            slow = _loora_dm_refit(pop.x, y, d, spec, rule, allow_design_mismatch=True)
            assert rel_gap(plan.point(d, y), slow) < 1e-9
    for d in (np.zeros(n), np.ones(n)):
        y = observe(pop, d)
        with pytest.raises(SpecMismatch):
            plans[AUTO2].point(d, y)
        with pytest.raises(SpecMismatch):
            _loora_dm_refit(pop.x, y, d, spec, AUTO2, allow_design_mismatch=True)


def test_loora_dm_unbiasedness_boundary_at_singleton_arms(rng):
    # exact unbiasedness needs two units in each arm; a singleton arm's
    # counterfactuals are unobservable among the remaining units, so the
    # adjustment is genuinely biased there
    pop = random_population(rng, 5, 2)
    for n_t, unbiased in ((1, False), (2, True), (3, True), (4, False)):
        mean, _ = enumeration_moments(pop, CompleteDesign(5, n_t), Method.LOORA_DM, AUTO2)
        if unbiased:
            assert rel_gap(mean, pop.tau) < 1e-12
        else:
            assert abs(mean - pop.tau) > 1e-4


def test_loora_dm_requires_complete_unless_opted_in(rng):
    pop = random_population(rng, 8, 2)
    spec = SimpleDesign(np.full(8, 0.5))
    d = draw_with(spec, rng)
    while not 1 <= d.sum() <= 7:
        d = draw_with(spec, rng)
    with pytest.raises(SpecMismatch):
        plan_estimate(Method.LOORA_DM, pop.x, spec, AUTO2)
    plan = plan_estimate(Method.LOORA_DM, pop.x, spec, AUTO2, allow_design_mismatch=True)
    assert np.isfinite(plan.point(d, observe(pop, d)))


def test_benchmarks_reduce_to_dm_when_covariates_carry_nothing(rng):
    y = rng.standard_normal(8)
    d = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    zeros, y, d, spec = complete_sample(np.zeros((8, 1)), y, d)
    dm = plan_estimate(Method.DM, zeros, spec).point(d, y)
    ridge = plan_estimate(Method.RIDGE_REG, zeros, spec, LambdaRule.fixed(1.0)).point(d, y)
    assert ridge == pytest.approx(dm, abs=1e-12)
    # For the OLS benchmarks a zero column is rank-deficient, so build a
    # covariate exactly orthogonal to the intercept, the assignment, and the
    # outcomes within each arm; it then carries no information at all.
    x = rng.standard_normal(8)
    for arm in (d == 1.0, d == 0.0):
        basis = np.column_stack([np.ones(int(arm.sum())), y[arm]])
        proj, *_ = np.linalg.lstsq(basis, x[arm], rcond=None)
        x[arm] = x[arm] - basis @ proj
    assert plan_estimate(Method.ADJ, x[:, None], spec).point(d, y) == pytest.approx(dm, abs=1e-10)
    assert plan_estimate(Method.INT, x[:, None], spec).point(d, y) == pytest.approx(dm, abs=1e-10)


def test_adj_int_recover_exact_linear_homogeneous_model(rng):
    n, k = 12, 2
    x = rng.standard_normal((n, k))
    d = np.zeros(n)
    d[rng.permutation(n)[:6]] = 1.0
    slope = np.array([1.5, -0.7])
    tau = 2.25
    x, y, d, spec = complete_sample(x, x @ slope + tau * d, d)
    assert plan_estimate(Method.ADJ, x, spec).point(d, y) == pytest.approx(tau, abs=1e-10)
    assert plan_estimate(Method.INT, x, spec).point(d, y) == pytest.approx(tau, abs=1e-10)


def test_int_equals_two_group_regression_oracle(rng):
    n, k = 30, 3
    pop = random_population(rng, n, k)
    x, y, d, spec = drawn_sample(pop, CompleteDesign(n, 14), rng)
    got = plan_estimate(Method.INT, x, spec).point(d, y)
    # independent construction: fit each arm separately on raw covariates,
    # predict everybody, and average the difference of predictions
    d = d.astype(bool)
    design = np.column_stack([np.ones(n), pop.x])
    beta_t, *_ = np.linalg.lstsq(design[d], y[d], rcond=None)
    beta_c, *_ = np.linalg.lstsq(design[~d], y[~d], rcond=None)
    oracle_value = float(np.mean(design @ beta_t - design @ beta_c))
    assert got == pytest.approx(oracle_value, abs=1e-9)


@pytest.mark.parametrize("factor", [1e14, 1e-14])
@pytest.mark.parametrize("method", [Method.ADJ, Method.INT])
def test_adj_int_do_not_depend_on_a_covariates_units(rng, method, factor):
    pop = random_population(rng, 30, 3)
    spec = CompleteDesign(30, 14)
    d = draw_with(spec, rng)
    y = observe(pop, d)
    base = plan_estimate(method, pop.x, spec).evaluate(d, y)
    x = pop.x.copy()
    x[:, 1] *= factor
    got = plan_estimate(method, x, spec).evaluate(d, y)
    assert got.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)
    assert got.var_hat == pytest.approx(base.var_hat, rel=1e-12)
    # a copy of the rescaled column, in other units again, is still singular
    with pytest.raises(RankDeficient):
        plan_estimate(method, np.column_stack([x, 3.0 * x[:, 1]]), spec)


def _tiny_fixture(name):
    """(x, y, d, spec) of a 12-row fixture whose covariate x2 is tiny: x1, x2, y, d columns."""
    table = np.loadtxt(DATA / name, delimiter=",", skiprows=1)
    return complete_sample(table[:, :2], table[:, 2], table[:, 3])


def test_power_of_two_scales_stay_finite_and_keep_in_range_bits():
    a = np.array([[3.0, 0.0, 4.5e-311, -2.0**-1074], [-1.0, 0.0, 1e-311, 0.0]])
    scales = _power_of_two_scales(a)
    assert scales.tolist() == [0.25, 1.0, 2.0**1023, 2.0**1023]
    assert np.all(np.abs(a * scales) < 1.0)
    normal = np.random.default_rng(6).standard_normal((20, 4)) * [1e-300, 1e-3, 1.0, 1e300]
    want = np.ldexp(1.0, -np.frexp(np.max(np.abs(normal), axis=0))[1])
    assert_array_equal(_power_of_two_scales(normal), want)


# x2 of the first fixture is subnormal (below 2**-1022) and of the second
# below 2**-512, where a squared power-of-two scale overflows. Each answers,
# with no warning, what the same design answers with x2 in units of 2**-1030
# or 2**-660 (an exact rescaling); RIDGE_REG, whose penalty is not
# invariant to one column's units, answers the fit without x2 at the same
# lambda, as x2's coefficient is zero to double precision.
@pytest.mark.parametrize(
    "name, power", [("tiny_x2_subnormal.csv", 1030), ("tiny_x2_e-201.csv", 660)]
)
@pytest.mark.parametrize("method", [Method.ADJ, Method.INT, Method.RIDGE_REG])
def test_benchmarks_answer_on_a_tiny_covariate(name, power, method):
    x, y, d, spec = _tiny_fixture(name)
    plan = plan_estimate(method, x, spec)
    got = plan.evaluate(d, y)
    if method is Method.RIDGE_REG:
        lam = plan.core.lam
        assert lam > 0.0
        want = plan_estimate(method, x[:, :1], spec, LambdaRule.fixed(lam)).evaluate(d, y)
    else:
        rescaled = np.column_stack([x[:, 0], np.ldexp(x[:, 1], power)])
        want = plan_estimate(method, rescaled, spec).evaluate(d, y)
    assert got.tau_hat == pytest.approx(want.tau_hat, rel=1e-12)
    assert got.var_hat == pytest.approx(want.var_hat, rel=1e-12)


def test_ridge_reg_at_lambda_zero_is_adj_on_a_tiny_covariate():
    x, y, d, spec = _tiny_fixture("tiny_x2_e-201.csv")
    ridge = plan_estimate(Method.RIDGE_REG, x, spec, LambdaRule.fixed(0.0)).evaluate(d, y)
    adj = plan_estimate(Method.ADJ, x, spec).evaluate(d, y)
    assert (ridge.tau_hat, ridge.var_hat) == (adj.tau_hat, adj.var_hat)


def _adj_or_ridge_reg_outcome(method, x, d, y, spec, rule, opt_in, variance):
    """The plan's refusal, or its lambda, the bits of every result and the
    block's failures, with the method's name in each message as <M>."""
    def named(exc):
        return type(exc), str(exc).replace(method.value, "<M>")

    try:
        plan = plan_estimate(method, x, spec, rule, 0.9, opt_in)
    except LooraError as exc:
        return named(exc)
    block = plan.estimates(check_block(d, y, spec), variance)
    values = [block.tau_hat] + ([block.var_hat, block.ci_low, block.ci_high] if variance else [])
    return (
        plan.core.lam,
        [v.view(np.int64).tolist() for v in values],
        [(i, *named(e)) for i, e in sorted(block.failures.items())],
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(6, 40),
    k=st.integers(1, 4),
    rows=st.integers(3, 40),
    offset=st.sampled_from([None, 0.0, 1e-12, 1e-8, 1e-5]),
    complete=st.booleans(),
    variance=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adj_is_ridge_reg_at_fixed_zero_bit_for_bit(n, k, rows, offset, complete, variance, seed):
    # ADJ is RIDGE_REG's plan at lambda = 0: the same refusal, or the same
    # bits of every estimate, variance and interval and the same failing
    # rows, classes and messages. The last column is the first plus an
    # offset (near-collinear, or exactly, at 0), which the rank rule meets
    # at plan time, and under an offset the first column is row 2's
    # assignment plus that offset, which it meets per assignment. Under the
    # opt-in, rows 0 and 1 leave an arm empty; the last row's outcomes
    # overflow its variance.
    rng = np.random.default_rng(seed)
    if complete:
        spec = CompleteDesign(n, int(rng.integers(1, n)))
        d = np.zeros((rows, n))
        for row in d:
            row[rng.permutation(n)[: spec.n_t]] = 1.0
    else:
        spec = SimpleDesign(rng.uniform(0.2, 0.8, n))
        d = (rng.random((rows, n)) < spec.p).astype(np.float64)
        d[0], d[1] = 1.0, 0.0
    x = rng.standard_normal((n, k))
    if offset is not None:
        x[:, 0] = d[2] + offset * rng.standard_normal(n)
        if k > 1:
            x[:, -1] = x[:, 0] + offset * rng.standard_normal(n)
    y = rng.standard_normal((rows, n))
    y[-1] *= 1e200
    adj = _adj_or_ridge_reg_outcome(Method.ADJ, x, d, y, spec, AUTO2, not complete, variance)
    ridge = _adj_or_ridge_reg_outcome(
        Method.RIDGE_REG, x, d, y, spec, LambdaRule.fixed(0.0), not complete, variance
    )
    assert adj == ridge


def _overflowing_sites():
    """(call, failure class, message) of each plan-time product that overflows on a finite input."""
    rng = np.random.default_rng(9)
    big = rng.standard_normal((8, 2))
    big[0, 0] = 1e200
    weighted = rng.standard_normal((8, 2))
    weighted[3, 0] = 1e300
    p = np.full(8, 0.5)
    p[3] = 1e-20
    twice = rng.standard_normal((8, 2))
    twice[:2, 1] = 1.7e308
    return [
        (lambda: ridge_factor(big, 1.0), NonFinite, "Gram X'X \\+ lambda is not finite"),
        (lambda: full_rank_cholesky(big), NonFinite, "Gram X'X \\+ lambda is not finite"),
        (
            lambda: LooraHtPlan.build(weighted, p, LambdaRule.fixed(1.0)),
            NonFinite,
            "LOORA_HT X / sqrt\\(p \\(1 - p\\)\\) at row 3 is not finite",
        ),
        (
            lambda: IntPlan.build(twice),
            NonFinite,
            "INT centering of column 1 of X is not finite",
        ),
    ]


@pytest.mark.parametrize("site", range(4))
def test_plan_time_overflows_refuse_by_name_without_a_warning(site):
    # pytest turns every RuntimeWarning into an error here; each refusal
    # is a magnitude failure (NonFinite, exit class 3) and names the overflow
    call, failure, message = _overflowing_sites()[site]
    with pytest.raises(failure, match=message):
        call()


def test_pairwise_zero_covariates_equals_dm(rng):
    y = rng.standard_normal(6)
    d = np.array([1, 1, 0, 0, 0, 1])
    x, y, d, spec = complete_sample(np.zeros((6, 1)), y, d)
    assert _loora_dm_pairwise(x, y, d, spec, LambdaRule.fixed(1.0)) == pytest.approx(
        plan_estimate(Method.DM, x, spec).point(d, y), abs=1e-12
    )


def test_pairwise_equals_loora_dm_small_fixture(rng):
    pop = random_population(rng, 6, 2)
    x, y, d, spec = drawn_sample(pop, CompleteDesign(6, 3), rng)
    fast = plan_estimate(Method.LOORA_DM, x, spec, AUTO2).point(d, y)
    assert rel_gap(fast, _loora_dm_pairwise(x, y, d, spec, AUTO2)) < 1e-9


def test_pairwise_equals_loora_dm_many_assignments(rng):
    pop = random_population(rng, 8, 3)
    spec = CompleteDesign(8, 4)
    plan = plan_estimate(Method.LOORA_DM, pop.x, spec, AUTO2)
    for _ in range(50):
        x, y, d, _ = drawn_sample(pop, spec, rng)
        alg = plan.point(d, y)
        pw = _loora_dm_pairwise(x, y, d, spec, AUTO2)
        assert rel_gap(alg, pw) < 1e-9


def test_estimate_dispatcher_covers_every_method(rng):
    # Each identifier reaches its own estimator: compare every dispatched
    # point estimate with a direct construction of that estimator.
    n = 12
    pop = random_population(rng, n, 2)
    s_simple = drawn_sample(pop, SimpleDesign(np.full(n, 0.5)), rng)
    s_complete = drawn_sample(pop, CompleteDesign(n, 6), rng)
    _, y, d, spec_s = s_simple
    p = spec_s.p
    ht = np.mean(d * y / p - (1.0 - d) * y / (1.0 - p))
    x, y, d, _ = s_complete
    arm = d == 1.0
    xc = x - x.mean(axis=0)
    adj_design = np.column_stack([np.ones(n), d, x])
    int_design = np.column_stack([np.ones(n), d, xc, d[:, None] * xc])
    penalty = np.diag([0.0, 0.0] + [AUTO2.resolve(x)] * x.shape[1])
    ridge = np.linalg.solve(adj_design.T @ adj_design + penalty, adj_design.T @ y)
    expected = {
        Method.HT: (s_simple, ht),
        Method.LOORA_HT: (s_simple, _loora_ht_refit(*s_simple, AUTO2)),
        Method.DM: (s_complete, y[arm].mean() - y[~arm].mean()),
        Method.ADJ: (s_complete, np.linalg.lstsq(adj_design, y, rcond=None)[0][1]),
        Method.INT: (s_complete, np.linalg.lstsq(int_design, y, rcond=None)[0][1]),
        Method.RIDGE_REG: (s_complete, ridge[1]),
        Method.LOORA_DM: (s_complete, _loora_dm_refit(*s_complete, AUTO2)),
    }
    assert set(expected) == set(Method)
    for method, ((x, y, d, spec), value) in expected.items():
        got = plan_estimate(method, x, spec, AUTO2).point(d, y)
        assert got == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_scale_equivariance(rng):
    # Every estimation step is linear in the outcomes at a fixed penalty, so
    # scaling both potential-outcome vectors scales every estimate exactly;
    # the auto penalty rule depends only on the covariates and commutes too.
    pop = random_population(rng, 9, 2)
    scale = 3.7
    scaled = Population(pop.x, scale * pop.y1, scale * pop.y0)
    lam = 0.9
    spec = SimpleDesign(rng.uniform(0.3, 0.7, 9))
    d = draw_with(spec, rng)
    spec_c = CompleteDesign(9, 4)
    d_c = draw_with(spec_c, rng)
    cases = [(Method.LOORA_HT, spec, d, rule) for rule in (LambdaRule.fixed(lam), AUTO2)]
    cases.append((Method.HT, spec, d, AUTO2))
    cases += [(Method.LOORA_DM, spec_c, d_c, rule) for rule in (LambdaRule.fixed(lam), AUTO2)]
    cases.append((Method.RIDGE_REG, spec_c, d_c, AUTO2))
    for method, spec, d, rule in cases:
        plan = plan_estimate(method, pop.x, spec, rule)
        base = plan.point(d, observe(pop, d))
        grown = plan.point(d, observe(scaled, d))
        assert grown == pytest.approx(scale * base, rel=1e-12)


def test_shift_invariance(rng):
    # DM is pointwise shift invariant. The adjusted estimators are shift
    # invariant at the enumeration-mean level (their response rescalings are
    # arm dependent, so single draws can move); assert at the mean level.
    pop = random_population(rng, 6, 2)
    shift = 4.2
    shifted = Population(pop.x, pop.y1 + shift, pop.y0 + shift)
    spec_c = CompleteDesign(6, 3)
    d = draw_with(spec_c, rng)
    plan = plan_estimate(Method.DM, pop.x, spec_c)
    assert plan.point(d, observe(shifted, d)) == pytest.approx(
        plan.point(d, observe(pop, d)), abs=1e-12
    )
    mean_base, _ = enumeration_moments(pop, spec_c, Method.LOORA_DM, AUTO2)
    mean_shift, _ = enumeration_moments(shifted, spec_c, Method.LOORA_DM, AUTO2)
    assert mean_shift == pytest.approx(mean_base, abs=1e-11)

    p = rng.uniform(0.3, 0.7, 6)
    spec_s = SimpleDesign(p)
    mean_base, _ = enumeration_moments(pop, spec_s, Method.LOORA_HT, AUTO2)
    mean_shift, _ = enumeration_moments(shifted, spec_s, Method.LOORA_HT, AUTO2)
    assert mean_shift == pytest.approx(mean_base, abs=1e-11)
    mean_base, _ = enumeration_moments(pop, spec_s, Method.HT)
    mean_shift, _ = enumeration_moments(shifted, spec_s, Method.HT)
    assert mean_shift == pytest.approx(mean_base, abs=1e-11)


# Entries scattered into the blocks below: fsum's fallback classes (nan,
# +-inf, both infinities, entries near 1.7e308 whose partial sums overflow),
# signed zeros, subnormals and the extraction floor 2**-969 itself.
_SPECIAL_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 0.0, -0.0, 5e-324, 2.0**-969]
    ),
)


@st.composite
def _sum_blocks(draw):
    """(B, n) blocks of exponent spreads up to the full range, one-signed rows,
    exact +- cancellations, half-way ties, signed zeros and scattered special
    entries."""
    n = draw(st.sampled_from([1, 2, 3, 11, 120, 5000]))
    rows = draw(st.integers(1, min(256, 2**16 // n)))  # B * n up to 2**16
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1074, 1023))
    spread = draw(st.integers(0, 2098))
    exponents = np.clip(rng.integers(top - spread, top + 1, (rows, n)), -1074, 1023)
    a = np.ldexp(rng.uniform(-1.0, 1.0, (rows, n)), exponents)
    shape = draw(st.sampled_from(["plain", "positive", "cancel", "tie", "zeros"]))
    if shape == "positive":  # no cancellation: the row sum nears n times its largest entry
        a = np.abs(a)
    elif shape == "zeros":
        a = np.copysign(0.0, a)
    elif shape != "plain" and n > 1:
        # [lead, tail, x, -x, 0]: the exact sum is lead + tail
        pairs = (n - 2) // 2
        a[:, 2 + pairs : 2 + 2 * pairs] = -a[:, 2 : 2 + pairs]
        a[:, 2 + 2 * pairs :] = 0.0
        if shape == "tie":  # lead plus half its ulp, either way
            a[:, 1] = np.copysign(np.spacing(np.abs(a[:, 0])) / 2.0, a[:, 1])
        a = rng.permuted(a, axis=1)
    scattered = st.tuples(st.integers(0, a.size - 1), _SPECIAL_ENTRIES)
    for flat, value in draw(st.lists(scattered, max_size=8)):
        a.flat[flat] = value
    return a


@settings(max_examples=1000, deadline=None)
@given(a=_sum_blocks())
def test_fsum_rows_returns_math_fsum_bits(a):
    want = fsum_rows_loop(a).view(np.int64)
    with np.errstate(all="raise"):
        got = fsum_rows(a)
        extracted = _fsum_rows_extracted(a)  # whatever the size selects
    assert_array_equal(got.view(np.int64), want)
    assert_array_equal(extracted.view(np.int64), want)


def _rows_of(n: int, *heads) -> np.ndarray:
    """One row of n entries per head: the head's entries, then pairs x, -x that
    cancel exactly (each a remainder of the first pass, so the plain sum of the
    remainders carries their rounding), then zeros."""
    rng = np.random.default_rng(len(heads))
    a = np.zeros((len(heads), n))
    for i, head in enumerate(heads):
        scale = math.ldexp(1.0, math.frexp(max(map(abs, head)))[1] - 45)
        pairs = (n - len(head)) // 2
        filler = scale * rng.uniform(-1.0, 1.0, pairs)
        a[i] = np.concatenate([head, filler, -filler, np.zeros(n - len(head) - 2 * pairs)])
    return rng.permuted(a, axis=1)


def _uncertified_rows(monkeypatch, a):
    """_fsum_rows_extracted of a, under np.errstate(all="raise"), and the number
    of rows it sent past the one-pass certificate to math.fsum."""
    seen = []
    full_route = loora.estimators._fsum_or_nan

    def spy(row):
        seen.append(row)
        return full_route(row)

    monkeypatch.setattr(loora.estimators, "_fsum_or_nan", spy)
    with np.errstate(all="raise"):
        got = _fsum_rows_extracted(a)
    return got, len(seen)


_ULP_1 = 2.0**-52  # the gap above 1.0; the gap below it is half of it
_TINY = 2.0**-90  # far inside the certificate's err at n = 2000 and e = 1


@pytest.mark.parametrize(
    "heads",
    [
        # one-pass sums within err of a rounding midpoint, on both sides of it and on it
        [(1.5, _ULP_1 / 2 + _TINY), (1.5, _ULP_1 / 2 - _TINY), (1.5, _ULP_1 / 2)],
        [(-3.0, -_ULP_1 + _TINY), (1.25, 3 * _ULP_1 / 2)],  # the tie rounds to even
        # just above and just below a power of two, where the gaps differ
        [(1.0, _ULP_1 / 2 + _TINY), (1.0, _ULP_1 / 2 - _TINY), (1.0, _ULP_1 / 2)],
        [(1.0, -_ULP_1 / 4 + _TINY), (1.0, -_ULP_1 / 4 - _TINY), (1.0, -_ULP_1 / 4)],
        [(-1024.0, 2.0**-44 + _TINY * 1024), (-1024.0, -(2.0**-43) - _TINY * 1024)],
        # rows that cancel to zero, one of them all -0.0
        [(2.5, -2.5), (-0.0,), (1e300, -1e300, 1e-280, -1e-280)],
        # tiny remainders next to huge ones: a huge midpoint decided by entries near 2**-900
        [
            (2.0**600, 2.0**547, 2.0**-900),
            (2.0**600, 2.0**547, -(2.0**-900)),
            (-(2.0**600), -(2.0**547), 2.0**-900, 2.0**-968),
        ],
    ],
)
def test_fsum_rows_certificate_sends_hard_rows_the_full_route(monkeypatch, heads):
    a = _rows_of(2000, *heads)
    if (-0.0,) in heads:
        a[heads.index((-0.0,))] = -0.0
    got, uncertified = _uncertified_rows(monkeypatch, a)
    assert uncertified == len(heads)
    assert_array_equal(got.view(np.int64), fsum_rows_loop(a).view(np.int64))


def test_fsum_rows_certifies_ordinary_rows_after_one_pass(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 5000)) * np.exp(rng.uniform(-20, 20, (200, 1)))
    a[:100] = a[:100] ** 2  # one-signed rows, like squared residuals
    got, uncertified = _uncertified_rows(monkeypatch, a)
    assert_array_equal(got.view(np.int64), fsum_rows_loop(a).view(np.int64))
    assert uncertified <= 10


def test_fsum_rows_certifies_exact_ties_without_math_fsum(monkeypatch):
    # rows of 11 multiples of 2**-20 between 2**32 and 2**35: their sums need
    # up to 59 bits, so many fall exactly on a rounding midpoint, which the
    # one-pass margin can never certify; the tie rule does
    rng = np.random.default_rng(40)
    a = np.ldexp(rng.integers(2**52, 2**55, (512, 11)).astype(np.float64), -20)
    a *= rng.choice([-1.0, 1.0], a.shape)
    got, uncertified = _uncertified_rows(monkeypatch, a)
    assert_array_equal(got.view(np.int64), fsum_rows_loop(a).view(np.int64))
    assert uncertified <= 5  # at most 1 % of the rows


# --- INT's block arm fits against the row-by-row loop -------------------------


def _int_block_equals_row_loop(x, d, y, spec, mismatch):
    """plan.parts against int_parts_loop on the same block: == on the bits of
    every estimate and HC0 term, and the same failing rows, classes and
    messages, in the same order. Returns the block's failures under
    plan_estimate's INT plan, empty arms included."""
    plan = IntPlan.build(x)
    block = check_block(d, y, spec)
    tau, terms, failed = plan.parts(block)
    want_tau, want_terms, want_failed = int_parts_loop(plan, d, y)
    assert_array_equal(tau.view(np.int64), want_tau.view(np.int64))
    assert_array_equal(terms.view(np.int64), want_terms.view(np.int64))
    assert _listed(failed) == _listed(want_failed)
    return plan_estimate(Method.INT, x, spec, allow_design_mismatch=mismatch).estimates(block).failures


def _listed(failures: dict) -> list:
    return [(i, type(e), str(e)) for i, e in failures.items()]


def test_int_block_reports_the_treated_arm_of_a_doubly_rank_deficient_row():
    # Row 0 treats units 0-5: x1 is constant on the controls (column 1 of
    # their arm fails), x2 on the treated units (column 2 fails); the
    # treated arm is checked first, so the row names column 2.
    x = np.array(
        [[0, 1], [1, 1], [0, 1], [1, 1], [0, 1], [1, 1],
         [1, 0], [1, 1], [1, 0], [1, 1], [1, 0], [1, 1]], dtype=np.float64
    )
    n = x.shape[0]
    rng = np.random.default_rng(4)
    d = (rng.random((40, n)) < 0.5).astype(np.float64)
    d[0] = np.arange(n) < 6
    d[1] = 0.0  # empty arms
    d[2] = 1.0
    d[3] = np.arange(n) == 5  # one treated unit
    y = rng.standard_normal((40, n))
    failed = _int_block_equals_row_loop(x, d, y, SimpleDesign(np.full(n, 0.5)), True)
    assert isinstance(failed[0], RankDeficient)
    assert str(failed[0]).startswith("column 2 ")
    assert isinstance(failed[1], SpecMismatch) and isinstance(failed[2], SpecMismatch)
    assert isinstance(failed[3], RankDeficient)
    assert len(failed) < d.shape[0]  # some rows are fit


@settings(max_examples=40, deadline=None)
@given(n=st.integers(40, 300), k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_one_rank_rule_refuses_monotonically_in_kappa(n, k, seed):
    # X's last column is its first plus 10^-e of its norm along u, for e = 0,
    # ..., 13, with u orthogonal to the intercept and the other columns and X
    # centered: the last pivot of ADJ's [1, X], INT's [1, X - mean],
    # LOORA-DM's X and LOORA-HT's 2X is the same fraction 10^-2e of its
    # column, and negligible_pivot refuses it below n eps. A family that
    # refuses at some e refuses at every larger e; away from n eps by more
    # than a factor 2 the four methods at lambda 0 agree (within it, INT's
    # arm fits or rounding may tip one method alone; arms of n / 2 >= 20
    # units keep INT's arm angles near the full sample's); every ADJ answer
    # is within 8 kappa^2 eps ||beta|| of lstsq on [1, d, X].
    eps = np.finfo(np.float64).eps
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, k))
    x -= x.mean(axis=0)
    others = np.column_stack([np.ones(n), x[:, :-1]])
    u = gen.standard_normal(n)
    u -= others @ np.linalg.lstsq(others, u, rcond=None)[0]
    u *= np.linalg.norm(x[:, 0]) / np.linalg.norm(u)
    d = np.zeros(n)
    d[gen.permutation(n)[: n // 2]] = 1.0
    y = x @ gen.standard_normal(k) + d + gen.standard_normal(n)
    complete = CompleteDesign(n, n // 2)
    specs = {"ADJ": complete, "INT": complete, "LOORA_DM": complete, "LOORA_HT": SimpleDesign(np.full(n, 0.5))}
    refused = set()
    for e in range(14):
        x[:, -1] = x[:, 0] + u * 10.0**-e
        answers = {}
        for method, spec in specs.items():
            try:
                answers[method] = plan_estimate(method, x, spec, LambdaRule.fixed(0.0)).point(d, y)
            except RankDeficient:
                refused.add(method)
        assert refused.isdisjoint(answers), (e, refused, answers)
        ratio = 10.0 ** (-2 * e) / (n * eps)
        if ratio > 2.0 or ratio < 0.5:
            assert refused in (set(), set(specs)), (e, ratio, refused)
            assert bool(refused) == (ratio < 0.5), (e, ratio, refused)
        if "ADJ" in answers:
            full = np.column_stack([np.ones(n), d, x])
            beta = np.linalg.lstsq(full, y, rcond=None)[0]
            bound = 8.0 * np.linalg.cond(full) ** 2 * eps * np.linalg.norm(beta)
            assert abs(answers["ADJ"] - beta[1]) <= bound, (e, answers["ADJ"], beta[1], bound)


def test_int_refuses_every_arm_with_fewer_units_than_columns():
    # [1, Xc] has 4 columns at k = 3, so an arm of 3 units never identifies
    # its intercept; rounding alone must not let any of these rows answer.
    from loora.simulation import synth_population

    pop = synth_population("linear-heterogeneous", 12, 3, 0)
    d = np.zeros((220, 12))
    for row, units in zip(d, itertools.combinations(range(12), 3)):
        row[list(units)] = 1.0
    d = np.concatenate([d, 1.0 - d])  # three treated units, then three controls
    y = d * pop.y1 + (1.0 - d) * pop.y0
    failed = _int_block_equals_row_loop(pop.x, d, y, SimpleDesign(np.full(12, 0.5)), True)
    assert sorted(failed) == list(range(440))
    assert all(str(e).startswith("column 3 ") for e in failed.values())


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["linear-heterogeneous", "binary-outcome"]),
    n=st.integers(4, 40),
    k=st.integers(1, 4),
    rows=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    complete=st.booleans(),
)
def test_int_block_equals_row_loop(kind, n, k, rows, seed, complete):
    # Unequal arm sizes and empty arms (simple designs under the opt-in)
    # and arm-rank-deficient rows (binary covariates on small arms).
    from loora.simulation import synth_population

    if n <= k + 1:
        n = k + 2
    pop = synth_population(kind, n, k, seed % 1000)
    rng = np.random.default_rng(seed)
    if complete:
        spec = CompleteDesign(n, int(rng.integers(1, n)))
        d = np.zeros((rows, n))
        for row in d:
            row[rng.permutation(n)[: spec.n_t]] = 1.0
    else:
        spec = SimpleDesign(rng.uniform(0.1, 0.9, n))
        d = (rng.random((rows, n)) < spec.p).astype(np.float64)
    y = d * pop.y1 + (1.0 - d) * pop.y0
    try:
        IntPlan.build(pop.x)
    except RankDeficient:
        return  # the full-sample basis is singular: no row is ever fit
    _int_block_equals_row_loop(pop.x, d, y, spec, not complete)
