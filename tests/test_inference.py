import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import loora.estimators
from conftest import random_population
from loora.design import (
    Assignment,
    CompleteDesign,
    SimpleDesign,
    draw_with,
    enumerate_assignments,
)
from loora.estimators import (
    LambdaRule,
    Method,
    ObservedSample,
    LooraDmPlan,
    _two_column_sandwich,
)
from loora.exceptions import (
    InvalidInput,
    LooraError,
    RankDeficient,
    SelfCheckFailed,
    SpecMismatch,
)
from loora.inference import (
    confidence_interval,
    estimate,
    estimate_with_ci,
    normal_quantile,
    plan_estimate,
)
from loora.oracle import Population, observe, observed_sample
from loora.simulation import StudyConfig, run_study
from reference_routes import (
    benchmark_full_design,
    hw_variance_ht_sandwich,
    two_column_sandwich_inverse,
)

AUTO2 = LambdaRule.auto(2.0)


def simple_sample(x, y, d, p):
    p = np.asarray(p, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    return ObservedSample(
        np.asarray(x, dtype=np.float64), y, Assignment(d, 2 * d - 1), SimpleDesign(p)
    )


def complete_sample(x, y, d):
    d = np.asarray(d, dtype=np.float64)
    spec = CompleteDesign(len(d), int(d.sum()))
    return ObservedSample(np.asarray(x, dtype=np.float64), y, Assignment(d, 2 * d - 1), spec)


# --- normal quantile and intervals -------------------------------------------


def test_normal_quantile_against_scipy_grid():
    tails = 10.0 ** -np.arange(2, 16)
    grid = np.concatenate(
        [
            np.array([5e-4, 1e-3, 0.0228, 0.0243, 0.3, 0.5, 0.6, 0.975, 0.999, 0.9995]),
            np.linspace(0.001, 0.999, 211),
            tails,
            1.0 - tails,
        ]
    )
    for p in grid:
        q = stats.norm.ppf(p)
        assert abs(normal_quantile(float(p)) - q) <= 1e-14 * max(1.0, abs(q))


def test_normal_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(InvalidInput):
            normal_quantile(bad)


def test_confidence_interval_degenerate():
    assert confidence_interval(1.25, 0.0, 0.95) == (1.25, 1.25)


def test_confidence_interval_hand_quantiles():
    low, high = confidence_interval(0.0, 1.0, 0.95)
    assert high == pytest.approx(1.959964, abs=1e-5)
    assert low == pytest.approx(-1.959964, abs=1e-5)
    low, high = confidence_interval(0.0, 1.0, 0.6826895)
    assert high == pytest.approx(1.0, abs=1e-4)


def test_confidence_interval_width_scales_with_sqrt_variance():
    _, h1 = confidence_interval(0.0, 1.0, 0.9)
    _, h4 = confidence_interval(0.0, 4.0, 0.9)
    assert h4 == pytest.approx(2.0 * h1, rel=1e-12)
    with pytest.raises(InvalidInput):
        confidence_interval(0.0, -1.0, 0.9)
    with pytest.raises(InvalidInput):
        confidence_interval(0.0, 1.0, 1.0)


# --- HT-side HC0 --------------------------------------------------------------


def test_hw_ht_zero_residuals_for_exact_null_linear_model(rng):
    n, k = 10, 2
    x = rng.standard_normal((n, k))
    slope = rng.standard_normal(k)
    y_both = x @ slope
    pop = Population(x, y_both, y_both.copy())
    spec = SimpleDesign(np.full(n, 0.5))
    s = observed_sample(pop, draw_with(spec, rng), spec)
    report = estimate_with_ci(Method.LOORA_HT, s, LambdaRule.fixed(0.0))
    assert report.var_hat == pytest.approx(0.0, abs=1e-20)


def test_hw_ht_hand_arithmetic():
    # with a null covariate and p = 1/2, residuals are (1, 1) by construction
    s = simple_sample(np.zeros((2, 1)), [1.0, 0.0], [1, 0], [0.5, 0.5])
    report = estimate_with_ci(Method.LOORA_HT, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.5, abs=1e-14)


def test_hw_ht_sandwich_equals_simplified(rng):
    for _ in range(10):
        n = int(rng.integers(5, 20))
        pop = random_population(rng, n, 2)
        spec = SimpleDesign(rng.uniform(0.3, 0.7, n))
        s = observed_sample(pop, draw_with(spec, rng), spec)
        simple = estimate_with_ci(Method.LOORA_HT, s, AUTO2).var_hat
        sandwich = hw_variance_ht_sandwich(s, AUTO2)
        assert abs(simple - sandwich) <= 1e-12 * max(1.0, simple)


# --- DM-side HC0 --------------------------------------------------------------


def test_hw_dm_zero_when_u_affine_in_d(rng):
    d = np.array([1, 1, 0, 0, 1, 0], dtype=np.float64)
    y = 2.0 + 3.0 * d
    s = complete_sample(np.zeros((6, 1)), y, d)
    report = estimate_with_ci(Method.LOORA_DM, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.0, abs=1e-20)


def test_hw_dm_hand_two_by_two_sandwich():
    # u = (2, 0, 1, 1), d = (1, 1, 0, 0): intercept 1, slope 0, residuals
    # (1, -1, 0, 0); explicit 2x2 sandwich algebra gives 0.5
    s = complete_sample(np.zeros((4, 1)), [2.0, 0.0, 1.0, 1.0], [1, 1, 0, 0])
    report = estimate_with_ci(Method.LOORA_DM, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.5, abs=1e-14)


def test_hw_dm_auxiliary_regression_reproduces_estimate(rng):
    for _ in range(50):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(1, 4))
        pop = random_population(rng, n, k)
        n_t = int(rng.integers(2, n - 1))
        spec = CompleteDesign(n, n_t)
        s = observed_sample(pop, draw_with(spec, rng), spec)
        d = s.assignment.d[None]
        _, u, _ = LooraDmPlan.build(s.x, s.spec, AUTO2).adjusted(d, s.y[None])
        (slope,), _ = _two_column_sandwich(u, d)
        tau = estimate(Method.LOORA_DM, s, AUTO2)
        assert abs(slope - tau) <= 1e-10 * max(1.0, abs(slope))


def test_hw_dm_shift_invariance_without_informative_covariates(rng):
    y = rng.standard_normal(8)
    d = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.float64)
    fixed = LambdaRule.fixed(1.0)
    base = estimate_with_ci(Method.LOORA_DM, complete_sample(np.zeros((8, 1)), y, d), fixed)
    shifted = estimate_with_ci(
        Method.LOORA_DM, complete_sample(np.zeros((8, 1)), y + 7.5, d), fixed
    )
    assert shifted.var_hat == pytest.approx(base.var_hat, rel=1e-12)
    # plain DM inference is shift invariant with any covariates present
    x = rng.standard_normal((8, 2))
    r1 = estimate_with_ci(Method.DM, complete_sample(x, y, d))
    r2 = estimate_with_ci(Method.DM, complete_sample(x, y + 7.5, d))
    assert r2.var_hat == pytest.approx(r1.var_hat, rel=1e-12)


def test_dm_family_reports_match_per_arm_sums(rng):
    # The slope of u on [1, d] is the difference of arm means, and its HC0
    # variance is the sum over arms of centered squares over n_arm^2. This
    # checks the sandwich bread and the arm counts a plan fixes, for complete
    # designs with unequal arms and for realized counts under the opt-in.
    for mismatch in (False, True):
        for _ in range(40):
            n = int(rng.integers(4, 25))
            pop = random_population(rng, n, int(rng.integers(1, 4)))
            if mismatch:
                spec = SimpleDesign(rng.uniform(0.2, 0.8, n))
            else:
                spec = CompleteDesign(n, int(rng.integers(1, n)))
            a = draw_with(spec, rng)
            if a.n_treated in (0, n):
                continue
            s = observed_sample(pop, a, spec)
            _, adjusted, _ = LooraDmPlan.build(pop.x, spec, AUTO2, mismatch).adjusted(
                a.d[None], s.y[None]
            )
            for method, u in ((Method.DM, s.y), (Method.LOORA_DM, adjusted[0])):
                report = estimate_with_ci(method, s, AUTO2, 0.95, mismatch)
                t, c = u[a.d == 1.0], u[a.d == 0.0]
                hc0 = sum(np.sum((g - g.mean()) ** 2) / g.size**2 for g in (t, c))
                assert report.tau_hat == pytest.approx(t.mean() - c.mean(), rel=1e-9, abs=1e-12)
                assert report.var_hat == pytest.approx(hc0, rel=1e-9, abs=1e-15)


# --- full reports -------------------------------------------------------------


@pytest.mark.parametrize("method", list(Method))
def test_plan_rejects_assignments_that_do_not_fit_it(rng, method):
    # The plan is the one checker of a sample: an ObservedSample checks
    # nothing on construction, so every bad input must fail on the plan
    # evaluated directly and through estimate_with_ci alike.
    n = 10
    pop = random_population(rng, n, 2)
    simple = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(np.full(n, 0.5)) if simple else CompleteDesign(n, 5)
    plan = plan_estimate(method, pop.x, spec)
    fits = Assignment.from_d([1.0] * 5 + [0.0] * 5)
    y = pop.y1 * fits.d + pop.y0 * (1.0 - fits.d)
    plan.evaluate(fits, y)
    estimate_with_ci(method, ObservedSample(pop.x, y, fits, spec))
    with pytest.raises(InvalidInput, match="assignment length"):
        plan.evaluate(Assignment.from_d([1.0] * 5 + [0.0] * 6), np.append(y, 0.0))
    with pytest.raises(InvalidInput, match="outcome has shape"):
        plan.evaluate(fits, y[:-1])
    with pytest.raises(InvalidInput, match="non-finite"):
        plan.evaluate(fits, np.where(fits.d == 1.0, np.nan, y))
    if not simple:
        with pytest.raises(InvalidInput, match="treats 6 of 10 units but the design fixes 5"):
            plan.evaluate(Assignment.from_d([1.0] * 6 + [0.0] * 4), y)
    # half-treated units sum to the fixed count, so only the 0/1 check refuses them
    with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
        plan.evaluate(Assignment.from_d(np.full(n, 0.5)), y)
    with pytest.raises(InvalidInput, match="design size"):
        plan_estimate(method, pop.x[:-1], spec)
    x_inf = pop.x.copy()
    x_inf[3, 1] = np.inf
    short = Assignment.from_d(fits.d[:-1])
    six = Assignment.from_d([1.0] * 6 + [0.0] * 4)
    bad_samples = [
        ((x_inf, y, fits, spec), "design matrix contains non-finite"),
        ((pop.x, y[:-1], fits, spec), "outcome has shape"),
        ((pop.x, np.where(fits.d == 1.0, np.nan, y), fits, spec), "outcome contains non-finite"),
        ((pop.x, y, Assignment.from_d(np.append(fits.d, 0.0)), spec), "assignment length"),
        ((pop.x[:-1], y[:-1], short, spec), "design size"),
    ]
    for fields, message in bad_samples:
        with pytest.raises(InvalidInput, match=message):
            estimate_with_ci(method, ObservedSample(*fields))
    # HT and LOORA_HT refuse a complete design before its treated count
    with pytest.raises(SpecMismatch if simple else InvalidInput):
        estimate_with_ci(method, ObservedSample(pop.x, y, six, CompleteDesign(n, 5)))


def test_public_names_resolve_and_the_per_sample_forks_are_gone():
    import loora

    for name in loora.__all__:
        assert hasattr(loora, name), name
    removed = ("estimate_loora_ht", "estimate_loora_dm", "estimate_loora_dm_pairwise")
    for name in removed:
        assert name not in loora.__all__
        assert not hasattr(loora, name) and not hasattr(loora.estimators, name)


@pytest.mark.parametrize("method", list(Method))
def test_plan_point_is_evaluate_tau_hat_bit_for_bit(rng, method):
    n = 12
    pop = random_population(rng, n, 2)
    simple = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(rng.uniform(0.3, 0.7, n)) if simple else CompleteDesign(n, 5)
    plan = plan_estimate(method, pop.x, spec, AUTO2)
    for _ in range(5):
        a = draw_with(spec, rng)
        y = pop.y1 * a.d + pop.y0 * (1.0 - a.d)
        assert plan.point(a, y) == plan.evaluate(a, y).tau_hat


def _bits(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("method", list(Method))
def test_block_routes_match_the_one_row_routes_bit_for_bit(rng, method):
    # 40 rows of 40 units take fsum_rows' block-wide extraction, one row its
    # per-row math.fsum. Under the mismatch opt-in, rows 0 and 1 leave an arm
    # empty (the DM family fails them), rows 2 and 3 leave the treated arm
    # too small for INT's three columns, and row 4's outcomes are so large
    # that every method's variance overflows.
    n = 40
    pop = random_population(rng, n, 2)
    plan = plan_estimate(method, pop.x, SimpleDesign(np.full(n, 0.5)), AUTO2, 0.9, True)
    d = (rng.random((n, n)) < 0.5).astype(np.float64)
    d[0], d[1], d[2:4] = 0.0, 1.0, 0.0
    d[2, 5], d[3, [5, 9]] = 1.0, 1.0
    y = pop.y1 * d + pop.y0 * (1.0 - d)
    y[4] *= 1e200
    block, points = plan.evaluate_block(d, y), plan.point_block(d, y)
    assert 4 in block.failures
    if method not in (Method.HT, Method.LOORA_HT):
        assert {0, 1} <= set(block.failures)
    if method is Method.INT:
        assert {2, 3} <= set(block.failures)
    for i in range(n):
        a = Assignment.from_d(d[i])
        try:
            report = plan.evaluate(a, y[i])
        except LooraError as exc:
            failure = block.failures[i]
            assert (type(failure), str(failure)) == (type(exc), str(exc))
            assert not block.ok[i]
        else:
            assert i not in block.failures and block.ok[i]
            assert _bits(report.tau_hat, report.var_hat, report.ci_low, report.ci_high) == _bits(
                block.tau_hat[i], block.var_hat[i], block.ci_low[i], block.ci_high[i]
            )
        if points.ok[i]:
            assert _bits(plan.point(a, y[i])) == _bits(points.tau_hat[i])
        else:
            with pytest.raises(type(points.failures[i]), match=re.escape(str(points.failures[i]))):
                plan.point(a, y[i])
    assert _bits(*points.tau_hat[block.ok]) == _bits(*block.tau_hat[block.ok])
    # A non-0/1 entry or mis-shaped outcomes are refused on all four routes
    half = d[5].copy()
    half[3] = 0.5
    for route in (plan.evaluate_block, plan.point_block):
        with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
            route(np.vstack([d, half]), np.vstack([y, y[5]]))
        with pytest.raises(InvalidInput, match="outcome has shape"):
            route(d, y[:, :-1])
    for route in (plan.evaluate, plan.point):
        with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
            route(Assignment.from_d(half), y[5])
        with pytest.raises(InvalidInput, match="outcome has shape"):
            route(Assignment.from_d(d[5]), y[5, :-1])


def test_point_estimate_does_not_run_the_variance_self_check(rng, monkeypatch):
    def failing(*args):
        raise SelfCheckFailed("auxiliary regression failed")

    monkeypatch.setattr(loora.estimators, "_two_column_sandwich", failing)
    pop = random_population(rng, 10, 2)
    spec = CompleteDesign(10, 5)
    s = observed_sample(pop, draw_with(spec, rng), spec)
    (tau,), _, _ = LooraDmPlan.build(s.x, s.spec, AUTO2).adjusted(s.assignment.d[None], s.y[None])
    assert estimate(Method.LOORA_DM, s, AUTO2) == tau
    with pytest.raises(SelfCheckFailed):
        estimate_with_ci(Method.LOORA_DM, s, AUTO2)


def test_estimate_with_ci_brackets_point_estimate(rng):
    n = 14
    pop = random_population(rng, n, 2)
    spec_s = SimpleDesign(rng.uniform(0.35, 0.65, n))
    s_simple = observed_sample(pop, draw_with(spec_s, rng), spec_s)
    spec_c = CompleteDesign(n, 7)
    s_complete = observed_sample(pop, draw_with(spec_c, rng), spec_c)
    for method, sample in [
        (Method.HT, s_simple),
        (Method.LOORA_HT, s_simple),
        (Method.DM, s_complete),
        (Method.ADJ, s_complete),
        (Method.INT, s_complete),
        (Method.RIDGE_REG, s_complete),
        (Method.LOORA_DM, s_complete),
    ]:
        report = estimate_with_ci(method, sample, AUTO2, 0.9)
        assert report.ci_low <= report.tau_hat <= report.ci_high
        assert report.var_hat >= 0.0
        half = (report.ci_high - report.ci_low) / 2.0
        assert half == pytest.approx(
            normal_quantile(0.95) * math.sqrt(report.var_hat), rel=1e-12
        )


def test_estimate_with_ci_lambda_metadata(rng):
    n = 10
    pop = random_population(rng, n, 2)
    spec = SimpleDesign(np.full(n, 0.5))
    s = observed_sample(pop, draw_with(spec, rng), spec)
    report = estimate_with_ci(Method.LOORA_HT, s, LambdaRule.fixed(0.75))
    assert report.lambda_used == 0.75
    assert report.method is Method.LOORA_HT
    assert report.tau_hat == pytest.approx(estimate(Method.LOORA_HT, s, LambdaRule.fixed(0.75)))


# --- independent certificates for the benchmark and DM-family cores ----------

_RANK_N, _RANK_NT = 10, 5
_RANK_D = np.array([1.0] * _RANK_NT + [0.0] * (_RANK_N - _RANK_NT))


def _rank_deficient_covariates(case: str) -> np.ndarray:
    """Covariates on which ADJ or INT is singular: for every assignment
    ("duplicate"), or for the assignment _RANK_D and its complement."""
    noise = np.random.default_rng(11).standard_normal((_RANK_N, 2))
    if case == "duplicate":
        return noise[:, [0, 0]]
    if case == "d_is_covariate":
        return np.column_stack([_RANK_D, noise[:, 1]])
    # constant_in_arm: x0 is 3 on exactly the units _RANK_D treats
    return np.column_stack([np.where(_RANK_D == 1.0, 3.0, noise[:, 0]), noise[:, 1]])


_RANK_CASES = [
    ("duplicate", "ADJ"),
    ("duplicate", "INT"),
    ("d_is_covariate", "ADJ"),
    ("constant_in_arm", "INT"),
]


@settings(max_examples=150, deadline=None)
@given(
    method=st.sampled_from(("ADJ", "INT", "RIDGE_REG", "DM", "LOORA_DM")),
    auto=st.booleans(),
    k=st.integers(1, 3),
    extra_t=st.integers(0, 12),
    extra_c=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_cores_match_full_design_and_inverse_sandwich_routes(
    method, auto, k, extra_t, extra_c, seed
):
    rng = np.random.default_rng(seed)
    n_t, n_c = k + 3 + extra_t, k + 3 + extra_c
    n = n_t + n_c
    pop = random_population(rng, n, k)
    spec = CompleteDesign(n, n_t)
    a = draw_with(spec, rng)
    y = observe(pop, a)
    rule = AUTO2 if auto else LambdaRule.fixed(0.7)
    report = plan_estimate(method, pop.x, spec, rule).evaluate(a, y)
    if method in ("DM", "LOORA_DM"):
        u = y
        if method == "LOORA_DM":
            u = LooraDmPlan.build(pop.x, spec, rule).adjusted(a.d[None], y[None])[1][0]
        _, tau, var = two_column_sandwich_inverse(u, a.d)
        (slope,), (closed,) = _two_column_sandwich(u[None], a.d[None])
        assert closed == report.var_hat
        assert abs(slope - tau) <= 1e-12 * max(1.0, abs(tau))
    else:
        tau, var = benchmark_full_design(method, pop.x, a, y, rule)
    assert abs(report.tau_hat - tau) <= 1e-12 * max(1.0, abs(tau))
    assert abs(report.var_hat - var) <= 1e-10 * var


@pytest.mark.parametrize("case, method", _RANK_CASES)
def test_rank_deficient_designs_raise_alike_in_both_routes(case, method):
    x = _rank_deficient_covariates(case)
    spec = CompleteDesign(_RANK_N, _RANK_NT)
    y = np.random.default_rng(5).standard_normal(_RANK_N)
    for d in (_RANK_D, 1.0 - _RANK_D):
        a = Assignment.from_d(d)
        with pytest.raises(RankDeficient):
            benchmark_full_design(method, x, a, y)
        if case == "duplicate":  # singular for every assignment: the plan refuses
            with pytest.raises(RankDeficient):
                plan_estimate(method, x, spec)
            continue
        plan = plan_estimate(method, x, spec)
        with pytest.raises(RankDeficient):
            plan.evaluate(a, y)
        with pytest.raises(RankDeficient):
            plan.point(a, y)


@pytest.mark.parametrize("case, method", _RANK_CASES)
def test_run_study_counts_rank_deficient_replicates_as_failures(case, method):
    x = _rank_deficient_covariates(case)
    outcomes = np.random.default_rng(6).standard_normal((2, _RANK_N))
    pop = Population(x, outcomes[0] + 1.0, outcomes[1])
    spec = CompleteDesign(_RANK_N, _RANK_NT)
    singular = 0
    for a, _ in enumerate_assignments(spec):
        try:
            benchmark_full_design(method, x, a, observe(pop, a))
        except RankDeficient:
            singular += 1
    assert singular == (252 if case == "duplicate" else 2)
    cfg = StudyConfig(design="complete", methods=(method,), reps="enumerate", n_t=_RANK_NT)
    stats = run_study(pop, cfg).stats[0]
    assert (stats.failed, stats.reps_used) == (singular, 252 - singular)
