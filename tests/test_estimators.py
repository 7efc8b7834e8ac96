import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_population, rel_gap
import loora.estimators
from loora.design import Assignment, CompleteDesign, SimpleDesign, draw_with
from loora.estimators import (
    BenchmarkPlan,
    LambdaRule,
    Method,
    ObservedSample,
    _fsum_rows_extracted,
    fsum_rows,
    ht_outcome_scales,
    reweighted_outcomes_ht,
)
from loora.exceptions import RankDeficient, SpecMismatch
from loora.inference import estimate, plan_estimate
from loora.linalg import max_row_norm
from loora.oracle import Population, enumeration_moments, observe, observed_sample
from loora.verify import _loora_dm_pairwise, _loora_dm_refit, _loora_ht_refit
from reference_routes import fsum_rows_loop, int_parts_loop

AUTO2 = LambdaRule.auto(2.0)


def simple_sample(x, y, d, p):
    p = np.asarray(p, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    spec = SimpleDesign(p)
    return ObservedSample(np.asarray(x, dtype=np.float64), y, Assignment(d, 2 * d - 1), spec)


def complete_sample(x, y, d):
    d = np.asarray(d, dtype=np.float64)
    spec = CompleteDesign(len(d), int(d.sum()))
    return ObservedSample(np.asarray(x, dtype=np.float64), y, Assignment(d, 2 * d - 1), spec)


def test_ht_hand_value():
    s = simple_sample([[0.0], [0.0]], [3.0, 1.0], [1, 0], [0.5, 0.5])
    assert estimate(Method.HT, s) == pytest.approx(2.0, abs=1e-14)


def test_ht_zero_outcomes():
    s = simple_sample([[1.0], [2.0]], [0.0, 0.0], [1, 0], [0.3, 0.8])
    assert estimate(Method.HT, s) == 0.0


def test_ht_requires_simple_design():
    s = complete_sample([[1.0], [2.0]], [1.0, 2.0], [1, 0])
    with pytest.raises(SpecMismatch):
        estimate(Method.HT, s)


def test_ht_enumeration_mean_is_tau(rng):
    pop = random_population(rng, 4, 1)
    p = rng.uniform(0.3, 0.7, 4)
    mean, _ = enumeration_moments(pop, SimpleDesign(p), Method.HT)
    assert rel_gap(mean, pop.tau) < 1e-13


def test_dm_hand_value():
    s = complete_sample([[0.0]] * 3, [4.0, 1.0, 3.0], [1, 0, 0])
    assert estimate(Method.DM, s) == pytest.approx(2.0, abs=1e-14)


def test_dm_constant_outcomes():
    s = complete_sample([[0.0]] * 4, [3.3] * 4, [1, 1, 0, 0])
    assert estimate(Method.DM, s) == pytest.approx(0.0, abs=1e-15)


def test_dm_enumeration_mean_is_tau(rng):
    pop = random_population(rng, 5, 1)
    mean, _ = enumeration_moments(pop, CompleteDesign(5, 2), Method.DM)
    assert rel_gap(mean, pop.tau) < 1e-13


def test_loora_ht_zero_covariates_equals_ht(rng):
    n = 6
    y = rng.standard_normal(n)
    d = np.array([1, 0, 1, 1, 0, 0])
    p = rng.uniform(0.3, 0.7, n)
    s = simple_sample(np.zeros((n, 1)), y, d, p)
    assert estimate(Method.LOORA_HT, s, LambdaRule.fixed(1.0)) == pytest.approx(
        estimate(Method.HT, s), abs=1e-13
    )


def test_loora_ht_infinite_shrinkage_limit(rng):
    n = 8
    pop = random_population(rng, n, 2)
    p = rng.uniform(0.3, 0.7, n)
    spec = SimpleDesign(p)
    a = draw_with(spec, rng)
    s = observed_sample(pop, a, spec)
    r = np.sqrt(p * (1.0 - p))
    lam = 1e12 * max_row_norm(pop.x / r[:, None]) ** 2
    ht = estimate(Method.HT, s)
    loora = estimate(Method.LOORA_HT, s, LambdaRule.fixed(lam))
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
    assert_allclose(reweighted_outcomes_ht(y, d, ht_outcome_scales(p)), exponent_form, atol=1e-13)


def test_loora_ht_fast_equals_refit(rng):
    pop = random_population(rng, 15, 3)
    spec = SimpleDesign(rng.uniform(0.3, 0.7, 15))
    s = observed_sample(pop, draw_with(spec, rng), spec)
    for rule in (AUTO2, LambdaRule.fixed(0.5)):
        fast = estimate(Method.LOORA_HT, s, rule)
        slow = _loora_ht_refit(s, rule)
        assert rel_gap(fast, slow) < 1e-9


def test_loora_dm_zero_covariates_equals_dm(rng):
    y = rng.standard_normal(6)
    d = np.array([1, 1, 1, 0, 0, 0])
    s = complete_sample(np.zeros((6, 1)), y, d)
    assert estimate(Method.LOORA_DM, s, LambdaRule.fixed(1.0)) == pytest.approx(
        estimate(Method.DM, s), abs=1e-13
    )


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
        spec = CompleteDesign(12, n_t)
        s = observed_sample(pop, draw_with(spec, rng), spec)
        for rule in (AUTO2, LambdaRule.fixed(0.8)):
            fast = estimate(Method.LOORA_DM, s, rule)
            slow = _loora_dm_refit(s, rule)
            assert rel_gap(fast, slow) < 1e-9


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
    a = draw_with(spec, rng)
    while not 1 <= a.n_treated <= 7:
        a = draw_with(spec, rng)
    s = observed_sample(pop, a, spec)
    with pytest.raises(SpecMismatch):
        estimate(Method.LOORA_DM, s, AUTO2)
    value = estimate(Method.LOORA_DM, s, AUTO2, allow_design_mismatch=True)
    assert np.isfinite(value)


def test_benchmarks_reduce_to_dm_when_covariates_carry_nothing(rng):
    y = rng.standard_normal(8)
    d = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = complete_sample(np.zeros((8, 1)), y, d)
    dm = estimate(Method.DM, s)
    assert estimate(Method.RIDGE_REG, s, LambdaRule.fixed(1.0)) == pytest.approx(dm, abs=1e-12)
    # For the OLS benchmarks a zero column is rank-deficient, so build a
    # covariate exactly orthogonal to the intercept, the assignment, and the
    # outcomes within each arm; it then carries no information at all.
    x = rng.standard_normal(8)
    for arm in (d == 1.0, d == 0.0):
        basis = np.column_stack([np.ones(int(arm.sum())), y[arm]])
        proj, *_ = np.linalg.lstsq(basis, x[arm], rcond=None)
        x[arm] = x[arm] - basis @ proj
    s2 = complete_sample(x[:, None], y, d)
    assert estimate(Method.ADJ, s2) == pytest.approx(dm, abs=1e-10)
    assert estimate(Method.INT, s2) == pytest.approx(dm, abs=1e-10)


def test_adj_int_recover_exact_linear_homogeneous_model(rng):
    n, k = 12, 2
    x = rng.standard_normal((n, k))
    d = np.zeros(n)
    d[rng.permutation(n)[:6]] = 1.0
    slope = np.array([1.5, -0.7])
    tau = 2.25
    y = x @ slope + tau * d
    s = complete_sample(x, y, d)
    assert estimate(Method.ADJ, s) == pytest.approx(tau, abs=1e-10)
    assert estimate(Method.INT, s) == pytest.approx(tau, abs=1e-10)


def test_int_equals_two_group_regression_oracle(rng):
    n, k = 30, 3
    pop = random_population(rng, n, k)
    spec = CompleteDesign(n, 14)
    a = draw_with(spec, rng)
    s = observed_sample(pop, a, spec)
    got = estimate(Method.INT, s)
    # independent construction: fit each arm separately on raw covariates,
    # predict everybody, and average the difference of predictions
    d = a.d.astype(bool)
    design = np.column_stack([np.ones(n), pop.x])
    beta_t, *_ = np.linalg.lstsq(design[d], s.y[d], rcond=None)
    beta_c, *_ = np.linalg.lstsq(design[~d], s.y[~d], rcond=None)
    oracle_value = float(np.mean(design @ beta_t - design @ beta_c))
    assert got == pytest.approx(oracle_value, abs=1e-9)


@pytest.mark.parametrize("factor", [1e14, 1e-14])
@pytest.mark.parametrize("method", [Method.ADJ, Method.INT])
def test_adj_int_do_not_depend_on_a_covariates_units(rng, method, factor):
    pop = random_population(rng, 30, 3)
    spec = CompleteDesign(30, 14)
    a = draw_with(spec, rng)
    y = observe(pop, a)
    base = plan_estimate(method, pop.x, spec).evaluate(a, y)
    x = pop.x.copy()
    x[:, 1] *= factor
    got = plan_estimate(method, x, spec).evaluate(a, y)
    assert got.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)
    assert got.var_hat == pytest.approx(base.var_hat, rel=1e-12)
    # a copy of the rescaled column, in other units again, is still singular
    with pytest.raises(RankDeficient):
        plan_estimate(method, np.column_stack([x, 3.0 * x[:, 1]]), spec)


def test_pairwise_zero_covariates_equals_dm(rng):
    y = rng.standard_normal(6)
    d = np.array([1, 1, 0, 0, 0, 1])
    s = complete_sample(np.zeros((6, 1)), y, d)
    assert _loora_dm_pairwise(s, LambdaRule.fixed(1.0)) == pytest.approx(
        estimate(Method.DM, s), abs=1e-12
    )


def test_pairwise_equals_loora_dm_small_fixture(rng):
    pop = random_population(rng, 6, 2)
    spec = CompleteDesign(6, 3)
    s = observed_sample(pop, draw_with(spec, rng), spec)
    assert rel_gap(estimate(Method.LOORA_DM, s, AUTO2), _loora_dm_pairwise(s, AUTO2)) < 1e-9


def test_pairwise_equals_loora_dm_many_assignments(rng):
    pop = random_population(rng, 8, 3)
    spec = CompleteDesign(8, 4)
    for _ in range(50):
        s = observed_sample(pop, draw_with(spec, rng), spec)
        alg = estimate(Method.LOORA_DM, s, AUTO2)
        pw = _loora_dm_pairwise(s, AUTO2)
        assert rel_gap(alg, pw) < 1e-9


def test_estimate_dispatcher_covers_every_method(rng):
    # Each identifier reaches its own estimator: compare every dispatched
    # point estimate with a direct construction of that estimator.
    n = 12
    pop = random_population(rng, n, 2)
    spec_s = SimpleDesign(np.full(n, 0.5))
    s_simple = observed_sample(pop, draw_with(spec_s, rng), spec_s)
    spec_c = CompleteDesign(n, 6)
    s_complete = observed_sample(pop, draw_with(spec_c, rng), spec_c)
    d, y, p = s_simple.assignment.d, s_simple.y, spec_s.p
    ht = np.mean(d * y / p - (1.0 - d) * y / (1.0 - p))
    d, y, x = s_complete.assignment.d, s_complete.y, pop.x
    arm = d == 1.0
    xc = x - x.mean(axis=0)
    adj_design = np.column_stack([np.ones(n), d, x])
    int_design = np.column_stack([np.ones(n), d, xc, d[:, None] * xc])
    penalty = np.diag([0.0, 0.0] + [AUTO2.resolve(x)] * x.shape[1])
    ridge = np.linalg.solve(adj_design.T @ adj_design + penalty, adj_design.T @ y)
    expected = {
        Method.HT: (s_simple, ht),
        Method.LOORA_HT: (s_simple, _loora_ht_refit(s_simple, AUTO2)),
        Method.DM: (s_complete, y[arm].mean() - y[~arm].mean()),
        Method.ADJ: (s_complete, np.linalg.lstsq(adj_design, y, rcond=None)[0][1]),
        Method.INT: (s_complete, np.linalg.lstsq(int_design, y, rcond=None)[0][1]),
        Method.RIDGE_REG: (s_complete, ridge[1]),
        Method.LOORA_DM: (s_complete, _loora_dm_refit(s_complete, AUTO2)),
    }
    assert set(expected) == set(Method)
    for method, (sample, value) in expected.items():
        assert estimate(method, sample, AUTO2) == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_scale_equivariance(rng):
    # Every estimation step is linear in the outcomes at a fixed penalty, so
    # scaling both potential-outcome vectors scales every estimate exactly;
    # the auto penalty rule depends only on the covariates and commutes too.
    pop = random_population(rng, 9, 2)
    scale = 3.7
    scaled = Population(pop.x, scale * pop.y1, scale * pop.y0)
    spec = SimpleDesign(rng.uniform(0.3, 0.7, 9))
    a = draw_with(spec, rng)
    s = observed_sample(pop, a, spec)
    s_scaled = observed_sample(scaled, a, spec)
    lam = 0.9
    for rule in (LambdaRule.fixed(lam), AUTO2):
        base = estimate(Method.LOORA_HT, s, rule)
        grown = estimate(Method.LOORA_HT, s_scaled, rule)
        assert grown == pytest.approx(scale * base, rel=1e-12)
    assert estimate(Method.HT, s_scaled) == pytest.approx(scale * estimate(Method.HT, s), rel=1e-12)

    spec_c = CompleteDesign(9, 4)
    a = draw_with(spec_c, rng)
    s = observed_sample(pop, a, spec_c)
    s_scaled = observed_sample(scaled, a, spec_c)
    for rule in (LambdaRule.fixed(lam), AUTO2):
        base = estimate(Method.LOORA_DM, s, rule)
        grown = estimate(Method.LOORA_DM, s_scaled, rule)
        assert grown == pytest.approx(scale * base, rel=1e-12)
    assert estimate(Method.RIDGE_REG, s_scaled, AUTO2) == pytest.approx(
        scale * estimate(Method.RIDGE_REG, s, AUTO2), rel=1e-12
    )


def test_shift_invariance(rng):
    # DM is pointwise shift invariant. The adjusted estimators are shift
    # invariant at the enumeration-mean level (their response rescalings are
    # arm dependent, so single draws can move); assert at the mean level.
    pop = random_population(rng, 6, 2)
    shift = 4.2
    shifted = Population(pop.x, pop.y1 + shift, pop.y0 + shift)
    spec_c = CompleteDesign(6, 3)
    a = draw_with(spec_c, rng)
    s = observed_sample(pop, a, spec_c)
    s_shift = observed_sample(shifted, a, spec_c)
    assert estimate(Method.DM, s_shift) == pytest.approx(estimate(Method.DM, s), abs=1e-12)
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
@given(a=_sum_blocks(), overflow=st.sampled_from([math.nan, math.inf]))
def test_fsum_rows_returns_math_fsum_bits(a, overflow):
    want = fsum_rows_loop(a, overflow).view(np.int64)
    with np.errstate(all="raise"):
        got = fsum_rows(a, overflow)
        extracted = _fsum_rows_extracted(a, overflow)  # whatever the size selects
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
    """_fsum_rows_extracted of a, under np.errstate(all="raise"), and the rows it
    sent past the one-pass certificate."""
    seen = []
    full_route = loora.estimators._extracted_rest

    def spy(rest, first, m):
        seen.append(len(first))
        return full_route(rest, first, m)

    monkeypatch.setattr(loora.estimators, "_extracted_rest", spy)
    with np.errstate(all="raise"):
        got = _fsum_rows_extracted(a, math.nan)
    return got, sum(seen)


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


# --- INT's block arm fits against the row-by-row loop -------------------------


def _int_block_equals_row_loop(x, d, y, spec, mismatch):
    """plan.parts against int_parts_loop on the same block: == on the bits of
    every estimate and HC0 term, and the same failing rows, classes and
    messages, in the same order."""
    plan = BenchmarkPlan.build(Method.INT, x, spec, allow_design_mismatch=mismatch)
    tau, terms, failed = plan.parts(d, y)
    want_tau, want_terms, want_failed = int_parts_loop(plan, d, y, plan.arms.counts(d)[2])
    assert_array_equal(tau.view(np.int64), want_tau.view(np.int64))
    assert_array_equal(terms.view(np.int64), want_terms.view(np.int64))
    assert _listed(failed) == _listed(want_failed)
    return failed


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
        BenchmarkPlan.build(Method.INT, pop.x, spec, allow_design_mismatch=True)
    except RankDeficient:
        return  # the full-sample basis is singular: no row is ever fit
    _int_block_equals_row_loop(pop.x, d, y, spec, not complete)
