import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import loora.oracle as oracle_mod
from conftest import kernel_pin, loo_fitted, random_population, rel_gap
from loora.design import CompleteDesign, SimpleDesign, enumerate_assignments
from loora.estimators import LambdaRule, Method
from loora.exceptions import NonFinite, ParameterOutOfRange, RankDeficient
from loora.inference import plan_estimate
from loora.linalg import leverage_regularizer, max_row_norm, ridge_factor
from loora.oracle import (
    Population,
    adjusted_ht_variance,
    dm_signal,
    dm_variance,
    ht_signal,
    ht_variance,
    lin_asymptotic_variance,
    loora_dm_variance,
    loora_dm_variance_terms,
    loora_ht_variance,
    loora_ht_variance_terms,
    observe,
)
from loora.simulation import enumeration_moments, synth_population
from reference_routes import (
    adjusted_ht_optimal_coef,
    dm_adjusted_minimum_variance,
    dm_adjusted_optimal_coef,
    dm_adjusted_variance,
    dm_variance_neyman,
    lin_asymptotic_variance_projection,
    loora_dm_quadratic_blocks,
    loora_dm_t3_dense,
    loora_ht_second_term_bound,
    loora_ht_second_term_dense,
    pattern_tables_loop,
)

AUTO2 = LambdaRule.auto(2.0)


def half_probs(n):
    return np.full(n, 0.5)


# --- HT-side exact variances -------------------------------------------------


def test_ht_variance_hand_value():
    pop = Population(np.zeros((2, 1)), np.ones(2), np.zeros(2))
    assert ht_variance(pop, half_probs(2)) == pytest.approx(0.5, abs=1e-15)
    mean, var = enumeration_moments(pop, SimpleDesign(half_probs(2)), Method.HT)
    assert mean == pytest.approx(1.0, abs=1e-15)
    assert var == pytest.approx(0.5, abs=1e-15)


def test_ht_variance_zero_signal_construction(rng):
    n = 5
    p = rng.uniform(0.3, 0.7, n)
    y0 = rng.standard_normal(n)
    y1 = -(p / (1.0 - p)) * y0
    pop = Population(rng.standard_normal((n, 1)), y1, y0)
    assert ht_variance(pop, p) == pytest.approx(0.0, abs=1e-15)


def test_ht_variance_matches_enumeration(rng):
    pop = random_population(rng, 5, 2)
    p = rng.uniform(0.3, 0.7, 5)
    _, enum_var = enumeration_moments(pop, SimpleDesign(p), Method.HT)
    assert abs(ht_variance(pop, p) - enum_var) < 1e-11


def test_adjusted_ht_variance_zero_coef_reduces():
    rng = np.random.default_rng(4)
    pop = random_population(rng, 6, 2)
    p = rng.uniform(0.3, 0.7, 6)
    assert adjusted_ht_variance(pop, p, np.zeros(2)) == pytest.approx(
        ht_variance(pop, p), rel=1e-14
    )


def test_adjusted_ht_variance_perfect_adjustment(rng):
    n = 6
    p = rng.uniform(0.3, 0.7, n)
    y1 = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    sig_mu = np.sqrt((1.0 - p) / p) * y1 + np.sqrt(p / (1.0 - p)) * y0
    r = np.sqrt(p * (1.0 - p))
    pop = Population((r * sig_mu)[:, None], y1, y0)
    assert adjusted_ht_variance(pop, p, np.ones(1)) == pytest.approx(0.0, abs=1e-15)
    assert adjusted_ht_optimal_coef(pop, p)[0] == pytest.approx(1.0, rel=1e-10)


def test_adjusted_ht_variance_matches_enumeration_of_adjusted_estimator(rng):
    n = 6
    pop = random_population(rng, n, 2)
    p = rng.uniform(0.3, 0.7, n)
    b = rng.standard_normal(2)
    spec = SimpleDesign(p)
    plan = plan_estimate(Method.HT, pop.x, spec)
    values, probs = [], []
    for a, prob in enumerate_assignments(spec):
        y_adj = observe(pop, a) - pop.x @ b
        values.append(plan.point(a, y_adj))
        probs.append(prob)
    mean = math.fsum(pr * v for pr, v in zip(probs, values))
    enum_var = math.fsum(pr * (v - mean) ** 2 for pr, v in zip(probs, values))
    assert abs(adjusted_ht_variance(pop, p, b) - enum_var) < 1e-11


def test_loora_ht_variance_null_covariates_reduce_to_ht(rng):
    pop = Population(np.zeros((5, 1)), rng.standard_normal(5), rng.standard_normal(5))
    p = rng.uniform(0.3, 0.7, 5)
    term1, term2 = loora_ht_variance_terms(pop, p, 1.0)
    assert term2 == 0.0
    assert term1 == pytest.approx(ht_variance(pop, p), rel=1e-14)


def test_loora_ht_variance_matches_enumeration(rng):
    pop = random_population(rng, 4, 1)
    p = half_probs(4)
    for rule in (AUTO2, LambdaRule.fixed(0.0)):
        lam = rule.resolve(ht_signal(pop, p).xw)
        _, enum_var = enumeration_moments(pop, SimpleDesign(p), Method.LOORA_HT, rule)
        assert rel_gap(loora_ht_variance(pop, p, lam), enum_var) < 1e-10


def test_loora_ht_first_term_equals_loo_fits_of_signal(rng):
    pop = random_population(rng, 7, 2)
    p = rng.uniform(0.3, 0.7, 7)
    sig = ht_signal(pop, p)
    lam = leverage_regularizer(sig.xw, 2.0)
    term1, _ = loora_ht_variance_terms(pop, p, lam)
    fitted = loo_fitted(ridge_factor(sig.xw, lam), sig.mu)
    direct = math.fsum((fitted[i] - sig.mu[i]) ** 2 for i in range(7)) / 7**2
    assert term1 == pytest.approx(direct, rel=1e-11)


def test_loora_ht_second_term_monotone_in_lambda(rng):
    pop = random_population(rng, 8, 2)
    p = rng.uniform(0.3, 0.7, 8)
    lams = [0.0, 0.1, 0.5, 1.0, 5.0, 25.0, 125.0]
    second = [loora_ht_variance_terms(pop, p, lam)[1] for lam in lams]
    for a, b in zip(second, second[1:]):
        assert b <= a + 1e-12


def test_loora_ht_second_term_dimension_bound(rng):
    for trial in range(10):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 3))
        pop = random_population(rng, n, k)
        p = rng.uniform(0.3, 0.7, n)
        for c in (0.5, 2.0):
            lam = leverage_regularizer(ht_signal(pop, p).xw, c)
            _, term2 = loora_ht_variance_terms(pop, p, lam)
            assert term2 <= loora_ht_second_term_bound(pop, p, lam) + 1e-12


def test_loora_ht_total_bound_at_unit_cap(rng):
    # at the c = 1 penalty the variance is bounded by four times the fit
    # error plus (8k/n^2) times the worst squared deviation ratio
    pop = random_population(rng, 9, 2)
    p = rng.uniform(0.3, 0.7, 9)
    sig = ht_signal(pop, p)
    lam = max_row_norm(sig.xw) ** 2
    total = loora_ht_variance(pop, p, lam)
    beta = ridge_factor(sig.xw, lam).fit(sig.mu)
    fit_err = math.fsum((sig.xw @ beta - sig.mu) ** 2)
    bound = 4.0 / 81.0 * fit_err + 8.0 * 2 / 81.0 * float(np.max(np.abs(sig.t / sig.r))) ** 2
    assert total <= bound + 1e-12


def test_equal_probability_projection_identity(rng):
    # with all p_i equal, projecting the signal on the weighted columns or
    # the raw columns is the same thing
    n, k = 8, 3
    pop = random_population(rng, n, k)
    p = np.full(n, 0.37)
    sig = ht_signal(pop, p)
    proj_w = sig.xw @ np.linalg.lstsq(sig.xw, sig.mu, rcond=None)[0]
    proj_raw = pop.x @ np.linalg.lstsq(pop.x, sig.mu, rcond=None)[0]
    assert np.max(np.abs(proj_w - proj_raw)) < 1e-10


# --- DM-side exact variances -------------------------------------------------


def test_dm_variance_constant_effect_constant_baseline():
    pop = Population(np.zeros((4, 1)), np.full(4, 5.5), np.full(4, 2.5))
    assert dm_variance(pop, 2) == pytest.approx(0.0, abs=1e-15)


def test_dm_variance_two_forms_hand_fixture():
    pop = Population(np.zeros((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
    sig = dm_signal(pop, 2)
    assert_allclose(sig.mu, 2.0 * pop.y1, atol=1e-15)
    v1 = dm_variance(pop, 2)
    v2 = dm_variance_neyman(pop, 2)
    assert v1 == pytest.approx(v2, rel=1e-14)


def test_dm_variance_matches_enumeration(rng):
    pop = random_population(rng, 6, 1)
    for n_t in (2, 3):
        _, enum_var = enumeration_moments(pop, CompleteDesign(6, n_t), Method.DM)
        assert abs(dm_variance(pop, n_t) - enum_var) < 1e-11
        assert abs(dm_variance_neyman(pop, n_t) - enum_var) < 1e-11


def test_enumeration_moments_raises_the_lowest_failing_assignments_failure():
    # Under INT each arm of three units fits [1, Xc]. In enumeration order the
    # first assignment whose arm is singular is the third, at column 1; every
    # later one fails at column 2.
    x = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pop = Population(x, np.arange(6.0) + 1.0, np.arange(6.0))
    spec = CompleteDesign(6, 3)
    plan = plan_estimate(Method.INT, x, spec)
    failures = []
    for a, _ in enumerate_assignments(spec):
        try:
            plan.point(a, observe(pop, a))
        except RankDeficient as exc:
            failures.append(str(exc))
    assert failures[0].startswith("column 1 ")
    assert len(failures) > 1 and all(f.startswith("column 2 ") for f in failures[1:])
    with pytest.raises(RankDeficient) as raised:
        enumeration_moments(pop, spec, Method.INT)
    assert str(raised.value) == failures[0]


def test_dm_adjusted_variance_zero_coef_reduces(rng):
    pop = random_population(rng, 6, 2)
    assert dm_adjusted_variance(pop, 3, np.zeros(2)) == pytest.approx(
        dm_variance(pop, 3), rel=1e-14
    )


def test_dm_adjusted_minimum_zero_for_perfect_column(rng):
    n = 6
    y1 = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    mu = (n - 3) * y1 + 3 * y0
    pop = Population((mu - mu.mean())[:, None], y1, y0)
    assert dm_adjusted_minimum_variance(pop, 3) == pytest.approx(0.0, abs=1e-14)
    assert dm_adjusted_optimal_coef(pop, 3)[0] == pytest.approx(1.0, rel=1e-10)


def test_dm_adjusted_variance_matches_enumeration_of_adjusted_estimator(rng):
    n = 6
    pop = random_population(rng, n, 2)
    b = rng.standard_normal(2)
    spec = CompleteDesign(n, 3)
    plan = plan_estimate(Method.DM, pop.x, spec)
    values, probs = [], []
    for a, prob in enumerate_assignments(spec):
        y_adj = observe(pop, a) - pop.x @ b
        values.append(plan.point(a, y_adj))
        probs.append(prob)
    mean = math.fsum(pr * v for pr, v in zip(probs, values))
    enum_var = math.fsum(pr * (v - mean) ** 2 for pr, v in zip(probs, values))
    # the closed form's coefficient lives on the aggregated-signal scale:
    # n times the per-outcome adjustment
    assert abs(dm_adjusted_variance(pop, 3, n * b) - enum_var) < 1e-11
    # cross-check through the adjusted population's own DM variance
    adjusted_pop = Population(pop.x, pop.y1 - pop.x @ b, pop.y0 - pop.x @ b)
    assert dm_adjusted_variance(pop, 3, n * b) == pytest.approx(
        dm_variance(adjusted_pop, 3), rel=1e-12
    )


def test_loora_dm_variance_null_covariates_reduce_to_dm(rng):
    pop = Population(np.zeros((6, 1)), rng.standard_normal(6), rng.standard_normal(6))
    t1, t2, t3 = loora_dm_variance_terms(pop, 3, 1.0)
    assert t2 == 0.0
    assert t3 == 0.0
    assert t1 == pytest.approx(dm_variance(pop, 3), rel=1e-13)


def test_loora_dm_variance_matches_enumeration_k1(rng):
    pop = random_population(rng, 6, 1)
    for rule in (AUTO2, LambdaRule.fixed(0.0)):
        lam = rule.resolve(pop.x)
        _, enum_var = enumeration_moments(pop, CompleteDesign(6, 3), Method.LOORA_DM, rule)
        assert rel_gap(loora_dm_variance(pop, 3, lam), enum_var) < 1e-9


def test_loora_dm_variance_matches_enumeration_k2(rng):
    pop = random_population(rng, 7, 2)
    lam = leverage_regularizer(pop.x, 2.0)
    _, enum_var = enumeration_moments(pop, CompleteDesign(7, 3), Method.LOORA_DM, AUTO2)
    assert rel_gap(loora_dm_variance(pop, 3, lam), enum_var) < 1e-9


@pytest.mark.parametrize("n", [12, 14, 16])
@pytest.mark.parametrize("rule", [LambdaRule.fixed(0.0), AUTO2], ids=["lambda0", "auto2"])
def test_loora_variances_match_enumeration_on_leverage_stress(n, rule):
    # One row carries a leverage of at least 0.9 at lambda = 0, where the
    # rounding of the ridge factor weighs most in both routes.
    pop = synth_population("leverage-stress", n, 3, n)
    p = half_probs(n)
    _, enum_ht = enumeration_moments(pop, SimpleDesign(p), Method.LOORA_HT, rule)
    exact_ht = loora_ht_variance(pop, p, rule.resolve(ht_signal(pop, p).xw))
    assert rel_gap(exact_ht, enum_ht) < 1e-9
    _, enum_dm = enumeration_moments(pop, CompleteDesign(n, n // 2), Method.LOORA_DM, rule)
    assert rel_gap(loora_dm_variance(pop, n // 2, rule.resolve(pop.x)), enum_dm) < 1e-9


def test_loora_dm_variance_guards():
    rng = np.random.default_rng(0)
    pop4 = random_population(rng, 4, 1)
    # n = 4, the smallest n with two units in each arm, matches enumeration
    lam = leverage_regularizer(pop4.x, 2.0)
    _, enum_var = enumeration_moments(pop4, CompleteDesign(4, 2), Method.LOORA_DM, AUTO2)
    assert rel_gap(loora_dm_variance(pop4, 2, lam), enum_var) < 1e-9
    pop6 = random_population(rng, 6, 1)
    with pytest.raises(ParameterOutOfRange):
        loora_dm_variance(pop6, 1, 1.0)  # singleton arm
    pop3 = random_population(rng, 3, 1)
    with pytest.raises(ParameterOutOfRange):
        loora_dm_variance(pop3, 2, 1.0)


def test_quadratic_blocks_symmetry_and_cross_transpose(rng):
    pop = random_population(rng, 8, 2)
    blocks = loora_dm_quadratic_blocks(pop, 3, 0.7)
    assert_allclose(blocks[(0, 1)], blocks[(1, 0)].T, atol=1e-15)


def test_quadratic_blocks_refuse_oversized_population(rng):
    big = Population(np.ones((513, 1)), np.ones(513), np.zeros(513))
    with pytest.raises(ParameterOutOfRange, match="512"):
        loora_dm_quadratic_blocks(big, 200, 1.0)


def test_streamed_quadratic_path_matches_blocks(rng):
    # low-rank T3 against t'Qt from the materialized blocks
    pop = random_population(rng, 25, 3)
    lam = leverage_regularizer(pop.x, 2.0)
    reference = loora_dm_t3_dense(pop, 11, lam)
    _, _, low_rank = loora_dm_variance_terms(pop, 11, lam)
    assert low_rank == pytest.approx(reference, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 80),
    k=st.integers(1, 4),
    p=st.floats(0.2, 0.8),
    fixed_lam=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_rank_cross_unit_terms_match_dense_references(n, k, p, fixed_lam, seed):
    # T3 against t'Qt from the blocks, and the HT cross-unit term against the
    # literal upper-triangle sum over the materialized hat matrix
    pop = random_population(np.random.default_rng(seed), n, k)
    probs = np.full(n, p)
    n_t = min(max(round(p * n), 2), n - 2)
    lam_dm = 0.05 if fixed_lam else AUTO2.resolve(pop.x)
    lam_ht = 0.05 if fixed_lam else AUTO2.resolve(ht_signal(pop, probs).xw)
    _, _, t3 = loora_dm_variance_terms(pop, n_t, lam_dm)
    reference = loora_dm_t3_dense(pop, n_t, lam_dm)
    assert abs(t3 - reference) <= 1e-9 * abs(reference)
    _, term2 = loora_ht_variance_terms(pop, probs, lam_ht)
    reference = loora_ht_second_term_dense(pop, probs, lam_ht)
    assert abs(term2 - reference) <= 1e-9 * abs(reference)


def test_exact_variances_allocate_no_n_by_n_array():
    # one n x n float64 array at n = 4096 is 128 MiB
    n = 4096
    pop = random_population(np.random.default_rng(11), n, 5)
    probs = np.full(n, 0.5)
    lam_dm = AUTO2.resolve(pop.x)
    lam_ht = AUTO2.resolve(ht_signal(pop, probs).xw)
    tracemalloc.start()
    try:
        loora_dm_variance(pop, n // 2, lam_dm)
        loora_ht_variance(pop, probs, lam_ht)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exact_variances_reach_lin_efficiency_at_large_n():
    # the large-sample efficiency claim, exactly: n times either exact
    # variance is within 1% of the interacted-adjustment benchmark
    pop = synth_population("linear-heterogeneous", 20000, 5, 6)
    n = pop.n
    with_intercept = Population(np.column_stack([np.ones(n), pop.x]), pop.y1, pop.y0)
    probs = np.full(n, 0.5)
    target = lin_asymptotic_variance(pop, 0.5)
    lam_ht = AUTO2.resolve(ht_signal(with_intercept, probs).xw)
    lam_dm = AUTO2.resolve(with_intercept.x)
    assert n * loora_ht_variance(with_intercept, probs, lam_ht) == pytest.approx(target, rel=0.01)
    assert n * loora_dm_variance(with_intercept, n // 2, lam_dm) == pytest.approx(target, rel=0.01)


def test_pattern_tables_match_displayed_constants_where_verified():
    # closed forms for the coincidence-pattern expectations; the shared-k
    # pattern uses the corrected denominator n^3 nT nC (n-1)(n-2)
    for n, n_t in ((6, 3), (7, 2), (9, 5)):
        n_c = n - n_t
        tables = oracle_mod._pattern_tables(n, n_t)
        big_f = n**3 * n_t * n_c * (n_t - 1) * (n_c - 1)
        fc = n**3 * n_t * n_c * (n - 1) * (n - 2)
        c4 = 1.0 / (n**3 * (n - 1))
        a_t = (n_t * n_c - 2 * n_c + n_t**2 - 2 * n_t + 1) / (n_t - 1)
        a_c = (n_t * n_c - 2 * n_t + n_c**2 - 2 * n_c + 1) / (n_c - 1)
        ab_t = n_c * n_t - 3 * n_c + n_t**2 - 2 * n_t + 1
        ab_c = n_c * n_t - 3 * n_t + n_c**2 - 2 * n_c + 1
        n2 = n**2
        assert tables["pair_pair"][1, 1] * big_f / n2 == pytest.approx(n_c - 1, rel=1e-12)
        assert tables["pair_pair"][0, 0] * big_f / n2 == pytest.approx(n_t - 1, rel=1e-12)
        assert tables["pair_pair"][1, 0] == 0.0
        assert tables["shared_i"][1, 1] * big_f * (n - 2) / n2 == pytest.approx(
            -(n_c - 1), rel=1e-12
        )
        assert tables["shared_k"][1, 1] * fc / n2 == pytest.approx(a_t, rel=1e-12)
        assert tables["shared_k"][0, 0] * fc / n2 == pytest.approx(a_c, rel=1e-12)
        assert (tables["shared_k"][1, 0] + tables["shared_k"][0, 1]) * fc / n2 == pytest.approx(
            -2.0 * n, rel=1e-12
        )
        assert tables["crossed"][1, 1] / n2 == pytest.approx(
            c4 / (n_t * (n_t - 1)), rel=1e-12
        )
        assert tables["hooked_left"][1, 1] / n2 == pytest.approx(
            -c4 / ((n - 2) * n_t * (n_t - 1)), rel=1e-12
        )
        assert tables["hooked_right"][0, 0] / n2 == pytest.approx(
            -c4 / ((n - 2) * n_c * (n_c - 1)), rel=1e-12
        )
        assert tables["disjoint"][1, 1] / n2 == pytest.approx(
            -c4 * ab_t / ((n - 2) * n_c * n_t * (n - 3) * (n_t - 1)), rel=1e-12
        )
        assert tables["disjoint"][0, 0] / n2 == pytest.approx(
            -c4 * ab_c / ((n - 2) * n_c * n_t * (n - 3) * (n_c - 1)), rel=1e-12
        )
        assert tables["disjoint"][1, 0] / n2 == pytest.approx(
            c4 * (n + 1) / ((n - 2) * n_c * n_t * (n - 3)), rel=1e-12
        )


def test_pattern_tables_match_the_scalar_loop_bit_for_bit():
    # the array-built tables against the literal loop of the reference, for
    # every arm split of small n and at the two ends of a large n
    cases = [(n, n_t) for n in range(4, 41) for n_t in range(2, n - 1)]
    for n, n_t in cases + [(1024, 512), (30000, 17)]:
        tables = oracle_mod._pattern_tables(n, n_t)
        loop = pattern_tables_loop(n, n_t)
        assert list(tables) == list(loop)
        for name, table in tables.items():
            assert np.array_equal(table, loop[name]), (n, n_t, name)
            assert table.tobytes() == loop[name].tobytes(), (n, n_t, name)


# float.hex of the exact variances on synth_population("linear-heterogeneous",
# n, 5, 11) at p = 1/2 (HT) and n_t = n / 2 (DM) with the auto:2 penalty; the
# same under 1 and 2 BLAS threads; per BLAS kernel
PINNED_EXACT_VARIANCES = {
    1024: {
        "SkylakeX": ("0x1.2096b45131cc7p-10", "0x1.2488a57dbc833p-9"),
        "Haswell": ("0x1.2096b45131cc9p-10", "0x1.2488a57dbc834p-9"),
    },
    5000: {
        "SkylakeX": ("0x1.a243a9e85af31p-13", "0x1.a6b4a5e2065cbp-12"),
        "Haswell": ("0x1.a243a9e85af32p-13", "0x1.a6b4a5e2065cbp-12"),
    },
}


@pytest.mark.parametrize("n", sorted(PINNED_EXACT_VARIANCES))
def test_exact_variances_keep_their_pinned_bits(n):
    pinned = kernel_pin(PINNED_EXACT_VARIANCES[n])
    pop = synth_population("linear-heterogeneous", n, 5, 11)
    p = half_probs(n)
    dm = loora_dm_variance(pop, n // 2, AUTO2.resolve(pop.x))
    ht = loora_ht_variance(pop, p, AUTO2.resolve(ht_signal(pop, p).xw))
    assert (dm.hex(), ht.hex()) == pinned


@pytest.mark.parametrize("method", ["LOORA_DM", "LOORA_HT"])
def test_exact_variances_of_overflowing_populations_fail_as_non_finite(method):
    # y of order 1e160: the squared terms leave the floating-point range
    pop = synth_population("linear-heterogeneous", 8, 2, 4)
    big = Population(pop.x, pop.y1 * 1e160, pop.y0 * 1e160)
    with pytest.raises(NonFinite) as failure:
        if method == "LOORA_DM":
            loora_dm_variance(big, 4, 0.5)
        else:
            loora_ht_variance(big, half_probs(8), 0.5)
    assert (failure.value.method, failure.value.stage) == (method, "exact variance")
    # a signal that overflows before its ridge fit: mu is a sum of y1 and y0 terms
    twin = Population(pop.x, np.full(8, 1e308), np.full(8, 1e308))
    with pytest.raises(NonFinite):
        if method == "LOORA_DM":
            loora_dm_variance(twin, 4, 0.5)
        else:
            loora_ht_variance(twin, half_probs(8), 0.5)
    # the unscaled population has a finite variance of both kinds
    assert math.isfinite(loora_dm_variance(pop, 4, 0.5))
    assert math.isfinite(loora_ht_variance(pop, half_probs(8), 0.5))


@pytest.mark.parametrize("scale", [1e200, 1e307])
def test_every_ground_truth_of_an_overflowing_population_fails_as_non_finite(scale):
    # squares overflow at 1e200; at 1e307 the signals and plain sums do too
    pop = synth_population("linear-heterogeneous", 8, 2, 4)
    big = Population(pop.x, pop.y1 * scale, pop.y0 * scale)
    p = half_probs(8)
    cases = [
        (lambda: ht_variance(big, p), ("HT", "exact variance")),
        (lambda: adjusted_ht_variance(big, p, np.ones(2)), ("adjusted HT", "exact variance")),
        (lambda: dm_variance(big, 4), ("DM", "exact variance")),
        (lambda: lin_asymptotic_variance(big, 0.5), ("INT", "asymptotic variance")),
        (lambda: enumeration_moments(big, CompleteDesign(8, 4), Method.DM),
         ("DM", "enumeration variance")),
        (lambda: loora_dm_variance(big, 4, 0.5), ("LOORA_DM", "exact variance")),
        (lambda: loora_ht_variance(big, p, 0.5), ("LOORA_HT", "exact variance")),
    ]
    for call, (method, stage) in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes either
            with pytest.raises(NonFinite) as failure:
                call()
        assert (failure.value.method, failure.value.stage) == (method, stage)


def test_exact_variance_terms_keep_their_pinned_bits_at_high_leverage():
    # max h = 0.982 at lambda = 0; the LOORA-DM terms, then the LOORA-HT ones
    pinned = kernel_pin({
        "SkylakeX": (
            ["0x1.2125a46580ae8p-2", "-0x1.430192d2b68a9p-6", "0x1.6968a08932a70p+0"],
            ["0x1.63308ac02a03cp-2", "0x1.678faf9f361d1p+0"],
        ),
        "Haswell": (
            ["0x1.2125a465808dep-2", "-0x1.430192d2b662fp-6", "0x1.6968a08932a70p+0"],
            ["0x1.63308ac02a03cp-2", "0x1.678faf9f361d1p+0"],
        ),
    })
    pop = synth_population("leverage-stress", 14, 3, 14)
    dm_terms = loora_dm_variance_terms(pop, 7, 0.0)
    ht_terms = loora_ht_variance_terms(pop, half_probs(14), 0.0)
    assert ([t.hex() for t in dm_terms], [t.hex() for t in ht_terms]) == pinned


@pytest.mark.xfail(
    strict=True,
    reason="known accuracy gap: at max h = 0.99963 the exact LOORA-DM variance is "
    "1.1e-9 relative from enumeration (low-rank T3 is 9.4e-10 from the dense T3); "
    "ROADMAP items 2 and 4",
)
def test_loora_dm_variance_matches_enumeration_at_leverage_near_one():
    pop = synth_population("leverage-stress", 6, 3, 31)
    _, enum_var = enumeration_moments(
        pop, CompleteDesign(6, 3), Method.LOORA_DM, LambdaRule.fixed(0.0)
    )
    assert rel_gap(loora_dm_variance(pop, 3, 0.0), enum_var) < 1e-9


# --- asymptotic benchmark and brute-force moments ---------------------------


def test_lin_variance_zero_for_exactly_linear_outcomes(rng):
    n, k = 20, 3
    x = rng.standard_normal((n, k))
    y0 = x @ np.array([1.0, -1.0, 2.0]) + 0.5
    y1 = x @ np.array([0.5, 0.2, -1.0]) - 1.0
    pop = Population(x, y1, y0)
    assert lin_asymptotic_variance(pop, 0.5) == pytest.approx(0.0, abs=1e-18)


def test_lin_variance_single_arm_dropout(rng):
    n, k = 15, 2
    x = rng.standard_normal((n, k))
    y1 = rng.standard_normal(n)
    pop = Population(x, y1, np.zeros(n))
    xc = x - x.mean(axis=0)
    resid = (y1 - y1.mean()) - xc @ np.linalg.lstsq(xc, y1 - y1.mean(), rcond=None)[0]
    assert lin_asymptotic_variance(pop, 0.5) == pytest.approx(
        float(resid @ resid) / n, rel=1e-12
    )


def test_lin_variance_three_term_equals_projection(rng):
    pop = random_population(rng, 50, 3)
    for p_t in (0.3, 0.5, 0.62):
        three = lin_asymptotic_variance(pop, p_t)
        proj = lin_asymptotic_variance_projection(pop, p_t)
        assert abs(three - proj) < 1e-10 * max(1.0, three)


def test_enumeration_moments_null_effect_dm(rng):
    y = rng.standard_normal(5)
    pop = Population(rng.standard_normal((5, 1)), y, y.copy())
    mean, var = enumeration_moments(pop, CompleteDesign(5, 2), Method.DM)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(dm_variance(pop, 2), rel=1e-12)


@pytest.mark.parametrize(
    "method, spec",
    [(Method.LOORA_HT, SimpleDesign(np.full(8, 0.5))), (Method.LOORA_DM, CompleteDesign(8, 4))],
)
def test_enumeration_moments_factors_the_gram_once(monkeypatch, rng, method, spec):
    # One plan serves all 2^8 (or C(8, 4)) assignments of the walk.
    real = np.linalg.cholesky
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    enumeration_moments(random_population(rng, 8, 2), spec, method, AUTO2)
    assert len(calls) == 1
