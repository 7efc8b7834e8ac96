import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import loora.estimators
from conftest import complete_sample, drawn_sample, random_population, simple_sample
from loora.design import CompleteDesign, SimpleDesign, draw_with, enumerate_assignments
from loora.estimators import LambdaRule, LooraDmPlan, Method, _two_column_sandwich
from loora.exceptions import (
    InvalidInput,
    LooraError,
    RankDeficient,
    SelfCheckFailed,
    SpecMismatch,
)
from loora.inference import (
    _interval,
    _interval_quantile,
    check_block,
    normal_quantile,
    plan_estimate,
)
from loora.oracle import Population, observe
from loora.simulation import StudyConfig, run_study, synth_population
from reference_routes import (
    benchmark_full_design,
    hw_variance_ht_sandwich,
    two_column_sandwich_inverse,
)

AUTO2 = LambdaRule.auto(2.0)


def report_of(method, sample, rule=AUTO2, level=0.95, mismatch=False):
    """The plan of sample's design evaluated on its one assignment."""
    x, y, d, spec = sample
    return plan_estimate(method, x, spec, rule, level, mismatch).evaluate(d, y)


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
    assert _interval(1.25, 0.0, _interval_quantile(0.95)) == (1.25, 1.25)


def test_confidence_interval_hand_quantiles():
    low, high = _interval(0.0, 1.0, _interval_quantile(0.95))
    assert high == pytest.approx(1.959964, abs=1e-5)
    assert low == pytest.approx(-1.959964, abs=1e-5)
    low, high = _interval(0.0, 1.0, _interval_quantile(0.6826895))
    assert high == pytest.approx(1.0, abs=1e-4)


def test_confidence_interval_width_scales_with_sqrt_variance():
    z90 = _interval_quantile(0.9)
    _, h1 = _interval(0.0, 1.0, z90)
    _, h4 = _interval(0.0, 4.0, z90)
    assert h4 == pytest.approx(2.0 * h1, rel=1e-12)
    with pytest.raises(InvalidInput):
        _interval(0.0, -1.0, z90)
    with pytest.raises(InvalidInput):
        plan_estimate(Method.DM, np.zeros((4, 1)), CompleteDesign(4, 2), level=1.0)


# --- HT-side HC0 --------------------------------------------------------------


def test_hw_ht_zero_residuals_for_exact_null_linear_model(rng):
    n, k = 10, 2
    x = rng.standard_normal((n, k))
    slope = rng.standard_normal(k)
    y_both = x @ slope
    pop = Population(x, y_both, y_both.copy())
    s = drawn_sample(pop, SimpleDesign(np.full(n, 0.5)), rng)
    report = report_of(Method.LOORA_HT, s, LambdaRule.fixed(0.0))
    assert report.var_hat == pytest.approx(0.0, abs=1e-20)


def test_hw_ht_hand_arithmetic():
    # with a null covariate and p = 1/2, residuals are (1, 1) by construction
    s = simple_sample(np.zeros((2, 1)), [1.0, 0.0], [1, 0], [0.5, 0.5])
    report = report_of(Method.LOORA_HT, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.5, abs=1e-14)


def test_hw_ht_sandwich_equals_simplified(rng):
    for _ in range(10):
        n = int(rng.integers(5, 20))
        pop = random_population(rng, n, 2)
        s = drawn_sample(pop, SimpleDesign(rng.uniform(0.3, 0.7, n)), rng)
        simple = report_of(Method.LOORA_HT, s).var_hat
        sandwich = hw_variance_ht_sandwich(*s, AUTO2)
        assert abs(simple - sandwich) <= 1e-12 * max(1.0, simple)


# --- DM-side HC0 --------------------------------------------------------------


def test_hw_dm_zero_when_u_affine_in_d(rng):
    d = np.array([1, 1, 0, 0, 1, 0], dtype=np.float64)
    y = 2.0 + 3.0 * d
    s = complete_sample(np.zeros((6, 1)), y, d)
    report = report_of(Method.LOORA_DM, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.0, abs=1e-20)


def test_hw_dm_hand_two_by_two_sandwich():
    # u = (2, 0, 1, 1), d = (1, 1, 0, 0): intercept 1, slope 0, residuals
    # (1, -1, 0, 0); explicit 2x2 sandwich algebra gives 0.5
    s = complete_sample(np.zeros((4, 1)), [2.0, 0.0, 1.0, 1.0], [1, 1, 0, 0])
    report = report_of(Method.LOORA_DM, s, LambdaRule.fixed(1.0))
    assert report.var_hat == pytest.approx(0.5, abs=1e-14)


def test_hw_dm_auxiliary_regression_reproduces_estimate(rng):
    for _ in range(50):
        n = int(rng.integers(6, 25))
        k = int(rng.integers(1, 4))
        pop = random_population(rng, n, k)
        n_t = int(rng.integers(2, n - 1))
        spec = CompleteDesign(n, n_t)
        x, y, d, _ = drawn_sample(pop, spec, rng)
        block = check_block(d[None], y[None], spec)
        _, u = LooraDmPlan.build(x, AUTO2).adjusted(block)
        (slope,), _ = _two_column_sandwich(u, block)
        tau = plan_estimate(Method.LOORA_DM, x, spec, AUTO2).point(d, y)
        assert abs(slope - tau) <= 1e-10 * max(1.0, abs(slope))


def test_hw_dm_shift_invariance_without_informative_covariates(rng):
    y = rng.standard_normal(8)
    d = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.float64)
    fixed = LambdaRule.fixed(1.0)
    base = report_of(Method.LOORA_DM, complete_sample(np.zeros((8, 1)), y, d), fixed)
    shifted = report_of(Method.LOORA_DM, complete_sample(np.zeros((8, 1)), y + 7.5, d), fixed)
    assert shifted.var_hat == pytest.approx(base.var_hat, rel=1e-12)
    # plain DM inference is shift invariant with any covariates present
    x = rng.standard_normal((8, 2))
    r1 = report_of(Method.DM, complete_sample(x, y, d))
    r2 = report_of(Method.DM, complete_sample(x, y + 7.5, d))
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
            d = draw_with(spec, rng)
            if d.sum() in (0, n):
                continue
            y = observe(pop, d)
            _, adjusted = LooraDmPlan.build(pop.x, AUTO2).adjusted(
                check_block(d[None], y[None], spec)
            )
            for method, u in ((Method.DM, y), (Method.LOORA_DM, adjusted[0])):
                report = report_of(method, (pop.x, y, d, spec), AUTO2, 0.95, mismatch)
                t, c = u[d == 1.0], u[d == 0.0]
                hc0 = sum(np.sum((g - g.mean()) ** 2) / g.size**2 for g in (t, c))
                assert report.tau_hat == pytest.approx(t.mean() - c.mean(), rel=1e-9, abs=1e-12)
                assert report.var_hat == pytest.approx(hc0, rel=1e-9, abs=1e-15)


# --- full reports -------------------------------------------------------------


@pytest.mark.parametrize("method", list(Method))
def test_plan_rejects_assignments_that_do_not_fit_it(rng, method):
    # The plan is the one checker of a sample: plan_estimate checks X and
    # the design, and every evaluation checks the assignment and outcomes.
    n = 10
    pop = random_population(rng, n, 2)
    simple = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(np.full(n, 0.5)) if simple else CompleteDesign(n, 5)
    plan = plan_estimate(method, pop.x, spec)
    fits = np.array([1.0] * 5 + [0.0] * 5)
    y = pop.y1 * fits + pop.y0 * (1.0 - fits)
    plan.evaluate(fits, y)
    with pytest.raises(InvalidInput, match="assignment length"):
        plan.evaluate(np.array([1.0] * 5 + [0.0] * 6), np.append(y, 0.0))
    with pytest.raises(InvalidInput, match="outcome has shape"):
        plan.evaluate(fits, y[:-1])
    with pytest.raises(InvalidInput, match="non-finite"):
        plan.evaluate(fits, np.where(fits == 1.0, np.nan, y))
    if not simple:
        with pytest.raises(InvalidInput, match="treats 6 of 10 units but the design fixes 5"):
            plan.evaluate(np.array([1.0] * 6 + [0.0] * 4), y)
    # half-treated units sum to the fixed count, so only the 0/1 check refuses them
    with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
        plan.evaluate(np.full(n, 0.5), y)
    with pytest.raises(InvalidInput, match="design size"):
        plan_estimate(method, pop.x[:-1], spec)
    x_inf = pop.x.copy()
    x_inf[3, 1] = np.inf
    short = fits[:-1]
    six = np.array([1.0] * 6 + [0.0] * 4)
    bad_samples = [
        ((x_inf, y, fits, spec), "design matrix contains non-finite"),
        ((pop.x, y[:-1], fits, spec), "outcome has shape"),
        ((pop.x, np.where(fits == 1.0, np.nan, y), fits, spec), "outcome contains non-finite"),
        ((pop.x, y, np.append(fits, 0.0), spec), "assignment length"),
        ((pop.x[:-1], y[:-1], short, spec), "design size"),
    ]
    for sample, message in bad_samples:
        with pytest.raises(InvalidInput, match=message):
            report_of(method, sample)
    # HT and LOORA_HT refuse a complete design before its treated count
    with pytest.raises(SpecMismatch if simple else InvalidInput):
        report_of(method, (pop.x, y, six, CompleteDesign(n, 5)))


_FIXED_COUNT_METHODS = [Method.DM, Method.LOORA_DM, Method.ADJ, Method.INT, Method.RIDGE_REG]


@pytest.mark.parametrize("method", _FIXED_COUNT_METHODS)
def test_block_routes_refuse_a_row_off_the_fixed_treated_count(rng, method):
    # A complete design fixes the treated count for every row: one row that
    # treats a unit too many fails the whole block, naming that row's count.
    n = 12
    pop = random_population(rng, n, 2)
    spec = CompleteDesign(n, 5)
    plan = plan_estimate(method, pop.x, spec)
    d = np.stack([draw_with(spec, rng) for _ in range(4)])
    d[2, np.flatnonzero(d[2] == 0.0)[0]] = 1.0
    y = observe(pop, d)
    fits = np.delete(d, 2, axis=0), np.delete(y, 2, axis=0)
    with pytest.raises(InvalidInput, match="treats 6 of 12 units but the design fixes 5 of 12"):
        check_block(d, y, spec)
    for variance in (True, False):
        assert plan.estimates(check_block(*fits, spec), variance).ok.all()


@pytest.mark.parametrize("method", _FIXED_COUNT_METHODS)
def test_block_routes_fail_only_the_empty_arm_rows_under_the_opt_in(rng, method):
    # Under the mismatch opt-in each row's realized count stands in for the
    # fixed one; an all-treated or all-control row fails alone.
    n = 12
    pop = random_population(rng, n, 2)
    plan = plan_estimate(method, pop.x, SimpleDesign(np.full(n, 0.5)), allow_design_mismatch=True)
    d = np.stack([draw_with(CompleteDesign(n, 6), rng) for _ in range(5)])
    d[1], d[3] = 1.0, 0.0
    y = observe(pop, d)
    message = f"{method.value} needs at least one treated and one control unit"
    for variance in (True, False):
        block = plan.estimates(check_block(d, y, plan.spec), variance)
        assert block.ok.tolist() == [True, False, True, False, True]
        assert [(i, type(e), str(e)) for i, e in sorted(block.failures.items())] == [
            (1, SpecMismatch, message),
            (3, SpecMismatch, message),
        ]


@pytest.mark.parametrize("opt_in", [False, True])
@pytest.mark.parametrize("design", ["simple", "complete"])
@pytest.mark.parametrize("method", list(Method))
def test_plan_estimate_admits_each_method_under_its_design_alone(rng, method, design, opt_in):
    # The admission table, in full: HT and LOORA_HT under simple assignment
    # alone; DM, LOORA_DM, ADJ, INT and RIDGE_REG under complete assignment,
    # or under simple assignment with the opt-in. Of a simple block holding
    # an all-treated and an all-control row, the five fail exactly those two
    # rows and HT and LOORA_HT answer them; every other row keeps its bits alone.
    n = 12
    pop = random_population(rng, n, 2)
    simple_family = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(np.full(n, 0.5)) if design == "simple" else CompleteDesign(n, 6)
    if design != ("simple" if simple_family else "complete") and (simple_family or not opt_in):
        kind = "simple" if simple_family else "complete"
        with pytest.raises(SpecMismatch, match=f"^{method.value} is defined under {kind} random"):
            plan_estimate(method, pop.x, spec, AUTO2, 0.95, opt_in)
        return
    plan = plan_estimate(method, pop.x, spec, AUTO2, 0.95, opt_in)
    d = np.stack([draw_with(CompleteDesign(n, 6), rng) for _ in range(6)])
    if design == "simple":
        d[1], d[4] = 1.0, 0.0
    y = observe(pop, d)
    block = plan.estimates(check_block(d, y, spec))
    empty = [1, 4] if design == "simple" and not simple_family else []
    message = f"{method.value} needs at least one treated and one control unit"
    assert [(i, type(e), str(e)) for i, e in sorted(block.failures.items())] == [
        (i, SpecMismatch, message) for i in empty
    ]
    for i in sorted(set(range(6)) - set(empty)):
        alone = plan.estimates(check_block(d[i : i + 1], y[i : i + 1], spec))
        assert alone.ok[0]
        assert _bits(block.tau_hat[i], block.var_hat[i], block.ci_low[i], block.ci_high[i]) == _bits(
            alone.tau_hat[0], alone.var_hat[0], alone.ci_low[0], alone.ci_high[0]
        )


def test_public_names_resolve_and_the_per_sample_forks_are_gone():
    import loora

    for name in loora.__all__:
        assert hasattr(loora, name), name
    assert "plan_estimate" in loora.__all__
    removed = ("estimate_loora_ht", "estimate_loora_dm", "estimate_loora_dm_pairwise")
    for name in removed:
        assert name not in loora.__all__
        assert not hasattr(loora, name) and not hasattr(loora.estimators, name)
    # one way in: plan_estimate(...).evaluate(d, y); no per-sample bundle or pass-through
    gone = {
        loora: ("ObservedSample", "estimate", "estimate_with_ci", "confidence_interval"),
        loora.estimators: ("ObservedSample", "ArmCounts", "_both_arms"),
        loora.inference: ("estimate", "estimate_with_ci", "confidence_interval"),
        loora.oracle: ("observed_sample",),
    }
    for module, names in gone.items():
        for name in names:
            assert name not in loora.__all__
            assert not hasattr(module, name), (module.__name__, name)


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    pop = synth_population("linear-heterogeneous", 10, 2, 3)
    exec(code, {"x": pop.x, "y1": pop.y1, "y0": pop.y0})
    assert capsys.readouterr().out.strip()  # the example prints its estimate and interval


@pytest.mark.parametrize("method", list(Method))
def test_plan_estimate_checks_each_covariate_array_for_finite_values_once(rng, monkeypatch, method):
    # a finite Gram or row norm proves X finite, so no plan checks again what
    # plan_estimate has checked: no two (n, k) arrays np.isfinite sees share memory
    n, k = 40, 3
    x = rng.standard_normal((n, k))
    simple = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(np.full(n, 0.5)) if simple else CompleteDesign(n, 20)
    checked, isfinite = [], np.isfinite

    def spy(a, *args, **kwargs):
        if np.shape(a) == (n, k):
            checked.append(a)
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    plan_estimate(method, x, spec, AUTO2)
    assert checked and checked[0] is x
    assert not any(np.shares_memory(a, b) for i, a in enumerate(checked) for b in checked[:i])


@pytest.mark.parametrize("method", list(Method))
def test_plan_point_is_evaluate_tau_hat_bit_for_bit(rng, method):
    n = 12
    pop = random_population(rng, n, 2)
    simple = method in (Method.HT, Method.LOORA_HT)
    spec = SimpleDesign(rng.uniform(0.3, 0.7, n)) if simple else CompleteDesign(n, 5)
    plan = plan_estimate(method, pop.x, spec, AUTO2)
    for _ in range(5):
        d = draw_with(spec, rng)
        y = pop.y1 * d + pop.y0 * (1.0 - d)
        assert plan.point(d, y) == plan.evaluate(d, y).tau_hat


def _bits(*values):
    return [float(v).hex() for v in values]


def _held_arrays(value):
    """Every ndarray a plan holds: its own fields, their tuples and its ridge factor's."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _held_arrays(item)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _held_arrays(getattr(value, f.name))]
    return []


def test_block_chains_write_to_no_block_or_plan_array(rng):
    # The plans run their elementwise chains in place, in arrays of their
    # own: after every method's estimates, with and without variances, on a
    # block whose row 1 leaves the control arm empty, every array of the
    # block and of each plan keeps its bytes, and each is read-only, while
    # the caller's d and y keep their flags.
    n = 40
    pop = random_population(rng, n, 3)
    spec = SimpleDesign(np.full(n, 0.5))
    plans = [plan_estimate(method, pop.x, spec, AUTO2, 0.9, True) for method in Method]
    d = (rng.random((5, n)) < 0.5).astype(np.float64)
    d[1] = 1.0
    y = observe(pop, d)
    block = check_block(d, y, spec)
    held = [block.d, block.y, block.mask, block.n_t, block.n_c, block.control]
    held += [a for plan in plans for a in _held_arrays(plan.core)]
    assert len(held) > 6 + len(plans) and not any(a.flags.writeable for a in held)
    before = [a.tobytes() for a in held]
    for plan in plans:
        for variance in (True, False):
            estimates = plan.estimates(block, variance)
            assert (1 in estimates.failures) is plan.both_arms
    assert [a.tobytes() for a in held] == before
    assert d.flags.writeable and y.flags.writeable and pop.x.flags.writeable


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
    checked = check_block(d, y, plan.spec)
    block, points = plan.estimates(checked), plan.estimates(checked, variance=False)
    assert 4 in block.failures
    if method not in (Method.HT, Method.LOORA_HT):
        assert {0, 1} <= set(block.failures)
    if method is Method.INT:
        assert {2, 3} <= set(block.failures)
    for i in range(n):
        try:
            report = plan.evaluate(d[i], y[i])
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
            assert _bits(plan.point(d[i], y[i])) == _bits(points.tau_hat[i])
        else:
            with pytest.raises(type(points.failures[i]), match=re.escape(str(points.failures[i]))):
                plan.point(d[i], y[i])
    assert _bits(*points.tau_hat[block.ok]) == _bits(*block.tau_hat[block.ok])
    # A non-0/1 entry or mis-shaped outcomes are refused by the block checker
    # and by both single-assignment routes
    half = d[5].copy()
    half[3] = 0.5
    with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
        check_block(np.vstack([d, half]), np.vstack([y, y[5]]), plan.spec)
    with pytest.raises(InvalidInput, match="outcome has shape"):
        check_block(d, y[:, :-1], plan.spec)
    for route in (plan.evaluate, plan.point):
        with pytest.raises(InvalidInput, match="assignment entries must be 0 or 1"):
            route(half, y[5])
        with pytest.raises(InvalidInput, match="outcome has shape"):
            route(d[5], y[5, :-1])


def test_point_estimate_does_not_run_the_variance_self_check(rng, monkeypatch):
    def failing(*args):
        raise SelfCheckFailed("auxiliary regression failed")

    monkeypatch.setattr(loora.estimators, "_two_column_sandwich", failing)
    pop = random_population(rng, 10, 2)
    spec = CompleteDesign(10, 5)
    x, y, d, _ = drawn_sample(pop, spec, rng)
    (tau,), _ = LooraDmPlan.build(x, AUTO2).adjusted(check_block(d[None], y[None], spec))
    plan = plan_estimate(Method.LOORA_DM, x, spec, AUTO2)
    assert plan.point(d, y) == tau
    with pytest.raises(SelfCheckFailed):
        plan.evaluate(d, y)


def test_evaluate_brackets_point_estimate(rng):
    n = 14
    pop = random_population(rng, n, 2)
    s_simple = drawn_sample(pop, SimpleDesign(rng.uniform(0.35, 0.65, n)), rng)
    s_complete = drawn_sample(pop, CompleteDesign(n, 7), rng)
    for method, sample in [
        (Method.HT, s_simple),
        (Method.LOORA_HT, s_simple),
        (Method.DM, s_complete),
        (Method.ADJ, s_complete),
        (Method.INT, s_complete),
        (Method.RIDGE_REG, s_complete),
        (Method.LOORA_DM, s_complete),
    ]:
        report = report_of(method, sample, AUTO2, 0.9)
        assert report.ci_low <= report.tau_hat <= report.ci_high
        assert report.var_hat >= 0.0
        half = (report.ci_high - report.ci_low) / 2.0
        assert half == pytest.approx(
            normal_quantile(0.95) * math.sqrt(report.var_hat), rel=1e-12
        )


def test_evaluate_lambda_metadata(rng):
    n = 10
    pop = random_population(rng, n, 2)
    x, y, d, spec = drawn_sample(pop, SimpleDesign(np.full(n, 0.5)), rng)
    plan = plan_estimate(Method.LOORA_HT, x, spec, LambdaRule.fixed(0.75))
    report = plan.evaluate(d, y)
    assert report.lambda_used == 0.75
    assert report.method is Method.LOORA_HT
    assert report.tau_hat == pytest.approx(plan.point(d, y))


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
    d = draw_with(spec, rng)
    y = observe(pop, d)
    rule = AUTO2 if auto else LambdaRule.fixed(0.7)
    report = plan_estimate(method, pop.x, spec, rule).evaluate(d, y)
    if method in ("DM", "LOORA_DM"):
        u, block = y, check_block(d[None], y[None], spec)
        if method == "LOORA_DM":
            u = LooraDmPlan.build(pop.x, rule).adjusted(block)[1][0]
        _, tau, var = two_column_sandwich_inverse(u, d)
        (slope,), (closed,) = _two_column_sandwich(u[None], block)
        assert closed == report.var_hat
        assert abs(slope - tau) <= 1e-12 * max(1.0, abs(tau))
    else:
        tau, var = benchmark_full_design(method, pop.x, d, y, rule)
    assert abs(report.tau_hat - tau) <= 1e-12 * max(1.0, abs(tau))
    assert abs(report.var_hat - var) <= 1e-10 * var


@pytest.mark.parametrize("case, method", _RANK_CASES)
def test_rank_deficient_designs_raise_alike_in_both_routes(case, method):
    x = _rank_deficient_covariates(case)
    spec = CompleteDesign(_RANK_N, _RANK_NT)
    y = np.random.default_rng(5).standard_normal(_RANK_N)
    for d in (_RANK_D, 1.0 - _RANK_D):
        with pytest.raises(RankDeficient):
            benchmark_full_design(method, x, d, y)
        if case == "duplicate":  # singular for every assignment: the plan refuses
            with pytest.raises(RankDeficient):
                plan_estimate(method, x, spec)
            continue
        plan = plan_estimate(method, x, spec)
        with pytest.raises(RankDeficient):
            plan.evaluate(d, y)
        with pytest.raises(RankDeficient):
            plan.point(d, y)


@pytest.mark.parametrize("case, method", _RANK_CASES)
def test_run_study_counts_rank_deficient_replicates_as_failures(case, method):
    x = _rank_deficient_covariates(case)
    outcomes = np.random.default_rng(6).standard_normal((2, _RANK_N))
    pop = Population(x, outcomes[0] + 1.0, outcomes[1])
    spec = CompleteDesign(_RANK_N, _RANK_NT)
    singular = 0
    for d, _ in enumerate_assignments(spec):
        try:
            benchmark_full_design(method, x, d, observe(pop, d))
        except RankDeficient:
            singular += 1
    assert singular == (252 if case == "duplicate" else 2)
    cfg = StudyConfig(design="complete", methods=(method,), reps="enumerate", n_t=_RANK_NT)
    stats = run_study(pop, cfg).stats[0]
    assert (stats.failed, stats.reps_used) == (singular, 252 - singular)


# --- power-of-two scale families ---------------------------------------------
#
# Scaling by a power of two is exact in binary floating point, so every method
# commutes with it bit for bit: y * 2**b scales each point estimate by 2**b and
# each HC0 variance by 4**b; X * 2**a leaves both as they are and scales the
# penalty by 4**a (the auto rule's c * max ||x_i||^2, or a fixed penalty scaled
# alike). Failures land on the same rows with the same class.


@st.composite
def _scale_cases(draw):
    """(method, x, spec, d block, y block, rule) over all 7 methods, each under its design.

    Some covariates repeat a column or hold one row of high leverage, so that
    plans and rows fail too.
    """
    method = draw(st.sampled_from(list(Method)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    n = k + 3 + draw(st.integers(0, 12))
    pop = random_population(rng, n, k, standardize=False)
    shape = draw(st.sampled_from(("plain", "repeated column", "high leverage")))
    if shape == "repeated column":
        pop.x[:, -1] = pop.x[:, 0]
    elif shape == "high leverage":
        pop.x[0] *= 1e4
    if method in (Method.HT, Method.LOORA_HT):
        spec = SimpleDesign(rng.uniform(0.2, 0.8, n))
    else:
        spec = CompleteDesign(n, draw(st.integers(2, n - 2)))
    d = np.stack([draw_with(spec, rng) for _ in range(8)])
    if draw(st.booleans()):
        rule = LambdaRule.fixed(draw(st.sampled_from((0.0, 0.25, 0.7, 3.0))))
    else:
        rule = LambdaRule.auto(draw(st.sampled_from((0.5, 2.0, 5.0))))
    return method, pop.x, spec, d, observe(pop, d), rule


def _scale_run(method, x, spec, d, y, rule):
    """(lambda_used, tau_hat, var_hat, failed rows by class) of one plan on one block,
    or the class of the failure that refuses the plan."""
    try:
        plan = plan_estimate(method, x, spec, rule)
    except LooraError as exc:
        return type(exc)
    est = plan.estimates(check_block(d, y, spec))
    failed = {i: type(exc) for i, exc in est.failures.items()}
    return plan.core.lam, est.tau_hat, est.var_hat, failed


@settings(max_examples=60, deadline=None)
@given(case=_scale_cases(), b=st.integers(-40, 39))
def test_outcomes_times_a_power_of_two_scale_each_estimate_bit_for_bit(case, b):
    method, x, spec, d, y, rule = case
    base = _scale_run(method, x, spec, d, y, rule)
    grown = _scale_run(method, x, spec, d, np.ldexp(y, b), rule)
    if isinstance(base, type):
        assert grown is base
        return
    lam, tau, var, failed = base
    assert grown[0] == lam
    assert _bits(*grown[1]) == _bits(*np.ldexp(tau, b))
    assert _bits(*grown[2]) == _bits(*np.ldexp(var, 2 * b))
    assert grown[3] == failed


@settings(max_examples=60, deadline=None)
@given(case=_scale_cases(), a=st.integers(-40, 39))
def test_covariates_times_a_power_of_two_keep_each_estimate_bit_for_bit(case, a):
    method, x, spec, d, y, rule = case
    scaled_rule = rule if rule.mode == "auto" else LambdaRule.fixed(math.ldexp(rule.value, 2 * a))
    base = _scale_run(method, x, spec, d, y, rule)
    moved = _scale_run(method, np.ldexp(x, a), spec, d, y, scaled_rule)
    if isinstance(base, type):
        assert moved is base
        return
    lam, tau, var, failed = base
    assert moved[0] == math.ldexp(lam, 2 * a)
    assert _bits(*moved[1]) == _bits(*tau)
    assert _bits(*moved[2]) == _bits(*var)
    assert moved[3] == failed
