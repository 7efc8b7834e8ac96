import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from reference_routes import run_study_per_sample

import loora.design
import loora.estimators
import loora.inference
import loora.simulation
from loora.design import CompleteDesign, block_size, enumerate_assignments, enumeration_blocks
from loora.estimators import LambdaRule, Method
from loora.exceptions import InvalidInput, InvalidSpec, TooLarge
from loora.inference import plan_estimate
from loora.linalg import ridge_leverages_svd
from loora.oracle import Population, observe
from loora.reporting import record_line
from loora.simulation import (
    _STATE_CHUNK,
    DESIGN_CHOICES,
    StudyConfig,
    covariate_correlated_probabilities,
    enumeration_moments,
    replicate_generators,
    replicate_seed_sequence,
    replicate_states,
    resolve_design,
    run_study,
    study_seed_sequence,
    synth_population,
)


def report_fingerprint(report):
    lines = []
    for s in report.stats:
        lines.append(
            record_line(
                {
                    "method": s.method,
                    "bias": s.bias,
                    "std": s.std,
                    "rmse": s.rmse,
                    "coverage": s.coverage,
                    "avg_ci_length": s.avg_ci_length,
                    "reps_used": s.reps_used,
                    "failed": s.failed,
                }
            )
        )
    return "\n".join(lines)


# --- covariate-correlated probabilities ---------------------------------------


def test_probabilities_clamp_parallel_and_orthogonal():
    class ParallelRng:
        def standard_normal(self, k):
            return np.array([1.0, 0.0])

    x = np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0], [0.0, 0.0]])
    p = covariate_correlated_probabilities(x, ParallelRng())
    assert p[0] == pytest.approx(0.8)  # parallel row clamps high
    assert p[1] == pytest.approx(0.5)  # orthogonal row sits at one half
    assert p[2] == pytest.approx(0.2)  # antiparallel clamps low
    assert p[3] == pytest.approx(0.5)  # zero-norm row defaults to one half


def test_probabilities_always_inside_clamp(rng):
    x = rng.standard_normal((1000, 6))
    p = covariate_correlated_probabilities(x, rng)
    assert np.all(p >= 0.2) and np.all(p <= 0.8)


# --- synthetic populations -----------------------------------------------------


def test_synth_requires_more_units_than_covariates():
    with pytest.raises(InvalidInput):
        synth_population("linear-heterogeneous", 4, 4, 0)
    with pytest.raises(InvalidInput):
        synth_population("no-such-kind", 10, 2, 0)


def test_synth_linear_no_noise_no_heterogeneity_is_exact_for_adj():
    # a noiseless, constant-effect population: y0 linear in x, y1 = y0 + 2.5
    x = np.random.default_rng(3).standard_normal((10, 2))
    y0 = x @ np.array([0.7, -1.3])
    pop = Population(x, y0 + 2.5, y0)
    assert pop.tau == pytest.approx(2.5, rel=1e-12)
    spec = CompleteDesign(10, 5)
    for assignment, _ in enumerate_assignments(spec):
        tau = plan_estimate(Method.ADJ, x, spec).point(assignment, observe(pop, assignment))
        assert tau == pytest.approx(2.5, abs=1e-9)
        break  # any assignment behaves identically; spot-check a few below
    mean, var = enumeration_moments(pop, spec, Method.ADJ)
    assert mean == pytest.approx(2.5, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-18)


def test_synth_leverage_stress_has_dominant_row():
    pop = synth_population("leverage-stress", 30, 4, 11)
    h = ridge_leverages_svd(pop.x, 0.0)
    assert float(np.max(h)) >= 0.9


def test_synth_binary_outcomes_are_binary():
    pop = synth_population("binary-outcome", 50, 5, 2)
    assert set(np.unique(pop.y1)) <= {0.0, 1.0}
    assert set(np.unique(pop.y0)) <= {0.0, 1.0}
    assert set(np.unique(pop.x)) <= {0.0, 1.0}


# --- studies -------------------------------------------------------------------


def test_run_study_deterministic_across_thread_counts():
    pop = synth_population("linear-heterogeneous", 25, 3, 5)
    # A study takes no thread count, so two runs of one config must agree;
    # test_cli compares the CLI's --threads values, criterion 9 studies under
    # 1 and 2 BLAS threads.
    cfg = StudyConfig(design="complete", methods=("DM", "LOORA_DM"), reps=300, seed=9, n_t=12)
    r1 = run_study(pop, cfg)
    r4 = run_study(pop, cfg)
    assert report_fingerprint(r1) == report_fingerprint(r4)


def test_run_study_deterministic_in_seed():
    pop = synth_population("linear-heterogeneous", 20, 2, 5)
    cfg = StudyConfig(design="simple-half", methods=("HT", "LOORA_HT"), reps=200, seed=3)
    assert report_fingerprint(run_study(pop, cfg)) == report_fingerprint(run_study(pop, cfg))


def test_run_study_constant_null_effect_bias_exactly_zero():
    n = 12
    y = np.full(n, 2.0)
    pop = Population(np.random.default_rng(0).standard_normal((n, 1)), y, y.copy())
    cfg = StudyConfig(design="complete", methods=("DM",), reps=50, seed=1, n_t=6)
    report = run_study(pop, cfg)
    stat = report.stats[0]
    assert stat.bias == 0.0
    assert stat.coverage == 1.0  # every interval contains tau = 0


def test_run_study_rmse_identity():
    pop = synth_population("linear-heterogeneous", 20, 2, 8)
    cfg = StudyConfig(design="simple-half", methods=("HT", "LOORA_HT"), reps=400, seed=2)
    for stat in run_study(pop, cfg).stats:
        assert stat.rmse**2 == pytest.approx(stat.bias**2 + stat.std**2, abs=1e-9)


def test_run_study_enumeration_mode_matches_enumeration_oracle():
    pop = synth_population("linear-heterogeneous", 8, 2, 4)
    spec = CompleteDesign(8, 4)
    cfg = StudyConfig(
        design="complete", methods=("DM", "LOORA_DM"), reps="enumerate", seed=0, n_t=4
    )
    report = run_study(pop, cfg)
    for stat in report.stats:
        mean, var = enumeration_moments(pop, spec, Method(stat.method), LambdaRule.auto(2.0))
        # one walk and one weighted sum: the same bits
        assert stat.bias == mean - report.tau
        assert stat.std == math.sqrt(var)
    loora_bias = dict((s.method, s.bias) for s in report.stats)["LOORA_DM"]
    assert abs(loora_bias) <= 1e-11
    # Also under simple designs of unequal probabilities, whose assignment
    # probabilities need not sum to exactly 1.0: both divide the same exact
    # sums by the same exact total.
    unequal = []
    for n, pop_seed, seed in itertools.product((7, 8, 9), range(3), (0, 5)):
        pop = synth_population("linear-heterogeneous", n, 2, pop_seed)
        cfg = StudyConfig(
            design="simple-covariate-correlated", methods=("HT", "LOORA_HT"),
            reps="enumerate", seed=seed,
        )
        study_rng = np.random.Generator(np.random.PCG64(study_seed_sequence(seed)))
        spec = resolve_design(pop, cfg, study_rng)
        probs = np.concatenate([p for _, p in enumeration_blocks(spec)])
        unequal.append(math.fsum(probs.tolist()) != 1.0)
        report = run_study(pop, cfg)
        for stat in report.stats:
            mean, var = enumeration_moments(pop, spec, Method(stat.method), cfg.lambda_rule)
            assert (stat.bias, stat.std) == (mean - report.tau, math.sqrt(var)), (n, pop_seed, seed)
    assert any(unequal)  # the fixtures include probabilities that do not sum to 1.0


def test_run_study_monte_carlo_self_consistency():
    # at a moderate size the adjusted estimator's bias is pure Monte Carlo
    # noise and coverage sits near the nominal level
    pop = synth_population("linear-heterogeneous", 120, 10, 31)
    cfg = StudyConfig(design="simple-half", methods=("LOORA_HT",), reps=20000, seed=13)
    stat = run_study(pop, cfg).stats[0]
    assert abs(stat.bias) <= 3.0 * stat.std / math.sqrt(stat.reps_used)
    assert 0.93 <= stat.coverage <= 0.97


def test_run_study_coverage_monotone_in_level():
    pop = synth_population("linear-heterogeneous", 24, 3, 6)
    base = dict(design="simple-half", methods=("LOORA_HT",), reps=400, seed=4)
    low = run_study(pop, StudyConfig(**base, level=0.90)).stats[0].coverage
    high = run_study(pop, StudyConfig(**base, level=0.99)).stats[0].coverage
    assert high >= low


def test_run_study_counts_degenerate_draws_as_method_failures():
    # n = 2 under simple assignment often draws an empty arm; the DM-family
    # methods fail those replicates while HT-family ones keep going
    pop = Population(np.array([[1.0], [-1.0]]), np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    cfg = StudyConfig(
        design="simple-half",
        methods=("HT", "DM"),
        reps=64,
        seed=7,
        allow_design_mismatch=True,
    )
    report = run_study(pop, cfg)
    by_method = {s.method: s for s in report.stats}
    assert by_method["HT"].failed == 0
    assert by_method["HT"].reps_used == 64
    assert by_method["DM"].failed > 0
    assert by_method["DM"].reps_used + by_method["DM"].failed == 64


def test_run_study_counts_overflowing_variances_as_method_failures():
    # squared residuals overflow at |y| ~ 1e200 but not at 1e150
    pop = synth_population("linear-heterogeneous", 20, 2, 3)
    cfg = StudyConfig(design="complete", methods=("DM", "ADJ", "LOORA_DM"), reps=5, seed=1)
    for scale, failed in ((1e150, 0), (1e200, 5)):
        scaled = Population(pop.x, scale * pop.y1, scale * pop.y0)
        for stats in run_study(scaled, cfg).stats:
            assert (stats.failed, stats.reps_used) == (failed, 5 - failed)


def test_run_study_counts_a_failed_self_check_as_that_methods_failure(monkeypatch):
    real = loora.estimators._two_column_sandwich
    calls = []

    def wrong_slope_once(*args):
        slope, var = real(*args)
        calls.append(slope)
        # All five replicates fit one block, which DM evaluates first and
        # LOORA_DM second; DM ignores the slope, so row 1 of call 2 is
        # LOORA_DM's self-check on replicate 1.
        if len(calls) == 2:
            slope = slope + np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        return slope, var

    monkeypatch.setattr(loora.estimators, "_two_column_sandwich", wrong_slope_once)
    pop = synth_population("linear-heterogeneous", 20, 2, 3)
    cfg = StudyConfig(design="complete", methods=("DM", "ADJ", "LOORA_DM"), reps=5, seed=1)
    by_method = {s.method: s for s in run_study(pop, cfg).stats}
    assert [len(slopes) for slopes in calls] == [5, 5]
    assert [(by_method[m].reps_used, by_method[m].failed) for m in cfg.methods] == [
        (5, 0),
        (5, 0),
        (4, 1),
    ]


def test_run_study_aborts_on_other_invalid_input(monkeypatch):
    def broken(*args):
        raise InvalidInput("not a replicate failure")

    monkeypatch.setattr(loora.estimators, "_two_column_sandwich", broken)
    pop = synth_population("linear-heterogeneous", 20, 2, 3)
    cfg = StudyConfig(design="complete", methods=("ADJ", "LOORA_DM"), reps=5, seed=1)
    with pytest.raises(InvalidInput, match="not a replicate failure"):
        run_study(pop, cfg)


@pytest.mark.parametrize("reps", [3, 50])
@pytest.mark.parametrize(
    "method, design",
    [
        ("LOORA_HT", "simple-half"),
        ("LOORA_DM", "complete"),
        ("ADJ", "complete"),
        ("RIDGE_REG", "complete"),
    ],
)
def test_study_factors_the_gram_once(monkeypatch, method, design, reps):
    real = np.linalg.cholesky
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    pop = synth_population("linear-heterogeneous", 40, 3, 2)
    stats = run_study(pop, StudyConfig(design=design, methods=(method,), reps=reps, seed=4))
    assert (stats.stats[0].reps_used, len(calls)) == (reps, 1)


@pytest.mark.parametrize("n, reps", [(40, 300), (12, "enumerate")])
def test_run_study_checks_each_block_once_for_all_its_methods(monkeypatch, n, reps):
    # Five plans read one checked block: the study calls the checker once
    # per block (256 + 44 sampled rows, or the 924 enumerated assignments
    # in blocks of 256), never once per method.
    real = loora.inference.check_block
    calls = []

    def counting(d, y, spec):
        calls.append(d.shape[0])
        return real(d, y, spec)

    monkeypatch.setattr(loora.inference, "check_block", counting)
    monkeypatch.setattr(loora.simulation, "check_block", counting)
    pop = synth_population("linear-heterogeneous", n, 3, 2)
    methods = ("DM", "ADJ", "INT", "RIDGE_REG", "LOORA_DM")
    report = run_study(pop, StudyConfig(design="complete", methods=methods, reps=reps, seed=4))
    total = math.comb(n, n // 2) if reps == "enumerate" else reps
    size = block_size(n)
    assert calls == [min(size, total - start) for start in range(0, total, size)]
    assert [s.reps_used + s.failed for s in report.stats] == [total] * len(methods)
    if reps == "enumerate":  # enumeration_moments takes the study's walk, and so its checker
        calls.clear()
        enumeration_moments(pop, CompleteDesign(n, n // 2), Method.LOORA_DM)
        assert calls == [min(size, total - start) for start in range(0, total, size)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("linear-heterogeneous", "leverage-stress", "binary-outcome")),
    k=st.integers(1, 3),
    extra=st.integers(1, 6),
    pop_seed=st.integers(0, 2**16),
    design=st.sampled_from(DESIGN_CHOICES),
    reps=st.one_of(st.integers(1, 8), st.just("enumerate")),
    nt_share=st.floats(0.0, 1.0),
    fixed_zero=st.booleans(),
    mismatch=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_run_study_equals_fresh_fit_per_replicate(
    kind, k, extra, pop_seed, design, reps, nt_share, fixed_zero, mismatch, seed
):
    # n = k + 1 puts every leverage at 1 when lambda = 0, so those studies
    # fail throughout; the failure counts must match too.
    n = k + extra
    pop = synth_population(kind, n, k, pop_seed)
    cfg = StudyConfig(
        design=design,
        methods=tuple(m.value for m in Method),
        reps=reps,
        seed=seed,
        n_t=min(n - 1, 1 + int(nt_share * (n - 1))),
        lambda_rule=LambdaRule.fixed(0.0) if fixed_zero else LambdaRule.auto(2.0),
        allow_design_mismatch=mismatch,
    )
    got = run_study(pop, cfg)
    want = run_study_per_sample(pop, cfg)
    assert got.tau == want.tau
    assert got.stats == want.stats


def _study_equals_fresh_fit(pop, methods, **kwargs):
    cfg = StudyConfig(methods=methods, **kwargs)
    got = run_study(pop, cfg)
    want = run_study_per_sample(pop, cfg)
    assert got.tau == want.tau
    assert got.stats == want.stats
    return got


@pytest.mark.parametrize(
    "design, mismatch", [("complete", False), ("simple-covariate-correlated", True)]
)
def test_multi_block_study_equals_fresh_fit_per_replicate(design, mismatch):
    # two full blocks and a partial one, every method
    n = 100
    pop = synth_population("linear-heterogeneous", n, 3, 21)
    reps = 2 * block_size(n) + 3
    report = _study_equals_fresh_fit(
        pop,
        tuple(m.value for m in Method),
        design=design,
        reps=reps,
        seed=5,
        allow_design_mismatch=mismatch,
    )
    assert max(s.reps_used for s in report.stats) == reps


@pytest.mark.parametrize("method, design", [("LOORA_HT", "simple-half"), ("LOORA_DM", "complete")])
def test_multi_row_blocks_at_large_n_equal_fresh_fit_per_replicate(method, design):
    # two full blocks of 13 rows of 5000 units and a partial one
    n = 5000
    assert block_size(n) >= 2
    pop = synth_population("linear-heterogeneous", n, 5, 2)
    reps = 2 * block_size(n) + 1
    report = _study_equals_fresh_fit(pop, (method,), design=design, reps=reps, seed=4)
    assert [s.reps_used for s in report.stats] == [reps]


@pytest.mark.parametrize(
    "n, k, design, n_t, methods",
    [
        # C(12, 6) = 924 assignments over 3 blocks of 256
        (12, 2, "complete", 6, tuple(m.value for m in Method)),
        # C(70, 2) = 2415 assignments whose masks would not fit 64 bits
        (70, 1, "complete", 2, ("DM", "ADJ", "LOORA_DM")),
        # 2^12 = 4096 assignments, products of 12 probabilities each
        (12, 2, "simple-covariate-correlated", None, ("HT", "LOORA_HT", "LOORA_DM")),
    ],
)
def test_multi_block_enumeration_equals_fresh_fit_per_assignment(n, k, design, n_t, methods):
    pop = synth_population("linear-heterogeneous", n, k, 8)
    report = _study_equals_fresh_fit(
        pop, methods, design=design, reps="enumerate", n_t=n_t, allow_design_mismatch=True
    )
    count = math.comb(n, n_t) if n_t else 2**n
    assert count > block_size(n)
    assert [s.reps_used + s.failed for s in report.stats] == [count] * len(methods)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**199 + 12345])
def test_replicate_streams_equal_numpy_seeding(seed):
    def numpy_state(rep):
        return np.random.PCG64(replicate_seed_sequence(seed, rep)).state

    # through the generator, across two chunk edges
    count = 2 * _STATE_CHUNK + 5
    for rep, rng in enumerate(replicate_generators(seed, count)):
        assert rng.bit_generator.state == numpy_state(rep)
    assert rep == count - 1
    # computed states on a chunk's edges and below 2**32, and the
    # SeedSequence fallback from 2**32 on (two words of spawn key)
    for reps in (
        range(_STATE_CHUNK - 2, _STATE_CHUNK + 2),
        range(2**32 - 3, 2**32),
        range(2**32 - 1, 2**32 + 2),
        range(2**40, 2**40 + 2),
    ):
        want = [numpy_state(rep)["state"] for rep in reps]
        assert replicate_states(seed, reps) == [(s["state"], s["inc"]) for s in want]


def test_a_reused_generator_draws_as_a_fresh_one():
    # a draw that leaves half of a 64-bit output buffered must not leak into the next replicate
    rngs = replicate_generators(9, 2)
    next(rngs).integers(0, 2**32, 3, dtype=np.uint32)
    got = next(rngs).integers(0, 2**32, 3, dtype=np.uint32)
    fresh = np.random.Generator(np.random.PCG64(replicate_seed_sequence(9, 1)))
    assert_array_equal(got, fresh.integers(0, 2**32, 3, dtype=np.uint32))


@pytest.mark.parametrize(
    "n, reps, methods",
    [
        (8192, 3, tuple(m.value for m in Method)),  # B = 8: one partial block of 3 rows
        (40, 2 * _STATE_CHUNK + 5, ("HT", "DM", "INT")),  # chunk and block edges apart
        (16385, 3, tuple(m.value for m in Method)),  # B = 3: one full block
        (32769, 3, tuple(m.value for m in Method)),  # B = 1: one block per replicate
    ],
)
def test_studies_across_blocks_and_state_chunks_equal_fresh_fit(n, reps, methods):
    pop = synth_population("linear-heterogeneous", n, 2, 13)
    report = _study_equals_fresh_fit(
        pop, methods, design="simple-half", reps=reps, seed=3, allow_design_mismatch=True
    )
    assert [s.reps_used for s in report.stats] == [reps] * len(methods)


def test_an_oversized_enumeration_fails_before_any_plan(monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("a method was planned")

    monkeypatch.setattr(loora.simulation, "plan_estimate", no_plan)
    pop = synth_population("linear-heterogeneous", 30, 2, 1)
    cfg = StudyConfig(design="simple-half", methods=("HT", "LOORA_HT"), reps="enumerate")
    with pytest.raises(TooLarge):
        run_study(pop, cfg)


def test_block_size_rule():
    for n in range(1, 70_000):
        size = block_size(n)
        assert 1 <= size <= 256
        assert size * n <= 65536 or size == 1
        assert size == 256 or (size + 1) * n > 65536
    sizes = tuple(block_size(n) for n in (120, 5000, 8192, 8193, 16385, 32769))
    assert sizes == (256, 13, 8, 7, 3, 1)


@pytest.mark.parametrize(
    "n, k, cfg",
    [
        # two full blocks of 13 rows and a partial one at the default size
        (5000, 5, StudyConfig(design="simple-half", methods=("LOORA_HT",), reps=27, seed=4)),
        (5000, 5, StudyConfig(design="complete", methods=("LOORA_DM",), reps=27, seed=4)),
        # every method, a full block of 256 and a partial one
        (120, 4, StudyConfig(
            design="simple-covariate-correlated",
            methods=tuple(m.value for m in Method),
            reps=300,
            seed=6,
            allow_design_mismatch=True,
        )),
        # C(11, 5) = 462 assignments
        (11, 3, StudyConfig(
            design="complete",
            methods=("DM", "ADJ", "INT", "RIDGE_REG", "LOORA_DM"),
            reps="enumerate",
            n_t=5,
        )),
    ],
)
def test_records_do_not_depend_on_the_block_size(monkeypatch, n, k, cfg):
    pop = synth_population("linear-heterogeneous", n, k, 2)
    count = cfg.reps if cfg.reps != "enumerate" else math.comb(n, cfg.n_t)
    assert count > block_size(n) and count % block_size(n)
    records = []
    for size in (1, 7, block_size):
        rule = size if callable(size) else lambda n, size=size: size
        monkeypatch.setattr(loora.design, "block_size", rule)
        monkeypatch.setattr(loora.simulation, "block_size", rule)
        report = run_study(pop, cfg)
        assert [s.reps_used + s.failed for s in report.stats] == [count] * len(cfg.methods)
        records.append(report_fingerprint(report))
    assert records[0] == records[1] == records[2]


def test_study_config_validation():
    with pytest.raises(InvalidSpec):
        StudyConfig(design="nope", methods=("HT",))
    with pytest.raises(InvalidSpec):
        StudyConfig(design="simple-half", methods=())
    with pytest.raises(InvalidSpec):
        StudyConfig(design="simple-half", methods=("HT",), reps=0)
    with pytest.raises(InvalidSpec):
        StudyConfig(design="simple-half", methods=("HT",), reps="sometimes")
    with pytest.raises(InvalidSpec):
        StudyConfig(design="simple-half", methods=("HT",), level=1.2)
    # reps = 2.5 used to run 2 replicates and report 2.5, reps = True one, and
    # seed = 1.5 to raise numpy's TypeError; a bool is not a count, and
    # "enumerate" is the one reps that is not an integer.
    refused = {"reps": (2.5, 3.0, True, None, "3"), "seed": (1.5, 2.0, True, None, "1", -1)}
    for key, values in refused.items():
        for value in values:
            with pytest.raises(InvalidSpec, match=f"^{key} must be"):
                StudyConfig(design="simple-half", methods=("HT",), **{key: value})


def test_study_config_takes_numpy_integers_as_ints():
    cfg = StudyConfig(design="simple-half", methods=("HT",), reps=np.int64(3), seed=np.uint8(2))
    assert (type(cfg.reps), type(cfg.seed)) == (int, int)
    pop = synth_population("linear-heterogeneous", 10, 2, 1)
    plain = StudyConfig(design="simple-half", methods=("HT",), reps=3, seed=2)
    assert report_fingerprint(run_study(pop, cfg)) == report_fingerprint(run_study(pop, plain))


def test_covariate_correlated_design_draws_probabilities_once():
    pop = synth_population("linear-heterogeneous", 16, 3, 9)
    cfg = StudyConfig(
        design="simple-covariate-correlated", methods=("HT",), reps=50, seed=12
    )
    r1 = run_study(pop, cfg)
    r2 = run_study(pop, cfg)
    assert report_fingerprint(r1) == report_fingerprint(r2)
