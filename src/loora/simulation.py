"""Monte Carlo engine: repeated synthetic experiments over a fixed population.

A study draws assignments from a chosen design, masks the potential outcomes
accordingly, runs every requested estimator with its confidence interval, and
aggregates bias, standard deviation, RMSE, coverage, and interval length.
Replicates use counter-derived substreams of one root seed, so results do
not depend on execution order. An enumeration mode replaces sampling with
the exact assignment distribution. Each method's study-fixed part (its ridge
factor, for example) is planned once per study; replicates, sampled or
enumerated, are evaluated against the plan a block at a time.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .design import (
    CompleteDesign,
    DesignSpec,
    SimpleDesign,
    block_size,
    draw_rows,
    enumeration_blocks,
    enumeration_size,
)
from .estimators import LambdaRule, Method, fsum_rows
from .exceptions import (
    InvalidInput,
    InvalidSpec,
    LeverageSingular,
    NonFinite,
    RankDeficient,
    SelfCheckFailed,
    SpecMismatch,
    TooLarge,
)
from .inference import plan_estimate
from .oracle import Population, observe_rows

DESIGN_CHOICES = ("simple-half", "simple-covariate-correlated", "complete")


def study_seed_sequence(seed: int) -> np.random.SeedSequence:
    """Stream for study-level draws (for example the probability direction)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(0,))


def replicate_seed_sequence(seed: int, rep: int) -> np.random.SeedSequence:
    """Independent substream for one replicate, stable under parallelism."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(1, rep))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# Replicate states are computed this many at a time, whatever the block size.
_STATE_CHUNK = 256


def _words32(value: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first ([0] for 0)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of 32-bit words (a Python int or a uint32 array).

    Returns the hashed value and the next hash constant; generate_state
    hashes the same way with its own constants (_INIT_B, _MULT_B).
    """
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (Python ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ (result >> 16)


def replicate_states(seed: int, reps: range) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after PCG64(replicate_seed_sequence(seed, rep)), for each rep.

    SeedSequence mixes its entropy words, the seed's words padded to four
    and then the spawn key (1, rep), into a pool of four 32-bit words, and
    generate_state(4, uint64) hashes the pool into PCG64's seed and stream
    (initstate, initseq). Everything before rep's word is shared by every
    replicate, so it is mixed once; rep's word is mixed and the pool hashed
    as uint32 vector operations over all reps. PCG64 then seeds its 128-bit
    LCG as inc = 2 initseq + 1, state = (inc + initstate) * M + inc. Reps
    from 2**32 on, which have two words, take SeedSequence itself.
    """
    if reps.stop > 1 << 32:
        return [_state_of(np.random.PCG64(replicate_seed_sequence(seed, rep))) for rep in reps]
    entropy = _words32(seed)
    entropy = entropy + [0] * (4 - len(entropy)) + [1]
    hash_const = _INIT_A
    pool = []
    for word in entropy[:4]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    words = entropy[4:] + [np.arange(reps.start, reps.stop).astype(np.uint32)]
    for word in words:
        for dst in range(4):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    hash_const = _INIT_B
    out = []
    for i in range(8):
        mixed, hash_const = _hashmix(pool[i % 4], hash_const, _MULT_B)
        out.append(mixed.astype(np.uint64))
    # The eight words pair up, low word first, into seed high, seed low, stream high, stream low.
    seed_hi, seed_lo, seq_hi, seq_lo = (out[2 * j] | out[2 * j + 1] << 32 for j in range(4))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(v.tolist() for v in (seed_hi, seed_lo, seq_hi, seq_lo))):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _state_of(bit_generator: np.random.PCG64) -> tuple[int, int]:
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


def replicate_generators(seed: int, count: int) -> Iterator[np.random.Generator]:
    """A generator for each replicate 0, 1, ..., count - 1, in that order.

    Each is in the state of Generator(PCG64(replicate_seed_sequence(seed,
    rep))), but it is one Generator whose PCG64 state is set anew for each
    replicate, so a caller must finish with one before it takes the next.
    States are computed _STATE_CHUNK replicates at a time.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for start in range(0, count, _STATE_CHUNK):
        for state, inc in replicate_states(seed, range(start, min(start + _STATE_CHUNK, count))):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def covariate_correlated_probabilities(x, rng: np.random.Generator) -> np.ndarray:
    """Treatment probabilities tied to the covariates via cosine similarity.

    One standard normal direction is drawn; each unit's probability is
    (1 + cos(x_i, g)) / 2 clamped into [0.2, 0.8]. Zero-norm rows get
    similarity 0, hence probability one half.
    """
    x = np.asarray(x, dtype=np.float64)
    direction = rng.standard_normal(x.shape[1])
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    gnorm = float(np.linalg.norm(direction))
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = np.where(norms > 0.0, x @ direction / (norms * gnorm), 0.0)
    return np.clip((1.0 + cosine) / 2.0, 0.2, 0.8)


# synth_population's noise scale, heterogeneity scale and constant effect.
_NOISE_SCALE, _HET_SCALE, _BASE_EFFECT = 0.5, 0.5, 1.0


def synth_population(kind: str, n: int, k: int, seed: int) -> Population:
    """Synthetic ground-truth populations for studies and stress tests.

    linear-heterogeneous: control outcomes linear in X plus noise, treatment
    adds a constant shift and a covariate-linear heterogeneous part.
    leverage-stress: same, plus one row inflated until its unregularized
    leverage is at least 0.9, with the heterogeneous effect aligned to that
    row so single-fit adjustments get pulled.
    binary-outcome: indicator covariates and thresholded latent outcomes,
    shaped like one-hot survey data.

    Generator magnitudes are package defaults, not quantities carried over
    from any dataset.
    """
    if n <= k:
        raise InvalidInput("synthetic populations require n > k")
    if seed < 0:
        raise InvalidInput(f"population seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    if kind == "linear-heterogeneous":
        x = rng.standard_normal((n, k))
        slope = rng.standard_normal(k)
        het = _HET_SCALE * rng.standard_normal(k)
        y0 = x @ slope + _NOISE_SCALE * rng.standard_normal(n)
        y1 = y0 + _BASE_EFFECT + x @ het
        return Population(x, y1, y0)
    if kind == "leverage-stress":
        x = rng.standard_normal((n, k))
        direction = rng.standard_normal(k)
        direction /= np.linalg.norm(direction)
        rest = x[1:]
        gram_inv = np.linalg.inv(rest.T @ rest)
        base = float(direction @ gram_inv @ direction)
        row_norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        # h = s^2 a / (1 + s^2 a) >= 0.9 needs s^2 a >= 9; aim a bit higher.
        scale = max(math.sqrt(9.5 / base), 20.0 * float(np.median(row_norms)))
        x[0] = scale * direction
        slope = rng.standard_normal(k)
        het = rng.standard_normal(k)
        y0 = x @ slope + _NOISE_SCALE * rng.standard_normal(n)
        y1 = y0 + _BASE_EFFECT + (_HET_SCALE + 0.1) * (x @ het)
        return Population(x, y1, y0)
    if kind == "binary-outcome":
        prevalence = rng.uniform(0.2, 0.8, k)
        x = (rng.random((n, k)) < prevalence).astype(np.float64)
        slope = rng.standard_normal(k)
        latent = x @ slope + rng.standard_normal(n)
        shift = 0.8 + 0.3 * rng.standard_normal(n)
        y0 = (latent > 0.0).astype(np.float64)
        y1 = (latent + shift > 0.0).astype(np.float64)
        return Population(x, y1, y0)
    raise InvalidInput(f"unknown synthetic population kind {kind!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Protocol parameters of one Monte Carlo study."""

    design: str
    methods: tuple[str, ...]
    reps: int | str = 10_000
    level: float = 0.95
    seed: int = 0
    n_t: int | None = None
    lambda_rule: LambdaRule = field(default_factory=lambda: LambdaRule.auto(2.0))
    allow_design_mismatch: bool = False

    def __post_init__(self):
        if self.design not in DESIGN_CHOICES:
            raise InvalidSpec(f"design must be one of {DESIGN_CHOICES}, got {self.design!r}")
        if not 0.0 < self.level < 1.0:
            raise InvalidSpec(f"level must lie in (0, 1), got {self.level}")
        if isinstance(self.reps, str):
            if self.reps != "enumerate":
                raise InvalidSpec("reps must be a positive integer or 'enumerate'")
        elif int(self.reps) < 1:
            raise InvalidSpec("reps must be at least 1")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be nonnegative, got {self.seed}")
        methods = tuple(Method(m).value for m in self.methods)
        if not methods:
            raise InvalidSpec("at least one method is required")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class MethodStats:
    """Aggregated Monte Carlo metrics for one estimator."""

    method: str
    bias: float
    std: float
    rmse: float
    coverage: float
    avg_ci_length: float
    reps_used: int
    failed: int


@dataclass(frozen=True)
class SimulationReport:
    """Everything a study run reports, one MethodStats per estimator."""

    design: str
    tau: float
    level: float
    seed: int
    reps: int | str
    stats: tuple[MethodStats, ...]
    # wall seconds of run_study's plan, evaluate and aggregate stages; not
    # part of the results, so two reports compare equal without them
    stages: dict[str, float] = field(default_factory=dict, compare=False)


def resolve_design(pop: Population, cfg: StudyConfig, rng: np.random.Generator) -> DesignSpec:
    """Materialize the study's design spec against a concrete population."""
    if cfg.design == "simple-half":
        return SimpleDesign(np.full(pop.n, 0.5))
    if cfg.design == "simple-covariate-correlated":
        return SimpleDesign(covariate_correlated_probabilities(pop.x, rng))
    n_t = cfg.n_t if cfg.n_t is not None else pop.n // 2
    return CompleteDesign(pop.n, n_t)


# Degenerate draws (for example an empty arm under simple assignment),
# singular-leverage, overflowing and self-check-failing evaluations are
# recorded as failures for the affected method only; any other error aborts
# the study.
_METHOD_FAILURES = (LeverageSingular, NonFinite, RankDeficient, SelfCheckFailed, SpecMismatch)


def _plan_methods(pop, spec, cfg):
    """One plan per method; None where the plan itself fails, so every replicate does."""
    plans = []
    for name in cfg.methods:
        try:
            plans.append(
                plan_estimate(
                    name, pop.x, spec, cfg.lambda_rule, cfg.level, cfg.allow_design_mismatch
                )
            )
        except _METHOD_FAILURES:
            plans.append(None)
    return plans


def _blocks(spec, cfg, count):
    """The study's assignment blocks: (d, weights) with one assignment per row of d.

    Every assignment with its design probability when enumerating, else
    count draws of weight 1, each from its own replicate substream
    (replicate_generators), in blocks of design.block_size(n).
    """
    if cfg.reps == "enumerate":
        yield from enumeration_blocks(spec)
        return
    size = block_size(spec.n)
    rngs = replicate_generators(cfg.seed, count)
    for start in range(0, count, size):
        rows = min(size, count - start)
        yield draw_rows(spec, itertools.islice(rngs, rows)), np.ones(rows)


def _record_block(plan, d, y, tau, out):
    """Fill out (B, 4) with the plan's (ok, tau_hat, covered, length) rows.

    Rows that fail with a method failure stay all zero; any other error
    raises and aborts the study.
    """
    est = plan.evaluate_block(d, y)
    low, high = est.ci_low, est.ci_high
    out[:, 0] = 1.0
    out[:, 1] = est.tau_hat
    out[:, 2] = (low <= tau) & (tau <= high)
    out[:, 3] = high - low
    if est.failures:
        out[~est.ok] = 0.0


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum of a vector, through the block kernel the estimators use."""
    return float(fsum_rows(values[None])[0])


def _aggregate(cfg, tau, rows, weights):
    """The study report from per-replicate rows.

    rows[r][j] is method j's (ok, tau_hat, covered, length) on replicate r,
    and weights[r] that replicate's weight.
    """
    arr = np.asarray(rows, dtype=np.float64)
    ok, est, covered, length = (arr[:, :, i] for i in range(4))
    weights = np.asarray(weights, dtype=np.float64)
    stats = []
    for j, name in enumerate(cfg.methods):
        good = ok[:, j] > 0.0
        used = int(np.count_nonzero(good))
        failed = int(np.count_nonzero(~good))
        w = weights[good]
        total = _exact_sum(w)
        if total <= 0.0:
            stats.append(
                MethodStats(name, math.nan, math.nan, math.nan, math.nan, math.nan, 0, failed)
            )
            continue
        e = est[good, j]
        mean = _exact_sum(w * e) / total
        var = _exact_sum(w * (e - mean) ** 2) / total
        bias = mean - tau
        std = math.sqrt(var)
        rmse = math.sqrt(bias**2 + var)
        cov = _exact_sum(w * covered[good, j]) / total
        avg_len = _exact_sum(w * length[good, j]) / total
        stats.append(MethodStats(name, bias, std, rmse, cov, avg_len, used, failed))
    return SimulationReport(
        design=cfg.design,
        tau=tau,
        level=cfg.level,
        seed=cfg.seed,
        reps=cfg.reps,
        stats=tuple(stats),
    )


def run_study(pop: Population, cfg: StudyConfig) -> SimulationReport:
    """Execute a study: sampled replicates, or the exact design distribution.

    Deterministic for a given (population, config): replicate substreams are
    derived from (seed, replicate index) and aggregation runs in replicate
    order. Each method is planned once. Replicates are drawn, observed and
    evaluated in blocks of design.block_size(n) rows, each method once per
    block, and every row gets the bits its replicate has alone. Results go
    into one (replicates x methods x 4) float64 array, so memory grows by
    32 bytes per replicate and method. The report's stages hold the wall
    seconds of planning (plan_s), of drawing and evaluating every block
    (evaluate_s) and of aggregation (aggregate_s).
    """
    planning = time.perf_counter()
    study_rng = np.random.Generator(np.random.PCG64(study_seed_sequence(cfg.seed)))
    spec = resolve_design(pop, cfg, study_rng)
    tau = pop.tau
    count = enumeration_size(spec) if cfg.reps == "enumerate" else int(cfg.reps)
    plans = _plan_methods(pop, spec, cfg)
    evaluating = time.perf_counter()
    try:
        rows = np.zeros((count, len(plans), 4))
        weights = np.empty(count)
    except (MemoryError, ValueError):  # numpy refuses or cannot allocate the size
        raise TooLarge(
            f"a study of {count} replicates and {len(plans)} methods is too large to hold "
            f"({32 * count * len(plans)} bytes of results)"
        ) from None
    start = 0
    for d, weight in _blocks(spec, cfg, count):
        stop = start + d.shape[0]
        y = observe_rows(pop, d)
        for j, plan in enumerate(plans):
            if plan is not None:
                _record_block(plan, d, y, tau, rows[start:stop, j])
        weights[start:stop] = weight
        start = stop
    aggregating = time.perf_counter()
    report = _aggregate(cfg, tau, rows, weights)
    stages = {
        "plan_s": evaluating - planning,
        "evaluate_s": aggregating - evaluating,
        "aggregate_s": time.perf_counter() - aggregating,
    }
    return replace(report, stages=stages)
