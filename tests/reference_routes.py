"""Independent cross-check routes that only the tests use.

Each function here computes a quantity the package also computes, by a
different and more literal route, or a ground-truth quantity only the tests
need: the full n x n hat matrix and dense algebra on it, the best fixed
adjustment of HT and DM and the exact variances it reaches, the
materialized LOORA-DM quadratic-form blocks (n <= 512) whose low-rank
contraction ``loora.oracle`` uses for T3, with their coincidence-pattern
tables summed one scalar term at a time, the classical three-term variance,
an explicit sandwich product, the regression benchmarks as one fit of their
full design, a study that builds a fresh sample and a fresh fit for every
replicate, INT's arm fits one row and one arm at a time, a CSV reader on
the ``csv`` module with per-cell strip and float loops, and the exact row
sums as one ``math.fsum`` per row. They stay
independent of the fast paths in ``loora`` so that agreement between the two
means something.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from loora.design import DesignSpec, draw_with, enumerate_assignments
from loora.estimators import DEFAULT_LAMBDA_RULE, IntPlan, LambdaRule, Method
from loora.exceptions import (
    InvalidInput,
    LeverageSingular,
    NonFinite,
    ParameterOutOfRange,
    RankDeficient,
    SchemaError,
    SelfCheckFailed,
    SpecMismatch,
)
from loora.inference import plan_estimate
from loora.linalg import (
    RidgeFactor,
    as_design_matrix,
    as_vector,
    check_loo_feasible,
    cholesky_solve,
    full_rank_cholesky,
    ridge_factor,
    upper_inverse,
)
from loora.oracle import (
    _PATTERNS,
    Population,
    _centered_residuals,
    _check_n_t,
    dm_signal,
    ht_signal,
    observe,
)
from loora.simulation import (
    SimulationReport,
    StudyConfig,
    _aggregate,
    replicate_seed_sequence,
    resolve_design,
    study_seed_sequence,
)

def hat_full(factor: RidgeFactor) -> np.ndarray:
    """The full hat matrix X (X'X + Lambda)^{-1} X' of a ridge factor (O(n^2) memory)."""
    return factor.x @ factor.z


def adjusted_ht_optimal_coef(pop: Population, p) -> np.ndarray:
    """The fixed adjustment vector minimizing the adjusted HT variance."""
    sig = ht_signal(pop, p)
    coef, _, _, _ = np.linalg.lstsq(sig.xw, sig.mu, rcond=None)
    return coef


def dm_adjusted_variance(pop: Population, n_t: int, b) -> float:
    """Exact variance of covariate-adjusted DM, coefficient on the signal scale.

    The coefficient adjusts the aggregated DM signal (which sums n outcome
    contributions), so it equals n times the per-outcome adjustment: passing
    b here matches DM run on outcomes y - x'(b / n).
    """
    n_t, n_c = _check_n_t(pop, n_t)
    b = as_vector(b, pop.k, "coefficient vector")
    resid = dm_signal(pop, n_t).mu - pop.x @ b
    centered = resid - math.fsum(resid) / pop.n
    return math.fsum(centered**2) / (n_t * n_c * pop.n * (pop.n - 1))


def dm_adjusted_optimal_coef(pop: Population, n_t: int) -> np.ndarray:
    """The fixed adjustment minimizing the adjusted DM variance."""
    mu = dm_signal(pop, n_t).mu
    xc = pop.x - pop.x.mean(axis=0)
    coef, _, _, _ = np.linalg.lstsq(xc, mu - mu.mean(), rcond=None)
    return coef


def dm_adjusted_minimum_variance(pop: Population, n_t: int) -> float:
    """The smallest variance any fixed adjustment can reach for DM."""
    return dm_adjusted_variance(pop, n_t, dm_adjusted_optimal_coef(pop, n_t))


# Largest n for which loora_dm_quadratic_blocks materializes the 2n x 2n
# quadratic-form matrix. The variances never build an n x n array: they
# contract the rank-k factors of the hat matrix at every n.
QUADRATIC_BLOCK_MAX_N = 512


def loora_ht_second_term_dense(pop: Population, p, lam: float) -> float:
    """The cross-unit LOORA-HT variance term as a literal upper-triangle sum
    over the materialized hat matrix."""
    sig = ht_signal(pop, p)
    n = pop.n
    factor = ridge_factor(sig.xw, lam)
    check_loo_feasible(factor.hat_diag)
    gap = 1.0 - factor.hat_diag
    a = sig.t / sig.r
    cross = np.outer(1.0 / gap, a)
    both = hat_full(factor) ** 2 * (cross + cross.T) ** 2
    iu = np.triu_indices(n, k=1)
    return math.fsum(both[iu]) / n**2


def _falling(a: int, b: int) -> float:
    out = 1.0
    for step in range(b):
        out *= a - step
    return out


def _weight_product(di: int, dk: int, dj: int, dl: int, n_t: int, n_c: int) -> float:
    """v_i z_i v_k^(-i) z_k v_j z_j v_l^(-j) z_l for one joint arm pattern."""

    def v(d):
        return 1.0 / n_t if d else 1.0 / n_c

    def z(d):
        return 1.0 if d else -1.0

    def v_minus(d_removed, d_kept):
        if d_removed and d_kept:
            return 1.0 / (n_t - 1)
        if d_removed and not d_kept:
            return 1.0 / n_c
        if not d_removed and d_kept:
            return 1.0 / n_t
        return 1.0 / (n_c - 1)

    return (
        v(di) * z(di) * v_minus(di, dk) * z(dk) * v(dj) * z(dj) * v_minus(dj, dl) * z(dl)
    )


def pattern_tables_loop(n: int, n_t: int) -> dict[str, np.ndarray]:
    """The coincidence-pattern tables of ``loora.oracle._pattern_tables``, one
    joint arm assignment and one scalar weight product at a time."""
    n_c = n - n_t
    tables = {}
    for name, (m, (ri, rk, rj, rl)) in _PATTERNS.items():
        table = np.zeros((2, 2))
        for bits in range(1 << m):
            arms = [(bits >> s) & 1 for s in range(m)]
            treated = sum(arms)
            prob = _falling(n_t, treated) * _falling(n_c, m - treated) / _falling(n, m)
            if prob == 0.0:
                continue
            di, dk, dj, dl = arms[ri], arms[rk], arms[rj], arms[rl]
            table[di, dj] += prob * _weight_product(di, dk, dj, dl, n_t, n_c)
        tables[name] = table
    return tables


def _quadratic_geometry(hat_full: np.ndarray, hat_diag: np.ndarray):
    """Leverage-derived arrays every quadratic-form entry is built from."""
    w = 1.0 / (1.0 - hat_diag)
    m2 = hat_full * hat_full
    alpha = hat_full @ w
    uprime = alpha - hat_diag * w
    colsum2 = m2 @ (w * w)
    v2 = colsum2 - hat_diag**2 * w**2
    c_k = uprime**2 - v2
    j_mat = (hat_full * (w * w)[None, :]) @ hat_full
    j_excl = j_mat - (hat_diag * w**2)[:, None] * hat_full - hat_full * (hat_diag * w**2)[None, :]
    return w, m2, uprime, v2, c_k, j_excl


def _quadratic_row_block(
    rows: np.ndarray,
    tables: dict[str, np.ndarray],
    a: int,
    b: int,
    n: int,
    hat_full: np.ndarray,
    w: np.ndarray,
    m2: np.ndarray,
    uprime: np.ndarray,
    v2: np.ndarray,
    c_k: np.ndarray,
    j_excl: np.ndarray,
) -> np.ndarray:
    """Rows [k in rows] of the (a, b) quadratic-form block.

    Entry (k, l) multiplies the k-th entry of the arm-a signal and the l-th
    entry of the arm-b signal in E[G2^2].
    """
    h_kl = hat_full[rows]
    excl_kl = uprime[rows, None] - h_kl * w[None, :]  # sum_{i not in {k,l}} h_ik w_i
    excl_lk = uprime[None, :] - h_kl * w[rows, None]  # sum_{i not in {k,l}} h_il w_i
    block = tables["shared_i"][a, b] * j_excl[rows]
    block += tables["crossed"][a, b] * m2[rows] * np.outer(w[rows], w)
    block += tables["hooked_left"][a, b] * h_kl * w[None, :] * excl_lk
    block += tables["hooked_right"][a, b] * h_kl * w[rows, None] * excl_kl
    block += tables["disjoint"][a, b] * (excl_kl * excl_lk - j_excl[rows])
    diag_value = tables["pair_pair"][a, b] * v2 + tables["shared_k"][a, b] * c_k
    cols = np.arange(n)
    on_diag = rows[:, None] == cols[None, :]
    block = np.where(on_diag, diag_value[None, :], block)
    return block / n**2


def loora_dm_quadratic_blocks(
    pop: Population, n_t: int, lam: float
) -> dict[tuple[int, int], np.ndarray]:
    """Materialize the four n x n blocks of the cross-unit quadratic form.

    Block (a, b) pairs the arm-a signal with the arm-b signal, so the T3
    variance term is sum_ab t^(a)' Q^(ab) t^(b). Only available up to
    n = 512; it is the dense reference for the low-rank evaluation the
    variance uses.
    """
    n_t, _ = _check_n_t(pop, n_t)
    if pop.n > QUADRATIC_BLOCK_MAX_N:
        raise ParameterOutOfRange(
            f"quadratic-form blocks are materialized only for n <= {QUADRATIC_BLOCK_MAX_N}"
        )
    factor = ridge_factor(pop.x, lam)
    check_loo_feasible(factor.hat_diag)
    hat = hat_full(factor)
    tables = pattern_tables_loop(pop.n, n_t)
    geometry = _quadratic_geometry(hat, factor.hat_diag)
    rows = np.arange(pop.n)
    return {
        (a, b): _quadratic_row_block(rows, tables, a, b, pop.n, hat, *geometry)
        for a in (0, 1)
        for b in (0, 1)
    }


def loora_dm_t3_dense(pop: Population, n_t: int, lam: float) -> float:
    """T3 = sum_ab t^(a)' Q^(ab) t^(b) from the materialized quadratic-form
    blocks (n <= 512)."""
    blocks = loora_dm_quadratic_blocks(pop, n_t, lam)
    sig = dm_signal(pop, n_t)
    t = {1: sig.t1, 0: sig.t0}
    return math.fsum(float(t[a] @ blocks[(a, b)] @ t[b]) for a in (0, 1) for b in (0, 1))


def loora_ht_second_term_bound(pop: Population, p, lam: float) -> float:
    """Dimension-based upper bound on the cross-unit variance term.

    (2k / n^2) * ||(1 - h)^{-1}||_inf^2 * ||t / r||_inf^2; the double sum of
    squared off-diagonal leverages is at most k/2 for any penalty.
    """
    sig = ht_signal(pop, p)
    gap = 1.0 - ridge_factor(sig.xw, lam).hat_diag
    return (
        2.0
        * pop.k
        / pop.n**2
        * float(np.max(1.0 / gap)) ** 2
        * float(np.max(np.abs(sig.t / sig.r))) ** 2
    )


def dm_variance_neyman(pop: Population, n_t: int) -> float:
    """Exact DM variance in the classical three-term form.

    S^2(y1)/n_t + S^2(y0)/n_c - S^2(effects)/n with (n-1)-divisor variances;
    must agree with dm_variance.
    """
    n_t, n_c = _check_n_t(pop, n_t)

    def s2(v):
        centered = v - math.fsum(v) / pop.n
        return math.fsum(centered**2) / (pop.n - 1)

    return s2(pop.y1) / n_t + s2(pop.y0) / n_c - s2(pop.y1 - pop.y0) / pop.n


def lin_asymptotic_variance_projection(pop: Population, p_t: float) -> float:
    """The same benchmark as a single centered projection of the HT signal."""
    p_t = float(p_t)
    if not 0.0 < p_t < 1.0:
        raise InvalidInput(f"treated fraction must lie in (0, 1), got {p_t}")
    mu = np.sqrt((1.0 - p_t) / p_t) * pop.y1 + np.sqrt(p_t / (1.0 - p_t)) * pop.y0
    return math.fsum(_centered_residuals(pop, mu) ** 2) / pop.n


def hw_variance_ht_sandwich(
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    spec: DesignSpec,
    rule: LambdaRule = DEFAULT_LAMBDA_RULE,
) -> float:
    """The same HC0 variance through the explicit sandwich product.

    The residualized outcomes (y_i - x_i' beta) / (q_i (1 - h_i)) come from
    this route's own ridge fit of the reweighted outcomes on X / r, and are
    regressed on the signed indicator z with slope tau_hat. Treated outcomes
    are reweighted by (1-p)^(1/2) / p^(3/2) and control outcomes by
    p^(1/2) / (1-p)^(3/2); q is the probability of each unit's arm.
    """
    p = spec.p
    z, treated = 2.0 * d - 1.0, d == 1.0
    xw = x / np.sqrt(p * (1.0 - p))[:, None]
    factor = ridge_factor(xw, rule.resolve(xw))
    scale = np.where(treated, np.sqrt(1.0 - p) / p**1.5, np.sqrt(p) / (1.0 - p) ** 1.5)
    beta = factor.fit(scale * y)
    tau = plan_estimate(Method.LOORA_HT, x, spec, rule).point(d, y)
    q = np.where(treated, p, 1.0 - p)
    hw_resid = (y - x @ beta) / (q * (1.0 - factor.hat_diag)) - z * tau
    zz = math.fsum(z**2)
    return math.fsum(z**2 * hw_resid**2) / zz**2


def benchmark_full_design(method, x, d, y, rule=DEFAULT_LAMBDA_RULE):
    """ADJ, INT or RIDGE_REG as the literal ridge fit of its full design.

    ADJ regresses y on [1, d, X] and INT on [1, d, X - mean, d * (X - mean)],
    both unpenalized. RIDGE_REG uses the ADJ design and penalizes only the X
    columns, with the leverage rule applied to the covariate block. Returns
    the coefficient on d and its HC0 variance: the coefficient is z[1] . y,
    so its variance is sum r_i^2 z[1, i]^2. The coefficients take one step
    of iterative refinement, so that their error does not grow with the
    square of the design's condition number, as a Gram solve's does.
    """
    method = Method(method)
    x = as_design_matrix(x)
    covariates = x - x.mean(axis=0) if method is Method.INT else x
    width = 2 + covariates.shape[1] * (2 if method is Method.INT else 1)
    penalty = np.zeros(width)
    if method is Method.RIDGE_REG:
        penalty[2:] = rule.resolve(x)
    columns = [np.ones(d.shape[0]), d, covariates]
    if method is Method.INT:
        columns.append(d[:, None] * covariates)
    factor = ridge_factor(np.column_stack(columns), penalty)
    beta = factor.fit(y)
    beta = beta + cholesky_solve(factor.cho, _normal_residual(factor.x, penalty, y, beta)[None])[0]
    return float(beta[1]), math.fsum(((factor.z[1] * (y - factor.x @ beta)) ** 2).tolist())


def _normal_residual(x, penalty, y, beta) -> np.ndarray:
    """X'(y - X beta) - Lambda beta, summed exactly and rounded once per entry."""
    x, beta = [[Fraction(v) for v in row] for row in x.tolist()], [Fraction(b) for b in beta.tolist()]
    resid = [Fraction(v) - sum(a * b for a, b in zip(row, beta)) for v, row in zip(y.tolist(), x)]
    return np.array([
        float(sum(row[j] * r for row, r in zip(x, resid)) - Fraction(penalty[j]) * beta[j])
        for j in range(len(beta))
    ])


def int_parts_loop(plan: IntPlan, d: np.ndarray, y: np.ndarray):
    """INT's parts as IntPlan.parts gives them, one row and one arm at a time."""
    tau_hat, terms, failed = np.full(d.shape[0], math.nan), np.zeros(d.shape), {}
    for i in range(d.shape[0]):
        t_mask = d[i] == 1.0
        if t_mask.all() or not t_mask.any():
            continue  # an empty arm: never fit
        try:
            alpha_t, terms_t = _arm_intercept(plan, t_mask, y[i])
            alpha_c, terms_c = _arm_intercept(plan, ~t_mask, y[i])
        except RankDeficient as exc:
            failed[i] = exc
            continue
        tau_hat[i] = alpha_t - alpha_c
        terms[i] = np.concatenate([terms_t, terms_c])
    return tau_hat, terms, failed


def _arm_intercept(plan: IntPlan, mask: np.ndarray, y: np.ndarray):
    """Intercept of the OLS of y on [1, Xc] within one arm, and its HC0 terms."""
    a, ya = plan.basis[mask], y[mask]
    cho = upper_inverse(full_rank_cholesky(a))
    e0 = np.zeros(a.shape[1])
    e0[0] = 1.0
    beta, g = cholesky_solve(cho, np.stack([a.T @ ya, e0]))
    # row 0 of (A'A)^{-1} A' is (A g)', g = (A'A)^{-1} e0
    return float(beta[0]), (a @ g) * (ya - a @ beta)


def two_column_sandwich_inverse(u, d):
    """OLS of u on [1, d] and the slope's HC0 variance by the explicit
    inverse-bread sandwich. Returns (intercept, slope, slope variance)."""
    n = u.shape[0]
    design = np.column_stack([np.ones(n), d])
    bread = np.linalg.inv(design.T @ design)
    coef = bread @ (design.T @ u)
    resid = u - design @ coef
    meat = design.T @ (design * (resid**2)[:, None])
    cov = bread @ meat @ bread
    return float(coef[0]), float(coef[1]), float(cov[1, 1])


def run_study_per_sample(pop: Population, cfg: StudyConfig) -> SimulationReport:
    """run_study with no plan shared between replicates.

    Every replicate and method gets a fresh plan_estimate call, which
    validates, resolves lambda and factors anew. Draws, failure classes and aggregation follow run_study.
    """
    def generator(seed_sequence):
        return np.random.Generator(np.random.PCG64(seed_sequence))

    spec = resolve_design(pop, cfg, generator(study_seed_sequence(cfg.seed)))
    if cfg.reps == "enumerate":
        draws = list(enumerate_assignments(spec))
    else:
        draws = [
            (draw_with(spec, generator(replicate_seed_sequence(cfg.seed, rep))), 1.0)
            for rep in range(int(cfg.reps))
        ]
    rows = []
    for d, _ in draws:
        row = []
        for method in cfg.methods:
            try:
                plan = plan_estimate(
                    method, pop.x, spec, cfg.lambda_rule, cfg.level, cfg.allow_design_mismatch
                )
                report = plan.evaluate(d, observe(pop, d))
            except (LeverageSingular, NonFinite, RankDeficient, SelfCheckFailed, SpecMismatch):
                row.append((0.0, 0.0, 0.0, 0.0))
                continue
            covered = 1.0 if report.ci_low <= pop.tau <= report.ci_high else 0.0
            row.append((1.0, report.tau_hat, covered, report.ci_high - report.ci_low))
        rows.append(row)
    return _aggregate(cfg, pop.tau, rows, [prob for _, prob in draws])


def fsum_rows_loop(a: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a, one call per row; nan where it raises."""
    sums = []
    for row in a.tolist():
        try:
            sums.append(math.fsum(row))
        except (OverflowError, ValueError):
            sums.append(math.nan)
    return np.array(sums, dtype=np.float64)


def read_csv_csv_module(path, delimiter: str = ",", has_header: bool = True):
    """Read a delimited file into (column names, list of row lists) with ``csv.reader``."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise SchemaError(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"{path}: file is empty")
    if has_header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
    else:
        names = [f"c{i}" for i in range(len(rows[0]))]
        data_rows = rows
    if not data_rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(names)
    for idx, row in enumerate(data_rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {idx + 1} has {len(row)} fields, expected {width}")
    return names, data_rows


def one_hot_loop(values: list[str], name: str, drop_first: bool = False):
    """Indicator expansion by a literal loop: levels by list search, cells set one by one."""
    levels: list[str] = []
    for v in values:
        if v not in levels:
            levels.append(v)
    used = levels[1:] if drop_first and len(levels) > 1 else levels
    columns = [f"{name}={level}" for level in used]
    block = np.zeros((len(values), len(used)))
    index = {level: j for j, level in enumerate(used)}
    for i, v in enumerate(values):
        j = index.get(v)
        if j is not None:
            block[i, j] = 1.0
    return columns, block


def dataset_arrays_csv_module(path, covariates, categorical, roles, drop_first=False, **read):
    """(columns, x, {role: values}) by the row-list route: ``csv.reader``, a
    strip and a ``float`` per cell, and the literal one-hot loop. ``roles``
    maps a role name such as "y" or "p" to its column, in the order
    ``loora.dataset.build_dataset`` checks them (p first, d last). Bad cells
    raise the ``SchemaError`` that ``build_dataset`` raises for them."""
    names, rows = read_csv_csv_module(path, **read)

    def column(col):
        j = names.index(col)
        return [row[j] for row in rows]

    def numeric(col):
        cells, values = column(col), []
        for i, cell in enumerate(cells):
            try:
                values.append(float(cell.strip()))
            except ValueError:
                raise SchemaError(f"{path}: column {col!r} is not numeric (row {i + 1}: {cell!r})")
        for i, value in enumerate(values):
            if not math.isfinite(value):
                raise SchemaError(
                    f"{path}: column {col!r} contains non-finite values (row {i + 1}: {cells[i]!r})"
                )
        return np.array(values, dtype=np.float64)

    if not covariates and not categorical:
        raise SchemaError(f"{path}: at least one covariate column is required")
    columns = list(covariates)
    blocks = [numeric(col)[:, None] for col in covariates]
    for col in categorical:
        cat_columns, block = one_hot_loop([v.strip() for v in column(col)], col, drop_first)
        columns.extend(cat_columns)
        blocks.append(block)
    outcomes = {}
    for role, col in roles.items():
        values = outcomes[role] = numeric(col)
        for i, value in enumerate(values.tolist()):
            if role == "p" and not 0.0 < value < 1.0:
                rule = "must lie strictly inside (0, 1)"
            elif role == "d" and value not in (0.0, 1.0):
                rule = "must be binary 0/1"
            else:
                continue
            raise SchemaError(f"{path}: column {col!r} {rule} (row {i + 1}: {value!r})")
    return tuple(columns), np.hstack(blocks), outcomes
