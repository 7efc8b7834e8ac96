"""Treatment assignment designs: samplers and exhaustive enumerators.

Two mechanisms are supported. Under simple random assignment each unit is
treated independently with its own probability p_i in (0, 1). Under complete
random assignment a uniformly random subset of exactly n_T units is treated.
The enumerators walk every possible assignment with its exact probability and
power the brute-force oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .exceptions import InvalidSpec, TooLarge

SIMPLE_ENUM_MAX_N = 20
COMPLETE_ENUM_MAX = 2_000_000


@dataclass(frozen=True)
class SimpleDesign:
    """Independent Bernoulli(p_i) assignment."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise InvalidSpec("probability vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(p)):
            raise InvalidSpec("probability vector contains non-finite entries")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise InvalidSpec("simple assignment requires 0 < p_i < 1 for every unit")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def margin(self) -> float:
        """m = min_i min(p_i, 1 - p_i), the distance to degenerate assignment."""
        return float(np.min(np.minimum(self.p, 1.0 - self.p)))


@dataclass(frozen=True)
class CompleteDesign:
    """Uniform assignment over subsets of exactly n_t treated units."""

    n: int
    n_t: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and isinstance(self.n_t, (int, np.integer))):
            raise InvalidSpec("complete design sizes must be integers")
        if self.n < 2:
            raise InvalidSpec("complete assignment needs at least 2 units")
        if not 1 <= self.n_t <= self.n - 1:
            raise InvalidSpec(
                f"treated count must satisfy 1 <= n_t <= n - 1, got n_t={self.n_t}, n={self.n}"
            )

    @property
    def n_c(self) -> int:
        return self.n - self.n_t


DesignSpec = Union[SimpleDesign, CompleteDesign]


@dataclass(frozen=True)
class Assignment:
    """One realized treatment assignment.

    d is the 0/1 indicator vector and z = 2d - 1 its signed version.
    """

    d: np.ndarray
    z: np.ndarray

    @classmethod
    def from_d(cls, d) -> "Assignment":
        """The assignment with indicator vector d."""
        d = np.asarray(d, dtype=np.float64)
        return cls(d=d, z=2.0 * d - 1.0)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def n_treated(self) -> int:
        return int(self.d.sum())


def block_size(n: int) -> int:
    """Assignments per block for n units: clamp(16384 // n, 1, 256).

    A block of B rows of n entries then holds at most 16384 float64 values
    (128 KiB), so each of a block's arrays sits in a core's L2 cache while
    batching amortizes per-call overhead: 3 rows at n = 5000, 136 at n = 120.
    A harness sweep of 2**13 to 2**16 entries per block found 2**14 fastest
    at n = 5000 and no slower at n = 120. The rule depends on n alone, never
    on a thread count or a replicate count, so results do not either.
    """
    return min(256, max(1, 16384 // n))


def draw_rows(spec: DesignSpec, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Draw one assignment per generator, as the 0/1 float rows of a block.

    Each generator draws its row before the next one is taken, so the
    iterable may yield one generator again and again with a new state (as
    simulation.replicate_generators does).
    """
    if isinstance(spec, SimpleDesign):
        n = spec.n
        u = np.array([rng.random(n) for rng in rngs]).reshape(-1, n)
        return (u < spec.p).astype(np.float64)
    if isinstance(spec, CompleteDesign):
        n, n_t = spec.n, spec.n_t
        treated = np.array([rng.permutation(n)[:n_t] for rng in rngs]).reshape(-1, n_t)
        d = np.zeros((treated.shape[0], n))
        d[np.arange(treated.shape[0])[:, None], treated] = 1.0
        return d
    raise InvalidSpec(f"unknown design spec {spec!r}")


def draw_with(spec: DesignSpec, rng: np.random.Generator) -> Assignment:
    """Draw one assignment from an already-constructed generator."""
    return Assignment.from_d(draw_rows(spec, (rng,))[0])


def draw(spec: DesignSpec, seed: int) -> Assignment:
    """Draw one assignment, deterministically for a given seed."""
    return draw_with(spec, np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))))


def enumeration_size(spec: DesignSpec) -> int:
    """How many assignments the design has; TooLarge beyond the enumeration guards.

    Raises
    ------
    TooLarge
        Simple designs beyond n = 20, or complete designs with more than
        2e6 treated subsets.
    """
    if isinstance(spec, SimpleDesign):
        if spec.n > SIMPLE_ENUM_MAX_N:
            raise TooLarge(f"simple-design enumeration is limited to n <= {SIMPLE_ENUM_MAX_N}")
        return 1 << spec.n
    if isinstance(spec, CompleteDesign):
        total = math.comb(spec.n, spec.n_t)
        if total > COMPLETE_ENUM_MAX:
            raise TooLarge(
                f"complete-design enumeration is limited to C(n, n_t) <= {COMPLETE_ENUM_MAX}"
            )
        return total
    raise InvalidSpec(f"unknown design spec {spec!r}")


def enumeration_blocks(spec: DesignSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream every assignment with its exact design probability, block by block.

    Yields (d, prob): up to block_size(n) assignments as the 0/1 rows of d,
    in lexicographic order of the d vector so that any downstream file
    written from the stream is reproducible byte for byte, and their
    probabilities. Raises TooLarge as enumeration_size does.
    """
    total = enumeration_size(spec)
    n, size = spec.n, block_size(spec.n)
    if isinstance(spec, SimpleDesign):
        shifts = np.arange(n - 1, -1, -1)  # bit (n - 1 - i) carries unit i
        for start in range(0, total, size):
            bits = np.arange(start, min(start + size, total))
            d = ((bits[:, None] >> shifts) & 1).astype(np.float64)
            factors = np.where(d == 1.0, spec.p, 1.0 - spec.p)
            prob = np.ones(d.shape[0])
            for column in factors.T:  # unit by unit: each product rounds as p_0 * p_1 * ...
                prob = prob * column
            yield d, prob
        return
    # Control sets in lexicographic order give the d vectors in ascending
    # order, at any n (no bitmask has to fit a machine integer).
    controls = itertools.combinations(range(n), n - spec.n_t)
    prob = 1.0 / total
    while chunk := list(itertools.islice(controls, size)):
        d = np.ones((len(chunk), n))
        d[np.arange(len(chunk))[:, None], chunk] = 0.0
        yield d, np.full(len(chunk), prob)


def enumerate_assignments(spec: DesignSpec) -> Iterator[tuple[Assignment, float]]:
    """Every assignment with its exact design probability, one at a time.

    The rows of enumeration_blocks, in the same order and with the same
    probabilities; raises TooLarge as enumeration_size does.
    """
    for d, prob in enumeration_blocks(spec):
        for row, p in zip(d, prob.tolist()):
            yield Assignment.from_d(row), p
