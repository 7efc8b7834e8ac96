"""Treatment assignment designs: samplers and exhaustive enumerators.

Two mechanisms are supported. Under simple random assignment each unit is
treated independently with its own probability p_i in (0, 1). Under complete
random assignment a uniformly random subset of exactly n_T units is treated.
The enumerators walk every possible assignment with its exact probability and
power the brute-force oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

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


def draw_with(spec: DesignSpec, rng: np.random.Generator) -> Assignment:
    """Draw one assignment from an already-constructed generator."""
    if isinstance(spec, SimpleDesign):
        d = (rng.random(spec.n) < spec.p).astype(np.float64)
    elif isinstance(spec, CompleteDesign):
        d = np.zeros(spec.n)
        d[rng.permutation(spec.n)[: spec.n_t]] = 1.0
    else:
        raise InvalidSpec(f"unknown design spec {spec!r}")
    return Assignment.from_d(d)


def draw(spec: DesignSpec, seed: int) -> Assignment:
    """Draw one assignment, deterministically for a given seed."""
    return draw_with(spec, np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))))


def _masks_ascending(n: int, n_t: int) -> Iterator[int]:
    """Same-popcount bitmasks of width n in ascending numeric order (Gosper)."""
    mask = (1 << n_t) - 1
    top = 1 << n
    while mask < top:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def enumerate_assignments(spec: DesignSpec) -> Iterator[tuple[Assignment, float]]:
    """Stream every assignment with its exact design probability.

    Assignments come out in lexicographic order of the d vector so that any
    downstream file written from the stream is reproducible byte for byte.

    Raises
    ------
    TooLarge
        Simple designs beyond n = 20, or complete designs with more than
        2e6 treated subsets.
    """
    if isinstance(spec, SimpleDesign):
        n = spec.n
        if n > SIMPLE_ENUM_MAX_N:
            raise TooLarge(f"simple-design enumeration is limited to n <= {SIMPLE_ENUM_MAX_N}")
        p = spec.p
        for bits in range(1 << n):
            d = np.fromiter(
                ((bits >> (n - 1 - i)) & 1 for i in range(n)), dtype=np.float64, count=n
            )
            prob = math.prod(p[i] if d[i] else 1.0 - p[i] for i in range(n))
            yield Assignment.from_d(d), prob
    elif isinstance(spec, CompleteDesign):
        n, n_t = spec.n, spec.n_t
        total = math.comb(n, n_t)
        if total > COMPLETE_ENUM_MAX:
            raise TooLarge(
                f"complete-design enumeration is limited to C(n, n_t) <= {COMPLETE_ENUM_MAX}"
            )
        prob = 1.0 / total
        # Bit (n - 1 - i) carries unit i, so ascending masks equal d lex order.
        for mask in _masks_ascending(n, n_t):
            d = np.fromiter(
                ((mask >> (n - 1 - i)) & 1 for i in range(n)), dtype=np.float64, count=n
            )
            yield Assignment.from_d(d), prob
    else:
        raise InvalidSpec(f"unknown design spec {spec!r}")
