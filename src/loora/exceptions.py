"""Exception types shared across the package."""


class LooraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LooraError, ValueError):
    """Non-finite values, dimension mismatches, or otherwise malformed input."""


class SelfCheckFailed(InvalidInput):
    """A computed quantity failed an internal consistency check.

    Raised, for example, when the auxiliary regression behind the LOORA-DM
    variance does not reproduce the point estimate. A Monte Carlo study
    counts it as that replicate's failure for the method concerned.
    """


class InvalidSpec(LooraError, ValueError):
    """A design specification violates its validity constraints."""


class SpecMismatch(LooraError, ValueError):
    """An estimator was applied under an assignment design it does not support."""


class RankDeficient(LooraError):
    """Unregularized normal equations are singular (rank-deficient design)."""


class LeverageSingular(LooraError):
    """A ridge leverage score is too close to 1 for leave-one-out formulas.

    Carries the offending row index so callers can report which observation
    breaks the (1 - h) denominators.
    """

    def __init__(self, row: int, leverage: float):
        self.row = int(row)
        self.leverage = float(leverage)
        super().__init__(
            f"leverage {leverage:.17g} at row {row} leaves (1 - h) below the "
            f"1e-12 guard; increase the ridge penalty"
        )


class NonFinite(LooraError):
    """A finite input drove a computed quantity out of the floating-point range.

    Carries the method and the stage (point estimate or variance) that
    overflowed.
    """

    def __init__(self, method: str, stage: str):
        self.method = method
        self.stage = stage
        super().__init__(
            f"{method} {stage} is not finite; the inputs are too large in magnitude "
            "for double precision"
        )


class TooLarge(LooraError):
    """Exhaustive enumeration was requested beyond the guard rails."""


class ParameterOutOfRange(LooraError, ValueError):
    """A formula was evaluated outside the sample-size range it is defined for."""


class SchemaError(LooraError, ValueError):
    """A dataset file does not satisfy the declared column schema."""
