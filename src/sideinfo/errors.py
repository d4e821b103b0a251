"""Semantic exception hierarchy shared by all sideinfo modules, and their shared seed and budget check."""

import numpy as np


class SideinfoError(Exception):
    """Base class for all errors raised by this package."""


class NegativeMass(SideinfoError):
    """A probability entry is negative beyond tolerance."""


class NotNormalized(SideinfoError):
    """Probability entries do not sum to one beyond tolerance."""


class ZeroConditioningEvent(SideinfoError):
    """Attempted to condition on an event of zero probability."""


class UnknownLoss(SideinfoError):
    """Requested built-in loss name is not recognized."""


class UnboundedBelow(SideinfoError):
    """The Bayes risk has no finite value (infimum is -inf or no finite action)."""


class NotProper(SideinfoError):
    """A scoring rule failed the propriety audit.

    Carries the witness pair: reporting `q` beats the honest report under `p`
    by `margin` (negative means improper).
    """

    def __init__(self, p, q, margin):
        self.p = p
        self.q = q
        self.margin = margin
        super().__init__(
            f"scoring rule is not proper: reporting q={q} beats p={p} "
            f"by margin {margin:.3g}"
        )


class ConvexityViolation(SideinfoError):
    """A convex-oracle spot check failed (midpoint, hyperplane, or symmetry)."""


class WitnessVerificationFailed(SideinfoError):
    """A violation witness did not reproduce when recomputed (numeric instability)."""


class AlphabetTooLarge(SideinfoError):
    """Alphabet exceeds the partition-enumeration bound."""


class ParameterOutOfRange(SideinfoError):
    """A constructor parameter violates its documented range."""


class HorizonTooLarge(SideinfoError):
    """An exact computation at the requested horizon exceeds its enumeration bound.

    For a Markov model the bound is on the forward arrays, max(nx, ny)^n * nx * ny
    entries; an explicit table bounds the horizon by its own.
    """


class NotStationary(SideinfoError):
    """Process model is not stationary (kernel/initial mismatch or unstable VAR)."""


class SchemaError(SideinfoError):
    """A model document is structurally invalid (bad JSON, unknown kind, missing keys)."""


class ValidationError(SideinfoError):
    """A model document failed validation; `field` names the offending path."""

    def __init__(self, message, field=""):
        self.field = field
        super().__init__(f"{message}" + (f" (field: {field})" if field else ""))


class EmptySample(SideinfoError):
    """Empirical estimation was given no samples."""


class UnknownSymbol(SideinfoError):
    """A sample symbol falls outside its declared alphabet."""


def _check_count(name: str, v, least: int = 0) -> None:
    """A seed, budget or size: an integer (numpy integers count) that is >= least, else ParameterOutOfRange."""
    if not isinstance(v, (int, np.integer)):
        raise ParameterOutOfRange(f"{name} must be an integer, got {type(v).__name__}")
    if v < least:
        raise ParameterOutOfRange(f"{name} must be >= {least}, got {v}")
