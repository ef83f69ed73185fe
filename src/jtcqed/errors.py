"""Exception types shared across the package."""


class JTCQEDError(Exception):
    """Base class for all library-specific errors."""


class ValidationError(JTCQEDError, ValueError):
    """An object or argument violates a documented invariant."""


class DegenerateModelError(JTCQEDError, ValueError):
    """Model parameters collapse the effective-mode construction (k1 = k2 = 0)."""


class DegenerateSteadyStateError(JTCQEDError, RuntimeError):
    """The Liouvillian kernel is not one-dimensional; no unique steady state."""


class NonStationaryStateError(JTCQEDError, ValueError):
    """A state passed as stationary does not satisfy L(rho) = 0 to tolerance."""


class UndefinedCoherenceError(JTCQEDError, RuntimeError):
    """A coherence-function denominator fell below the resolvable threshold."""
