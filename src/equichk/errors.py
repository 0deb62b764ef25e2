"""Exception taxonomy shared across the toolbox.

Every failure mode that callers are expected to catch has its own class so
that tests (and the CLI exit-code mapping) can discriminate without string
matching.  All of them derive from :class:`EquichkError`.
"""


class EquichkError(Exception):
    """Base class for all toolbox-specific errors."""


# --- tensor layer -----------------------------------------------------------

class NonFiniteEntry(EquichkError):
    """An input point or derivative-callback output contains NaN or Inf."""


class AxisMismatch(EquichkError):
    """Contracted axes have different lengths."""


class IndexOutOfRange(EquichkError):
    """A component index (or derivative order) is outside the valid range."""


class Singular(EquichkError):
    """Matrix inversion failed: zero pivot or condition estimate below 1e-12."""


# --- differentiation layer --------------------------------------------------

class NonFiniteResult(EquichkError):
    """A map or derivative sweep produced NaN or Inf."""


class InvalidParams(EquichkError):
    """Catalog parameters fail validation (shapes, ranges, orthonormality)."""


class UnknownSpec(EquichkError):
    """A requested catalog entry (model, loss, transform, check) does not exist."""


class SizeMismatch(EquichkError):
    """A parameter or data vector has the wrong length for the object using it."""


# --- transforms / identity checks -------------------------------------------

class NotGoodPosition(EquichkError):
    """A required linearization is not invertible at the queried point."""


class NotInvolution(EquichkError):
    """A discrete action matrix does not square to the identity."""


class NotConservative(EquichkError):
    """No closed-form conserved charge is registered for the transform."""


class DegenerateLoss(EquichkError):
    """The loss derivative combination required by the check vanishes."""


class NotFixedPoint(EquichkError):
    """The supplied point is not (numerically) fixed by the discrete action."""


class NotFactoredModel(EquichkError):
    """The model does not expose a last-layer factorization W·h(theta')."""


# --- dynamics ----------------------------------------------------------------

class NotConverged(EquichkError):
    """An iterative procedure stopped before reaching its target tolerance."""


class StepFailure(EquichkError):
    """The integrator could not find an acceptable step after max halvings."""


class InsufficientEnsemble(EquichkError):
    """Too few trajectories to form the requested ensemble statistic."""


class InvalidNoiseModel(EquichkError):
    """Noise-model parameters are out of range or the mode is unknown."""


# --- CLI ----------------------------------------------------------------------

class ConfigError(EquichkError):
    """Experiment configuration failed schema validation (exit code 2)."""


class CheckFailure(EquichkError):
    """At least one check in a run reported a failing residual (exit code 1)."""


class RuntimeFault(EquichkError):
    """Unexpected internal failure during a run (exit code 3)."""
