"""Exception types shared across the package."""


class HaarrectError(Exception):
    """Base class for all package errors."""

    # defect of the initial map, set by `rectifier.iterate` on the errors it
    # raises after measuring that defect
    initial_defect = None


class ConfigError(HaarrectError, ValueError):
    """A run config is malformed: unknown key, wrong shape or bad value."""


class InvalidAlgebraVector(HaarrectError):
    """Algebra coordinates are non-finite."""


class LogDomainError(HaarrectError):
    """Group element lies outside the verified injectivity region of exp."""


class NormalizationFailure(HaarrectError):
    """Norm scale search exhausted its cap without verifying both conditions."""


class ActionError(HaarrectError):
    """A claimed group action violates the action axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoreAxiomError(HaarrectError):
    """A candidate core violates one of the three core axioms."""

    def __init__(self, axiom, witness):
        super().__init__(f"core axiom violated: {axiom} (witness: {witness})")
        self.axiom = axiom
        self.witness = witness


class InvarianceError(HaarrectError):
    """Fiber weights are not preserved by right translation."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DefectOverflow(HaarrectError):
    """Defect lies beyond the measurable range of the log."""


class DefectTooLarge(HaarrectError):
    """Initial defect exceeds the admissible radius for averaging."""

    def __init__(self, delta, limit):
        super().__init__(f"defect {delta:.6g} exceeds admissible radius {limit:.6g}")
        self.delta = delta
        self.limit = limit


class RangeEscape(HaarrectError):
    """A morphism value left the prescribed neighbourhood of the identity."""

    def __init__(self, message, radius, limit):
        super().__init__(f"{message}: range radius {radius:.6g} exceeds {limit:.6g}")
        self.radius = radius
        self.limit = limit


class NonContraction(HaarrectError):
    """Defect grew past the averaging precondition during iteration."""

    def __init__(self, step, delta, trace=None):
        super().__init__(f"defect grew to {delta:.6g} at step {step}")
        self.step = step
        self.delta = delta
        self.trace = trace


class GridError(HaarrectError):
    """Grid cannot carry the samples: too few nodes for the stencil, a zero
    spacing, or a non-finite sampled value."""
