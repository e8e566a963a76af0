"""Exception types and the read-only value base shared by the package."""


class Value:
    """Read-only value: its fields are the class's annotated names, in order,
    with class attributes as defaults, taken by position or keyword; then
    ``_check`` runs, and may set derived attributes by object.__setattr__.
    Equality, hash, repr and ``as_dict`` read the fields alone."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {k: vars(cls)[k] for k in cls._fields if k in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields) or kwargs.keys() - set(fields[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        kwargs.update(zip(fields, args))
        for name in fields:
            value = kwargs.get(name, cls._defaults.get(name, kwargs))
            if value is kwargs:
                raise TypeError(f"{cls.__name__}() needs the field {name!r}")
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        """Raise on fields that make no value; the base takes any."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def as_dict(self):
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return type(other) is type(self) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash((type(self), *self.as_dict().values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"


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
    """Group element lies outside the injectivity region of exp."""


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
