"""Exception types shared across the package, and the base of its read-only
values."""


class ElemdiffError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(ElemdiffError):
    """An enumeration or computation would exceed a hard size guard."""


class MismatchError(ElemdiffError):
    """Structurally incompatible operands (dimension, degree, vertex sets)."""


class PreconditionError(ElemdiffError):
    """Input violates a documented precondition."""


class SpanInstabilityError(ElemdiffError):
    """A span assumed relabel-stable turned out not to be."""


class ReadOnly:
    """Base of the package's immutable values and records: each sets its
    `__slots__` once, in `__init__`, through `object.__setattr__`, and any
    later assignment or deletion raises AttributeError.  Its `__init__`
    takes the slots in order, which copying, pickling and `repr` rely on;
    a class that also stores what it derives says so in its own
    `__reduce__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, whose parameters are the slots
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"
