"""Exception hierarchy and argument checks shared across the package."""

import operator


class SpinradError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpinradError, ValueError):
    """An argument violates a documented precondition."""


class ResourceError(SpinradError, RuntimeError):
    """A requested object exceeds the configured memory/dimension budget."""


class ConvergenceError(SpinradError, RuntimeError):
    """An iterative solver failed to converge within its budget."""


class ConfigError(SpinradError, ValueError):
    """A run configuration is syntactically or semantically invalid."""


def _integer(n, name: str) -> int:
    """n as an int; a float or a boolean raises DomainError."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer, got {n!r}")
