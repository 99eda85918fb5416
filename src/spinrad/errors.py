"""Exception hierarchy shared across the package."""


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
