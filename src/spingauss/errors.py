"""Exception types shared across the package."""


class SpinGaussError(Exception):
    """Base class for all package errors."""


class ValidationError(SpinGaussError):
    """An operator input violates a structural invariant (shape, Hermiticity, positivity)."""


class DomainError(SpinGaussError):
    """A parameter lies outside the mathematical domain of the requested quantity."""


class AccuracyError(SpinGaussError):
    """A quadrature or Monte Carlo estimate cannot meet the requested accuracy."""


class ConfigError(SpinGaussError):
    """Invalid experiment configuration (bad key, bad value, bad file)."""
