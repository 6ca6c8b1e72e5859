"""Exception hierarchy shared across the package."""


class WaxsimError(Exception):
    """Base class for all waxsim errors."""


class DomainError(WaxsimError, ValueError):
    """A physical or statistical precondition was violated (bad input value)."""


class ConfigError(WaxsimError):
    """Malformed configuration text, unknown key, or inconsistent settings."""


class NumericalError(WaxsimError, RuntimeError):
    """A numerical routine failed to converge or produced an unusable result."""
