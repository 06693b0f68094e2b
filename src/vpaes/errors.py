"""Exception hierarchy: one class per CLI exit code."""


class VpaesError(Exception):
    """Base class for all errors raised by this package (exit code 1)."""


class DomainError(VpaesError, ValueError):
    """An argument violates an operation's stated domain (exit code 1)."""


class PreconditionError(DomainError):
    """A statistical test's input misses its quality floor (exit code 6)."""


class KeyFormatError(VpaesError, ValueError):
    """The key does not parse to 16 bytes, or is degenerate (exit code 2)."""


class ImageFormatError(VpaesError, ValueError):
    """Unsupported or malformed image file (exit code 3)."""


class ContainerError(VpaesError, ValueError):
    """Malformed or inconsistent ciphertext container (exit code 5)."""
