"""Exception hierarchy shared by all hsvt modules.

Each class maps to one CLI exit-status family (see cli.EXIT_CODES).
"""


class HsvtError(Exception):
    """Base class for all package errors."""


class InvalidInputError(HsvtError):
    """Malformed numerical input: non-finite entries, shape mismatch, etc."""


class NormalizationError(InvalidInputError):
    """A block exceeds the sub-normalization bound sigma_max <= 1."""

    def __init__(self, sigma_max):
        self.sigma_max = sigma_max
        super().__init__(f"largest singular value {sigma_max:.12g} exceeds 1")


class NotPSDError(InvalidInputError):
    """Matrix handed to a PSD-only routine has a clearly negative eigenvalue."""


class PreconditionError(HsvtError):
    """An operation's documented precondition does not hold."""


class DomainError(PreconditionError):
    """A singular value lies outside a target function's admissible domain."""


class CapError(PreconditionError):
    """A target function violates its magnitude cap."""


class GeneratorError(PreconditionError):
    """ODE generator is not dissipative for the requested step size."""

    def __init__(self, sigma_max, worst_eig):
        self.sigma_max = sigma_max
        self.worst_eig = worst_eig
        super().__init__(
            f"I + B*dt has largest singular value {sigma_max:.12g} > 1; "
            f"largest eigenvalue of B + B^dag is {worst_eig:.6g}"
        )


class SingularInversionError(PreconditionError):
    """sqrt(I - A^dag A) is singular (some sigma too close to 1)."""


class ZeroProbabilitySignal(HsvtError):
    """A annihilates the input state: success probability below threshold."""


class ConvergenceError(HsvtError):
    """Schedule synthesis failed to reach the requested accuracy."""


class ParseError(HsvtError):
    """A matrix, state, or schedule file violates its format."""

    def __init__(self, message, path=None, line=None, field=None):
        self.path = path
        self.line = line
        self.field = field
        loc = ""
        if path is not None:
            loc += f" in {path}"
        if line is not None:
            loc += f" at line {line}"
        if field is not None:
            loc += f" (field {field!r})"
        super().__init__(message + loc)


class ConfigError(HsvtError):
    """CLI configuration is malformed: unknown keys or out-of-range values."""
