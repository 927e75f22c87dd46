"""Exception hierarchy shared across the package."""


class BeltramiLabError(Exception):
    """Base class for all package errors."""


class ParseError(BeltramiLabError):
    """Malformed coefficient expression.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownIdentifier(ParseError):
    """Identifier that is neither a known function nor a declared variable."""

    def __init__(self, name, offset, allowed=()):
        super().__init__(f"unknown identifier {name!r}", offset, expected=allowed)
        self.name = name


class EllipticityViolation(BeltramiLabError):
    """|mu| + |nu| >= 1 at a point where the coefficient must be elliptic."""


class UnknownCatalogEntry(BeltramiLabError):
    """Requested name is not in the builtin coefficient catalog."""


class ParamOutOfRange(BeltramiLabError):
    """Catalog parameter outside its documented range."""


class SupportTooLarge(BeltramiLabError, ValueError):
    """Field support violates the padding precondition of the transforms."""


class NotContractive(BeltramiLabError):
    """Ellipticity bound k >= 1; the fixed-point map is not a contraction."""


class MaxIterations(BeltramiLabError):
    """Iteration cap reached with the update still above tolerance."""


class DegenerateNormalization(BeltramiLabError):
    """|f(1) - f(0)| too small to pin the normalization scale."""


class EmptyCompact(BeltramiLabError, ValueError):
    """Compact-set margin leaves no grid samples."""


class DegenerateBase(BeltramiLabError):
    """Tangential dilatation requested at z == z0."""


class QuadratureFailure(BeltramiLabError):
    """Non-finite integrand or failed adaptive quadrature."""


class BoundViolation(BeltramiLabError):
    """A sampled dilatation exceeds its claimed majorant.

    ``witness`` is the offending (z, w, theta) triple.
    """

    def __init__(self, message, witness, value, bound):
        super().__init__(message)
        self.witness = witness
        self.value = value
        self.bound = bound


class NotInvertible(BeltramiLabError):
    """Inverse-map audit on a solution that failed the injectivity check."""


class ConfigError(BeltramiLabError):
    """Invalid run configuration (CLI or config file)."""
