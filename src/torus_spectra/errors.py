"""Exception hierarchy.

Everything raised on purpose derives from TorusSpectraError so the CLI can
map library failures to its usage-error exit code. ContractError covers
violated preconditions; the more specific subclasses exist where callers
plausibly want to distinguish the reason.
"""


class TorusSpectraError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(TorusSpectraError, ValueError):
    """Input outside the supported parameter range (dim, lambda, ...)."""


class ContractError(TorusSpectraError, ValueError):
    """A documented precondition was violated."""


class MembershipError(ContractError):
    """A point that must lie on a shell does not."""


class AntipodalError(ContractError):
    """Two simplex vertices are diametrically opposite."""


class DegenerateSimplexError(ContractError):
    """Vertices do not span a codimension-one affine subspace."""


class AliasingError(ContractError):
    """Quadrature grid too coarse for the bandwidth of the integrand."""


class ResourceLimitError(TorusSpectraError):
    """A combinatorial or memory guard was exceeded."""


class PointLimitError(ResourceLimitError):
    """A shell holds more points than one enumeration may (lattice.MAX_POINTS)."""


class CoefficientFileError(TorusSpectraError, ValueError):
    """A coefficient file is malformed or fails its normalization contract."""
