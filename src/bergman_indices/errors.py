"""Exception types with CLI exit-code significance."""


class ParseError(ValueError):
    """Malformed domain spec, rational, or CLI input (exit code 2)."""


class DimensionMismatch(ValueError):
    """Multi-index or point length differs from the domain dimension."""


class NotIntegrable(ValueError):
    """An operand fails the exact integrability precondition."""


class WindowTooSmall(RuntimeError):
    """The lattice window cannot realize a required witness; raise N."""


class Inconclusive(RuntimeError):
    """A numerical probe exhausted its budget without a verdict (exit code 3)."""


class NaNOnGrid(Inconclusive, ValueError):
    """An integrand gave NaN on a quadrature grid, as when its values leave
    the floating-point range; still a ValueError for library callers."""


class ChainViolation(RuntimeError):
    """Internal consistency failure: the index chain ordering broke."""


class IllConditionedGram(RuntimeError):
    """Kernel Gram matrix too ill-conditioned for a trustworthy solve."""
