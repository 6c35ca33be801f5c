"""Package errors; each carries the CLI exit code and stderr prefix it ends
a run with: 2 "error" for usage and validation (the default), 3
"inconclusive" for a probe without a numerical verdict, and 1 "internal
consistency failure".  Exit 0 is success; 1 also marks a failed verify.
"""


class BergmanError(Exception):
    """Base of the package errors; ``cli.run`` exits with ``exit_code``."""
    exit_code = 2
    prefix = "error"


class ParseError(BergmanError, ValueError):
    """Malformed or out-of-range input: a domain spec, rational or CLI value."""


class DimensionMismatch(BergmanError, ValueError):
    """Multi-index or point length differs from the domain dimension."""


class NotIntegrable(BergmanError, ValueError):
    """An operand fails the exact integrability precondition."""


class WindowTooSmall(BergmanError, RuntimeError):
    """The lattice window cannot realize a required witness; raise N."""


class IllConditionedGram(BergmanError, RuntimeError):
    """Kernel Gram matrix too ill-conditioned for a trustworthy solve."""


class Inconclusive(BergmanError, RuntimeError):
    """A numerical probe exhausted its budget without a verdict."""
    exit_code = 3
    prefix = "inconclusive"


class NaNOnGrid(Inconclusive, ValueError):
    """An integrand gave NaN on a quadrature grid, as when its values leave
    the floating-point range; still a ValueError for library callers."""


class ChainViolation(BergmanError, RuntimeError):
    """Internal consistency failure: the index chain ordering broke, or an
    exact result lost a property it holds by construction."""
    exit_code = 1
    prefix = "internal consistency failure"
