"""Duality pairing, exact Bergman projection, and norm-inequality checks.

The test-function class is the mixed monomial sum  f = sum c * z^alpha *
zbar^gamma.  On a Reinhardt domain the angular integrals select matching
frequencies, so the pairing  <f, g> = integral f * conj(g)  against a Laurent
polynomial g collapses to radial moments and is exactly computable, as is the
orthogonal projection onto holomorphic functions:

    B(c z^alpha zbar^gamma) = c * (M / ||z^delta||_2^2) * z^delta,
    delta = alpha - gamma,   M = radial moment at exponents alpha+gamma+delta,

whenever delta is allowable at exponent 2 (and 0 otherwise).  The coefficient
ratio is always a plain rational: the pi powers and Gamma factors cancel.
That exactness is what makes the projection-norm witnesses sharp: the ratio
||Bf||_p / ||f||_p for a single mixed monomial flips from finite to divergent
at an exact rational exponent.

The interpolation consequences checked here are the log-convexity bound
||f||_r <= ||f||_p^(1-t) * ||f||_q^t (with 1/r = (1-t)/p + t/q) and the
pairing bound |<f, g>| <= ||f||_p ||g||_q; single-monomial norms and all
exponent-2 norms are exact, everything else routes through quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import quadrature
from .domains import (DomainSpec, MultiIndex, check_exponent,
                      conjugate_exponent, holomorphy_ok, moment, moment_finite,
                      radial_moment)
from .errors import ChainViolation, Inconclusive, NotIntegrable, ParseError
from .exact import (ExactMix, ExactValue, QComplex, as_fraction,
                    format_fraction)
from .index_sets import critical_slice, member
from .quadrature import QuadConfig, lp_norm, lp_norms, pth_root


def _check_term(alpha: MultiIndex, gamma: MultiIndex, dim: int) -> None:
    if len(alpha) != dim or len(gamma) != dim:
        raise ParseError("inconsistent term dimensions")
    if any(g < 0 for g in gamma):
        raise ParseError("conjugate exponents gamma must be >= 0")


@dataclass(frozen=True)
class MixedMonomialSum:
    """Finite sum of terms coeff * z^alpha * zbar^gamma with gamma >= 0.

    Terms are kept canonical: merged on (alpha, gamma), zero coefficients
    dropped, sorted lexicographically.  Coefficients are exact rational
    complex numbers (floats are converted bit-exactly).
    """

    terms: Tuple[Tuple[QComplex, MultiIndex, MultiIndex], ...]

    @staticmethod
    def make(terms: Sequence[tuple]) -> "MixedMonomialSum":
        merged: dict = {}
        dim = None
        for c, alpha, gamma in terms:
            alpha, gamma = tuple(alpha), tuple(gamma)
            if dim is None:
                dim = len(alpha)
            _check_term(alpha, gamma, dim)
            key = (alpha, gamma)
            q = c if isinstance(c, QComplex) else QComplex.from_complex(c)
            merged[key] = merged.get(key, QComplex()) + q
        out = tuple((q, a, g) for (a, g), q in sorted(merged.items())
                    if not q.is_zero())
        return MixedMonomialSum(out)

    @staticmethod
    def monomial(c, alpha, gamma=None) -> "MixedMonomialSum":
        alpha = tuple(alpha)
        gamma = tuple(gamma) if gamma is not None else (0,) * len(alpha)
        return MixedMonomialSum.make([(c, alpha, gamma)])

    def is_zero(self) -> bool:
        return not self.terms

    def is_laurent(self) -> bool:
        return all(not any(g) for _q, _a, g in self.terms)

    def p_integrable(self, d: DomainSpec, p) -> bool:
        """Exact check that every term lies in L^p."""
        p = check_exponent(p)
        return all(moment_finite(d, [a + g for a, g in zip(alpha, gamma)], p)
                   for _q, alpha, gamma in self.terms)

    def as_integrand(self) -> quadrature.MonomialSumIntegrand:
        return quadrature.MonomialSumIntegrand(
            [(complex(q), alpha, gamma) for q, alpha, gamma in self.terms])

    def as_term_dicts(self) -> list:
        """JSON terms; a coefficient outside the float range raises ``ParseError``."""
        out = []
        for q, alpha, gamma in self.terms:
            try:
                c = [float(q.re), float(q.im)]
            except OverflowError:
                raise ParseError(f"coefficient of term alpha={alpha} gamma={gamma} "
                                 "leaves the floating-point range") from None
            out.append({"c": c, "c_exact": [format_fraction(q.re), format_fraction(q.im)],
                        "alpha": list(alpha), "gamma": list(gamma)})
        return out


def laurent(terms: Sequence[tuple]) -> MixedMonomialSum:
    """Holomorphic-side sum: coefficient/exponent pairs with gamma = 0."""
    return MixedMonomialSum.make(
        [(c, alpha, (0,) * len(tuple(alpha))) for c, alpha in terms])


def _require_laurent(d: DomainSpec, g: MixedMonomialSum, name: str) -> None:
    if not g.is_laurent():
        raise ParseError(f"{name} must have no conjugated factors")
    for _q, alpha, _g in g.terms:
        if not holomorphy_ok(d, alpha):
            raise ParseError(
                f"{name} contains z^{alpha}, not holomorphic on {d}")


# ---------------------------------------------------------------------------
# pairing and projection
# ---------------------------------------------------------------------------

def pairing(d: DomainSpec, f: MixedMonomialSum, g: MixedMonomialSum) -> ExactMix:
    """Exact value of <f, g> = integral of f * conj(g) over the domain.

    The angular integral vanishes unless the term pair shares its frequency
    alpha - gamma, leaving the radial moment at the combined modulus
    exponents.  Every cross term must be absolutely integrable.  The usual
    call has a holomorphic right-hand side, but any mixed sum is accepted
    (conjugation just reflects its frequency).
    """
    result = ExactMix()
    for qf, af, gf in f.terms:
        for qg, ag, gg in g.terms:
            exps = [a + b + c + e for a, b, c, e in zip(af, gf, ag, gg)]
            if not moment_finite(d, exps):
                raise NotIntegrable(
                    f"cross term ({af},{gf}) x ({ag},{gg}) "
                    f"is not absolutely integrable")
            if all(a - b == c - e for a, b, c, e in zip(af, gf, ag, gg)):
                result.add_scaled(qf * qg.conjugate(), radial_moment(d, exps).value)
    return result


def _project_term(d: DomainSpec, alpha, gamma) -> Optional[tuple]:
    """(ratio, delta) with B(z^alpha zbar^gamma) = ratio * z^delta for a term
    in L^2, or None when delta is not allowable at 2 and the image is 0."""
    delta = tuple(a - g for a, g in zip(alpha, gamma))
    if not member(d, delta, 2):
        return None
    # at exponents alpha + gamma + delta = 2 alpha; finite by Cauchy-Schwarz,
    # since the term and z^delta both lie in L^2
    num = moment(d, alpha, 2).value
    den = moment(d, delta, 2).value
    if num.key() != den.key():  # canonical forms: the pi and Gamma parts
        raise ChainViolation(f"projection ratio not rational: {num / den}")
    return num.coeff / den.coeff, delta


def project(d: DomainSpec, f: MixedMonomialSum) -> MixedMonomialSum:
    """Exact orthogonal projection of a mixed monomial sum onto holomorphics.

    Acts term by term; a term maps to a rational multiple of z^(alpha-gamma)
    when that exponent is allowable at 2, and to zero otherwise.
    """
    out = []
    for q, alpha, gamma in f.terms:
        if not moment_finite(d, [2 * (a + g) for a, g in zip(alpha, gamma)]):
            raise NotIntegrable(f"term alpha={alpha} gamma={gamma} not in L^2")
        image = _project_term(d, alpha, gamma)
        if image is not None:
            ratio, delta = image
            out.append((q * ratio, delta, (0,) * len(delta)))
    return MixedMonomialSum.make(out)


@dataclass(frozen=True)
class ProjectionRatio:
    divergent: bool
    ratio: Optional[float]  # ||Bf||_p / ||f||_p when finite


def projection_ratio(d: DomainSpec, alpha, gamma, p) -> ProjectionRatio:
    """Exact finiteness verdict (and float value) of ||Bf||_p / ||f||_p.

    f = z^alpha zbar^gamma must lie in L^2 and L^p; the verdict is divergent
    exactly when the projected monomial has a divergent p-th moment while its
    coefficient is nonzero.
    """
    alpha, gamma = tuple(alpha), tuple(gamma)
    p = check_exponent(p)
    mods = [a + g for a, g in zip(alpha, gamma)]
    if not moment_finite(d, mods, 2):
        raise NotIntegrable("witness monomial is not in L^2")
    normp = moment(d, mods, p)
    if not normp.is_finite:
        raise NotIntegrable(f"witness monomial is not in L^{p}")
    _check_term(alpha, gamma, len(alpha))
    image = _project_term(d, alpha, gamma)
    if image is None:
        return ProjectionRatio(False, 0.0)
    ratio, delta = image
    mdp = moment(d, delta, p)
    if not mdp.is_finite:
        return ProjectionRatio(True, None)
    # in logarithms: for large exponents the moments leave the float range
    # although the ratio does not
    log_ratio = (ExactValue(ratio * ratio).log() / 2
                 + (mdp.value.log() - normp.value.log()) / float(p))
    return ProjectionRatio(False, math.exp(log_ratio))


# ---------------------------------------------------------------------------
# norms and inequality checks
# ---------------------------------------------------------------------------

#: budgets of the quadrature norms: a base rule and one doubling, at any error
NORM_CFG = QuadConfig(radial_nodes=12, angular_nodes=16, max_doublings=0)
LYAPUNOV_CFG = QuadConfig(radial_nodes=12, angular_nodes=8, max_doublings=0)


def _in_float_range(value, low: float = sys.float_info.min) -> float:
    """The float modulus of ``value``, a norm of a nonzero sum or (``low`` = 0)
    an exact pairing, when it lies in [low, inf); else a one-line
    ``Inconclusive``.  Past the float range a norm reads inf or 0, and an
    exact value's conversion raises a bare ``OverflowError``."""
    try:
        x = abs(complex(value))
    except OverflowError:
        x = math.inf
    if not low <= x < math.inf:
        raise Inconclusive("a norm or pairing leaves the floating-point range")
    return x


def laurent_norm(d: DomainSpec, f: MixedMonomialSum, p) -> float:
    """L^p norm of a monomial sum: exact for single terms and at p = 2, and 0
    for the zero function, the empty sum; else quadrature at ``NORM_CFG``.
    A nonzero sum's norm outside the normal floats raises ``Inconclusive``."""
    p = check_exponent(p)
    if f.is_zero():
        return 0.0
    if len(f.terms) == 1:
        q, alpha, gamma = f.terms[0]
        mods = [a + g for a, g in zip(alpha, gamma)]
        m = moment(d, mods, p)
        if not m.is_finite:
            raise NotIntegrable(f"monomial not in L^{p}")
        return _in_float_range(abs(complex(q)) * pth_root(m.value, p))
    if p == 2:
        return _in_float_range(math.sqrt(_in_float_range(pairing(d, f, f), 0.0)))
    return _in_float_range(lp_norm(d, f.as_integrand(), p, NORM_CFG))


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


_CHECK_TOL = 1e-9


def lyapunov_check(d: DomainSpec, f: MixedMonomialSum, p, q, theta) -> InequalityCheck:
    """Log-convexity of p -> ||f||_p between two exponents.

    Checks ||f||_r <= ||f||_p^(1-theta) * ||f||_q^theta with
    1/r = (1-theta)/p + theta/q; f must lie in both endpoint spaces
    (exact index-set membership).  The verdict is exact: a sum of several
    terms takes its norms from one ``lp_norms`` mesh, where the discrete
    inequality holds exactly; the values carry the error of ``LYAPUNOV_CFG``.
    """
    _require_laurent(d, f, "log-convexity test function")
    p, q = check_exponent(p), check_exponent(q)
    theta = as_fraction(theta)
    if not 0 < theta < 1:
        raise ParseError("theta must lie in (0, 1)")
    for expo, name in ((p, "p"), (q, "q")):
        if not f.p_integrable(d, expo):
            raise NotIntegrable(f"test function is not in the {name}-Bergman space")
    r = 1 / ((1 - theta) / p + theta / q)

    # exact moments for a single monomial or none, else one ``lp_norms`` run
    if len(f.terms) <= 1:
        lhs = laurent_norm(d, f, r)
        np_, nq = laurent_norm(d, f, p), laurent_norm(d, f, q)
    else:
        lhs, np_, nq = map(_in_float_range,
                           lp_norms(d, f.as_integrand(), [r, p, q], LYAPUNOV_CFG))
    rhs = np_ ** float(1 - theta) * nq ** float(theta)
    return InequalityCheck(lhs, rhs, lhs <= rhs * (1.0 + _CHECK_TOL))


def holder_check(d: DomainSpec, f: MixedMonomialSum, g: MixedMonomialSum,
                 p) -> InequalityCheck:
    """|<f, g>| <= ||f||_p * ||g||_q with exact pairing and quadrature norms.

    The two norms are taken once, by ``laurent_norm``; a violation beyond
    ``_CHECK_TOL`` stands (a single monomial's norm and every norm at
    exponent 2 are exact)."""
    p = check_exponent(p)
    if p <= 1:
        raise ParseError("p must exceed 1")
    q = conjugate_exponent(p)
    _require_laurent(d, f, "f")
    _require_laurent(d, g, "g")
    if not f.p_integrable(d, p):
        raise NotIntegrable("f is not in the p-Bergman space")
    if not g.p_integrable(d, q):
        raise NotIntegrable("g is not in the q-Bergman space")
    lhs = _in_float_range(pairing(d, f, g), 0.0)
    rhs = laurent_norm(d, f, p) * laurent_norm(d, g, q)
    return InequalityCheck(lhs, rhs, lhs <= rhs * (1.0 + _CHECK_TOL))


def injectivity_witness_scan(d: DomainSpec, p, radius: int) -> Optional[MultiIndex]:
    """Lex-smallest window index allowable at the conjugate exponent but not at p.

    Such an index annihilates every allowable monomial under the pairing, an
    exact obstruction to duality at exponent p.  None is the expected outcome
    for p below the duality bound (and always at p = 2).
    """
    p = check_exponent(p)
    if p < 2:
        raise ParseError("scan is defined for p >= 2")
    q = conjugate_exponent(p)
    # gamma is a member at q and not at p exactly when its flip lies in (q, p]
    return min((gamma for _t, gamma in critical_slice(d, radius, q, p)),
               default=None)
