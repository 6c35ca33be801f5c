"""Library input validation: each bad input raises its documented error class."""

from fractions import Fraction

import pytest

from bergman_indices import domains as dm
from bergman_indices import duality_projection as dp
from bergman_indices import kernel as kn
from bergman_indices import quadrature as qd
from bergman_indices.errors import NotIntegrable, ParseError
from bergman_indices.exact import QComplex, as_fraction

H11 = dm.hartogs(1, 1)
ONE = dp.laurent([(1, (0, 0))])
#: z2^-2 is holomorphic on H(1, 1) but not in L^2 there
POLE = dp.laurent([(1, (0, -2))])

CASES = {
    "angular-nodes-range": (lambda: qd.QuadConfig(angular_nodes=3),
                            ParseError, "angular_nodes must lie in"),
    "rel-tol-range": (lambda: qd.QuadConfig(rel_tol=1.0), ParseError, "rel_tol must lie in"),
    "empty-integrand": (lambda: qd.MonomialSumIntegrand([]),
                        ValueError, "at least one term"),
    "lp-norms-exponent": (lambda: qd.lp_norms(dm.polydisc(1), None, [2, 0]),
                          ValueError, "exponents must be positive"),
    "term-dimensions": (lambda: dp.MixedMonomialSum.make([(1, (1, 0), (0,))]),
                        ParseError, "inconsistent term dimensions"),
    "laurent-conjugated": (lambda: dp.holder_check(
        H11, dp.MixedMonomialSum.make([(1, (0, 0), (1, 0))]), ONE, 2),
        ParseError, "f must have no conjugated factors"),
    "laurent-holomorphy": (lambda: dp.lyapunov_check(
        dm.polydisc(2), dp.laurent([(1, (-1, 0))]), 2, 4, Fraction(1, 2)),
        ParseError, "not holomorphic on polydisc:2"),
    "monomial-norm": (lambda: dp.laurent_norm(H11, POLE, 2),
                      NotIntegrable, "monomial not in L"),
    "holder-exponent": (lambda: dp.holder_check(H11, ONE, ONE, 1),
                        ParseError, "p must exceed 1"),
    "holder-f": (lambda: dp.holder_check(H11, POLE, ONE, 2),
                 NotIntegrable, "f is not in the p-Bergman space"),
    "holder-g": (lambda: dp.holder_check(H11, ONE, POLE, 2),
                 NotIntegrable, "g is not in the q-Bergman space"),
    "density-not-l2": (lambda: kn.density_residual(H11, (0, -2), [(0, 0.5)]),
                       ParseError, "is not square integrable"),
    "hartogs-dimension": (lambda: dm.DomainSpec(dm.Family.HARTOGS, 3, 1, 1),
                          ParseError, "hartogs domains live in C"),
    "hartogs-coprime": (lambda: dm.DomainSpec(dm.Family.HARTOGS, 2, 2, 4),
                        ParseError, "must be coprime"),
    "as-fraction-type": (lambda: as_fraction("1/2"), TypeError, "cannot interpret"),
    "coefficient-finite": (lambda: QComplex.from_complex(float("nan")),
                           ParseError, "is not finite"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_invalid_input_raises_its_documented_error(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error
