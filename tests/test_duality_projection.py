"""Pairing, projection, witnesses, and norm inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_indices import domains as dm
from bergman_indices import duality_projection as dp
from bergman_indices import index_sets as ix
from bergman_indices import verify as vf
from bergman_indices.errors import Inconclusive, NotIntegrable, ParseError
from bergman_indices.exact import ExactValue, QComplex
from bergman_indices.quadrature import AbsPowerIntegrand, QuadConfig, integrate, lp_norm

H11 = dm.hartogs(1, 1)
B2 = dm.ball(2)
PI = math.pi


def test_term_canonicalization():
    f = dp.MixedMonomialSum.make([
        (1 + 1j, (1, 0), (0, 0)),
        (2 - 1j, (1, 0), (0, 0)),
        (0.0, (0, 1), (0, 0)),
    ])
    assert len(f.terms) == 1
    q, alpha, gamma = f.terms[0]
    assert complex(q) == 3 + 0j and alpha == (1, 0)
    with pytest.raises(ParseError):
        dp.MixedMonomialSum.make([(1, (0, 0), (-1, 0))])


def test_pairing_orthogonality_and_norm():
    e10 = dp.MixedMonomialSum.monomial(1, (1, 0))
    e01 = dp.laurent([(1, (0, 1))])
    assert dp.pairing(H11, e10, e01).is_zero()
    same = dp.pairing(H11, e10, dp.laurent([(1, (1, 0))]))
    assert complex(same) == pytest.approx(float(dm.moment(H11, (1, 0), 2)),
                                          rel=1e-15)


def test_pairing_conjugate_against_negative_power():
    # <conj(z2), z2^(-1)> integrates the constant 1: the volume
    f = dp.MixedMonomialSum.monomial(1, (0, 0), (0, 1))
    g = dp.laurent([(1, (0, -1))])
    assert complex(dp.pairing(H11, f, g)) == pytest.approx(PI ** 2 / 2,
                                                           rel=1e-15)


def test_pairing_integrability_guard():
    f = dp.MixedMonomialSum.monomial(1, (0, 0), (0, 1))
    g = dp.laurent([(1, (0, -5))])
    with pytest.raises(NotIntegrable):
        dp.pairing(H11, f, g)  # modulus exponents (0,-4) are not integrable


def test_project_examples():
    # identity on allowable monomials
    e = dp.MixedMonomialSum.monomial(2 + 3j, (1, -1))
    assert dp.project(H11, e).terms == e.terms
    # conj(z2) projects onto z2^(-1) with exact coefficient 1/2
    bf = dp.project(H11, dp.MixedMonomialSum.monomial(1, (0, 0), (0, 1)))
    (q, delta, gamma), = bf.terms
    assert delta == (0, -1) and gamma == (0, 0)
    assert q == QComplex(Fraction(1, 2))
    # no negative exponents are allowable on the ball
    assert dp.project(B2, dp.MixedMonomialSum.monomial(1, (0, 0), (1, 0))).is_zero()


def test_project_requires_square_integrable():
    with pytest.raises(NotIntegrable):
        dp.project(H11, dp.MixedMonomialSum.monomial(1, (0, -2)))


def test_projection_ratio_witness():
    fin = dp.projection_ratio(H11, (0, 0), (0, 1), Fraction(7, 2))
    assert not fin.divergent and fin.ratio > 0
    div = dp.projection_ratio(H11, (0, 0), (0, 1), 4)
    assert div.divergent and div.ratio is None
    poly = dp.projection_ratio(dm.polydisc(1), (2,), (1,), 3)
    assert not poly.divergent and poly.ratio > 0


def test_projection_ratio_vanishing_projection():
    r = dp.projection_ratio(B2, (0, 0), (1, 0), 2)
    assert not r.divergent and r.ratio == 0.0


def _ratio_via_project(d, alpha, gamma, p):
    """||Bf||_p / ||f||_p rebuilt from ``project`` of the one-term sum."""
    bf = dp.project(d, dp.MixedMonomialSum.monomial(1, alpha, gamma))
    if bf.is_zero():
        return dp.ProjectionRatio(False, 0.0)
    (q, delta, _zero), = bf.terms
    mdp = dm.moment(d, delta, p)
    if not mdp.is_finite:
        return dp.ProjectionRatio(True, None)
    normp = dm.radial_moment(d, [p * (a + g) for a, g in zip(alpha, gamma)])
    return dp.ProjectionRatio(False, math.exp(
        ExactValue(q.re * q.re + q.im * q.im).log() / 2
        + (mdp.value.log() - normp.value.log()) / float(p)))


def test_projection_ratio_matches_project_round_trip():
    """Witnesses and seeded random monomials, p in quarter steps: the same
    repr as the projection of the one-term sum, or the same L^2 / L^p error."""
    rng = np.random.default_rng(20240901)
    compared = 0
    for spec in ("polydisc:2", "ball:2", "hartogs:1/1", "hartogs:3/2",
                 "hartogs:2/5"):
        d = dm.parse_domain(spec)
        _val, witness = ix.regularity_probe(d, ix.default_window(d))
        monomials = [witness] if witness is not None else []
        monomials += [(tuple(int(a) for a in rng.integers(-3, 5, 2)),
                       tuple(int(g) for g in rng.integers(0, 4, 2)))
                      for _ in range(8)]
        for alpha, gamma in monomials:
            mods = [a + g for a, g in zip(alpha, gamma)]
            for k in range(4, 25):
                p = Fraction(k, 4)
                if not dm.moment_finite(d, [2 * e for e in mods]):
                    message = "witness monomial is not in L^2"
                elif not dm.moment_finite(d, [p * e for e in mods]):
                    message = f"witness monomial is not in L^{p}"
                else:
                    assert (repr(dp.projection_ratio(d, alpha, gamma, p))
                            == repr(_ratio_via_project(d, alpha, gamma, p)))
                    compared += 1
                    continue
                with pytest.raises(NotIntegrable) as err:
                    dp.projection_ratio(d, alpha, gamma, p)
                assert str(err.value) == message
    assert compared > 300


def test_projection_ratio_error_order():
    """Not in L^2, then not in L^p, then a negative gamma."""
    for gamma, p, error, message in [
            ((0, -2), 3, NotIntegrable, "witness monomial is not in L^2"),
            ((0, -1), 4, NotIntegrable, "witness monomial is not in L^4"),
            ((0, -1), 3, ParseError, "conjugate exponents gamma must be >= 0")]:
        with pytest.raises(error) as err:
            dp.projection_ratio(H11, (0, 0), gamma, p)
        assert str(err.value) == message


def test_witness_criticality_dense_grid():
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        d = dm.hartogs(m, n)
        _val, (alpha, gamma) = ix.regularity_probe(d, ix.default_window(d))
        crit = ix.hartogs_regularity_formula(m, n)
        for j in range(1, 51):
            below = crit - Fraction(j, 100)
            if below > 1:
                assert not dp.projection_ratio(d, alpha, gamma, below).divergent
            assert dp.projection_ratio(d, alpha, gamma,
                                       crit + Fraction(j, 100)).divergent
        assert dp.projection_ratio(d, alpha, gamma, crit).divergent


def test_converged_is_the_stop_rule_not_an_error_bound():
    """``IntegralResult.converged`` reads the stop rule on the last difference
    of a sum at ``NORM_CFG``: it holds on polydisc:2 and fails on H(7,5),
    where the value is 1e-3 off, and it fails on H(1,1), where the value is
    right to round-off.  The exact value is ||f^2||_2^2 = ||f||_4^4."""
    c1, c2 = QComplex(Fraction(1, 4), Fraction(-1, 8)), QComplex(Fraction(-1), Fraction(-1, 4))
    f = dp.laurent([(c1, (1, 2)), (c2, (3, 4))])
    square = dp.laurent([(c1 * c1, (2, 4)), (2 * c1 * c2, (4, 6)), (c2 * c2, (6, 8))])
    for d, p, converged in [(dm.polydisc(2), 4, True), (dm.hartogs(7, 5), 6, False),
                            (H11, 4, False)]:
        res = integrate(d, AbsPowerIntegrand(f.as_integrand(), p), dp.NORM_CFG)
        assert res.converged is converged
    assert res.value == pytest.approx(complex(dp.pairing(H11, square, square)).real,
                                      rel=1e-12)


def test_laurent_norm_exact_paths():
    f = dp.MixedMonomialSum.monomial(2, (1, -1))
    for p in (Fraction(3, 2), 2, 3):
        expected = 2 * float(dm.moment(H11, (1, -1), p)) ** (1 / float(p))
        assert dp.laurent_norm(H11, f, p) == pytest.approx(expected, rel=1e-14)
    two_term = dp.laurent([(1, (0, 0)), (1j, (1, 0))])
    exact2 = math.sqrt(float(dm.moment(H11, (0, 0), 2))
                       + float(dm.moment(H11, (1, 0), 2)))
    assert dp.laurent_norm(H11, two_term, 2) == pytest.approx(exact2, rel=1e-14)


def test_single_monomial_norm_below_the_float_range():
    """||z^(300,300)||_64 on the ball is representable although its moment,
    the 64th power, is below the least normal float: the root comes from the
    exact moment's log, and neither inequality reads a false violation."""
    d = dm.ball(2)
    f = dp.MixedMonomialSum.monomial(1, (300, 300))
    m = dm.moment(d, (300, 300), 64).value
    assert float(m) == 0.0
    assert dp.laurent_norm(d, f, 64) == pytest.approx(math.exp(m.log() / 64), rel=1e-12)
    assert dp.laurent_norm(d, f, 64) == pytest.approx(4.052085275400356e-91, rel=1e-12)
    assert dp.holder_check(d, f, f, 64).holds
    assert dp.lyapunov_check(d, f, 64, Fraction(5, 4), Fraction(1, 2)).holds


def test_single_monomial_norm_above_the_float_range():
    """||z^(-1,...,-1)||_p on the 64-polydisc near p = 2: the moment is above
    the largest float, so its root comes from the exact log; a root that
    itself leaves the float range is Inconclusive, not an OverflowError."""
    d = dm.polydisc(64)
    f = dp.laurent([(1, (-1,) * 64)])
    p = Fraction(1999999, 1000000)
    m = dm.moment(d, (-1,) * 64, p).value
    assert m.log() == pytest.approx(1001.8168, abs=1e-4)
    assert dp.laurent_norm(d, f, p) == pytest.approx(math.exp(m.log() / float(p)), rel=1e-12)
    assert dp.laurent_norm(d, f, p) == pytest.approx(3.482286974688958e+217, rel=1e-12)
    with pytest.raises(Inconclusive):
        dp.laurent_norm(d, f, 2 - Fraction(1, 10 ** 12))


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_a_sum_whose_norm_leaves_the_float_range_is_inconclusive(c):
    """c (1 + z) on the disc: its p-th powers and its pairing overflow at c =
    1e200 and underflow at 1e-200, where a norm read inf or 0, a check True,
    or a bare ``OverflowError`` rose; each now raises a one-line
    ``Inconclusive``."""
    d = dm.polydisc(1)
    f = dp.laurent([(c, (0,)), (c, (1,))])
    calls = [lambda p=p: dp.laurent_norm(d, f, p) for p in (2, 3, 4)]
    calls += [lambda: dp.holder_check(d, f, f, 2),
              lambda: dp.lyapunov_check(d, f, 4, Fraction(5, 4), Fraction(1, 2))]
    for call in calls:
        with pytest.raises(Inconclusive, match="floating-point range") as info:
            call()
        assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("c", [1e-160, 1e-161])
def test_a_subnormal_pairing_is_inconclusive(c):
    """c (1 + z) on the disc has the normal norm c sqrt(3 pi / 2), but its
    pairing with itself is subnormal, short of its bits: the p = 2 norm read
    1e-6 and 7e-3 off, and Hoelder compared two equal subnormals and held.
    Both now raise the one-line ``Inconclusive``; at c = 1e-150 nothing moves."""
    d = dm.polydisc(1)
    f = dp.laurent([(c, (0,)), (c, (1,))])
    for call in (lambda: dp.laurent_norm(d, f, 2), lambda: dp.holder_check(d, f, f, 2)):
        with pytest.raises(Inconclusive, match="floating-point range"):
            call()
    f = dp.laurent([(1e-150, (0,)), (1e-150, (1,))])
    assert dp.laurent_norm(d, f, 2) == 2.170803763674803e-150
    assert dp.holder_check(d, f, f, 2) == dp.InequalityCheck(
        4.7123889803846904e-300, 4.71238898038469e-300, True)


def test_zero_function_has_norm_zero():
    """The projection of z-bar on the disc is the empty sum, the zero
    function: its norm is 0 at every p and both inequalities hold with 0."""
    d = dm.polydisc(1)
    zero = dp.project(d, dp.MixedMonomialSum.monomial(1, (0,), (1,)))
    one = dp.laurent([(1, (0,))])
    assert zero.is_zero()
    for p in (Fraction(3, 2), 2, 3, 4):
        assert dp.laurent_norm(d, zero, p) == 0.0
    chk = dp.lyapunov_check(d, zero, 3, Fraction(3, 2), Fraction(1, 2))
    assert chk.holds and chk.lhs == chk.rhs == 0.0
    for f, g in ((zero, one), (one, zero)):
        chk = dp.holder_check(d, f, g, 3)
        assert chk.holds and chk.lhs == chk.rhs == 0.0


def test_lyapunov_single_monomial_and_constant():
    chk = dp.lyapunov_check(H11, dp.MixedMonomialSum.monomial(1, (1, -1)),
                            3, Fraction(3, 2), Fraction(1, 2))
    assert chk.holds
    const = dp.MixedMonomialSum.monomial(1, (0, 0))
    chk2 = dp.lyapunov_check(H11, const, 3, Fraction(3, 2), Fraction(1, 3))
    assert chk2.holds
    assert chk2.lhs == pytest.approx(chk2.rhs, rel=1e-12)  # exact equality


def test_lyapunov_two_term_example():
    f = dp.laurent([(1, (0, -1)), (1, (1, 0))])
    chk = dp.lyapunov_check(H11, f, 3, Fraction(3, 2), Fraction(1, 2))
    assert chk.holds


def test_lyapunov_norms_at_even_endpoint_match_lp_norm():
    # max(p, q) = 4 is even but r = 8/3 is not: the r-norm stays accurate
    ref = QuadConfig(radial_nodes=24)
    cases = [(dm.polydisc(2), dp.laurent([(1, (0, 0)), (0.9, (1, 1))])),
             (H11, dp.laurent([(1, (0, 0)), (0.9, (1, 1))])),
             (dm.ball(2), dp.laurent([(1, (1, 0)), (0.9, (0, 1))]))]
    for d, f in cases:
        chk = dp.lyapunov_check(d, f, 4, 2, Fraction(1, 2))
        assert chk.holds
        want = lp_norm(d, f.as_integrand(), Fraction(8, 3), ref)
        assert abs(chk.lhs - want) <= 1e-5


def test_lyapunov_membership_guard():
    f = dp.MixedMonomialSum.monomial(1, (0, -1))
    with pytest.raises(NotIntegrable):
        dp.lyapunov_check(H11, f, 5, 2, Fraction(1, 2))  # not in the 5-space
    with pytest.raises(ParseError):
        dp.lyapunov_check(H11, f, 3, 2, Fraction(3, 2))  # theta outside (0,1)


def test_holder_examples():
    e = dp.MixedMonomialSum.monomial(1, (1, 0))
    chk = dp.holder_check(H11, e, dp.laurent([(1, (1, 0))]), 2)
    assert chk.holds
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-9)  # equality at p = 2
    chk2 = dp.holder_check(H11, e, dp.laurent([(1, (0, 1))]), 2)
    assert chk2.holds and chk2.lhs == 0.0
    f = dp.laurent([(1, (0, 0)), (1, (1, -1))])
    chk3 = dp.holder_check(H11, f, dp.laurent([(1, (0, 0))]), 4)
    assert chk3.holds


def test_holder_violation_stands_after_one_pass(monkeypatch):
    # Hoelder is an equality for constants, so norms read 1e-6 low violate
    # it; the check takes its two norms once, at p and at the conjugate 4/3
    real, exponents = dp.laurent_norm, []

    def low(d, f, p):
        exponents.append(p)
        return real(d, f, p) * (1 - 1e-6)

    one = dp.laurent([(1, (0, 0))])
    monkeypatch.setattr(dp, "laurent_norm", low)
    chk = dp.holder_check(H11, one, one, 4)
    assert exponents == [4, Fraction(4, 3)]
    assert not chk.holds and chk.rhs < chk.lhs


def test_projection_self_adjoint_exact_random():
    rng = np.random.default_rng(5)
    for d in (H11, B2, dm.polydisc(2)):
        for _ in range(40):
            f, g = vf._random_mixed(d, rng), vf._random_mixed(d, rng)
            bf, bg = dp.project(d, f), dp.project(d, g)
            assert dp.project(d, bf).terms == bf.terms
            try:
                assert dp.pairing(d, bf, g) == dp.pairing(d, f, bg)
            except NotIntegrable:
                pass


def test_injectivity_witness_scan():
    assert dp.injectivity_witness_scan(H11, Fraction(5, 2), 4) == (0, -2)
    assert dp.injectivity_witness_scan(H11, 2, 4) is None
    assert dp.injectivity_witness_scan(B2, 3, 4) is None
    with pytest.raises(ParseError):
        dp.injectivity_witness_scan(H11, Fraction(3, 2), 4)


def test_injectivity_witness_above_duality_bound_sweep():
    # the duality bound of every triangle is 2: any p above it has a window
    # witness, and the witness index genuinely separates the conjugate spaces
    for d in (H11, dm.hartogs(2, 1), dm.hartogs(3, 2)):
        radius = ix.default_window(d)
        for p in (Fraction(9, 4), Fraction(5, 2), 3, 4, 5):
            wit = dp.injectivity_witness_scan(d, p, radius)
            assert wit is not None, (str(d), p)
            q = dm.conjugate_exponent(Fraction(p))
            assert ix.member(d, wit, q) and not ix.member(d, wit, p)
