"""Kernel series, closed forms, reproduction, density, and p-norm probes."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bergman_indices import domains as dm
from bergman_indices import index_sets as ix
from bergman_indices import kernel as kn
from bergman_indices import quadrature as qd
from bergman_indices.errors import IllConditionedGram, Inconclusive, ParseError
from bergman_indices.quadrature import QuadConfig
from bergman_indices.verify import _sample_point

H11 = dm.hartogs(1, 1)
PI = math.pi


def test_kernel_at_origin():
    assert kn.kernel_truncated(dm.polydisc(1), (0,), (0,), 5) == \
        pytest.approx(1 / PI, rel=1e-15)
    assert kn.kernel_closed_form(dm.ball(2), (0, 0), (0, 0)) == \
        pytest.approx(2 / PI ** 2, rel=1e-15)
    assert kn.kernel_truncated(dm.ball(1), (0,), (0,), 3) == \
        pytest.approx(1 / PI, rel=1e-15)


def test_hartogs_diagonal_closed_form():
    for t in (0.3, 0.5, 0.8):
        expect = 1 / (PI ** 2 * t ** 2 * (1 - t ** 2) ** 2)
        assert kn.kernel_closed_form(H11, (0, t), (0, t)) == \
            pytest.approx(expect, rel=1e-14)


def test_series_matches_closed_form_on_axis():
    s = kn.kernel_truncated(H11, (0, 0.5), (0, 0.5), 20)
    c = kn.kernel_closed_form(H11, (0, 0.5), (0, 0.5))
    assert s == pytest.approx(c, abs=1e-10)
    assert c == pytest.approx(64 / (9 * PI ** 2), rel=1e-14)


def test_series_matches_closed_form_off_axis():
    z = (0.1 + 0.2j, 0.5 - 0.1j)
    w = (0.05 - 0.3j, 0.6 + 0.2j)
    for d in (dm.polydisc(2), dm.ball(2), H11):
        s = kn.kernel_truncated(d, z, w, 40)
        c = kn.kernel_closed_form(d, z, w)
        assert abs(s - c) / abs(c) < 1e-10, str(d)


def test_hermitian_symmetry():
    z = (0.1 + 0.2j, 0.5 - 0.1j)
    w = (0.05 - 0.3j, 0.6 + 0.2j)
    for d in (dm.polydisc(2), dm.ball(2), H11):
        a = kn.kernel_truncated(d, z, w, 25)
        b = kn.kernel_truncated(d, w, z, 25)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)
        ac = kn.kernel_closed_form(d, z, w)
        bc = kn.kernel_closed_form(d, w, z)
        assert ac == pytest.approx(bc.conjugate(), rel=1e-14)


def test_diagonal_positive_nondecreasing():
    z = (0.2 + 0.1j, 0.55)
    prev = 0.0
    for radius in (2, 5, 10, 20):
        val = kn.kernel_truncated(H11, z, z, radius)
        assert abs(val.imag) < 1e-15 * val.real
        assert val.real >= prev - 1e-13
        prev = val.real


def _loop_truncated(d, z, w, radius):
    """The scalar reference: the window series term by term in Python's
    complex arithmetic, summed in order from 0j."""
    terms = kn.kernel_series(d, radius).terms
    tables = [{a: wi ** a * zi.conjugate() ** a for a in set(column) if a}
              for wi, zi, column in zip(w, z, zip(*(alpha for alpha, _inv in terms)))]
    total = 0j
    for alpha, inv in terms:
        term = float(inv) + 0j
        for table, a in zip(tables, alpha):
            if a:
                term *= table[a]
        total += term
    return total


# ball:3 at a small window keeps the reference loop fast
BIT_DOMAINS = [(dm.polydisc(1), 40), (dm.polydisc(2), 20), (dm.ball(2), 20),
               (dm.ball(3), 10), (H11, 20), (dm.hartogs(2, 1), 20),
               (dm.hartogs(3, 2), 20), (dm.hartogs(7, 5), 20)]


def test_array_sum_has_the_bits_of_the_scalar_loop():
    rng = np.random.default_rng(26)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, radius in BIT_DOMAINS:
            for k in range(130):  # 1,040 pairs in all
                z = tuple(complex(c) for c in _sample_point(d, rng))
                w = tuple(complex(c) for c in _sample_point(d, rng))
                if k % 4 == 1:  # a diagonal pair
                    w = z
                elif k % 4 == 2:  # a zero first coordinate: its table entries are 0j
                    z = (0j,) + z[1:]
                elif k % 4 == 3:
                    z, w = (0j,) + z[1:], (0j,) + w[1:]
                want = _loop_truncated(d, z, w, radius)
                assert repr(kn.kernel_truncated(d, z, w, radius)) == repr(want), (d, z, w)


def test_points_outside_domain_rejected():
    with pytest.raises(ParseError):
        kn.kernel_truncated(H11, (0.9, 0.5), (0, 0.5), 10)  # |z1| > |z2|
    with pytest.raises(ParseError):
        kn.kernel_closed_form(dm.ball(2), (0.9, 0.9), (0, 0))


def test_closed_form_matches_series_on_every_small_triangle():
    rng = np.random.default_rng(3)
    triangles = [(m, n) for m in range(1, 8) for n in range(1, 8)
                 if m + n <= 8 and math.gcd(m, n) == 1]
    assert len(triangles) == 21
    for m, n in triangles:
        d = dm.hartogs(m, n)
        for _ in range(5):
            z, w = _sample_point(d, rng), _sample_point(d, rng)
            c = kn.kernel_closed_form(d, z, w)
            s = kn.kernel_truncated(d, z, w, 40)
            assert abs(s - c) <= 1e-10 * abs(c), (str(d), z, w)
            assert kn.kernel_closed_form(d, w, z) == \
                pytest.approx(c.conjugate(), rel=1e-14), str(d)


def test_reproduce_exact_zero():
    assert kn.reproduce_check(H11, (1, -1), (0.3, 0.6), 5) == 0.0
    assert kn.reproduce_check(dm.polydisc(2), (2, 3), (0.1, 0.2j), 5) == 0.0
    for d in (dm.polydisc(2), dm.ball(2), H11):
        z = (0.1, 0.4) if d is not H11 else (0.1, 0.4)
        for alpha in ix.index_set_window(d, 2, 4).members:
            assert kn.reproduce_check(d, alpha, z, 4) == 0.0


def test_reproduce_outside_window_errors():
    with pytest.raises(ParseError):
        kn.reproduce_check(H11, (7, 0), (0.1, 0.5), 5)
    with pytest.raises(ParseError):
        kn.reproduce_check(H11, (-1, 0), (0.1, 0.5), 5)  # not allowable


def test_density_residual_examples():
    d = dm.polydisc(1)
    assert kn.density_residual(d, (0,), [(0,)]) == pytest.approx(0.0, abs=1e-12)
    assert kn.density_residual(d, (1,), [(0,)]) == pytest.approx(PI / 2,
                                                                 rel=1e-12)


def test_density_residual_nested_points_non_increasing():
    d = dm.polydisc(1)
    pts = [(0.1,), (0.3 + 0.2j,), (-0.4,), (0.2 - 0.35j,)]
    prev = math.inf
    for k in range(1, len(pts) + 1):
        res = kn.density_residual(d, (2,), pts[:k])
        assert res <= prev + 1e-12
        prev = res


def test_density_residual_validation():
    d = dm.polydisc(1)
    with pytest.raises(ParseError):
        kn.density_residual(d, (0,), [(0,), (0,)])  # duplicate points
    with pytest.raises(IllConditionedGram):
        kn.density_residual(d, (0,), [(0.5,), (0.5 + 1e-14,)])


def test_pnorm_estimates_bracket_integrability():
    est3 = kn.kernel_pnorm_estimate(H11, (0, 0.5), 3)
    assert not est3.diverging
    est5 = kn.kernel_pnorm_estimate(H11, (0, 0.5), 5)
    assert est5.diverging
    assert est5.sequence[-1] > est5.sequence[0]


def test_pnorm_constant_kernel_polydisc():
    # the section at the origin is the constant 1/pi
    for p in (2, 3, Fraction(7, 2)):
        est = kn.kernel_pnorm_estimate(dm.polydisc(1), (0,), p)
        assert not est.diverging
        assert est.value == pytest.approx(PI ** (1 / float(p)) / PI, rel=1e-9)


@pytest.mark.parametrize("d, z", [(dm.hartogs(1, 2), (0, 0.5)),
                                  (dm.polydisc(2), (0.3, -0.2j)),
                                  (dm.ball(2), (0.3, 0.2j))],
                         ids=["hartogs-1-2", "polydisc-2", "ball-2"])
def test_pnorm_closed_form_general_triangle(d, z):
    # ||K(., z)||_2^2 = K(z, z) by the reproducing property
    est = kn.kernel_pnorm_estimate(d, z, 2)
    assert not est.diverging
    assert est.value == pytest.approx(
        math.sqrt(kn.kernel_closed_form(d, z, z).real), rel=1e-8)


def test_pnorm_off_axis_point_on_h21():
    # beta = 3 on H(2, 1): the ladder at p = 3 diverges, and at p = 2 the
    # reproducing property gives ||K(., z)||_2 = sqrt(K(z, z)) with z1 != 0
    d, z = dm.hartogs(2, 1), (0.05, 0.5)
    est = kn.kernel_pnorm_estimate(d, z, 3)
    assert est.diverging
    assert all(b > a for a, b in zip(est.sequence, est.sequence[1:]))
    est = kn.kernel_pnorm_estimate(d, z, 2)
    assert not est.diverging
    assert est.value == pytest.approx(
        math.sqrt(kn.kernel_closed_form(d, z, z).real), rel=1e-8)


def test_kernel_integrand_warns_nothing_where_it_leaves_float_range():
    # on H(50, 49) at z = (0.01, 0.9) the closed form's denominator
    # underflows near w2 = 6e-4: numpy would warn of an invalid value, and of
    # overflow on 8 radial nodes or division by zero on 16.  The pass's one
    # errstate silences them, and its NaN sum is what _block_sum refuses
    d = dm.hartogs(50, 49)
    g = qd.AbsPowerIntegrand(kn._kernel_integrand(d, (0.01, 0.9)), 2)
    hints = qd._axis_hints(d, g.base, g.p)
    for n in (8, 16):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (total,) = qd._tensor_integrate(d, g, hints, n, [8, 8], (0, 1))
        assert math.isnan(total)


def test_pnorm_beyond_float_range_is_inconclusive():
    # |K(w, z)|^2 ~ |w2|^-50 on H(1, 25) leaves the float range on the ladder;
    # the inf times a zero weight that follows warns nothing
    with warnings.catch_warnings(), pytest.raises(Inconclusive):
        warnings.simplefilter("error")
        kn.kernel_pnorm_estimate(dm.hartogs(1, 25), (0, 0.5), 2)


def test_pnorm_above_dimension_two_needs_z_zero():
    """The library call meets the rule the CLI does, before any pass."""
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=r"^--pnorm in dimension 3 needs z = 0 "
                       r"\(dimensions above 2 have no work bound at z != 0\)$"):
        kn.kernel_pnorm_estimate(dm.ball(3), (0.2, 0.1, 0.3), 2)
    assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# series oracles for ||K(., z)||_p^p, independent of the quadrature
# ---------------------------------------------------------------------------

def _series(c, x, weight):
    """(sum, tail bound) of sum_k ((c)_k / k!)^2 x^k weight(k), for c >= 1,
    0 <= x < 1 and a positive weight that does not grow with k.  Term k + 1
    is at most term k times rho_k = ((c + k) / (k + 1))^2 x, which falls with
    k, so once rho_k < 1 the terms after term k sum to at most
    term_k rho_k / (1 - rho_k)."""
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef * weight(k)
        total += term
        rho = ((c + k) / (k + 1)) ** 2 * x
        if rho < 1 and term * rho / (1 - rho) <= 1e-15 * total:
            return total, term * rho / (1 - rho)
        coef *= rho
        k += 1


def _disc(p, zeta, a=0.0):
    """Bounds of I_a(zeta) = int_D |K_D(w, zeta)|^p |w|^(2a) dA(w), which is
    pi^(1-p) sum_k ((p)_k / k!)^2 |zeta|^(2k) / (k + a + 1) by the binomial
    series of (1 - w conj(zeta))^(-p) and the orthogonality of w^k; it is
    infinite unless a > -1."""
    if a <= -1:
        return math.inf, math.inf
    total, tail = _series(p, abs(zeta) ** 2, lambda k: 1 / (k + a + 1))
    return PI ** (1 - p) * total, PI ** (1 - p) * (total + tail)


def _ball(p, z):
    """Bounds of ||K(., z)||_p^p on ball:n, with s = (n + 1) p / 2:
    (n! / pi^n)^(p-1) sum_k ((s)_k)^2 |z|^(2k) / (k! (n + 1)_k)."""
    n = len(z)
    total, tail = _series((n + 1) * p / 2, sum(abs(x) ** 2 for x in z),
                          lambda k: math.prod((j + 1) / (n + 1 + j) for j in range(k)))
    scale = (math.factorial(n) / PI ** n) ** (p - 1)
    return scale * total, scale * (total + tail)


def _series_pp(d, z, p):
    """Lower and upper bounds of ||K(., z)||_p^p: a product of disc integrals
    I_0(z_i) on the polydisc; on H(1, n), through (w1, w2) -> (w1 / w2^n, w2)
    onto D x D* with Jacobian w2^(-n), |z2|^(-np) I_0(z1 / z2^n) I_a(z2) with
    a = n - np/2, finite exactly when p < 2 + 2/n; one series on the ball."""
    p = float(p)
    scale = 1.0
    if d.family is dm.Family.BALL:
        parts = [_ball(p, z)]
    elif d.family is dm.Family.POLYDISC:
        parts = [_disc(p, zi) for zi in z]
    else:
        assert d.m == 1
        n = d.n
        parts = [_disc(p, z[0] / z[1] ** n), _disc(p, z[1], n - n * p / 2)]
        scale = abs(z[1]) ** (-n * p)
    return (scale * math.prod(lo for lo, _hi in parts),
            scale * math.prod(hi for _lo, hi in parts))


@pytest.mark.parametrize("d, z", [(dm.polydisc(1), (0.8,)), (dm.polydisc(2), (0.3, -0.6j)),
                                  (dm.ball(2), (0.3, 0.4)), (dm.ball(3), (0.2, 0.1j, 0.5)),
                                  (H11, (0.05, 0.5)), (dm.hartogs(1, 2), (0.1, -0.6)),
                                  (dm.hartogs(1, 3), (0.01j, 0.7))], ids=str)
def test_series_at_p2_is_the_kernel_diagonal(d, z):
    # the oracle's own check: ||K(., z)||_2^2 = K(z, z)
    lo, hi = _series_pp(d, z, 2)
    assert hi <= lo * (1 + 1e-12)
    assert lo == pytest.approx(kn.kernel_closed_form(d, z, z).real, rel=1e-12)


@pytest.mark.parametrize("d, z, p", [
    (dm.polydisc(1), (0.5,), Fraction(3, 2)), (dm.polydisc(1), (0.5,), Fraction(7, 2)),
    (dm.polydisc(1), (0.8,), 3), (dm.ball(2), (0.3, 0.4), Fraction(5, 2)),
    (dm.ball(2), (0, 0.6), Fraction(3, 2)), (dm.ball(2), (0, 0.6), 3),
    (H11, (0, 0.5), Fraction(3, 2)), (H11, (0, 0.5), Fraction(7, 2)),
    (dm.hartogs(1, 2), (0, 0.5), Fraction(5, 2)), (dm.hartogs(1, 3), (0, 0.5), Fraction(5, 2)),
], ids=str)
def test_pnorm_matches_series(d, z, p):
    lo, hi = _series_pp(d, z, p)
    assert hi <= lo * (1 + 1e-12)  # the tail bound resolves the series
    est = kn.kernel_pnorm_estimate(d, z, p)
    assert not est.diverging
    assert est.value == pytest.approx(lo ** (1 / float(p)), rel=1e-9)


@pytest.mark.parametrize("n, p", [(1, 4), (2, 3)])
def test_pnorm_ladder_diverges_where_the_series_does(n, p):
    # p = 2 + 2/n on H(1, n): the series' last factor is infinite
    d, z = dm.hartogs(1, n), (0, 0.5)
    assert _series_pp(d, z, p) == (math.inf, math.inf)
    assert kn.kernel_pnorm_estimate(d, z, p).diverging


@pytest.mark.parametrize("cfg", [kn.PNORM_CFG, QuadConfig()],
                         ids=["library", "QuadConfig()"])
@pytest.mark.parametrize("p", [Fraction(3, 2), 2, 3], ids=str)
@pytest.mark.parametrize("x", [0.9, 0.95, 0.98, 0.99])
def test_pnorm_near_the_boundary_matches_series_or_refuses(x, p, cfg):
    # the trapezoid rule's error on |1 - r x e^(i theta)|^(-2p) decays only
    # like x^N; a final integral whose last doubling misses REL_TOL is refused,
    # and none may return a wrong value (polydisc:1 at 0.99, p = 2 read 31.92
    # with an angular rule capped at 256 nodes, where sqrt(K(z, z)) = 28.35)
    d, z = dm.polydisc(1), (x,)
    lo, hi = _series_pp(d, z, p)
    assert hi <= lo * (1 + 1e-12)
    try:
        est = kn.kernel_pnorm_estimate(d, z, p, cfg=cfg)
    except Inconclusive:
        assert x > 0.9
        return
    assert not est.diverging
    assert est.value == pytest.approx(lo ** (1 / float(p)), rel=1e-9)
