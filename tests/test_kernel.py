"""Kernel series, closed forms, reproduction, density, and p-norm probes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_indices import domains as dm
from bergman_indices import index_sets as ix
from bergman_indices import kernel as kn
from bergman_indices.errors import IllConditionedGram, Inconclusive, ParseError
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


def test_pnorm_closed_form_general_triangle():
    # ||K(., z)||_2^2 = K(z, z) by the reproducing property
    d, z = dm.hartogs(1, 2), (0, 0.5)
    est = kn.kernel_pnorm_estimate(d, z, 2)
    assert not est.diverging
    assert est.value == pytest.approx(
        math.sqrt(kn.kernel_closed_form(d, z, z).real), rel=1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pnorm_beyond_float_range_is_inconclusive():
    # |K(w, z)|^2 ~ |w2|^-50 on H(1, 25) leaves the float range on the ladder
    with pytest.raises(Inconclusive):
        kn.kernel_pnorm_estimate(dm.hartogs(1, 25), (0, 0.5), 2)
