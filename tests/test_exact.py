"""Canonical exact-value arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from bergman_indices import domains as dm
from bergman_indices.exact import (ExactMix, ExactValue, QComplex, as_fraction,
                                   fold_gamma, format_fraction, make_exact,
                                   parse_fraction)


def test_gamma_reduction_integer_args():
    # Gamma(4) = 6 folds into the rational coefficient
    v = make_exact(1, 0, gamma_num=(Fraction(4),))
    assert v.coeff == 6 and v.pi_half == 0 and not v.gamma_num


def test_gamma_half_integer_becomes_sqrt_pi():
    # Gamma(5/2) = (3/2)(1/2) sqrt(pi)
    v = make_exact(1, 0, gamma_num=(Fraction(5, 2),))
    assert v.coeff == Fraction(3, 4) and v.pi_half == 1
    assert abs(float(v) - math.gamma(2.5)) < 1e-15


def test_gamma_quarter_stays_symbolic():
    v = make_exact(1, 0, gamma_num=(Fraction(9, 4),))
    assert v.gamma_num == (Fraction(1, 4),)
    assert v.coeff == Fraction(5, 16)
    assert abs(float(v) - math.gamma(2.25)) < 1e-14


def _folded(coeff, gamma_num, gamma_den):
    """Reference canonical form: fold each Gamma down to (0, 1] one step at a
    time, then cancel equal leftovers."""
    pi_half, left = 0, {1: [], -1: []}
    for sign, args in ((1, gamma_num), (-1, gamma_den)):
        for a in args:
            while a > 1:
                a -= 1
                coeff = coeff * a if sign > 0 else coeff / a
            if a == Fraction(1, 2):
                pi_half += sign
            elif a != 1:
                left[sign].append(a)
    for a in list(left[1]):
        if a in left[-1]:
            left[1].remove(a)
            left[-1].remove(a)
    return coeff, pi_half, tuple(sorted(left[1])), tuple(sorted(left[-1]))


def test_integer_shifted_gamma_pairs_cancel_to_the_folded_form():
    rng = random.Random(5)

    def arg():
        den = rng.choice([1, 2, 3, 4, 7])
        return Fraction(rng.randint(1, 30 * den), den)

    for _ in range(500):
        num = [arg() for _ in range(rng.randint(0, 4))]
        den = [arg() for _ in range(rng.randint(0, 4))]
        # shifted copies, so that most draws hold cancelling pairs
        den += [a + rng.randint(-3, 20) for a in num[:2] if a > 3]
        v = make_exact(Fraction(3, 5), 0, num, den)
        assert (v.coeff, v.pi_half, v.gamma_num, v.gamma_den) == \
            _folded(Fraction(3, 5), num, den), (num, den)
    # a shift of 10^5 folds as one short product
    big = make_exact(1, 0, (Fraction(100001, 3),), (Fraction(100004, 3),))
    assert big.coeff == Fraction(3, 100001) and not big.gamma_num


def _folded_ball(n, alpha, p):
    """The ball moment pi^n prod Gamma(p a_i/2 + 1) / Gamma(n + p|a|/2 + 1)
    by the reference fold, or None where it diverges."""
    tops = [Fraction(p * a, 2) + 1 for a in alpha]
    if min(tops) <= 0:
        return None
    coeff, pi_half, num, den = _folded(Fraction(1), tops, [sum(tops) + 1])
    return ExactValue(coeff, pi_half + 2 * n, num, den)


def test_integer_gamma_fold_matches_the_step_by_step_fold():
    """``fold_gamma`` and the ball moments that take it, at every denominator,
    equal the reference fold component by component."""
    ps = (1, 2, 3, 4, 6, Fraction(3, 2), Fraction(5, 2), Fraction(3, 4), Fraction(4, 3),
          Fraction(7, 4))
    grids = [(n, itertools.product(range(-1, 9), repeat=n)) for n in (1, 2, 3)]
    rng = random.Random(27)  # ball:4 on a sample of its 10^4 exponents
    grids.append((4, [tuple(rng.randint(-1, 8) for _ in range(4)) for _ in range(300)]))
    cases = [(n, alpha, p) for n, alphas in grids for alpha in alphas for p in ps]
    cases += [(2, (4000, 3), 4), (2, (1000, 1000), 4), (2, (4000, 3), 2)]
    cases.append((2, (1, 1), 1))  # s = (3, 3), sum + 2 = 8: no argument of its parity
    cases.append((2, (1001, 1001), 3))  # the same at size: its factors 2 skip the gcd
    for n, alpha, p in cases:
        assert dm.moment(dm.ball(n), alpha, p).value == _folded_ball(n, alpha, p), (alpha, p)
    # the helper on its own: several denominators, either side nearer
    for _ in range(2000):
        tops = [rng.randint(1, 60) for _ in range(rng.randint(0, 4))]
        bottoms = [rng.randint(1, 60) for _ in range(rng.randint(0, 3))]
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        want = _folded(coeff, [Fraction(t, 2) for t in tops], [Fraction(b, 2) for b in bottoms])
        got = fold_gamma(tops, bottoms, 2, coeff, 3)
        assert got == ExactValue(want[0], want[1] + 3, *want[2:]), (tops, bottoms)
    # ... and over other denominators, with residues that stay symbolic
    for q in (1, 2, 3, 4, 6, 8, 12):
        for _ in range(300):
            tops = [rng.randint(1, 30 * q) for _ in range(rng.randint(0, 4))]
            bottoms = [rng.randint(1, 30 * q) for _ in range(rng.randint(0, 3))]
            bottoms += [t + q * rng.randint(-2, 9) for t in tops[:2] if t > 2 * q]
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            want = _folded(coeff, [Fraction(t, q) for t in tops],
                           [Fraction(b, q) for b in bottoms])
            got = fold_gamma(tops, bottoms, q, coeff, 3)
            assert got == ExactValue(want[0], want[1] + 3, *want[2:]), (q, tops, bottoms)
    # a moment whose Gamma stays symbolic renders it: pi^2 Gamma(11/8)^2 / Gamma(15/4)
    v = dm.moment(dm.ball(2), (1, 1), Fraction(3, 4)).value
    assert v.as_dict() == {"coeff": "3/77", "pi_power": "2",
                           "gamma_num": ["3/8", "3/8"], "gamma_den": ["3/4"]}
    assert float(v) == pytest.approx(math.pi ** 2 * math.gamma(11 / 8) ** 2 / math.gamma(15 / 4),
                                     rel=1e-14)
    for tops, bottoms in (([0, 4], [6]), ([3], [-1]), ([-2], [4])):
        with pytest.raises(ValueError, match="positive"):
            fold_gamma(tops, bottoms, 2)
        with pytest.raises(ValueError, match="positive"):
            make_exact(1, 0, [Fraction(t, 2) for t in tops], [Fraction(b, 2) for b in bottoms])


def test_inverse_is_the_canonical_quotient():
    for v in (make_exact(Fraction(3, 7), 3, (Fraction(1, 3),), (Fraction(9, 4),)),
              dm.moment(dm.ball(3), (2, 0, 5), 2).value,
              dm.moment(dm.hartogs(3, 2), (1, -1), Fraction(5, 4)).value):
        assert v.inverse() == make_exact(1) / v
        assert v.inverse().inverse() == v


def test_mul_div_cancellation():
    a = make_exact(Fraction(3, 2), 2, gamma_num=(Fraction(1, 3),))
    b = make_exact(Fraction(1, 2), 2, gamma_num=(Fraction(1, 3),))
    q = a / b
    assert q.coeff == 3 and q.pi_half == 0
    assert not q.gamma_num and not q.gamma_den
    assert (a * b).pi_half == 4


def test_positive_only():
    with pytest.raises(ValueError):
        make_exact(-1)
    with pytest.raises(ValueError):
        make_exact(1, 0, gamma_num=(Fraction(-1, 2),))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_zero_coefficient_is_rejected_at_every_denominator(q):
    """A zero coefficient is not a positive value, at an even q as at an odd
    one, whether or not a power of q is left to fold."""
    for arg in (Fraction(5, q), Fraction(q + 1, q)):
        with pytest.raises(ValueError, match="ExactValue must be strictly positive"):
            make_exact(0, 0, [arg])
    with pytest.raises(ValueError, match="ExactValue must be strictly positive"):
        fold_gamma([5], [], q, Fraction(0))


def test_qcomplex_roundtrip_and_arithmetic():
    z = QComplex.from_complex(0.25 - 0.5j)
    assert z.re == Fraction(1, 4) and z.im == Fraction(-1, 2)
    w = QComplex(Fraction(1, 3), Fraction(2))
    prod = z * w
    expect = complex(z) * complex(w)
    assert abs(complex(prod) - expect) < 1e-15
    assert (z * z.conjugate()).im == 0
    assert (z * z.conjugate()).re == Fraction(1, 16) + Fraction(1, 4)


def test_exact_mix_equality_and_zero():
    m1 = ExactMix()
    m1.add_scaled(QComplex(Fraction(1, 2)), make_exact(2, 2))
    m2 = ExactMix()
    m2.add_scaled(QComplex(Fraction(1)), make_exact(1, 2))
    assert m1 == m2
    m2.add_scaled(QComplex(Fraction(-1)), make_exact(1, 2))
    assert m2.is_zero()
    assert abs(complex(m1) - math.pi) < 1e-14  # pi_half = 2 means pi^1


def test_fraction_parsing_and_formatting():
    assert parse_fraction("7/4") == Fraction(7, 4)
    assert parse_fraction(" -3 ") == Fraction(-3)
    assert format_fraction(Fraction(8, 4)) == "2"
    assert format_fraction(Fraction(2, 3)) == "2/3"
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("a/b")
    # floats convert exactly (binary expansion)
    assert as_fraction(0.5) == Fraction(1, 2)
