"""Domain parsing, exact moments, and geometry predicates."""

import math
import random
from fractions import Fraction

import pytest

from bergman_indices import domains as dm
from bergman_indices.errors import DimensionMismatch, ParseError
from bergman_indices.exact import make_exact
from test_exact import _folded_ball

H11 = dm.hartogs(1, 1)
PI = math.pi


def test_parse_grammar():
    assert dm.parse_domain("hartogs:1/1") == dm.hartogs(1, 1)
    assert dm.parse_domain("ball:2") == dm.ball(2)
    assert dm.parse_domain("polydisc:3") == dm.polydisc(3)
    with pytest.raises(ParseError):
        dm.parse_domain("ball:0")
    with pytest.raises(ParseError):
        dm.parse_domain("ball")
    with pytest.raises(ParseError):
        dm.parse_domain("hartogs:2")
    with pytest.raises(ParseError):
        dm.parse_domain("torus:2")


def test_noncoprime_reduced_with_warning():
    with pytest.warns(UserWarning):
        d = dm.parse_domain("hartogs:2/4")
    assert (d.m, d.n) == (1, 2)


def test_axis_flags_derived():
    assert dm.polydisc(3).axis_meets_hyperplane == (True, True, True)
    assert dm.ball(2).axis_meets_hyperplane == (True, True)
    assert H11.axis_meets_hyperplane == (True, False)


def test_moment_polydisc_product_form():
    # prod 2*pi/(p*a_i + 2)
    m = dm.moment(dm.polydisc(2), (2, 1), 2)
    assert float(m) == pytest.approx((2 * PI / 6) * (2 * PI / 4), rel=1e-15)
    assert not dm.moment(dm.polydisc(1), (-1,), 2).is_finite
    assert dm.moment(dm.polydisc(1), (-1,), Fraction(3, 2)).is_finite


def test_moment_hartogs_closed_form():
    # volume pi^2/2 at the zero index
    vol = dm.moment(H11, (0, 0), 2)
    assert vol.value.coeff == Fraction(1, 2) and vol.value.pi_half == 4
    assert float(vol) == pytest.approx(PI ** 2 / 2, rel=1e-15)
    # (0,-1) at exponent 2: 4 pi^2 / (2*2)
    assert float(dm.moment(H11, (0, -1), 2)) == pytest.approx(PI ** 2, rel=1e-15)
    # boundary case: the outer radial integral degenerates exactly
    assert not dm.moment(H11, (0, -2), 2).is_finite
    assert dm.moment(H11, (0, -2), Fraction(19, 10)).is_finite


def test_moment_ball_dirichlet():
    # pi^n a! / (n + |a|)! for even exponents
    m = dm.moment(dm.ball(2), (1, 0), 2)
    v = m.value  # rational * an integer power of pi
    assert not v.gamma_num and not v.gamma_den and v.pi_half % 2 == 0
    assert float(m) == pytest.approx(PI ** 2 / 6, rel=1e-15)
    frac = dm.moment(dm.ball(2), (1, 1), Fraction(5, 2))
    assert frac.is_finite and frac.value.gamma_num  # genuinely symbolic
    assert not dm.moment(dm.ball(2), (-1, 0), 2).is_finite


def test_volume():
    assert float(dm.volume(dm.polydisc(1))) == pytest.approx(PI, rel=1e-15)
    assert float(dm.volume(dm.ball(2))) == pytest.approx(PI ** 2 / 2, rel=1e-15)
    assert float(dm.volume(H11)) == pytest.approx(PI ** 2 / 2, rel=1e-15)
    # volume agrees with the zero moment at any exponent
    for p in (Fraction(1), Fraction(7, 3), Fraction(4)):
        assert dm.volume(H11).value == dm.moment(H11, (0, 0), p).value


def test_conjugate_exponent():
    assert dm.conjugate_exponent(2) == 2
    assert dm.conjugate_exponent(4) == Fraction(4, 3)
    assert dm.conjugate_exponent(Fraction(3, 2)) == 3
    for k in range(5, 40):
        p = Fraction(k, 4)
        assert dm.conjugate_exponent(dm.conjugate_exponent(p)) == p
    with pytest.raises(ParseError):
        dm.conjugate_exponent(1)
    with pytest.raises(ParseError):
        dm.conjugate_exponent(Fraction(1, 2))


def test_holomorphy():
    assert dm.holomorphy_ok(H11, (0, -1))
    assert not dm.holomorphy_ok(H11, (-1, 0))
    assert not dm.holomorphy_ok(dm.ball(2), (-1, 3))
    assert dm.holomorphy_ok(dm.polydisc(2), (0, 5))


def test_shadow_contains():
    assert dm.shadow_contains(dm.hartogs(1, 2), (0.5, 0.8))  # 0.5 < 0.64
    assert not dm.shadow_contains(dm.hartogs(1, 2), (0.7, 0.8))
    assert not dm.shadow_contains(dm.ball(2), (0.8, 0.7))
    assert dm.shadow_contains(dm.polydisc(3), (0.9, 0.9, 0.9))
    assert not dm.shadow_contains(H11, (0.0, 0.0))  # needs |z2| > 0
    with pytest.raises(ValueError):
        dm.shadow_contains(dm.ball(2), (-0.1, 0.2))


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        dm.moment(H11, (1,), 2)
    with pytest.raises(DimensionMismatch):
        dm.holomorphy_ok(dm.ball(2), (1, 2, 3))


def test_holder_inclusion_between_exponents():
    vol = float(dm.volume(H11))
    for alpha in [(0, -1), (1, 0), (2, -1)]:
        for q, p in [(Fraction(3, 2), 2), (2, 3), (Fraction(5, 2), Fraction(7, 2))]:
            mq, mp = dm.moment(H11, alpha, q), dm.moment(H11, alpha, p)
            if not (mq.is_finite and mp.is_finite):
                continue
            lhs = float(mq) ** (1 / float(q))
            rhs = vol ** (1 / float(q) - 1 / float(p)) * float(mp) ** (1 / float(p))
            assert lhs <= rhs * (1 + 1e-12)


def test_monotone_divergence_in_p():
    grid = [Fraction(k, 4) for k in range(2, 30)]
    for alpha in [(0, -1), (0, -3), (2, -4)]:
        seen_divergent = False
        for p in grid:
            finite = dm.moment(H11, alpha, p).is_finite
            assert not (seen_divergent and finite)
            seen_divergent = seen_divergent or not finite


def test_moment_finite_matches_radial_moment():
    rng = random.Random(707)
    doms = ([dm.polydisc(k) for k in (1, 2, 3)] + [dm.ball(k) for k in (1, 2, 3)]
            + [dm.hartogs(m, n) for m, n in ((1, 1), (2, 1), (1, 2), (3, 2), (5, 3))])
    for d in doms:
        for _ in range(200):
            c = [Fraction(rng.randint(-16, 12), rng.randint(1, 5))
                 for _ in range(d.dim)]
            assert dm.moment_finite(d, c) == dm.radial_moment(d, c).is_finite
        # boundary c_i = -2 (on the triangle c_2 = -2 can be finite)
        for i in range(d.dim):
            c = [Fraction(1, 3)] * d.dim
            c[i] = -2
            assert dm.moment_finite(d, c) == (d.family is dm.Family.HARTOGS
                                              and i == 1)
            assert dm.moment_finite(d, c) == dm.radial_moment(d, c).is_finite
    for m, n in ((1, 1), (2, 1), (1, 2), (3, 2), (5, 3)):
        d = dm.hartogs(m, n)
        # n(c1 + 2) + m(c2 + 2) = 0 with c1 + 2 = m > 0, then just above it
        for c in ([m - 2, -n - 2], [m - 2, Fraction(-n * 100 + 1, 100) - 2]):
            assert dm.moment_finite(d, c) == (c[1] != -n - 2)
            assert dm.moment_finite(d, c) == dm.radial_moment(d, c).is_finite
    with pytest.raises(DimensionMismatch):
        dm.moment_finite(H11, (1,))


def _closed_form(d, c):
    """The module docstring's closed forms in Fraction arithmetic (None when
    divergent), canonicalized by ``make_exact``; the ball's Gamma by the
    step-by-step reference fold, not by the fold under test."""
    c = [Fraction(ci) for ci in c]
    if d.family is dm.Family.HARTOGS:
        outer = d.n * (c[0] + 2) + d.m * (c[1] + 2)
        if c[0] + 2 <= 0 or outer <= 0:
            return None
        return make_exact(4 * d.m / ((c[0] + 2) * outer), 4)
    if any(ci + 2 <= 0 for ci in c):
        return None
    if d.family is dm.Family.POLYDISC:
        return make_exact(math.prod(2 / (ci + 2) for ci in c), 2 * d.dim)
    return _folded_ball(d.dim, c, 1)


def test_moment_memo_matches_closed_forms(monkeypatch):
    rng = random.Random(1717)
    doms = ([dm.polydisc(k) for k in (1, 2, 3)] + [dm.ball(k) for k in (1, 2, 3)]
            + [dm.hartogs(m, n) for m, n in ((1, 1), (2, 1), (3, 2), (5, 3))])
    cases = []  # (function, domain, arguments, reference)
    for d in doms:
        for den in (1, 2, 4, 3):  # int, half-, quarter- and third-integers
            for _ in range(15):
                c = [Fraction(rng.randint(-12, 12), den) for _ in range(d.dim)]
                cases.append((dm.radial_moment, d, (c,), _closed_form(d, c)))
        for p in (1, 2, Fraction(3, 2), Fraction(5, 4), Fraction(7, 3)):
            for _ in range(6):
                alpha = tuple(rng.randint(-6, 6) for _ in range(d.dim))
                cases.append((dm.moment, d, (alpha, p),
                              _closed_form(d, [p * a for a in alpha])))
    refs = [want for _f, _d, _a, want in cases]
    assert None in refs and any(w is not None and w.gamma_num for w in refs)
    assert len(cases) <= dm.MOMENT_MEMO_SIZE
    assert dm._moment.cache_info().maxsize == dm.MOMENT_MEMO_SIZE

    def check_all(clear: bool):
        for fn, d, args, want in cases:
            if clear:
                dm._moment.cache_clear()
            assert fn(d, *args).value == want, (d, args)
            if fn is dm.moment:
                assert dm.moment_finite(d, *args) == (want is not None)

    check_all(clear=True)   # every call on an empty memo
    dm._moment.cache_clear()
    check_all(clear=False)  # while the memo fills
    misses = dm._moment.cache_info().misses
    built = []
    new = Fraction.__new__
    with monkeypatch.context() as patch:  # a hit builds no Fraction
        patch.setattr(Fraction, "__new__",
                      lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
        check_all(clear=False)  # warm
    assert dm._moment.cache_info().misses == misses and not built
