"""Exact arithmetic primitives shared by every module.

All closed-form quantities produced by this package are positive reals of the
shape

    rational * pi^(k/2) * Gamma(a_1)...Gamma(a_r) / (Gamma(b_1)...Gamma(b_s))

with rational Gamma arguments.  ``ExactValue`` stores that shape in a canonical
form: ``half_gamma`` alone folds Gamma at integers and half-integers into the
rational coefficient and the pi power (``Gamma(1/2) = sqrt(pi)``), so a Gamma
product survives only for non-half-integer arguments.  Two canonical values
are equal iff their components are equal, which is what makes the
zero-tolerance identity checks in the projection module honest.

``QComplex`` is a complex number with ``Fraction`` real and imaginary parts;
``ExactMix`` is a finite linear combination of distinct canonical scale factors
with ``QComplex`` coefficients (the exact result type of the duality pairing).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import ParseError


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and floats to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def parse_fraction(text: str) -> Fraction:
    """Parse '<int>' or '<int>/<uint>' (the CLI rational grammar)."""
    try:
        parts = [int(part) for part in text.strip().split("/")]
    except ValueError:
        parts = []
    if len(parts) == 2 and parts[1] <= 0:
        raise ParseError(f"denominator must be positive in {text!r}")
    if len(parts) in (1, 2):
        return Fraction(*parts)
    raise ParseError(f"malformed rational {text!r}, expected <int> or <int>/<uint>")


def format_fraction(q: Fraction) -> str:
    """Serialize a rational as 'num' or 'num/den' (never a float)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _product(factors: range) -> int:
    """A balanced product tree over leaves of at most 64 factors."""
    if len(factors) <= 64:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def _rising(a: Fraction, k: int) -> Fraction:
    """a (a+1) ... (a+k-1), multiplied in integers with one final gcd."""
    p, q = a.numerator, a.denominator
    return Fraction(_product(range(p, p + k * q, q)), q ** k)


@dataclass(frozen=True)
class ExactValue:
    """Positive real ``coeff * pi^(pi_half/2) * Gamma-product`` in canonical form.

    ``gamma_num`` and ``gamma_den`` are sorted tuples of arguments in (0, 1)
    other than 1/2; they are empty whenever every original argument was an
    integer or half-integer (the common case on all three domain families).
    """

    coeff: Fraction
    pi_half: int = 0
    gamma_num: tuple = ()
    gamma_den: tuple = ()

    def __post_init__(self):
        if self.coeff.numerator <= 0:  # a Fraction's sign, without its __le__
            raise ValueError("ExactValue must be strictly positive")

    @property
    def pi_power(self) -> Fraction:
        return Fraction(self.pi_half, 2)

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return make_exact(
                self.coeff * other.coeff,
                self.pi_half + other.pi_half,
                self.gamma_num + other.gamma_num,
                self.gamma_den + other.gamma_den,
            )
        return make_exact(self.coeff * as_fraction(other), self.pi_half,
                          self.gamma_num, self.gamma_den)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        return make_exact(
            self.coeff / other.coeff,
            self.pi_half - other.pi_half,
            self.gamma_num + other.gamma_den,
            self.gamma_den + other.gamma_num,
        )

    def inverse(self) -> "ExactValue":
        """1 / self, canonical as it stands: what cancels has cancelled."""
        return ExactValue(self.coeff ** -1, -self.pi_half, self.gamma_den, self.gamma_num)

    def __float__(self) -> float:
        v = float(self.coeff) * math.pi ** (self.pi_half // 2)
        if self.pi_half % 2:
            v *= math.sqrt(math.pi)
        if self.gamma_num or self.gamma_den:
            v *= math.exp(sum(math.lgamma(float(a)) for a in self.gamma_num)
                          - sum(math.lgamma(float(b)) for b in self.gamma_den))
        return v

    def log(self) -> float:
        """Natural logarithm, free of the float range (math.log takes
        integers of any size)."""
        return (math.log(self.coeff.numerator) - math.log(self.coeff.denominator)
                + self.pi_half * math.log(math.pi) / 2
                + sum(math.lgamma(float(a)) for a in self.gamma_num)
                - sum(math.lgamma(float(b)) for b in self.gamma_den))

    def key(self):
        """Scale-factor identity (everything but the rational coefficient)."""
        return (self.pi_half, self.gamma_num, self.gamma_den)

    def as_dict(self) -> dict:
        """JSON-friendly exact rendering; pi_power is 'k' or 'k/2'."""
        d = {"coeff": format_fraction(self.coeff),
             "pi_power": format_fraction(self.pi_power)}
        if self.gamma_num or self.gamma_den:
            d["gamma_num"] = [format_fraction(a) for a in self.gamma_num]
            d["gamma_den"] = [format_fraction(b) for b in self.gamma_den]
        return d


def half_gamma(tops, bottoms, coeff=1, pi_half: int = 0) -> ExactValue:
    """``coeff * pi^(pi_half/2) * prod Gamma(t/2) / prod Gamma(b/2)``, canonical, for
    positive integers t in ``tops`` and b in ``bottoms``: the one place that folds Gamma
    at Z/2, in integers.  Each b first cancels the nearest t of its parity as one product."""
    if min(tops, default=1) <= 0 or min(bottoms, default=1) <= 0:
        raise ValueError("Gamma arguments must be positive")
    tops, rest, num, den, twos = list(tops), [], coeff.numerator, coeff.denominator, 0
    for b in bottoms:  # t = 0: no argument of b's parity
        t = min([(abs(b - t), t) for t in tops if (b - t) % 2 == 0], default=(0, 0))[1]
        if not t:
            rest.append(b)
            continue
        tops.remove(t)
        lo, hi = sorted((t, b))
        odd, m = b % 2, (hi - lo) // 2  # Gamma(hi/2) / Gamma(lo/2) = shift / 2^(odd m)
        shift = _product(range(lo, hi, 2)) if odd else math.perm(hi // 2 - 1, m)
        num, den = (num * shift, den) if t > b else (num, den * shift)
        twos += odd * m if t < b else -odd * m
    for args, sign in ((tops, 1), (rest, -1)):
        for t in args:  # Gamma(k) = (k-1)!, Gamma(k + 1/2) = (2k-1)!! sqrt(pi) / 2^k
            k, odd = divmod(t, 2)
            f = _product(range(1, t, 2)) if odd else math.factorial(k - 1)
            num, den = (num * f, den) if sign > 0 else (num, den * f)
            pi_half, twos = pi_half + sign * odd, twos - sign * odd * k
    if not twos:  # else every factor 2 skips the gcd, twice as fast on odd parts
        return ExactValue(Fraction(num, den), pi_half)
    zn, zd = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    return ExactValue(Fraction(num >> zn, den >> zd) * Fraction(2) ** (twos + zn - zd), pi_half)


def make_exact(coeff, pi_half: int = 0, gamma_num=(), gamma_den=()) -> ExactValue:
    """Build a canonical ExactValue: arguments in Z/2 fold in ``half_gamma``; of
    the others, numerator and denominator arguments that differ by an integer
    cancel to a rational, and each one left moves into (0, 1)."""
    if not (gamma_num or gamma_den):
        return ExactValue(as_fraction(coeff), pi_half)
    coeff = as_fraction(coeff)
    tops = [as_fraction(a) for a in gamma_num]
    bottoms = [as_fraction(b) for b in gamma_den]
    if any(x <= 0 for x in tops + bottoms):
        raise ValueError("Gamma arguments must be positive")
    halves = [[x.numerator * (2 // x.denominator) for x in xs if x.denominator <= 2]
              for xs in (tops, bottoms)]
    if halves[0] or halves[1]:  # no other argument differs from these by an integer
        folded = half_gamma(*halves, coeff, pi_half)
        coeff, pi_half = folded.coeff, folded.pi_half
        tops, bottoms = ([x for x in xs if x.denominator > 2] for xs in (tops, bottoms))
    # Gamma(a) / Gamma(a + k) is a product of |k| factors: cancel such pairs
    # first, so a large shared shift never folds two factorials
    for a in list(tops):
        shifts = [b - a for b in bottoms if (b - a).denominator == 1]
        if shifts:
            k = int(min(shifts, key=abs))
            tops.remove(a)
            bottoms.remove(a + k)
            coeff = coeff / _rising(a, k) if k >= 0 else coeff * _rising(a + k, -k)
    num: list[Fraction] = []
    den: list[Fraction] = []
    for args, kept, sign in ((tops, num, 1), (bottoms, den, -1)):
        for a in args:  # Gamma(a) = Gamma(r) r (r+1) ... (a-1), r in (0, 1)
            k = math.floor(a)
            coeff = coeff * _rising(a - k, k) if sign > 0 else coeff / _rising(a - k, k)
            kept.append(a - k)
    return ExactValue(coeff, pi_half, tuple(sorted(num)), tuple(sorted(den)))


@dataclass(frozen=True)
class QComplex:
    """Complex number with exact rational real/imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def from_complex(z) -> "QComplex":
        z = complex(z)
        if not cmath.isfinite(z):
            raise ParseError(f"coefficient {z} is not finite")
        return QComplex(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        q = as_fraction(other)
        return QComplex(self.re * q, self.im * q)

    __rmul__ = __mul__

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


class ExactMix:
    """Exact finite sum  sum_k  q_k * (pi^(j_k/2) * Gamma-product_k).

    The pairing of two monomial sums lands here: each distinct scale factor
    (an ``ExactValue`` key) carries a ``QComplex`` coefficient.  Equality is
    exact structural equality after dropping zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict = {}

    def add_scaled(self, coeff: QComplex, value: ExactValue) -> None:
        """Accumulate ``coeff * value`` into the mix."""
        key = value.key()
        new = self._terms.get(key, QComplex()) + coeff * value.coeff
        if new.is_zero():
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    def items(self):
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, ExactMix) and self.items() == other.items()

    def __complex__(self) -> complex:
        total = 0j
        for (pi_half, gnum, gden), q in self.items():
            scale = float(make_exact(1, pi_half, gnum, gden))
            total += complex(q) * scale
        return total

    def __repr__(self):
        return f"ExactMix({self.items()!r})"
