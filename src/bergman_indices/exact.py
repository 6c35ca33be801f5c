"""Exact arithmetic primitives shared by every module.

All closed-form quantities produced by this package are positive reals of the
shape

    rational * pi^(k/2) * Gamma(a_1)...Gamma(a_r) / (Gamma(b_1)...Gamma(b_s))

with rational Gamma arguments.  ``ExactValue`` stores that shape in a canonical
form: ``fold_gamma`` alone folds Gamma, in integers over one common denominator
of its arguments.  Arguments that differ by an integer cancel, and Gamma at
integers and half-integers goes into the rational coefficient and the pi power
(``Gamma(1/2) = sqrt(pi)``), so a Gamma product survives only for
non-half-integer arguments.  Two canonical values are equal iff their
components are equal, which is what makes the zero-tolerance identity checks
in the projection module honest.

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
        return self * other.inverse()

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


def fold_gamma(tops, bottoms, q: int, coeff=1, pi_half: int = 0) -> ExactValue:
    """``coeff * pi^(pi_half/2) * prod Gamma(t/q) / prod Gamma(b/q)``, canonical, for positive
    integers t in ``tops`` and b in ``bottoms``: the one place that folds Gamma, in integers.
    Each b cancels the nearest t of its residue mod q; the rest fold to r/q in (0, 1]."""
    if min(tops, default=1) <= 0 or min(bottoms, default=1) <= 0:
        raise ValueError("Gamma arguments must be positive")
    if coeff.numerator <= 0:  # a Fraction's sign, without its __le__
        raise ValueError("ExactValue must be strictly positive")
    tops, rest, num, den, qs = list(tops), [], coeff.numerator, coeff.denominator, 0
    for b in bottoms:  # t = 0: no argument of b's residue
        t = min([(abs(b - t), t) for t in tops if (b - t) % q == 0], default=(0, 0))[1]
        if not t:
            rest.append(b)
            continue
        tops.remove(t)
        lo, hi = sorted((t, b))
        r, m = b % q, (hi - lo) // q  # Gamma(hi/q) / Gamma(lo/q) = shift / q^m, q^0 at r = 0
        shift = _product(range(lo, hi, q)) if r else math.perm(hi // q - 1, m)
        num, den = (num * shift, den) if t > b else (num, den * shift)
        qs += (m if t < b else -m) if r else 0
    kept = None  # the symbolic Gamma(r/q), r/q in (0, 1) but 1/2, of tops and rest
    for args, sign in ((tops, 1), (rest, -1)):
        for t in args:  # Gamma(k) = (k-1)!, Gamma(k + r/q) = Gamma(r/q) r (r+q) ... / q^k
            k, r = divmod(t, q)
            if not r:
                f = math.factorial(k - 1)
            else:
                f, qs = _product(range(r, t, q)), qs - sign * k
                if r + r == q:  # Gamma(1/2) = sqrt(pi)
                    pi_half += sign
                else:
                    kept = kept or ([], [])
                    kept[sign < 0].append(Fraction(r, q))
            num, den = (num * f, den) if sign > 0 else (num, den * f)
    twos = 0
    if qs:  # q^qs = odd^qs 2^(e qs): the odd part joins the integers
        e = (q & -q).bit_length() - 1
        odd, twos = q >> e, e * qs
        if odd > 1:
            num, den = (num * odd ** qs, den) if qs > 0 else (num, den * odd ** -qs)
    if not twos:  # else every factor 2 skips the gcd, twice as fast on odd parts
        coeff = Fraction(num, den)
    else:
        zn, zd = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
        coeff = Fraction(num >> zn, den >> zd) * Fraction(2) ** (twos + zn - zd)
    if kept is None:
        return ExactValue(coeff, pi_half)
    return ExactValue(coeff, pi_half, tuple(sorted(kept[0])), tuple(sorted(kept[1])))


def make_exact(coeff, pi_half: int = 0, gamma_num=(), gamma_den=()) -> ExactValue:
    """Build a canonical ExactValue from rational Gamma arguments, which
    ``fold_gamma`` folds over their least common denominator."""
    args = [[as_fraction(a) for a in xs] for xs in (gamma_num, gamma_den)]
    q = math.lcm(*(a.denominator for xs in args for a in xs))
    return fold_gamma(*([a.numerator * (q // a.denominator) for a in xs] for xs in args),
                      q, as_fraction(coeff), pi_half)


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
            scale = float(ExactValue(Fraction(1), pi_half, gnum, gden))
            total += complex(q) * scale
        return total

    def __repr__(self):
        return f"ExactMix({self.items()!r})"
