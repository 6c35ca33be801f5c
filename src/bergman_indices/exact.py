"""Exact arithmetic primitives shared by every module.

All closed-form quantities produced by this package are positive reals of the
shape

    rational * pi^(k/2) * Gamma(a_1)...Gamma(a_r) / (Gamma(b_1)...Gamma(b_s))

with rational Gamma arguments.  ``ExactValue`` stores that shape in a canonical
form: Gamma factors at integer or half-integer arguments are folded into the
rational coefficient and the pi power (``Gamma(1/2) = sqrt(pi)``), so a Gamma
product survives only for genuinely non-half-integer rational arguments.  Two
canonical values are equal iff their components are equal, which is what makes
the zero-tolerance identity checks in the projection module honest.

``QComplex`` is a complex number with ``Fraction`` real and imaginary parts;
``ExactMix`` is a finite linear combination of distinct canonical scale factors
with ``QComplex`` coefficients (the exact result type of the duality pairing).
"""

from __future__ import annotations

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
        raise ParseError(f"malformed rational {text!r}") from None
    if len(parts) == 1:
        return Fraction(parts[0])
    if len(parts) == 2:
        num, den = parts
        if den <= 0:
            raise ParseError(f"denominator must be positive in {text!r}")
        return Fraction(num, den)
    raise ParseError(f"malformed rational {text!r}")


def format_fraction(q: Fraction) -> str:
    """Serialize a rational as 'num' or 'num/den' (never a float)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _reduce_gamma_arg(a: Fraction):
    """Shift Gamma(a) to an argument in (0, 1], returning (rational, arg).

    Gamma(a) = rational * Gamma(arg).  Requires a > 0.
    """
    if a <= 0:
        raise ValueError(f"Gamma argument must be positive, got {a}")
    coeff = Fraction(1)
    while a > 1:
        a -= 1
        coeff *= a
    return coeff, a


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
        if self.coeff <= 0:
            raise ValueError("ExactValue must be strictly positive")

    @property
    def is_rational_pi(self) -> bool:
        """True when the value is rational * integer power of pi."""
        return not self.gamma_num and not self.gamma_den and self.pi_half % 2 == 0

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

    def __truediv__(self, other):
        if isinstance(other, ExactValue):
            return make_exact(
                self.coeff / other.coeff,
                self.pi_half - other.pi_half,
                self.gamma_num + other.gamma_den,
                self.gamma_den + other.gamma_num,
            )
        return make_exact(self.coeff / as_fraction(other), self.pi_half,
                          self.gamma_num, self.gamma_den)

    def __float__(self) -> float:
        v = float(self.coeff) * math.pi ** (self.pi_half // 2)
        if self.pi_half % 2:
            v *= math.sqrt(math.pi)
        if self.gamma_num or self.gamma_den:
            v *= math.exp(sum(math.lgamma(float(a)) for a in self.gamma_num)
                          - sum(math.lgamma(float(b)) for b in self.gamma_den))
        return v

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

    def __str__(self):
        s = format_fraction(self.coeff)
        if self.pi_half:
            s += f" * pi^{format_fraction(self.pi_power)}"
        for a in self.gamma_num:
            s += f" * G({format_fraction(a)})"
        for b in self.gamma_den:
            s += f" / G({format_fraction(b)})"
        return s


def make_exact(coeff, pi_half: int = 0, gamma_num=(), gamma_den=()) -> ExactValue:
    """Build a canonical ExactValue, folding reducible Gamma factors.

    Every half-integer argument disappears into ``coeff`` and ``pi_half``;
    identical arguments in numerator and denominator cancel.
    """
    coeff = as_fraction(coeff)
    num: list[Fraction] = []
    den: list[Fraction] = []
    for a in gamma_num:
        c, r = _reduce_gamma_arg(as_fraction(a))
        coeff *= c
        if r == 1:
            continue
        if r == Fraction(1, 2):
            pi_half += 1
        else:
            num.append(r)
    for b in gamma_den:
        c, r = _reduce_gamma_arg(as_fraction(b))
        coeff /= c
        if r == 1:
            continue
        if r == Fraction(1, 2):
            pi_half -= 1
        else:
            den.append(r)
    # cancel common leftover arguments
    for a in list(num):
        if a in den:
            num.remove(a)
            den.remove(a)
    return ExactValue(coeff, pi_half, tuple(sorted(num)), tuple(sorted(den)))


EXACT_ONE = make_exact(1)


@dataclass(frozen=True)
class QComplex:
    """Complex number with exact rational real/imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def from_complex(z) -> "QComplex":
        z = complex(z)
        return QComplex(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        q = as_fraction(other)
        return QComplex(self.re * q, self.im * q)

    __rmul__ = __mul__

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


class ExactMix:
    """Exact finite sum  sum_k  q_k * (pi^(j_k/2) * Gamma-product_k).

    The pairing of two monomial sums lands here: each distinct scale factor
    (an ``ExactValue`` key) carries a ``QComplex`` coefficient.  Equality is
    exact structural equality after dropping zero coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms: dict = {}
        if terms:
            for key, q in terms:
                self._accumulate(key, q)

    def _accumulate(self, key, q: QComplex):
        cur = self._terms.get(key)
        new = q if cur is None else cur + q
        if new.is_zero():
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    def add_scaled(self, coeff: QComplex, value: ExactValue) -> None:
        """Accumulate ``coeff * value`` into the mix."""
        self._accumulate(value.key(), coeff * value.coeff)

    def __add__(self, other: "ExactMix") -> "ExactMix":
        out = ExactMix(self.items())
        for key, q in other.items():
            out._accumulate(key, q)
        return out

    def scaled(self, q: QComplex) -> "ExactMix":
        return ExactMix((key, q * c) for key, c in self.items())

    def conjugate(self) -> "ExactMix":
        return ExactMix((key, c.conjugate()) for key, c in self.items())

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
