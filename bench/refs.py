"""Reference answers for the benchmark, written without the package.

Everything here is re-derived from the closed forms of the paper and of the
cited literature, in plain ``fractions``/``math``/``numpy``:

* membership: on the polydisc and the ball alpha is allowable iff every
  alpha_i >= 0; on H(m, n) iff alpha_1 >= 0 and p*(n*alpha_1 + m*alpha_2) >
  -2(m+n);
* indices: 2, 2(m+n)/(m+n-1), 2(m+n)/(m+n-1) on H(m, n), unbounded otherwise;
* thresholds: the values 2(m+n)/k realised by a window slope -k;
* radial moments and projection coefficients (e.g. a/(a+2) for
  z1^a * conj(z1) on the 2-ball);
* Bergman kernels: the polydisc, ball and H(1, 1) closed forms, and the
  series with coefficients (a1+1)(n(a1+1)+m(a2+1))/(pi^2 m) on H(m, n);
* the even-p identity ||f||_4^4 = ||f^2||_2^2 for Laurent sums, and
  ||f||_2 and single-monomial norms from orthogonality.

Domains are plain tuples ``(family, dim, m, n)`` parsed from spec strings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np


class Dom(NamedTuple):
    family: str
    dim: int
    m: int = 0
    n: int = 0


def parse(spec: str) -> Dom:
    family, _, tail = spec.partition(":")
    if family == "hartogs":
        m, n = (int(x) for x in tail.split("/"))
        return Dom(family, 2, m, n)
    return Dom(family, int(tail))


def coprime_triangles(max_sum: int = 12) -> list:
    """Every coprime (m, n) with m + n <= max_sum, in lexicographic order."""
    return [(m, n) for m in range(1, max_sum) for n in range(1, max_sum)
            if m + n <= max_sum and math.gcd(m, n) == 1]


def box(dim: int, radius: int):
    """The lattice window max|alpha_i| <= radius in lexicographic order."""
    return itertools.product(range(-radius, radius + 1), repeat=dim)


# ---------------------------------------------------------------------------
# membership, thresholds, indices
# ---------------------------------------------------------------------------

def member(d: Dom, alpha, p) -> bool:
    if d.family != "hartogs":
        return all(a >= 0 for a in alpha)
    a1, a2 = alpha
    return a1 >= 0 and Fraction(p) * (d.n * a1 + d.m * a2) > -2 * (d.m + d.n)


def critical_exponent(d: Dom, alpha) -> Optional[Fraction]:
    """The p at which alpha leaves the allowable set, if there is one."""
    if d.family != "hartogs" or alpha[0] < 0:
        return None
    slope = d.n * alpha[0] + d.m * alpha[1]
    return Fraction(2 * (d.m + d.n), -slope) if slope < 0 else None


def window_members(d: Dom, p, radius: int) -> list:
    return [alpha for alpha in box(d.dim, radius) if member(d, alpha, p)]


def thresholds(d: Dom, p_lo, p_hi, radius: int) -> list:
    """Sorted (value, lex-smallest witness) pairs realised in the window."""
    found: dict = {}
    for alpha in box(d.dim, radius):
        crit = critical_exponent(d, alpha)
        if crit is not None and p_lo <= crit <= p_hi and crit not in found:
            found[crit] = alpha  # the box is lex-ordered: first is smallest
    return sorted(found.items())


def index_values(d: Dom):
    """(duality, regularity, beta) as Fractions, or None for unbounded."""
    if d.family != "hartogs":
        return None, None, None
    crit = Fraction(2 * (d.m + d.n), d.m + d.n - 1)
    return Fraction(2), crit, crit


def default_window(d: Dom) -> int:
    return max(6, d.m + d.n) if d.family == "hartogs" else 6


def injectivity_witness(d: Dom, p, radius: int):
    """Lex-smallest window index allowable at the conjugate of p but not at p."""
    p = Fraction(p)
    q = Fraction(2) if p == 2 else p / (p - 1)
    for gamma in box(d.dim, radius):
        if member(d, gamma, q) and not member(d, gamma, p):
            return gamma
    return None


def critical_witness(m: int, n: int):
    """A bounded mixed monomial z^alpha conj(z)^gamma whose projection is
    proportional to z^delta with n*delta_1 + m*delta_2 = -(m+n-1).

    Its projection ratio is finite exactly for p < 2(m+n)/(m+n-1).
    """
    for d1 in range(m):
        rest = -(m + n - 1) - n * d1
        if rest % m == 0:
            d2 = rest // m
            return (d1, 0), (0, -d2)
    raise AssertionError("unreachable for coprime m, n")


# ---------------------------------------------------------------------------
# radial moments  M(c) = integral of prod |z_i|^c_i dV
# ---------------------------------------------------------------------------

def moment_finite(d: Dom, c) -> bool:
    c = [Fraction(ci) for ci in c]
    if d.family == "hartogs":
        c1, c2 = c
        return c1 + 2 > 0 and d.n * (c1 + 2) + d.m * (c2 + 2) > 0
    return all(ci + 2 > 0 for ci in c)


def moment_value(d: Dom, c) -> Optional[float]:
    """Float value of M(c), or None when divergent."""
    c = [Fraction(ci) for ci in c]
    if not moment_finite(d, c):
        return None
    if d.family == "polydisc":
        return math.prod(2 * math.pi / float(ci + 2) for ci in c)
    if d.family == "hartogs":
        c1, c2 = c
        return (4 * math.pi ** 2 * d.m
                / float((c1 + 2) * (d.n * (c1 + 2) + d.m * (c2 + 2))))
    log = (sum(math.lgamma(float(ci / 2 + 1)) for ci in c)
           - math.lgamma(float(sum(c) / 2 + d.dim + 1)))
    return math.pi ** d.dim * math.exp(log)


def ball_moment_coeff(alpha) -> Fraction:
    """||z^alpha||_2^2 / pi^n on the n-ball: prod alpha_i! / (n + |alpha|)!."""
    num = math.prod(math.factorial(a) for a in alpha)
    return Fraction(num, math.factorial(len(alpha) + sum(alpha)))


def _range_prod(lo: int, hi: int) -> int:
    """lo * (lo+1) * ... * hi, and 1 for an empty range."""
    return math.prod(range(lo, hi + 1))


def projection_coeff(d: Dom, alpha, gamma) -> Optional[Fraction]:
    """B(z^alpha conj(z)^gamma) = coeff * z^delta, delta = alpha - gamma.

    coeff = M(2 alpha) / M(2 delta), a plain rational; None when the
    projection vanishes (delta not allowable at 2, or M(2 alpha) divergent).
    """
    delta = tuple(a - g for a, g in zip(alpha, gamma))
    if not member(d, delta, 2) or not moment_finite(d, [2 * a for a in alpha]):
        return None
    if d.family == "polydisc":
        return math.prod(Fraction(dl + 1, a + 1) for a, dl in zip(alpha, delta))
    if d.family == "hartogs":
        def den(e):
            return (2 * e[0] + 2) * (d.n * (2 * e[0] + 2) + d.m * (2 * e[1] + 2))
        return Fraction(den(delta), den(alpha))
    # ball: prod alpha_i!/delta_i! * (n+|delta|)!/(n+|alpha|)!, short ranges
    num = math.prod(_range_prod(dl + 1, a) for a, dl in zip(alpha, delta))
    nd = d.dim + sum(delta)
    return Fraction(num, _range_prod(nd + 1, d.dim + sum(alpha)))


def project(d: Dom, terms) -> dict:
    """Projection of sum (re, im, alpha, gamma) terms: {delta: (re, im)}."""
    out: dict = {}
    for re, im, alpha, gamma in terms:
        coeff = projection_coeff(d, alpha, gamma)
        if coeff is None:
            continue
        delta = tuple(a - g for a, g in zip(alpha, gamma))
        r0, i0 = out.get(delta, (Fraction(0), Fraction(0)))
        out[delta] = (r0 + re * coeff, i0 + im * coeff)
    return {k: v for k, v in out.items() if v != (0, 0)}


def pairing(d: Dom, f_terms, g_terms) -> Optional[complex]:
    """<f, g> for mixed sums of (re, im, alpha, gamma); None if a cross term
    is not absolutely integrable."""
    total = 0j
    for rf, if_, af, gf in f_terms:
        for rg, ig, ag, gg in g_terms:
            exps = [a + b + c + e for a, b, c, e in zip(af, gf, ag, gg)]
            value = moment_value(d, exps)
            if value is None:
                return None
            if all(a - b == c - e for a, b, c, e in zip(af, gf, ag, gg)):
                total += complex(rf, if_) * complex(rg, -ig) * value
    return total


def projection_ratio(d: Dom, alpha, gamma, p):
    """(divergent, ||Bf||_p / ||f||_p) for the witness f = z^alpha conj(z)^gamma."""
    p = Fraction(p)
    coeff = projection_coeff(d, alpha, gamma)
    delta = [a - g for a, g in zip(alpha, gamma)]
    mdp = moment_value(d, [p * x for x in delta])
    if mdp is None:
        return True, None
    mfp = moment_value(d, [p * (a + g) for a, g in zip(alpha, gamma)])
    return False, abs(float(coeff)) * (mdp / mfp) ** (1.0 / float(p))


def lp4_norm(d: Dom, terms) -> float:
    """||f||_4 of a Laurent sum with distinct exponents, exactly via
    ||f||_4^4 = ||f^2||_2^2: the products z^(a+b) with distinct exponents
    are orthogonal on a Reinhardt domain."""
    square: dict = {}
    for (c1, a1), (c2, a2) in itertools.product(terms, repeat=2):
        key = tuple(x + y for x, y in zip(a1, a2))
        square[key] = square.get(key, 0j) + c1 * c2
    total = sum(abs(c) ** 2 * moment_value(d, [2 * e for e in key])
                for key, c in square.items())
    return total ** 0.25


def lp_norm(d: Dom, terms, p) -> Optional[float]:
    """||f||_p of a Laurent sum of (c, alpha) terms with distinct exponents,
    where it has a closed form: one monomial at any p, or any sum at p = 2
    (orthogonality) and p = 4 (``lp4_norm``); None otherwise."""
    p = Fraction(p)
    if len(terms) == 1:
        (c, alpha), = terms
        return abs(c) * moment_value(d, [p * a for a in alpha]) ** (1 / float(p))
    if p == 2:
        return sum(abs(c) ** 2 * moment_value(d, [2 * a for a in alpha])
                   for c, alpha in terms) ** 0.5
    if p == 4:
        return lp4_norm(d, terms)
    return None


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel(d: Dom, z, w, series_window: int = 60) -> complex:
    """K(w, z), analytic in w; the triangle series runs to series_window."""
    z = [complex(x) for x in z]
    w = [complex(x) for x in w]
    if d.family == "polydisc":
        return math.prod(1.0 / (math.pi * (1.0 - wi * zi.conjugate()) ** 2)
                         for zi, wi in zip(z, w))
    if d.family == "ball":
        inner = sum(wi * zi.conjugate() for zi, wi in zip(z, w))
        return (math.factorial(d.dim) / math.pi ** d.dim
                * (1.0 - inner) ** (-(d.dim + 1)))
    x = w[0] * z[0].conjugate()
    y = w[1] * z[1].conjugate()
    if (d.m, d.n) == (1, 1):
        return y / (math.pi ** 2 * (1.0 - y) ** 2 * (y - x) ** 2)
    a1 = np.arange(series_window + 1)[:, None]
    a2 = np.arange(-series_window, series_window + 1)[None, :]
    weight = (a1 + 1) * (d.n * (a1 + 1) + d.m * (a2 + 1))
    allowed = weight > 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = np.where(allowed, weight / (math.pi ** 2 * d.m)
                         * x ** a1 * y ** a2.astype(float), 0.0)
    return complex(np.sum(terms))


def kernel_series_terms(d: Dom, radius: int) -> int:
    """Number of allowable-at-2 indices in the window (the series length)."""
    if d.family != "hartogs":
        return (radius + 1) ** d.dim
    return sum(1 for a1 in range(radius + 1) for a2 in range(-radius, radius + 1)
               if d.n * (a1 + 1) + d.m * (a2 + 1) > 0)


def density_residual(alpha: int, points) -> float:
    """||z^alpha||^2 - c* G^-1 c on the unit disc with the closed-form kernel."""
    pts = np.array([complex(p) for p in points])
    gram = 1.0 / (math.pi * (1.0 - pts[:, None] * pts[None, :].conjugate()) ** 2)
    c = pts ** alpha
    return math.pi / (alpha + 1) - float(np.real(np.vdot(c, np.linalg.solve(gram, c))))
