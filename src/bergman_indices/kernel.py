"""Bergman kernel evaluation, reproduction, density, and integrability probes.

The kernel of a Reinhardt domain expands over the allowable-at-2 monomials,

    K(w, z) = sum over alpha in S(2) of  w^alpha * conj(z)^alpha / ||z^alpha||^2,

and this module evaluates the window truncation of that series (exact inverse
norms, lexicographic order) in one array pass with the bits of a Python loop:
the tables w_i^a conj(z_i)^a are Python complex powers, the products run in
real arithmetic, (re fr - im fi, re fi + im fr), on nonzero exponents only,
and the terms add in order from 0.0 (np.cumsum).  Next to it stands its
resummation, a rational function of the products x_i = w_i conj(z_i):

  polydisc   prod_i 1 / (pi * (1 - x_i)^2)
  ball       n! / pi^n * (1 - sum_i x_i)^(-(n+1))
  H(m, n)    sum_{r=0}^{m-1}  x^r y^(-c_r) ((r+1) + (m-r-1) t) (k_r + (m-k_r) y)
                              / (pi^2 m (1-t)^2 (1-y)^2),
             x = x_1, y = x_2, t = x^m / y^n,
             c_r = ceil(n (r+1) / m),  k_r = n (r+1) + m (1 - c_r)

The triangle form splits alpha_1 = m q + r and alpha_2 = -n q - c_r + j
(q, j >= 0); each residue class r then sums two geometric-type series, in t
and in y.  For m = n = 1 it is y / (pi^2 (1-y)^2 (y-x)^2).  (The kernel is
Hermitian, K(w, z) = conj(K(z, w)); the closed forms follow the series
convention, analytic in w.)  Reproduction of monomials is checked by the
exact orthogonality collapse of the pairing, the span-density proxy is the
exact Gram least-squares residual, and kernel p-norms are estimated by the
quadrature module with corner-cutoff divergence probing.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .domains import (DomainSpec, Family, MultiIndex, check_exponent, moment,
                      point_in_domain)
from .errors import IllConditionedGram, Inconclusive, ParseError
from .exact import ExactValue
from .index_sets import index_set_window
from .quadrature import (REL_TOL, AbsPowerIntegrand, BlackBoxIntegrand, ProbeResult,
                         QuadConfig, divergence_probe, integrate, pth_root)

GRAM_COND_LIMIT = 1e12  # density_residual rejects a Gram matrix beyond it
# the divergence ladder's node counts, the only part of a budget it reads
PROBE_CFG = QuadConfig(radial_nodes=16, angular_nodes=16)
PNORM_CFG = QuadConfig(radial_nodes=24)  # the final integral's budget by default
# above this dimension a kernel p-norm at z != 0 meets six-axis meshes and has
# no work bound; at z = 0 the section is constant and answers in seconds
MAX_PNORM_DIM = 2


@dataclass(frozen=True)
class KernelSeries:
    """Window truncation of the kernel expansion with exact coefficients,
    and the arrays ``kernel_truncated`` sums it with, built once."""

    domain: DomainSpec
    radius: int
    terms: Tuple[Tuple[MultiIndex, ExactValue], ...]  # (alpha, 1/||e_alpha||^2)
    #: the inverse norms as a float array, in the order of ``terms``
    coeffs: np.ndarray = field(compare=False, repr=False)
    #: per axis: its distinct nonzero exponents (Python ints), the rows of
    #: ``terms`` whose exponent is nonzero, and each such row's index into them
    columns: tuple = field(compare=False, repr=False)

    def inverse_norm(self, alpha) -> Optional[ExactValue]:
        alpha = tuple(alpha)
        for a, inv in self.terms:
            if a == alpha:
                return inv
        return None


@functools.lru_cache(maxsize=32)
def kernel_series(d: DomainSpec, radius: int) -> KernelSeries:
    """Exact series data for the allowable-at-2 window (lex-ordered)."""
    window = index_set_window(d, 2, radius)
    terms = tuple((alpha, moment(d, alpha, 2).value.inverse())
                  for alpha in window.members)
    columns = []
    for column in np.array(window.members).T:  # the window holds 0, so it is 2-D
        rows = np.flatnonzero(column)
        exponents, index = np.unique(column[rows], return_inverse=True)
        columns.append((exponents.tolist(), rows, index))
    return KernelSeries(d, radius, terms, np.array([float(inv) for _a, inv in terms]),
                        tuple(columns))


def _require_inside(d: DomainSpec, z, name: str) -> tuple:
    z = tuple(complex(zi) for zi in z)
    if not point_in_domain(d, z):
        raise ParseError(f"point {name}={z} lies outside {d}")
    return z


def _in_float_range(evaluate):
    """Float overflow or underflow (negative powers of small moduli) in a
    point evaluation ends as Inconclusive, like a NaN on a quadrature grid."""
    @functools.wraps(evaluate)
    def checked(*args) -> complex:
        try:
            value = evaluate(*args)
        except (ZeroDivisionError, OverflowError):
            value = cmath.nan
        if not cmath.isfinite(value):
            raise Inconclusive(f"{evaluate.__name__}: the value leaves the "
                               "floating-point range")
        return value
    return checked


@_in_float_range
def kernel_truncated(d: DomainSpec, z, w, radius: int) -> complex:
    """Window truncation of K(w, z), summed in lexicographic order with the
    bits of a Python loop (module docstring)."""
    z = _require_inside(d, z, "z")
    w = _require_inside(d, w, "w")
    series = kernel_series(d, radius)
    re, im = series.coeffs.copy(), np.zeros(len(series.coeffs))  # each term is coeff + 0j
    with np.errstate(all="ignore"):  # inf and NaN end in the range check
        for wi, zi, (exponents, rows, index) in zip(w, z, series.columns):
            # w_i^a conj(z_i)^a once for each nonzero exponent a, in Python
            table = np.array([wi ** a * zi.conjugate() ** a for a in exponents], complex)
            fr, fi, r, i = table.real[index], table.imag[index], re[rows], im[rows]
            re[rows], im[rows] = r * fr - i * fi, r * fi + i * fr
        # in order from 0.0, the bits of a running sum of Python complex numbers
        return complex(np.cumsum(np.append(0.0, re))[-1],
                       np.cumsum(np.append(0.0, im))[-1])


def _power(v, e: int):
    """v^e by products (numpy's complex power is slow); v itself for e = 1."""
    return v if e == 1 else math.prod([v] * e)


def _closed_form(d: DomainSpec, xs):
    """Resummed kernel on the products x_i = w_i conj(z_i) (module docstring),
    complex numbers or arrays that broadcast."""
    if d.family is Family.POLYDISC:
        value = 1.0
        for x in xs:
            value = value / (math.pi * (1.0 - x) ** 2)
        return value
    if d.family is Family.BALL:
        return (math.factorial(d.dim) / math.pi ** d.dim
                * (1.0 - sum(xs)) ** (-(d.dim + 1)))
    m, n = d.m, d.n
    x, y = xs
    y_n, x_m = _power(y, n), _power(x, m)

    def coefficient(r):
        """B_r ((r+1) y^n + (m-r-1) x^m) for r < m-1."""
        c = -(-n * (r + 1) // m)
        k = n * (r + 1) + m * (1 - c)
        b = _power(y, n - c) * (k + (m - k) * y)
        return (y_n * (r + 1) + (m - r - 1) * x_m) * b

    # times y^(2n), the numerator is  sum_r x^r B_r ((r+1) y^n + (m-r-1) x^m)
    # with B_r = y^(n-c_r) (k_r + (m-k_r) y), where B_(m-1) = m, and the
    # denominator is  pi^2 m (1-y)^2 (y^n - x^m)^2, in Horner form in x.
    # numpy divides: Python's complex division rounds differently
    total = m * m * y_n
    for r in reversed(range(m - 1)):
        total = total * x + coefficient(r)
    s = y_n - x_m
    return np.divide(total, s * s * (math.pi ** 2 * m * (1.0 - y) ** 2))


@_in_float_range
def kernel_closed_form(d: DomainSpec, z, w) -> complex:
    """Resummed kernel K(w, z); every supported domain has one."""
    z = _require_inside(d, z, "z")
    w = _require_inside(d, w, "w")
    xs = [wi * zi.conjugate() for zi, wi in zip(z, w)]
    if d.family is Family.HARTOGS and min(
            abs(1.0 - xs[0] ** d.m / xs[1] ** d.n), abs(1.0 - xs[1])) < 1e-12:
        warnings.warn(f"kernel denominator nearly singular at z={z}, w={w}")
    return complex(_closed_form(d, xs))


def reproduce_check(d: DomainSpec, alpha, z, radius: int) -> float:
    """Residual |<e_alpha, K(., z)> - z^alpha| via exact orthogonality.

    The pairing against the truncated kernel collapses to the single matching
    term, whose coefficient is exactly ||e_alpha||^2 / ||e_alpha||^2 = 1, so
    the residual is exactly zero whenever alpha lies inside the window.
    Indices outside the window are an error, not a silent zero.
    """
    alpha = tuple(alpha)
    z = _require_inside(d, z, "z")
    series = kernel_series(d, radius)
    inv = series.inverse_norm(alpha)
    if inv is None:
        raise ParseError(
            f"alpha={alpha} is outside the allowable window at radius {radius}")
    collapse = inv * moment(d, alpha, 2).value  # exact 1
    monomial = 1.0 + 0j
    for zi, a in zip(z, alpha):
        if a:
            monomial *= zi ** a
    return abs(float(collapse) * monomial - monomial)


def density_residual(d: DomainSpec, alpha, points: Sequence) -> float:
    """Squared distance from e_alpha to the span of kernel sections.

    With G_ij = K(z_i, z_j) and c_i = z_i^alpha, the reproducing property
    gives the exact residual  ||e_alpha||^2 - c* G^{-1} c.  The result is
    clamped at zero (with a warning) when round-off drives it slightly
    negative; an ill-conditioned Gram matrix is an error suggesting fewer or
    better-spread points.
    """
    alpha = tuple(alpha)
    pts = [_require_inside(d, pt, f"points[{i}]") for i, pt in enumerate(points)]
    if len(set(pts)) != len(pts):
        raise ParseError("points must be pairwise distinct")
    m = moment(d, alpha, 2)
    if not m.is_finite:
        raise ParseError(f"e_{alpha} is not square integrable on {d}")
    k = len(pts)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            gram[i, j] = kernel_closed_form(d, pts[j], pts[i])  # K(z_i, z_j)
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        raise IllConditionedGram(
            f"Gram condition estimate {cond:.3g} exceeds {GRAM_COND_LIMIT:.1g}; "
            f"use fewer or better-spread points")
    c = np.array([complex(np.prod([zi ** a for zi, a in zip(pt, alpha)]))
                  for pt in pts])
    sol = np.linalg.solve(gram, c)
    residual = float(m) - float(np.real(np.vdot(c, sol)))
    if residual < 0.0:
        warnings.warn(
            f"residual {residual:.3g} clamped to 0 (conditioning {cond:.3g})")
        residual = 0.0
    return residual


@dataclass(frozen=True)
class PNormEstimate:
    value: float
    diverging: bool
    sequence: Tuple[float, ...]


def _kernel_integrand(d: DomainSpec, z) -> BlackBoxIntegrand:
    """Kernel section w -> K(w, z) as a quadrature integrand with decay hints."""
    zbar = [complex(zi).conjugate() for zi in z]
    # axes with z_i = 0 drop out of every product w_i * conj(z_i): the kernel
    # section is angle-free there, which collapses that angular axis
    band = tuple(0 if zi == 0 else None for zi in z)
    # on the triangle the worst term per axis is x^0 and y^(-c_(m-1)) = y^(-n)
    decay = (0, -d.n) if d.family is Family.HARTOGS else (0,) * d.dim

    def fn(*ws):
        # near the origin of a steep triangle the denominator underflows; the
        # tensor pass silences the inf or NaN that follows and ends on NaNOnGrid
        return _closed_form(d, [wi * zb for wi, zb in zip(ws, zbar)])

    return BlackBoxIntegrand(fn, d.dim, angular_bandwidth=band,
                             modulus_exponents=decay)


def kernel_pnorm_estimate(d: DomainSpec, z, p, radius: int = 40,
                          cfg: QuadConfig = PNORM_CFG) -> PNormEstimate:
    """Quadrature estimate of ||K(., z)||_p with divergence detection.

    Runs the corner-cutoff refinement ladder of the quadrature module at
    ``PROBE_CFG`` on the closed-form kernel section; a diverging verdict
    reports the last (growing) estimate, a converging one the cutoff-free
    value at the budget ``cfg``, refused as ``Inconclusive`` where the result
    has not ``converged``; above ``MAX_PNORM_DIM`` a z != 0 raises ``ParseError``
    unrun.  ``radius`` is ignored, kept for positional callers."""
    p = check_exponent(p)
    z = _require_inside(d, z, "z")
    if d.dim > MAX_PNORM_DIM and any(z):
        raise ParseError(f"--pnorm in dimension {d.dim} needs z = 0 (dimensions "
                         f"above {MAX_PNORM_DIM} have no work bound at z != 0)")
    integrand = _kernel_integrand(d, z)
    probe: ProbeResult = divergence_probe(d, integrand, p, PROBE_CFG)
    if probe.diverging:
        return PNormEstimate(probe.sequence[-1], True, probe.sequence)
    # the ladder converged; report the cutoff-free value at full budget
    res = integrate(d, AbsPowerIntegrand(integrand, p), cfg)
    if not res.converged:
        raise Inconclusive(f"the p={p} norm integral missed rel_tol={REL_TOL:g}: its "
                           f"last doubling moved {res.value:.6g} by {res.error_estimate:.2g}")
    return PNormEstimate(pth_root(res.value, p), False, probe.sequence)
