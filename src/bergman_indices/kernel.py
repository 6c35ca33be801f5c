"""Bergman kernel evaluation, reproduction, density, and integrability probes.

The kernel of a Reinhardt domain expands over the allowable-at-2 monomials,

    K(w, z) = sum over alpha in S(2) of  w^alpha * conj(z)^alpha / ||z^alpha||^2,

and this module evaluates the window truncation of that series (exact inverse
norms, fixed lexicographic summation order) next to its resummation, a
rational function of the products x_i = w_i conj(z_i):

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

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .domains import (DomainSpec, Family, MultiIndex, check_exponent, moment,
                      point_in_domain)
from .errors import IllConditionedGram, ParseError
from .exact import EXACT_ONE, ExactValue
from .index_sets import index_set_window
from .quadrature import (BlackBoxIntegrand, ProbeResult, QuadConfig,
                         divergence_probe, integrate, AbsPowerIntegrand)


@dataclass(frozen=True)
class KernelSeries:
    """Window truncation of the kernel expansion with exact coefficients."""

    domain: DomainSpec
    radius: int
    terms: Tuple[Tuple[MultiIndex, ExactValue], ...]  # (alpha, 1/||e_alpha||^2)

    def inverse_norm(self, alpha) -> Optional[ExactValue]:
        alpha = tuple(alpha)
        for a, inv in self.terms:
            if a == alpha:
                return inv
        return None


@lru_cache(maxsize=32)
def kernel_series(d: DomainSpec, radius: int) -> KernelSeries:
    """Exact series data for the allowable-at-2 window (lex-ordered)."""
    window = index_set_window(d, 2, radius)
    terms = tuple((alpha, EXACT_ONE / moment(d, alpha, 2).value)
                  for alpha in window.members)
    return KernelSeries(d, radius, terms)


def _require_inside(d: DomainSpec, z, name: str) -> tuple:
    z = tuple(complex(zi) for zi in z)
    if not point_in_domain(d, z):
        raise ParseError(f"point {name}={z} lies outside {d}")
    return z


def kernel_truncated(d: DomainSpec, z, w, radius: int) -> complex:
    """Window truncation of K(w, z), summed in lexicographic order."""
    z = _require_inside(d, z, "z")
    w = _require_inside(d, w, "w")
    series = kernel_series(d, radius)
    total = 0j
    for alpha, inv in series.terms:
        term = float(inv) + 0j
        for wi, zi, a in zip(w, z, alpha):
            if a:
                term *= wi ** a * zi.conjugate() ** a
        total += term
    return total


def _power(v, e: int):
    """v^e by products (numpy's complex power is slow); v itself for e = 1."""
    return v if e == 1 else math.prod([v] * e)


def _closed_form(d: DomainSpec, xs):
    """Resummed kernel on the products x_i = w_i conj(z_i) (module docstring).

    Complex numbers or arrays that broadcast.  On the triangle at most two
    and a half blocks of the full shape are alive at once: factors in y alone
    keep the shape of y, and the numerator and denominator are built in
    place.
    """
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
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    y_n, x_m = _power(y, n), _power(x, m)

    def coefficient(r):
        """B_r ((r+1) y^n + (m-r-1) x^m) for r < m-1, as a new full block."""
        c = -(-n * (r + 1) // m)
        k = n * (r + 1) + m * (1 - c)
        b = _power(y, n - c) * (k + (m - k) * y)
        out = np.multiply(y_n, r + 1, out=np.empty(shape, dtype=complex))
        out += (m - r - 1) * x_m
        out *= b
        return out

    # times y^(2n), the numerator is  sum_r x^r B_r ((r+1) y^n + (m-r-1) x^m)
    # with B_r = y^(n-c_r) (k_r + (m-k_r) y), where B_(m-1) = m, and the
    # denominator is  pi^2 m (1-y)^2 (y^n - x^m)^2.  Horner in x, in place
    # once the sum has the full shape.
    total = m * m * y_n
    for r in reversed(range(m - 1)):
        if np.shape(total) == shape:
            total *= x
        else:
            total = total * x
        total += coefficient(r)
    den = math.pi ** 2 * m * (1.0 - y) ** 2
    s = np.asarray(y_n - x_m)
    s *= s
    s *= den
    return np.divide(total, s, out=s)


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


def density_residual(d: DomainSpec, alpha, points: Sequence,
                     cond_limit: float = 1e12) -> float:
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
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditionedGram(
            f"Gram condition estimate {cond:.3g} exceeds {cond_limit:.1g}; "
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
    # section is angle-free there, which collapses that angular axis.  The
    # products stay full arrays, since the angular weights assume full shape.
    band = tuple(0 if zi == 0 else None for zi in z)
    # on the triangle the worst term per axis is x^0 and y^(-c_(m-1)) = y^(-n)
    decay = (0, -d.n) if d.family is Family.HARTOGS else (0,) * d.dim

    def fn(*ws):
        return _closed_form(d, [wi * zb for wi, zb in zip(ws, zbar)])

    return BlackBoxIntegrand(fn, d.dim, angular_bandwidth=band,
                             modulus_exponents=decay)


def kernel_pnorm_estimate(d: DomainSpec, z, p, radius: int = 40,
                          cfg: Optional[QuadConfig] = None) -> PNormEstimate:
    """Quadrature estimate of ||K(., z)||_p with divergence detection.

    Runs the corner-cutoff refinement ladder of the quadrature module on the
    closed-form kernel section; a diverging verdict reports the last (growing)
    estimate.  ``radius`` is ignored: it is kept so that positional callers
    written for the former series integrand still work.
    """
    p = check_exponent(p)
    z = _require_inside(d, z, "z")
    if cfg is None:
        cfg = QuadConfig(radial_nodes=24, angular_nodes=32, rel_tol=1e-9)
    integrand = _kernel_integrand(d, z)
    # classification tolerates ~1e-3 per level; keep the ladder cheap
    probe_cfg = replace(cfg, radial_nodes=16, angular_nodes=16,
                        rel_tol=max(cfg.rel_tol, 1e-4))
    probe: ProbeResult = divergence_probe(d, integrand, p, probe_cfg)
    if probe.diverging:
        return PNormEstimate(probe.sequence[-1], True, probe.sequence)
    # the ladder converged; report the cutoff-free value at full budget
    res = integrate(d, AbsPowerIntegrand(integrand, p),
                    replace(cfg, corner_cutoff=0.0))
    return PNormEstimate(float(res.value) ** (1.0 / float(p)), False,
                         probe.sequence)
