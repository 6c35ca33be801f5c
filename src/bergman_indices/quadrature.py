"""Numerical integration over Reinhardt domains in shadow-polar coordinates.

This module is the independent oracle for every closed-form moment in
``domains`` and the evaluator for norms without exact formulas.  An integral
over a Reinhardt domain splits into a radial part over the shadow and an
angular part over the torus:

    integral g dV  =  int_torus int_shadow g(r e^(i theta)) prod r_i dr dtheta

The radial shadow is parameterized over the unit box per family:

  polydisc   r_i = u_i
  ball       squared radii via the sequential simplex map
             t_i = u_i * prod_{j<i} (1 - u_j),  r_i = sqrt(t_i)
  triangle   r_2 = v,  r_1 = u * v^(n/m)   (Jacobian v^(n/m))

Each box axis carries a mapped Gauss-Legendre rule.  When the integrand
declares rational leading exponents (monomial sums always do), the axis map is
the normalized incomplete-beta polynomial u = I_x(k, l) with integer k, l
chosen to clear the endpoint exponents, which turns the mapped integrand into
a polynomial-times-analytic profile and restores spectral (often exact)
convergence; plain Gauss-Legendre would converge only algebraically for
fractional powers.  Corner-cutoff integrals for divergence probing use
composite Gauss-Legendre in log coordinates, which is accurate for any power
profile on (cutoff, 1).

The angular rule is the uniform trapezoid, exact for trigonometric
polynomials below the node count; monomial sums declare their bandwidth.
All reductions run in a fixed order, so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .domains import DomainSpec, Family
from .errors import Inconclusive, NaNOnGrid
from .exact import as_fraction

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature budgets and probe controls."""

    radial_nodes: int = 64
    angular_nodes: Optional[int] = None  # None: derived from bandwidth (min 32)
    corner_cutoff: float = 0.0
    refinement_levels: int = 3
    rel_tol: float = 1e-9
    max_doublings: int = 3
    stable_tol: float = 1e-6

    def __post_init__(self):
        if self.radial_nodes < 4:
            raise ValueError("radial_nodes must be >= 4")
        if self.angular_nodes is not None and self.angular_nodes < 4:
            raise ValueError("angular_nodes must be >= 4")
        if not 0.0 <= self.corner_cutoff < 0.5:
            raise ValueError("corner_cutoff must lie in [0, 1/2)")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a corner-cutoff refinement ladder."""

    diverging: bool
    stable: bool
    sequence: Tuple[float, ...]      # L^p norms at each cutoff level
    tenfold: bool                    # every successive norm ratio exceeded 10


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

class MonomialSumIntegrand:
    """Finite sum  sum_t  c_t z^alpha_t zbar^gamma_t  as a quadrature integrand."""

    def __init__(self, terms: Sequence[Tuple[complex, Sequence[int], Sequence[int]]]):
        self.terms = tuple(
            (complex(c), tuple(int(a) for a in alpha), tuple(int(g) for g in gamma))
            for c, alpha, gamma in terms)
        if not self.terms:
            raise ValueError("integrand needs at least one term")
        self.dim = len(self.terms[0][1])

    def radial_exponents(self) -> list:
        """Modulus exponent vector alpha+gamma per term (entries are ints)."""
        return [tuple(a + g for a, g in zip(alpha, gamma))
                for _c, alpha, gamma in self.terms]

    def frequencies(self) -> list:
        return [tuple(a - g for a, g in zip(alpha, gamma))
                for _c, alpha, gamma in self.terms]

    def bandwidth(self) -> Tuple[int, ...]:
        freqs = self.frequencies()
        return tuple(max(f[i] for f in freqs) - min(f[i] for f in freqs)
                     for i in range(self.dim))

    def eval_polar(self, radii, thetas):
        shape = np.broadcast_shapes(
            *(np.shape(r) for r in radii), *(np.shape(t) for t in thetas))
        out = np.zeros(shape, dtype=complex)
        for c, alpha, gamma in self.terms:
            term = None
            for i in range(self.dim):
                e = alpha[i] + gamma[i]
                f = alpha[i] - gamma[i]
                if e:
                    fac = radii[i] ** e
                    term = fac if term is None else term * fac
                if f:
                    fac = np.exp(1j * f * thetas[i])
                    term = fac if term is None else term * fac
            if term is None:
                out += c
            else:
                out += c * term
        return out


class BlackBoxIntegrand:
    """Vectorized pointwise evaluator z -> value with optional declarations.

    ``angular_bandwidth`` bounds the trigonometric degree per axis (None for
    an axis, or for the whole tuple, means unbounded); ``modulus_exponents``
    declares the leading power of the value in each |z_i| as that modulus
    tends to 0, which steers the radial maps.
    """

    def __init__(self, fn: Callable, dim: int,
                 angular_bandwidth: Optional[Sequence] = None,
                 modulus_exponents: Optional[Sequence] = None):
        self.fn = fn
        self.dim = dim
        self.angular_bandwidth = (tuple(angular_bandwidth)
                                  if angular_bandwidth is not None else None)
        self.modulus_exponents = (tuple(as_fraction(s) for s in modulus_exponents)
                                  if modulus_exponents is not None else None)

    def eval_polar(self, radii, thetas):
        zs = tuple(radii[i] * np.exp(1j * thetas[i]) for i in range(self.dim))
        return self.fn(*zs)


class AbsPowerIntegrand:
    """|base|^p for a base integrand; what every L^p norm integrates."""

    def __init__(self, base, p):
        self.base = base
        self.p = as_fraction(p)
        self.dim = base.dim

    def eval_polar(self, radii, thetas):
        # in place: the complex block is freed before the power is taken
        vals = np.abs(self.base.eval_polar(radii, thetas))
        # divergent probes may overflow to inf; the ladder reads that as growth
        with np.errstate(over="ignore"):
            return np.power(vals, float(self.p), out=vals)


# ---------------------------------------------------------------------------
# one-dimensional rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _beta_map_coeffs(k: int, l: int):
    """Exact ascending coefficients of u = I_x(k, l) (a degree k+l-1 polynomial)."""
    # d/dx I_x(k,l) = x^(k-1) (1-x)^(l-1) / B(k,l)
    inv_b = Fraction(math.factorial(k + l - 1),
                     math.factorial(k - 1) * math.factorial(l - 1))
    coeffs = [Fraction(0)] * (k + l)
    for j in range(l):
        c = Fraction((-1) ** j * math.comb(l - 1, j), k + j)
        coeffs[k + j] = c * inv_b
    return np.array([float(c) for c in coeffs])


def _beta_map(x: np.ndarray, k: int, l: int):
    """Evaluate the endpoint-clearing map and its derivative at GL nodes."""
    if k == 1 and l == 1:
        return x, np.ones_like(x)
    if l == 1:
        return x ** k, k * x ** (k - 1)
    coeffs = _beta_map_coeffs(k, l)
    u = np.polynomial.polynomial.polyval(x, coeffs)
    np.clip(u, 0.0, 1.0, out=u)  # round-off can overshoot the endpoints
    inv_b = coeffs[k] * k  # leading derivative normalization, = 1/B(k,l)
    du = inv_b * x ** (k - 1) * (1.0 - x) ** (l - 1)
    return u, du


def _pick_power(e1: Fraction, cap: int = 12) -> int:
    """Map power k for an endpoint exponent e1 = e + 1 > 0.

    k = den(e1) makes the mapped profile polynomial (exact rules); when the
    denominator is large that map would collapse nodes to absurd depths, so
    fall back to the smallest power lifting the mapped exponent above 2
    (plain algebraic smoothing, finished off by node doubling).
    """
    den = e1.denominator
    if den <= cap:
        return den
    return min(cap, max(1, math.ceil(3 / e1)))


def _axis_rule(n: int, e0: Fraction, e1: Fraction, cutoff: float):
    """Nodes/weights for int_cutoff^1 phi(u) du with phi ~ u^e0 near 0, (1-u)^e1 near 1."""
    if cutoff > 0.0:
        # composite Gauss-Legendre in log(u); clears any power profile at 0
        lo = math.log(cutoff)
        n_pieces = max(1, math.ceil(-lo / math.log(100.0)))
        bounds = np.linspace(lo, 0.0, n_pieces + 1)
        x, w = _leggauss01(n)
        nodes, weights = [], []
        for a, b in zip(bounds[:-1], bounds[1:]):
            y = a + (b - a) * x
            u = np.exp(y)
            nodes.append(u)
            weights.append((b - a) * w * u)
        return np.concatenate(nodes), np.concatenate(weights)
    k = _pick_power(e0 + 1)
    l = _pick_power(e1 + 1)
    x, w = _leggauss01(n)
    u, du = _beta_map(x, k, l)
    return u, w * du


def _integrate_axis(e: Fraction, b: Fraction, cfg: QuadConfig, cutoff: float):
    """Two-level estimate of int u^e (1-u)^b du over (cutoff, 1).

    Deeply divergent cutoff integrals may overflow to inf; the divergence
    ladder accepts that as an unambiguous growth signal.
    """
    def run(n):
        u, w = _axis_rule(n, e, b, cutoff)
        with np.errstate(over="ignore"):
            vals = u ** float(e)
            if b != 0:
                vals = vals * (1.0 - u) ** float(b)
            return float(np.sum(w * vals))

    base_n = max(cfg.radial_nodes,
                 int((_pick_power(e + 1) * (abs(e) + 1)
                      + _pick_power(b + 1) * (abs(b) + 1)) / 2) + 8)
    coarse, fine = run(base_n), run(2 * base_n)
    return fine, abs(fine - coarse)


# ---------------------------------------------------------------------------
# separable fast path: single-term |monomial|^p
# ---------------------------------------------------------------------------

def _separable_moment(d: DomainSpec, c: Sequence[Fraction], cfg: QuadConfig,
                      cutoff: float):
    """Quadrature of prod |z_i|^(c_i) dV by per-axis one-dimensional rules.

    The box axes factor: each integrates u^e0 (1-u)^e1 with the exponents
    of ``_box_axis_hints``; the torus gives 2 pi per axis (pi per axis on
    the ball, whose simplex map carries a factor 1/2 per axis).
    """
    hints = _box_axis_hints(d, [as_fraction(ci) for ci in c])
    value, rel_err = 1.0, 0.0
    for e0, e1 in hints:
        v, e = _integrate_axis(e0, e1, cfg, cutoff)
        value *= v
        rel_err += e / abs(v) if v else math.inf
    value *= (math.pi if d.family is Family.BALL else TWO_PI) ** d.dim
    return value, rel_err * abs(value)


# ---------------------------------------------------------------------------
# tensor path
# ---------------------------------------------------------------------------

def _radial_profile(g) -> Optional[list]:
    """Worst-case per-axis modulus exponents of the integrand, if declared."""
    if isinstance(g, AbsPowerIntegrand):
        base = _radial_profile(g.base)
        return None if base is None else [g.p * e for e in base]
    if isinstance(g, MonomialSumIntegrand):
        expo = g.radial_exponents()
        return [Fraction(min(e[i] for e in expo)) for i in range(g.dim)]
    if isinstance(g, BlackBoxIntegrand) and g.modulus_exponents is not None:
        return list(g.modulus_exponents)
    return None


def _angular_bandwidths(g) -> list:
    """Per-axis trigonometric degree of the integrand, or None if unbounded."""
    if isinstance(g, MonomialSumIntegrand):
        return list(g.bandwidth())
    if isinstance(g, BlackBoxIntegrand):
        if g.angular_bandwidth is None:
            return [None] * g.dim
        return list(g.angular_bandwidth)
    if isinstance(g, AbsPowerIntegrand):
        base = _angular_bandwidths(g.base)
        p = g.p
        if (isinstance(g.base, MonomialSumIntegrand)
                and len(g.base.terms) == 1):
            return [0] * g.dim  # |monomial|^p is angle-free
        out = []
        for b in base:
            if b == 0:
                out.append(0)
            elif b is None:
                out.append(None)
            elif p.denominator == 1 and p.numerator % 2 == 0:
                out.append(b * (p.numerator // 2))
            else:
                out.append(None)  # fractional power of a trig polynomial
        return out
    raise TypeError(f"unsupported integrand {type(g).__name__}")


def _angular_counts(g, cfg: QuadConfig) -> Tuple[list, list]:
    """Per-axis trapezoid node counts plus per-axis exactness flags."""
    bands = _angular_bandwidths(g)
    default = 32 if g.dim <= 2 else 12  # tensor cost grows fast past C^2
    counts, exact = [], []
    for b in bands:
        if b is None:
            counts.append(cfg.angular_nodes if cfg.angular_nodes is not None
                          else default)
            exact.append(False)
        else:
            counts.append(max(1, b + 2))
            exact.append(True)
    return counts, exact


def _box_axis_hints(d: DomainSpec, profile) -> list:
    """Leading (0-end, 1-end) exponents of integrand*measure per box axis."""
    dim = d.dim
    c = profile if profile is not None else [Fraction(0)] * dim
    if d.family is Family.POLYDISC:
        return [(ci + 1, Fraction(0)) for ci in c]
    if d.family is Family.HARTOGS:
        c1, c2 = c
        return [(c1 + 1, Fraction(0)),
                (Fraction(d.n, d.m) * (c1 + 2) + c2 + 1, Fraction(0))]
    a = [ci / 2 for ci in c]
    hints = []
    for j in range(dim):
        tail = sum((a[i] + 1 for i in range(j + 1, dim)), Fraction(0))
        hints.append((a[j], tail))
    return hints


def _radial_mesh(d: DomainSpec, hints, n: int, cutoff: float):
    """Radial coordinates and combined weights on the box mesh.

    Returns (radii, weight): ``radii`` is a list of dim arrays broadcastable
    over the box mesh; ``weight`` includes the shadow Jacobian and the
    prod r_i dr_i measure so that  integral g dV = sum weight * angular(g).
    """
    axes = [_axis_rule(n, e0, e1, cutoff) for e0, e1 in hints]
    dim = d.dim
    grids, wgts = [], []
    for i, (u, w) in enumerate(axes):
        shape = [1] * dim
        shape[i] = -1
        grids.append(u.reshape(shape))
        wgts.append(w.reshape(shape))
    weight = wgts[0]
    for w in wgts[1:]:
        weight = weight * w
    if d.family is Family.POLYDISC:
        radii = grids
        for r in radii:
            weight = weight * r
        return radii, weight
    if d.family is Family.HARTOGS:
        u, v = grids
        nm = d.n / d.m
        r1 = u * v ** nm
        r2 = v + np.zeros_like(u)
        weight = weight * u * v ** (1.0 + 2.0 * nm)
        return [r1, r2], weight
    # ball
    radii = []
    prefix = 1.0
    for j in range(dim):
        t = grids[j] * prefix
        radii.append(np.sqrt(t))
        weight = weight * 0.5 * np.asarray(prefix + np.zeros_like(grids[j]))
        prefix = prefix * (1.0 - grids[j])
    # measure: prod r_i dr_i = 2^-dim dt, dt = prod (1-u_j)^(dim-j-1) du
    # (the prefix factors above accumulate exactly that Jacobian)
    return radii, weight


def _tensor_integrate(d: DomainSpec, g, cfg: QuadConfig, n_radial: int,
                      ang_counts, cutoff: float) -> complex:
    hints = _box_axis_hints(d, _radial_profile(g))
    radii, wrad = _radial_mesh(d, hints, n_radial, cutoff)
    dim = d.dim
    thetas, ang_w = [], 1.0
    for i, m_i in enumerate(ang_counts):
        shape = [1] * (2 * dim)
        shape[dim + i] = -1
        grid = np.arange(m_i) * (TWO_PI / m_i)
        thetas.append(grid.reshape(shape))
        ang_w *= TWO_PI / m_i
    radii = [np.asarray(r).reshape(np.shape(r) + (1,) * dim) for r in radii]
    wrad_b = np.asarray(wrad).reshape(np.shape(wrad) + (1,) * dim)

    # chunk along the first radial axis so each block stays ~2M points;
    # when a single row is still too large, chunk the first angular axis too
    budget = 2_000_000
    n_rows = max(r.shape[0] for r in radii)
    points_per_row = (math.prod(max(r.shape[i] for r in radii)
                                for i in range(1, dim)) or 1)
    points_per_row *= math.prod(ang_counts)
    block = max(1, min(n_rows, budget // max(points_per_row, 1)))
    t_len = ang_counts[0]
    t_block = t_len
    if points_per_row > budget and t_len > 1:
        t_block = max(1, int(budget // max(points_per_row // t_len, 1)))
    theta0_axis = dim  # position of the first angular axis in the mesh shape
    total = 0.0 + 0.0j
    for start in range(0, n_rows, block):
        sl = slice(start, start + block)
        r_slice = [r[sl] if r.shape[0] > 1 else r for r in radii]
        w_slice = wrad_b[sl] if wrad_b.shape[0] > 1 else wrad_b
        for t_start in range(0, t_len, t_block):
            if t_block == t_len:
                theta_parts = thetas
            else:
                idx = [slice(None)] * (2 * dim)
                idx[theta0_axis] = slice(t_start, t_start + t_block)
                theta_parts = [thetas[0][tuple(idx)]] + thetas[1:]
            vals = g.eval_polar(r_slice, theta_parts)
            total += complex(np.sum(w_slice * vals))
    return total * ang_w


def integrate(d: DomainSpec, g, cfg: QuadConfig = QuadConfig()) -> IntegralResult:
    """Tensor quadrature of an integrand over the domain.

    The error estimate is the difference between the base rule and the rule
    with doubled radial nodes (and doubled angular nodes when the angular rule
    is not already exact); node counts double up to ``cfg.max_doublings`` times
    while the estimate exceeds ``cfg.rel_tol`` in relative terms.
    """
    cutoff = cfg.corner_cutoff
    # single-term |monomial|^p: per-axis separable rule
    if (isinstance(g, AbsPowerIntegrand)
            and isinstance(g.base, MonomialSumIntegrand)
            and len(g.base.terms) == 1):
        coeff, alpha, gamma = g.base.terms[0]
        c = [g.p * (a + gm) for a, gm in zip(alpha, gamma)]
        scale = abs(coeff) ** float(g.p)
        value, err = _separable_moment(d, c, cfg, cutoff)
        return IntegralResult(scale * value, scale * err)

    ang_counts, ang_exact = _angular_counts(g, cfg)
    ang_cap = 256 if d.dim <= 2 else 48
    n = cfg.radial_nodes
    value = _tensor_integrate(d, g, cfg, n, ang_counts, cutoff)
    for _attempt in range(cfg.max_doublings + 1):
        n *= 2
        ang_counts = [m if exact else min(2 * m, ang_cap)
                      for m, exact in zip(ang_counts, ang_exact)]
        fine = _tensor_integrate(d, g, cfg, n, ang_counts, cutoff)
        err = abs(fine - value)
        value = fine
        if err <= cfg.rel_tol * max(abs(value), 1e-300):
            break
    if value != value:  # NaN (real or complex)
        raise NaNOnGrid("integrand produced NaN on the quadrature grid")
    if abs(value.imag) <= 1e-12 * max(abs(value), 1.0):
        value = value.real
    return IntegralResult(value, err)


def lp_norm(d: DomainSpec, f, p, cfg: QuadConfig = QuadConfig()) -> float:
    """Quadrature estimate of the L^p norm of an integrand (p > 0)."""
    p = as_fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    res = integrate(d, AbsPowerIntegrand(f, p), cfg)
    return float(res.value) ** (1.0 / float(p))


def lp_norms_shared(d: DomainSpec, f, ps: Sequence,
                    cfg: QuadConfig = QuadConfig()) -> list:
    """L^p norms of one integrand at several exponents on one shared mesh.

    Because nodes and weights are identical across the exponents, the
    discrete Hoelder and log-convexity relations between the returned values
    hold exactly (up to float round-off) whatever the quadrature error is;
    inequality checks built on them cannot be tripped by integration noise.
    The mesh maps are steered by the most singular exponent.
    """
    ps = [as_fraction(p) for p in ps]
    if any(p <= 0 for p in ps):
        raise ValueError("exponents must be positive")
    pmax = max(ps)
    hints = _box_axis_hints(d, _radial_profile(AbsPowerIntegrand(f, pmax)))
    ang_counts, _ = _angular_counts(AbsPowerIntegrand(f, pmax), cfg)
    dim = d.dim
    n = 2 * cfg.radial_nodes
    radii, wrad = _radial_mesh(d, hints, n, cfg.corner_cutoff)
    thetas, ang_w = [], 1.0
    for i, m_i in enumerate(ang_counts):
        shape = [1] * (2 * dim)
        shape[dim + i] = -1
        thetas.append((np.arange(m_i) * (TWO_PI / m_i)).reshape(shape))
        ang_w *= TWO_PI / m_i
    radii = [np.asarray(r).reshape(np.shape(r) + (1,) * dim) for r in radii]
    wrad_b = np.asarray(wrad).reshape(np.shape(wrad) + (1,) * dim)
    totals = [0.0] * len(ps)
    n_rows = max(r.shape[0] for r in radii)
    points_per_row = (math.prod(max(r.shape[i] for r in radii)
                                for i in range(1, dim)) or 1)
    points_per_row *= math.prod(ang_counts)
    block = max(1, min(n_rows, 2_000_000 // max(points_per_row, 1)))
    for start in range(0, n_rows, block):
        sl = slice(start, start + block)
        r_slice = [r[sl] if r.shape[0] > 1 else r for r in radii]
        w_slice = wrad_b[sl] if wrad_b.shape[0] > 1 else wrad_b
        absf = np.abs(f.eval_polar(r_slice, thetas))
        for i, p in enumerate(ps):
            totals[i] += float(np.sum(w_slice * absf ** float(p)))
    return [(t * ang_w) ** (1.0 / float(p)) for t, p in zip(totals, ps)]


def divergence_probe(d: DomainSpec, f, p, cfg: QuadConfig = QuadConfig()) -> ProbeResult:
    """Corner-cutoff refinement ladder deciding finite versus divergent.

    The cutoffs are 1e-2, 1e-4, ... down to ``cfg.refinement_levels`` levels.
    The verdict is taken from the p-th-power integrals: geometric contraction
    of the increments means the ladder converges (stable); non-contracting
    increments under monotone growth mean the mass below the cutoff does not
    run out (diverging).  Anything else raises Inconclusive.
    """
    if cfg.refinement_levels < 2:
        raise ValueError("refinement_levels must be >= 2")
    p = as_fraction(p)
    # the ladder classification needs ~1e-3 accuracy per level, not rel_tol
    probe_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-6),
                        max_doublings=min(cfg.max_doublings, 1))
    integrals: list = []

    def extend_to(n_levels: int) -> None:
        for level in range(len(integrals), n_levels):
            cut = 10.0 ** (-2 * (level + 1))
            res = integrate(d, AbsPowerIntegrand(f, p),
                            replace(probe_cfg, corner_cutoff=cut))
            integrals.append(float(res.value))

    def classify():
        """diverging | stable | None (ambiguous at this depth)."""
        if math.isinf(integrals[-1]):
            return "diverging"  # mass overflowed the exponent range
        scale = max(abs(integrals[-1]), 1e-300)
        if abs(integrals[-1] - integrals[-2]) / scale < cfg.stable_tol:
            return "stable"
        increasing = all(b >= a * (1.0 - 1e-12)
                         for a, b in zip(integrals, integrals[1:]))
        diffs = [b - a for a, b in zip(integrals, integrals[1:])]
        if increasing and len(diffs) >= 2 and diffs[-2] > 0:
            # geometric contraction of the increments means the ladder
            # converges; non-contracting increments mean the mass below the
            # cutoff does not run out (log divergence gives ratio -> 1).
            # A moderate but *rising* ratio is the transient of converging
            # axes masking a divergent one, so only a steady ratio counts
            # as contraction.
            ratio = diffs[-1] / diffs[-2]
            if ratio >= 0.98:
                return "diverging"
            if ratio <= 0.7:
                return "stable"
            if (ratio <= 0.9 and len(diffs) >= 3 and diffs[-3] > 0
                    and ratio <= diffs[-2] / diffs[-3] + 0.02):
                return "stable"
        return None

    extend_to(cfg.refinement_levels)
    verdict = classify()
    while verdict is None and len(integrals) < 7:
        extend_to(len(integrals) + 1)  # deepen: product-of-axes transients
        verdict = classify()

    norms = tuple(v ** (1.0 / float(p)) for v in integrals)
    increasing = all(b >= a * (1.0 - 1e-12)
                     for a, b in zip(integrals, integrals[1:]))
    tenfold = increasing and all(b > 10.0 * a for a, b in zip(norms, norms[1:]))
    if verdict == "diverging":
        return ProbeResult(True, False, norms, tenfold)
    if verdict == "stable":
        return ProbeResult(False, True, norms, False)
    raise Inconclusive(
        f"divergence probe for p={p} did not stabilize or diverge: {norms}")
