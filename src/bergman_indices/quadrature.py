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
fractional powers.  Level L of the divergence ladder cuts each axis at
10^(-2L) and runs Gauss-Legendre in log u on its log pieces
[10^(-2(j+1)), 10^(-2j)], j < L, accurate for any power profile.

Both integrand kinds declare the two facts the rules read of them:
``modulus_exponents`` (the leading power in each |z_i|) and
``angular_bandwidth`` (the trigonometric degree per torus axis, None where
unbounded).  The angular rule is the uniform trapezoid, exact for
trigonometric polynomials below the node count, and |f|^p is one only for
even p (at several exponents, only if all are).  One loop, ``_refine``,
doubles every rule until two successive ones agree to ``rel_tol``: each
separable axis and each tensor block, whose mesh sums take |f| once per
slab and raise it to each exponent p.  One tiler, ``_tiles``, cuts a pass's
mesh into chunks of about ``CHUNK_POINTS``, whose one ``np.sum`` each fixes
the order of every sum, and every chunk into slabs of ``SLAB_POINTS``, filled
bit for bit through the thread's kept ``_scratch`` into a buffer of its shape.
|sum_t c_t z^alpha_t zbar^gamma_t|^p sees the angles only through the
differences of the frequencies f_t = alpha_t - gamma_t: with B the Hermite
basis (k x dim, k = rank) of their lattice and f_t - f_0 = c_t . B, the map
theta -> B theta of T^dim onto T^k gives  int h(B theta) dtheta =
(2 pi)^(dim-k) int_{T^k} h(psi) dpsi.  A monomial sum is put on that torus
when it is built, so its mesh carries k angular axes (none when all terms
share one frequency).  All sums run in a fixed order: results are bit-stable.

A single monomial's moment is a product of one-dimensional axis integrals
int u^e (1-u)^b du, which a scan of moments or ladders meets again and
again.  One LRU memo, ``_axis_integral``, keeps each such sum on its n-node
rule, keyed on (e, b, n, pieces), e and b as (num, den): the mapped rule at
pieces = 0, else the box cut at 10^(-2 pieces) on the joined log rule.
``integrate`` refines over its hits, so no key holds a budget.  Each rule is
built once, read-only: ``_mapped_rule`` on (n, k, l), k and l the map powers,
and ``_log_rule`` on (n, pieces), built on its rule of one piece fewer.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .domains import DomainSpec, Family
from .errors import Inconclusive, NaNOnGrid, ParseError
from .exact import ExactValue, as_fraction

TWO_PI = 2.0 * math.pi
TORUS_AXIS = {Family.BALL: math.pi}  # else 2 pi; the ball's simplex map carries 1/2
LADDER_LEVELS = 3  # cutoffs the divergence ladder reads its first verdict at
MAX_LADDER_LEVELS = 7  # the divergence ladder's deepest cutoff, 1e-14
LADDER_TOL = 1e-4  # rel_tol of each tensor ladder level, at max_doublings = 1
STABLE_TOL = 1e-6  # relative step at which the ladder reads as converged
#: entries of the memo of separable axis sums: on a moment-oracle scan,
#: 8,192 answer 85% of its calls (4,096: 77%; unbounded: 90%, in 21,533)
AXIS_MEMO_SIZE = 8192
RULE_CACHE_SIZE = 512  # entries of each rule cache; a moment-oracle scan meets ~300
#: an exact map power q = den is taken while q(|e| + 1), its share of the rule
#: size, is at most this multiple of the smoothing power's (``_pick_power``)
EXACT_POWER_RATIO = 12
#: most nodes of one Gauss-Legendre rule, on either path: numpy builds a rule
#: of n nodes from an n x n matrix, 0.5 GB at this bound (tier-1 needs 1,024)
MAX_RULE_NODES = 2 ** 13
#: largest map power k for which u = x^k stays a normal float at the smallest
#: node of every rule: an n-node rule's exceeds sin^2(pi / (4n + 2)) (Bruns'
#: bound on the Legendre zeros), so k = 38; past it u underflows to 0 and a
#: negative endpoint exponent reads the sum as inf * 0 = NaN
MAP_POWER_CAP = int(math.log(sys.float_info.min)
                    / math.log(math.sin(math.pi / (4 * MAX_RULE_NODES + 2)) ** 2))
#: the tensor path's cap: at 38, Hoelder requests on ball:2 take tensor maps
#: above 12 and the laurent_norms answers move (ROADMAP direction 1)
TENSOR_POWER_CAP = 12
#: most mesh points of one tensor pass: the largest known to converge has
#: 1.07e9 (kernel p = 7/2 on H(1,1)); its next doubling, 1.7e10, runs minutes
MAX_PASS_POINTS = 2 ** 31
#: mesh points of a chunk, exceeded only where one row already does: its one
#: ``np.sum`` per exponent fixes the order of a tensor pass's sums and bits
CHUNK_POINTS = 2_000_000
#: most mesh points of a slab, evaluated at once into this thread's scratch
#: (``_scratch``, 48 bytes a point, 1.5 MB): cache-sized, kept between passes
SLAB_POINTS = 2 ** 15


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature budgets: with ``MAX_RULE_NODES`` and ``MAX_PASS_POINTS``,
    whose excess raises ``Inconclusive`` unbuilt, the only limits on a pass.

    Each rule (a tensor block, or a box axis of a single monomial's
    ``integrate``) runs its base size and then up to ``max_doublings + 1``
    doubled sizes, a tensor pass doubling every radial and inexact angular
    axis, until two successive ones agree to ``rel_tol`` at every exponent;
    so ``max_doublings=0`` still doubles once.  Budgets out of range, and
    counts or doublings not ``int`` (``bool`` included), raise ``ParseError``,
    a ``ValueError``."""

    radial_nodes: int = 64
    angular_nodes: Optional[int] = None  # None: 32 through C^2, 12 beyond
    rel_tol: float = 1e-9
    max_doublings: int = 3

    def __post_init__(self):
        for name in ("radial_nodes", "angular_nodes", "max_doublings"):
            value = getattr(self, name)
            if name == "angular_nodes" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"{name} must be an integer")
        if not 4 <= self.radial_nodes <= 256:
            raise ParseError("radial_nodes must lie in [4, 256]")
        if self.angular_nodes is not None and not 4 <= self.angular_nodes <= 256:
            raise ParseError("angular_nodes must lie in [4, 256]")
        if not 0.0 < self.rel_tol < 1.0:
            raise ParseError("rel_tol must lie in (0, 1)")
        if self.max_doublings < 0:
            raise ParseError("max_doublings must be >= 0")

    def agrees(self, value: float, error: float) -> bool:
        """The test refinement stops on: a last difference within ``rel_tol``."""
        return error <= self.rel_tol * max(abs(value), 1e-300)


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
    """Finite sum  sum_t  c_t z^alpha_t zbar^gamma_t  as a quadrature integrand,
    put on its rank-k torus (module docstring) when it is built: term t keeps
    c_t, the lattice coordinates of f_t - f_0, and ``eval_polar`` takes k
    angles.  It declares ``modulus_exponents``, the least alpha+gamma per
    axis, and ``angular_bandwidth`` per lattice axis."""

    __slots__ = ("terms", "dim", "modulus_exponents", "angular_bandwidth", "_coords")

    def __init__(self, terms: Sequence[Tuple[complex, Sequence[int], Sequence[int]]]):
        self.terms = tuple(
            (complex(c), tuple(int(a) for a in alpha), tuple(int(g) for g in gamma))
            for c, alpha, gamma in terms)
        if not self.terms:
            raise ValueError("integrand needs at least one term")
        self.dim = len(self.terms[0][1])
        expos = [tuple(map(int.__add__, alpha, gamma)) for _c, alpha, gamma in self.terms]
        self.modulus_exponents = tuple(map(min, zip(*expos)))
        if len(self.terms) == 1:  # one frequency: no angle is left
            self._coords, self.angular_bandwidth = ((),), ()
        else:
            freqs = [[a - g for a, g in zip(alpha, gamma)]
                     for _c, alpha, gamma in self.terms]
            self._coords = tuple(lattice_basis(
                [[a - b for a, b in zip(f, freqs[0])] for f in freqs])[1])
            self.angular_bandwidth = tuple(max(c) - min(c) for c in zip(*self._coords))

    def eval_polar(self, radii, thetas, out=None):
        """The sum at the points; bit for bit, a product that fills the mesh goes
        to ``out`` (complex, its shape) or, once that holds the sum, the scratch."""
        total, full = None, -1 if out is None else out.size
        for (c, alpha, gamma), coords in zip(self.terms, self._coords):
            term = c  # radial factors first: they are small blocks
            for r, a, g in zip(radii, alpha, gamma):
                if a + g:
                    term = term * r ** (a + g)
            for t, f in zip(thetas, coords):
                if f:
                    wave, dest = np.exp(1j * f * t), None
                    if 1 < wave.size and getattr(term, "size", 1) * wave.size == full:
                        dest = out if total is not out else np.ndarray(
                            out.shape, complex, _scratch()[1])
                    term = np.multiply(term, wave, out=dest)
            total = term if total is None else np.add(  # in place once either is out
                total, term, out=out if out is total or out is term else None)
        return total


class BlackBoxIntegrand:
    """Vectorized pointwise evaluator z -> value with its two declarations.

    ``angular_bandwidth`` bounds the trigonometric degree per axis (None for
    an axis means unbounded); ``modulus_exponents`` declares the leading
    power of the value in each |z_i| as that modulus tends to 0, which
    steers the radial maps.  Values need only broadcast over the points; the
    tensor pass ignores float warnings and refuses a NaN sum.
    """

    def __init__(self, fn: Callable, dim: int, angular_bandwidth: Sequence,
                 modulus_exponents: Sequence):
        self.fn = fn
        self.dim = dim
        self.angular_bandwidth = tuple(angular_bandwidth)
        self.modulus_exponents = tuple(as_fraction(s) for s in modulus_exponents)

    def eval_polar(self, radii, thetas, out=None):  # out: unused, for the tensor pass
        zs = tuple(radii[i] * np.exp(1j * thetas[i]) for i in range(self.dim))
        return self.fn(*zs)


class AbsPowerIntegrand:
    """|base|^p for a base integrand; what every L^p norm integrates.  ``p``
    may be a list or tuple of exponents (``integrate`` returns a list); the
    exponents are ``self.ps`` either way, and the largest, ``self.p``, steers
    the radial maps."""

    __slots__ = ("base", "dim", "several", "ps", "p")  # kept small: callers hold thousands

    def __init__(self, base, p):
        self.base, self.dim = base, base.dim
        self.several = isinstance(p, (list, tuple))
        self.ps = tuple(map(as_fraction, p if self.several else (p,)))
        self.p = max(self.ps)


# ---------------------------------------------------------------------------
# one-dimensional rules, and the separable path of a single |monomial|^p
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss01(n: int):
    if n > MAX_RULE_NODES:  # numpy would build an n x n matrix for it
        raise Inconclusive(f"a Gauss-Legendre rule of {n:,} nodes exceeds the "
                           f"bound of {MAX_RULE_NODES:,}")
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _beta_map(x: np.ndarray, k: int, l: int):
    """Evaluate the endpoint-clearing map u = I_x(k, l), a degree k+l-1
    polynomial with each coefficient the correctly rounded float of the exact
    rational, and its derivative at GL nodes."""
    if l == 1:
        return x ** k, k * x ** (k - 1)
    # d/dx I_x(k,l) = x^(k-1) (1-x)^(l-1) / B(k,l), and 1/B(k,l) is an integer
    inv_b = math.factorial(k + l - 1) // (math.factorial(k - 1) * math.factorial(l - 1))
    coeffs = np.zeros(k + l)
    for j in range(l):
        coeffs[k + j] = (-1) ** j * math.comb(l - 1, j) * inv_b / (k + j)
    u = np.polynomial.polynomial.polyval(x, coeffs)
    np.clip(u, 0.0, 1.0, out=u)  # round-off can overshoot the endpoints
    du = coeffs[k] * k * x ** (k - 1) * (1.0 - x) ** (l - 1)  # coeffs[k] k = 1/B(k,l)
    return u, du


def _pick_power(num: int, den: int, cap: int = MAP_POWER_CAP) -> int:
    """Map power k for an endpoint exponent e = num/den in lowest terms.  The
    smoothing power s = ceil(3 / (e + 1)) lifts the mapped exponent above 2,
    so node doubling converges algebraically; k = den(e + 1) = den makes the
    mapped profile polynomial (exact rules).  Take den while its rule is at
    most ``EXACT_POWER_RATIO`` times the smoothing one's and den <= ``cap``,
    else s, at most ``cap``.  A divergent end, e <= -1, takes s = 1: only the
    size of its log rules reads the power."""
    if den <= EXACT_POWER_RATIO:  # s >= 1, and both caps are at least the ratio
        return den
    smooth = -(-3 * den // (num + den)) if num + den > 0 else 1
    return den if den <= min(cap, EXACT_POWER_RATIO * smooth) else min(cap, smooth)


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _mapped_rule(n: int, k: int, l: int):
    """n-node Gauss-Legendre under the map of powers (k, l), read-only."""
    x, w = _leggauss01(n)
    u, du = _beta_map(x, k, l)
    w = w * du
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _axis_rule(n: int, e0: Tuple[int, int], e1: Tuple[int, int], cap: int = MAP_POWER_CAP):
    """Nodes/weights for int_0^1 phi(u) du with phi ~ u^e0 near 0, (1-u)^e1
    near 1, the exponents as integer pairs (num, den) in lowest terms."""
    return _mapped_rule(n, _pick_power(*e0, cap), _pick_power(*e1, cap))


def _log_piece(n: int, j: int):
    """n-node Gauss-Legendre in log(u) on log piece j, [10^(-2(j+1)), 10^(-2j)]."""
    x, w = _leggauss01(n)
    a, b = math.log(10.0 ** (-2 * (j + 1))), math.log(10.0 ** (-2 * j))
    u = np.exp(a + (b - a) * x)
    return u, (b - a) * w * u


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _log_rule(n: int, pieces: int):
    """Log pieces j < ``pieces``, deepest first: one read-only rule on
    (10^(-2 pieces), 1), the new piece joined to the rule of one piece fewer."""
    u, w = _log_piece(n, pieces - 1)
    if pieces > 1:
        u, w = map(np.concatenate, zip((u, w), _log_rule(n, pieces - 1)))
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _refine(run: Callable[[int], list], cfg: QuadConfig) -> Tuple[list, list]:
    """(values, errors) of ``run(k)``, the sums on a rule doubled k times, as
    k climbs from 0 until two successive lists agree (``cfg.agrees``) or k
    reaches ``cfg.max_doublings + 1``; an error is the last difference."""
    values = run(0)
    for k in range(1, cfg.max_doublings + 2):
        values, coarse = run(k), values
        errs = [abs(a - b) for a, b in zip(values, coarse)]
        if all(map(cfg.agrees, values, errs)):
            break
    return values, errs


def _axis_sum(e_num: int, e_den: int, b_num: int, b_den: int, u, w) -> float:
    """int u^e (1-u)^b du on the rule (u, w); a divergent cutoff may overflow to inf."""
    with np.errstate(over="ignore"):
        vals = u ** (e_num / e_den)  # int / int rounds as float(Fraction)
        if b_num:
            vals = vals * (1.0 - u) ** (b_num / b_den)
        return float(np.sum(w * vals))


def _base_nodes(e_num: int, e_den: int, b_num: int, b_den: int, radial_nodes: int):
    """Axis rule size floor((k (|e| + 1) + l (|b| + 1)) / 2) + 8 >= radial_nodes."""
    return max(radial_nodes,
               (_pick_power(e_num, e_den) * (abs(e_num) + e_den) * b_den
                + _pick_power(b_num, b_den) * (abs(b_num) + b_den) * e_den)
               // (2 * e_den * b_den) + 8)


@lru_cache(maxsize=AXIS_MEMO_SIZE)
def _axis_integral(e_num: int, e_den: int, b_num: int, b_den: int, n: int,
                   pieces: int) -> float:
    """int u^e (1-u)^b du, e = e_num/e_den and b = b_num/b_den in lowest
    terms, on the n-node mapped rule (``pieces`` = 0) or, over
    (10^(-2 pieces), 1), on the n-node joined log rule; memoized."""
    rule = (_log_rule(n, pieces) if pieces
            else _axis_rule(n, (e_num, e_den), (b_num, b_den)))
    return _axis_sum(e_num, e_den, b_num, b_den, *rule)


def _separable(d: DomainSpec, f, p, radial_nodes: int):
    """(|c|^p, torus factor, axes) of |f|^p dV for a single monomial f with
    coefficient c, an axis being its ``_axis_hints`` pair joined into one
    tuple and its base rule size; None for any other f."""
    if not (isinstance(f, MonomialSumIntegrand) and len(f.terms) == 1):
        return None
    axes = [(e0 + e1, _base_nodes(*e0, *e1, radial_nodes))
            for e0, e1 in _axis_hints(d, f, p)]
    return abs(f.terms[0][0]) ** float(p), TORUS_AXIS.get(d.family, TWO_PI) ** d.dim, axes


def _separable_moment(scale: float, torus: float, axes, cfg: QuadConfig) -> IntegralResult:
    """Quadrature of |c z^alpha zbar^gamma|^p dV from its ``_separable`` set-up:
    a product of per-axis mapped rules, each refined over ``_axis_integral``,
    times the torus factor."""
    value, rel_err = 1.0, 0.0
    for e, n in axes:
        (v,), (err,) = _refine(lambda k: [_axis_integral(*e, n << k, 0)], cfg)
        value *= v
        rel_err += err / abs(v) if v else math.inf
    value *= torus
    return IntegralResult(scale * value, scale * (rel_err * abs(value)))


# ---------------------------------------------------------------------------
# tensor path
# ---------------------------------------------------------------------------

def _angular_counts(g: AbsPowerIntegrand, cfg: QuadConfig) -> Tuple[list, list]:
    """Trapezoid node counts and exactness flags per torus axis of the base: an
    axis is exact where |f|^p is a trigonometric polynomial of declared degree."""
    # a non-even power of a trigonometric polynomial is not one
    even = all(p.denominator == 1 and p.numerator % 2 == 0 for p in g.ps)
    bands = [None if b is None or (b and not even) else b * (g.p.numerator // 2)
             for b in g.base.angular_bandwidth]
    default = cfg.angular_nodes or (32 if g.dim <= 2 else 12)  # cost grows past C^2
    return ([default if b is None else b + 2 for b in bands],
            [b is not None for b in bands])


def _axis_hints(d: DomainSpec, f, p) -> list:
    """Leading (0-end, 1-end) exponents of |f|^p * measure per box axis, as
    integer pairs (num, den) in lowest terms: |f|^p has modulus exponents
    p * s_i, s = ``f.modulus_exponents``, here c_i / den with the
    denominators of s cleared."""
    s = f.modulus_exponents
    scale = math.lcm(*(si.denominator for si in s))
    c, den = [p.numerator * int(si * scale) for si in s], p.denominator * scale
    if d.family is Family.POLYDISC:
        raw = [((ci + den, den), (0, 1)) for ci in c]
    elif d.family is Family.HARTOGS:  # (c1 + 1, 0), ((n/m)(c1 + 2) + c2 + 1, 0)
        c1, c2 = c
        raw = [((c1 + den, den), (0, 1)),
               ((d.n * (c1 + 2 * den) + d.m * (c2 + den), d.m * den), (0, 1))]
    else:  # ball: a_j = c_j / 2, then the sum of a_i + 1 over i > j
        raw = [((c[j], 2 * den), (sum(c[i] + 2 * den for i in range(j + 1, d.dim)),
                                  2 * den)) for j in range(d.dim)]
    return [tuple((a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in h)
            for h in raw]


def _radial_mesh(d: DomainSpec, hints, n: int, block):
    """Radial coordinates and combined weights on the box mesh.

    ``block`` holds per-axis log piece indices, or is None for (0, 1)^dim.
    Returns (radii, weight): ``radii`` is a list of dim arrays broadcastable
    over the box mesh; ``weight`` includes the shadow Jacobian and the
    prod r_i dr_i measure so that  integral g dV = sum weight * angular(g).
    """
    axes = ([_axis_rule(n, e0, e1, TENSOR_POWER_CAP) for e0, e1 in hints] if block is None
            else [_log_piece(n, j) for j in block])
    dim = d.dim
    shapes = [[-1 if k == i else 1 for k in range(dim)] for i in range(dim)]
    grids = [u.reshape(shape) for (u, _w), shape in zip(axes, shapes)]
    wgts = [w.reshape(shape) for (_u, w), shape in zip(axes, shapes)]
    weight = math.prod(wgts[1:], start=wgts[0])
    if d.family is Family.POLYDISC:
        return grids, math.prod(grids, start=weight)
    if d.family is Family.HARTOGS:
        u, v = grids
        nm = d.n / d.m
        weight = weight * u * v ** (1.0 + 2.0 * nm)
        return [u * v ** nm, v], weight
    # ball
    radii = []
    prefix = 1.0
    for j in range(dim):
        t = grids[j] * prefix
        radii.append(np.sqrt(t))
        weight = weight * 0.5 * prefix
        prefix = prefix * (1.0 - grids[j])
    # measure: prod r_i dr_i = 2^-dim dt, dt = prod (1-u_j)^(dim-j-1) du
    # (the prefix factors above accumulate exactly that Jacobian)
    return radii, weight


def lattice_basis(vectors) -> Tuple[list, list]:
    """(basis, coords): the k = rank rows of the Hermite normal form of the
    integer ``vectors`` and, per vector v, the integers c with v = c . basis."""
    rows, basis, pivots = [list(v) for v in vectors], [], []
    for col in range(len(rows[0])):
        live = [r for r in rows if r[col]]
        while len(live) > 1:  # Euclid down the column
            live.sort(key=lambda r: abs(r[col]))
            for r in live[1:]:
                q = r[col] // live[0][col]
                r[:] = [a - q * b for a, b in zip(r, live[0])]
            live = [r for r in live if r[col]]
        if live:
            rows = [r for r in rows if r is not live[0]]
            piv = live[0] if live[0][col] > 0 else [-a for a in live[0]]
            for b in basis:
                q = b[col] // piv[col]
                b[:] = [a - q * x for a, x in zip(b, piv)]
            basis.append(piv)
            pivots.append(col)
    coords = []
    for v in vectors:
        res, c = list(v), []
        for b, col in zip(basis, pivots):  # echelon: solve pivot by pivot
            c.append(res[col] // b[col])
            res = [a - c[-1] * x for a, x in zip(res, b)]
        assert not any(res), "vector outside the lattice"
        coords.append(tuple(c))
    return [tuple(b) for b in basis], coords


def _tiles(shape, limit: int, axes):
    """Index tuples that tile a C-ordered array of ``shape`` in order: ``()``
    if it has at most ``limit`` points, else runs of whole rows of
    ``axes[0]`` of at most ``limit`` points each; a row larger than that is
    cut likewise on ``axes[1]``, one index of ``axes[0]`` at a time, and so
    on, the last of ``axes`` in runs of at least one row.  The other axes
    stay whole."""
    lead, unit = [], math.prod(shape)
    if unit <= limit:
        yield ()
        return
    for axis in axes:
        unit //= shape[axis]
        if unit <= limit or axis == axes[-1]:
            break
        lead.append(axis)
    step, idx = max(1, limit // unit), [slice(None)] * (axis + 1)
    for fixed in itertools.product(*[range(shape[a]) for a in lead]):
        for a, i in zip(lead, fixed):
            idx[a] = slice(i, i + 1)
        for start in range(0, shape[axis], step):
            idx[axis] = slice(start, start + step)
            yield tuple(idx)


def _cut(a, idx):
    """``a``, broadcast over the mesh, at the mesh index ``idx``: its axes of
    size 1 stay whole."""
    return a[tuple([s if n > 1 else slice(None) for s, n in zip(idx, a.shape)])]


_SCRATCH = threading.local()


def _scratch():
    """This thread's flat slab buffers, kept for its life, of ``SLAB_POINTS``
    (no slab is larger): the complex sum and term, |f| and |f|^p, 1.5 MB."""
    if not hasattr(_SCRATCH, "bufs"):
        _SCRATCH.bufs = tuple(np.empty(SLAB_POINTS, t) for t in (complex, complex, float, float))
    return _SCRATCH.bufs


def _tensor_integrate(d: DomainSpec, g: AbsPowerIntegrand, hints, n_radial: int,
                      ang_counts, block) -> list:
    """Mesh sums of ``g``, one per exponent, on the mesh of ``block`` (see
    ``_radial_mesh``): dim radial axes, then one angular axis per entry of
    ``ang_counts``.  Its chunks, of about ``CHUNK_POINTS``, cut the first
    radial axis, or the first angular one in a larger row, and take one
    ``np.sum`` per exponent, each filled slab by slab (f, |f| and |f|^p in
    ``_scratch``) into a buffer of its mesh shape (values lacking an axis count
    at all its points), under one ``np.errstate`` that silences float warnings."""
    sums, _terms, mods, pows = _scratch()
    exps = [float(p) for p in g.ps]
    radii, wrad = _radial_mesh(d, hints, n_radial, block)
    dim, k = d.dim, len(ang_counts)
    mesh = [a.reshape(a.shape + (1,) * k) for a in (wrad, *radii)]
    ones = (1,) * (dim + k)  # torus axis j lies along mesh axis dim + j
    mesh += [(np.arange(m) * (TWO_PI / m)).reshape(ones[:i] + (m,) + ones[i + 1:])
             for i, m in enumerate(ang_counts, dim)]
    totals = [0.0] * len(g.ps)
    # an inf reads as growth on the ladder; inf times a zero weight is NaNOnGrid
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        chunks = _tiles(np.broadcast(*mesh).shape, CHUNK_POINTS, (0, dim) if k else (0,))
        for cut in chunks:
            chunk = [_cut(a, cut) for a in mesh]
            shape = np.broadcast(*chunk).shape
            values = [np.empty(shape) for _p in g.ps]
            for idx in _tiles(shape, SLAB_POINTS, range(len(shape))):
                w, *at = [_cut(a, idx) for a in chunk]
                f = np.asarray(g.base.eval_polar(
                    at[:dim], at[dim:], out=np.ndarray(values[0][idx].shape, complex, sums)))
                mod = np.abs(f, out=np.ndarray(f.shape, float, mods))
                power = np.ndarray(f.shape, float, pows)
                for j, p in enumerate(exps):
                    np.multiply(w, np.power(mod, p, out=power), out=values[j][idx])
            totals = [t + float(np.sum(v)) for t, v in zip(totals, values)]
            del values  # before the next chunk's buffers exist
    # trapezoid weight of the angular mesh, times 2 pi per unseen angle
    ang_w = math.prod(TWO_PI / m_i for m_i in ang_counts) * TWO_PI ** (dim - k)
    return [t * ang_w for t in totals]


def _block_sum(d: DomainSpec, g: AbsPowerIntegrand, cfg: QuadConfig,
               blocks=(None,)):
    """Per exponent of ``g``, the sums over ``blocks`` of the block integrals
    and error estimates; a block, per-axis log piece indices or None for all
    of (0, 1)^dim, refines on its own: at doubling k, each radial and inexact
    angular axis has its base count times 2^k nodes.  A pass of more than
    ``MAX_PASS_POINTS`` mesh points raises ``Inconclusive`` unevaluated, and
    one whose sums hold a NaN raises ``NaNOnGrid`` before the next runs."""
    ang_base, ang_exact = _angular_counts(g, cfg)
    hints = _axis_hints(d, g.base, g.p)

    def run(block, k):
        ang_counts = [m if exact else m << k for m, exact in zip(ang_base, ang_exact)]
        points = (cfg.radial_nodes << k) ** d.dim * math.prod(ang_counts)
        if points > MAX_PASS_POINTS:
            raise Inconclusive(f"quadrature pass of {points:,} mesh points exceeds "
                               f"the bound of {MAX_PASS_POINTS:,}")
        sums = _tensor_integrate(d, g, hints, cfg.radial_nodes << k, ang_counts, block)
        if any(v != v for v in sums):  # NaN: no later pass can agree with it
            raise NaNOnGrid("integrand produced NaN on the quadrature grid")
        return sums

    totals = err_totals = [0.0] * len(g.ps)
    for block in blocks:
        values, errs = _refine(partial(run, block), cfg)
        totals = [t + v for t, v in zip(totals, values)]
        err_totals = [t + e for t, e in zip(err_totals, errs)]
    return totals, err_totals


def integrate(d: DomainSpec, g: AbsPowerIntegrand, cfg: QuadConfig = QuadConfig()):
    """Quadrature of |f|^p over the domain, for ``g`` = ``AbsPowerIntegrand``
    (f, p); a list of results, one per exponent, when p is a list or tuple.

    Each rule refines as ``QuadConfig`` says; the error estimate is its
    last difference.  The tensor mesh doubles its radial nodes and its
    inexact angular ones, one per torus axis of f (k for a monomial sum, see
    the module docstring).  |single monomial|^p takes the separable rule, once
    per exponent, whose axes refine on their own and add their relative errors.
    Any other integrand raises ``TypeError``.
    """
    if not isinstance(g, AbsPowerIntegrand):
        raise TypeError(f"integrate takes an AbsPowerIntegrand, not {type(g).__name__}")
    setups = [_separable(d, g.base, p, cfg.radial_nodes) for p in g.ps]
    if setups[0]:
        results = [_separable_moment(*setup, cfg) for setup in setups]
    else:
        results = [IntegralResult(v, e) for v, e in zip(*_block_sum(d, g, cfg))]
    return results if g.several else results[0]


def pth_root(value, p) -> float:
    """value^(1/p) of a p-th power, a float or an ``ExactValue``, in Python
    floats, whose overflow raises where numpy's only warns; an infinite float
    stays infinite.  An exact value outside the normal floats takes its root
    from its log.  A root that overflows (p tiny) raises ``Inconclusive``."""
    try:
        x = float(value)
    except OverflowError:  # an exact value above the float range
        x = math.inf
    try:
        if isinstance(value, ExactValue) and not sys.float_info.min <= x < math.inf:
            return math.exp(value.log() / float(p))
        return x ** (1.0 / float(p))
    except OverflowError:
        name = f"e^{value.log():.6g}" if isinstance(value, ExactValue) else repr(value)
        raise Inconclusive(f"the p-th root of {name} at p={p} leaves the "
                           "floating-point range") from None


def lp_norms(d: DomainSpec, f, ps: Sequence, cfg: QuadConfig = QuadConfig()) -> list:
    """Quadrature L^p norms of an integrand at each exponent of ``ps`` (> 0).

    One ``integrate`` run sums every exponent on one mesh, refined until all
    meet ``rel_tol``.  Its nodes and weights are shared and positive, so the
    discrete Hoelder and log-convexity relations between the norms hold
    exactly (up to round-off) whatever the quadrature error: a verdict built
    on them cannot be tripped by integration noise.  A single monomial
    takes the separable rule per exponent instead."""
    ps = [as_fraction(p) for p in ps]
    if any(p <= 0 for p in ps):
        raise ValueError("exponents must be positive")
    results = integrate(d, AbsPowerIntegrand(f, ps), cfg)
    return [pth_root(res.value, p) for res, p in zip(results, ps)]


def lp_norm(d: DomainSpec, f, p, cfg: QuadConfig = QuadConfig()) -> float:
    """Quadrature estimate of the L^p norm of an integrand (p > 0)."""
    return lp_norms(d, f, [p], cfg)[0]


def divergence_probe(d: DomainSpec, f, p, cfg: QuadConfig = QuadConfig()) -> ProbeResult:
    """Corner-cutoff refinement ladder deciding finite versus divergent.

    The cutoffs are 1e-2, 1e-4, ...: the verdict is first read at
    ``LADDER_LEVELS`` = 3 levels, and the ladder deepens one level at a time
    while it is undecided, down to ``MAX_LADDER_LEVELS`` = 7.  A level needs
    only ~1e-3 accuracy, so each tensor level runs at ``LADDER_TOL`` with
    ``max_doublings`` = 1: on either path the ladder reads only the node
    counts of ``cfg``.  The verdict is read from the p-th-power integrals:
    geometric contraction of the increments means convergence (stable);
    non-contracting increments under monotone growth mean the mass below the
    cutoff does not run out (diverging); else ``Inconclusive``.

    The boxes nest: level L adds the blocks whose deepest log piece is piece
    L-1.  On the tensor path only those are integrated, and their sum is
    added to the previous level's, so the ladder never decreases.  A single
    monomial takes the separable rule on each level's cut box at twice each
    axis's base size: its base rules fit the exponents, and where they do
    not agree (the ball's uncut u_0 -> 1 end) a 4x rule gains nothing and
    costs O(n^2) memory to build.  The base rule is not run: its one product,
    an error estimate, would go unread.  The ``_separable`` set-up is built
    once per probe, and axis sums and rules come from the memos (module
    docstring)."""
    p = as_fraction(p)
    integrals: list = []
    separable = _separable(d, f, p, cfg.radial_nodes)  # levels differ in pieces only
    if not separable:
        g = AbsPowerIntegrand(f, p)
        ladder_cfg = replace(cfg, rel_tol=LADDER_TOL, max_doublings=1)

    def extend_to(n_levels: int) -> None:
        for level in range(len(integrals), n_levels):
            if separable:
                scale, torus, axes = separable
                sums = (_axis_integral(*e, n << 1, level + 1) for e, n in axes)
                integrals.append(scale * (math.prod(sums, start=1.0) * torus))
                continue
            new = [b for b in itertools.product(range(level + 1), repeat=d.dim)
                   if level in b]
            (added,), _err = _block_sum(d, g, ladder_cfg, new)
            integrals.append((integrals[-1] if integrals else 0.0) + added)

    def increasing() -> bool:
        return all(b >= a * (1.0 - 1e-12) for a, b in zip(integrals, integrals[1:]))

    def classify():
        """diverging | stable | None (ambiguous at this depth)."""
        if math.isinf(integrals[-1]):
            return "diverging"  # mass overflowed the exponent range
        scale = max(abs(integrals[-1]), 1e-300)
        if abs(integrals[-1] - integrals[-2]) / scale < STABLE_TOL:
            return "stable"
        diffs = [b - a for a, b in zip(integrals, integrals[1:])]
        if increasing() and len(diffs) >= 2 and diffs[-2] > 0:
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

    extend_to(LADDER_LEVELS)
    verdict = classify()
    while verdict is None and len(integrals) < MAX_LADDER_LEVELS:
        extend_to(len(integrals) + 1)  # deepen: product-of-axes transients
        verdict = classify()

    norms = tuple(pth_root(v, p) for v in integrals)
    tenfold = increasing() and all(b > 10.0 * a for a, b in zip(norms, norms[1:]))
    if verdict == "diverging":
        return ProbeResult(True, False, norms, tenfold)
    if verdict == "stable":
        return ProbeResult(False, True, norms, False)
    raise Inconclusive(
        f"divergence probe for p={p} did not stabilize or diverge: {norms}")
