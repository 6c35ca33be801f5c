"""Self-verification suites: the bootstrap oracle and module invariants.

The bootstrap suite compares every exact moment formula against the
quadrature oracle before anything downstream is trusted; a bootstrap failure
aborts the remaining suites.  The other suites exercise the documented
invariants of each module (index-set monotonicity, threshold soundness, the
index chain, kernel agreement, projection algebra, interpolation-consequence
inequalities) at two effort levels:

  quick   small windows and trial counts, suitable for a < 60 s sanity run
  full    the sizes the acceptance criteria demand

Randomized trials draw from a single seeded generator, so a verify run is
reproducible from (domains, level, seed).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import domains as dm
from . import duality_projection as dp
from . import index_sets as ix
from . import kernel as kn
from . import quadrature as qd
from .domains import DomainSpec, Family
from .errors import Inconclusive, NotIntegrable
from .exact import QComplex

ORACLE_REL_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0


def _result(suite, name, passed, detail=""):
    return CheckResult(suite, name, bool(passed), detail)


def _timed(fn: Callable[[], CheckResult]) -> CheckResult:
    t0 = time.perf_counter()
    res = fn()
    return CheckResult(res.suite, res.name, res.passed, res.detail,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# bootstrap oracle
# ---------------------------------------------------------------------------

def _moment_grid(level: str):
    if level == "full":
        return 6, [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
                   Fraction(3), Fraction(4)]
    return 3, [Fraction(1), Fraction(2), Fraction(3)]


def _kernel_radius(level: str) -> int:
    return 40 if level == "full" else 30


def bootstrap_oracle(doms: Sequence[DomainSpec], level: str = "quick",
                     moment_fn: Optional[Callable] = None) -> List[CheckResult]:
    """Exact moments versus quadrature on the lattice window and p grid.

    Finite moments must match to ``ORACLE_REL_TOL`` relative error; divergent
    verdicts must be confirmed by monotone, non-stabilizing growth of the
    corner-cutoff ladder.  ``moment_fn`` exists so a corrupted formula can be
    injected as a negative control.
    """
    moment_fn = moment_fn or dm.moment
    radius, p_grid = _moment_grid(level)
    cfg = qd.QuadConfig()
    out = []
    for d in doms:
        t0 = time.perf_counter()
        worst = 0.0
        bad = None
        n_fin = n_div = 0
        probe_fail = None
        for alpha in itertools.product(range(-radius, radius + 1), repeat=d.dim):
            monomial = qd.MonomialSumIntegrand([(1.0, alpha, (0,) * d.dim)])
            for p in p_grid:
                m = moment_fn(d, alpha, p)
                if m.is_finite:
                    n_fin += 1
                    est = qd.integrate(d, qd.AbsPowerIntegrand(monomial, p), cfg)
                    rel = abs(est.value - float(m)) / float(m)
                    if rel > worst:
                        worst, bad = rel, (alpha, p)
                else:
                    n_div += 1
                    try:
                        probe = qd.divergence_probe(d, monomial, p, cfg)
                        ok = probe.diverging
                    except Inconclusive:
                        ok = False
                    if not ok and probe_fail is None:
                        probe_fail = (alpha, p)
        ok = worst <= ORACLE_REL_TOL and probe_fail is None
        detail = (f"{n_fin} finite (worst rel err {worst:.2e} at {bad}), "
                  f"{n_div} divergent"
                  + (f"; probe failed at {probe_fail}" if probe_fail else ""))
        out.append(CheckResult("bootstrap", f"moments-vs-quadrature[{d}]", ok,
                               detail, time.perf_counter() - t0))
    return out


# ---------------------------------------------------------------------------
# domain-level invariants
# ---------------------------------------------------------------------------

def domain_checks(doms: Sequence[DomainSpec], rng: np.random.Generator,
                  level: str = "quick") -> List[CheckResult]:
    out = []
    n_trials = 1000 if level == "full" else 100
    p_grid = [Fraction(k, 4) for k in range(4, 25)]

    def random_probes():
        worst = 0.0
        fails = []
        for _ in range(n_trials):
            d = doms[int(rng.integers(len(doms)))]
            alpha = tuple(int(rng.integers(-6, 7)) for _ in range(d.dim))
            p = p_grid[int(rng.integers(len(p_grid)))]
            m = dm.moment(d, alpha, p)
            monomial = qd.MonomialSumIntegrand([(1.0, alpha, (0,) * d.dim)])
            if m.is_finite:
                est = qd.integrate(d, qd.AbsPowerIntegrand(monomial, p),
                                   qd.QuadConfig())
                worst = max(worst, abs(est.value - float(m)) / float(m))
            else:
                try:
                    probe = qd.divergence_probe(d, monomial, p, qd.QuadConfig())
                except Inconclusive:
                    fails.append((str(d), alpha, p))
                    continue
                seq = probe.sequence
                # non-strict: deeply divergent ladders plateau at inf
                if not (probe.diverging
                        and all(b >= a * (1 - 1e-12) for a, b in zip(seq, seq[1:]))):
                    fails.append((str(d), alpha, p))
        ok = worst <= ORACLE_REL_TOL and not fails
        return _result("domains", "random-moment-exactness", ok,
                       f"{n_trials} trials, worst rel {worst:.2e}, "
                       f"divergence failures {fails[:3]}")

    out.append(_timed(random_probes))

    def holder_inclusion():
        fails = []
        for d in doms:
            vol = float(dm.volume(d))
            for _ in range(n_trials // 4):
                alpha = tuple(int(rng.integers(-3, 4)) for _ in range(d.dim))
                q = p_grid[int(rng.integers(len(p_grid) - 1))]
                p = q + Fraction(int(rng.integers(1, 9)), 4)
                mq, mp = dm.moment(d, alpha, q), dm.moment(d, alpha, p)
                if not (mq.is_finite and mp.is_finite):
                    continue
                lhs = float(mq) ** (1 / float(q))
                rhs = (vol ** (1 / float(q) - 1 / float(p))
                       * float(mp) ** (1 / float(p)))
                if lhs > rhs * (1 + 1e-12):
                    fails.append((str(d), alpha, q, p))
        return _result("domains", "holder-inclusion", not fails, str(fails[:3]))

    out.append(_timed(holder_inclusion))

    def monotone_divergence():
        fails = []
        for d in doms:
            for alpha in itertools.product(range(-4, 5), repeat=d.dim):
                divergent_seen = False
                for p in p_grid:
                    fin = dm.moment(d, alpha, p).is_finite
                    if divergent_seen and fin:
                        fails.append((str(d), alpha, p))
                    if not fin:
                        divergent_seen = True
        return _result("domains", "monotone-divergence-in-p", not fails,
                       str(fails[:3]))

    out.append(_timed(monotone_divergence))

    def conjugate_involution():
        for _ in range(200):
            p = 1 + Fraction(int(rng.integers(5, 400)), 4)
            q = dm.conjugate_exponent(p)
            if dm.conjugate_exponent(q) != p or Fraction(1) / p + Fraction(1) / q != 1:
                return _result("domains", "conjugate-involution", False, str(p))
        return _result("domains", "conjugate-involution", True)

    out.append(_timed(conjugate_involution))
    return out


# ---------------------------------------------------------------------------
# index-set invariants
# ---------------------------------------------------------------------------

def index_checks(doms: Sequence[DomainSpec], rng: np.random.Generator,
                 level: str = "quick") -> List[CheckResult]:
    out = []
    radius = 6 if level == "full" else 4

    def anti_monotone():
        grid = [Fraction(k, 3) for k in range(3, 16)]
        fails = []
        for d in doms:
            prev = None
            for p in grid:
                cur = frozenset(ix.index_set_window(d, p, radius).members)
                if prev is not None and not cur <= prev:
                    fails.append((str(d), p))
                prev = cur
        return _result("index_sets", "anti-monotonicity", not fails, str(fails))

    out.append(_timed(anti_monotone))

    def threshold_sound_complete():
        fails = []
        for d in doms:
            ts = ix.thresholds(d, Fraction(1), Fraction(8), radius)
            values = [t.value for t in ts]
            # soundness is asserted inside thresholds(); completeness: no
            # flips strictly between consecutive reported values
            edges = [Fraction(1)] + values + [Fraction(8)]
            for lo, hi in zip(edges, edges[1:]):
                if hi <= lo:
                    continue
                for _ in range(5):
                    num = int(rng.integers(1, 1000))
                    a = lo + (hi - lo) * Fraction(num, 1001)
                    b = lo + (hi - lo) * Fraction(num + 1, 1002)
                    lo2, hi2 = min(a, b), max(a, b)
                    if lo2 == hi2:
                        continue
                    cmpres = ix.sets_equal(d, lo2, hi2, radius)
                    if not cmpres.equal and lo2 > lo and hi2 < hi:
                        fails.append((str(d), lo2, hi2, cmpres.witness))
        return _result("index_sets", "threshold-completeness", not fails,
                       str(fails[:3]))

    out.append(_timed(threshold_sound_complete))

    def chain_and_stability():
        fails = []
        top = 12 if level == "full" else 6
        for m in range(1, top):
            for n in range(1, top + 1 - m):
                if math.gcd(m, n) != 1:
                    continue
                d = dm.hartogs(m, n)
                rep = ix.index_report(d)
                expected = ix.hartogs_regularity_formula(m, n)
                if not (rep.duality_bound == ix.IndexValue.exact(2)
                        and rep.regularity_probe == ix.IndexValue.exact(expected)
                        and rep.beta_upper == ix.IndexValue.exact(expected)):
                    fails.append((str(d), str(rep.duality_bound),
                                  str(rep.regularity_probe), str(rep.beta_upper)))
                    continue
                base = max(ix.default_window(d), m + n)
                rep2 = ix.index_report(d, base + 2)
                if (rep2.duality_bound, rep2.regularity_probe, rep2.beta_upper) != (
                        rep.duality_bound, rep.regularity_probe, rep.beta_upper):
                    fails.append((str(d), "window instability"))
        return _result("index_sets", "hartogs-chain-and-window-stability",
                       not fails, str(fails[:3]))

    out.append(_timed(chain_and_stability))

    def degenerate_unbounded():
        fails = []
        for kind in (dm.ball, dm.polydisc):
            for n in (1, 2, 3):
                rep = ix.index_report(kind(n))
                vals = (rep.duality_bound.kind, rep.regularity_probe.kind,
                        rep.beta_upper.kind)
                if vals != ("unbounded",) * 3:
                    fails.append((str(kind(n)), vals))
        return _result("index_sets", "ball-polydisc-unbounded", not fails,
                       str(fails))

    out.append(_timed(degenerate_unbounded))

    def duality_self_conjugate():
        fails = []
        for d in doms:
            if d.family is not Family.HARTOGS:
                continue
            rad = ix.default_window(d)
            bound, _w = ix.duality_bound(d, rad, Fraction(64))
            if bound.kind != "exact":
                continue
            for k in range(1, 8):
                p = Fraction(2) + Fraction(k, 7)
                q = dm.conjugate_exponent(p)
                if dm.conjugate_exponent(q) != p:
                    fails.append((str(d), p, "involution"))
                cond_p = (ix.sets_equal(d, p, 2, rad).equal
                          and ix.sets_equal(d, q, 2, rad).equal)
                # the scan condition is symmetric in (p, q) and must reproduce
                # the reported bound: true strictly below it, false above
                if p < bound.value and not cond_p:
                    fails.append((str(d), p, "false below bound"))
                if p > bound.value and cond_p:
                    fails.append((str(d), p, "true above bound"))
        return _result("index_sets", "duality-scan-self-conjugacy", not fails,
                       str(fails[:3]))

    out.append(_timed(duality_self_conjugate))
    return out


# ---------------------------------------------------------------------------
# kernel invariants
# ---------------------------------------------------------------------------

def _sample_point(d: DomainSpec, rng: np.random.Generator,
                  max_mod: float = 0.7) -> tuple:
    """Random interior point with componentwise modulus below max_mod.

    On the triangle, moduli keep |z1| <= 0.6^max(1, n/m) |z2|^(n/m).  For two
    such points the kernel window of radius R then leaves a tail of order
    0.6^(2R) on every triangle: the ratio |x| / |y|^(n/m) of x = w1 conj(z1)
    and y = w2 conj(z2) is at most 0.6^(2 max(1, n/m)), and the window keeps
    its powers up to about R min(1, m/n).
    """
    phases = np.exp(2j * math.pi * rng.random(d.dim))
    if d.family is Family.POLYDISC:
        radii = max_mod * rng.random(d.dim)
    elif d.family is Family.BALL:
        raw = rng.random(d.dim)
        raw = raw / max(1.0, math.sqrt(float(np.sum(raw ** 2))) / max_mod)
        radii = raw * 0.999
    else:
        r2 = 0.2 + (max_mod - 0.2) * rng.random()
        r1 = 0.6 ** max(1, d.n / d.m) * r2 ** (d.n / d.m) * rng.random()
        radii = np.array([r1, r2])
    return tuple(radii * phases)


def kernel_checks(doms: Sequence[DomainSpec], rng: np.random.Generator,
                  level: str = "quick") -> List[CheckResult]:
    out = []
    n_pairs = 50 if level == "full" else 10
    radius = _kernel_radius(level)

    def series_vs_closed():
        worst = 0.0
        where = None
        max_mod = 0.7 if level == "full" else 0.6  # radius-30 tail needs margin
        for d in doms:
            for _ in range(n_pairs):
                z = _sample_point(d, rng, max_mod)
                w = _sample_point(d, rng, max_mod)
                s = kn.kernel_truncated(d, z, w, radius)
                c = kn.kernel_closed_form(d, z, w)
                rel = abs(s - c) / abs(c)
                if rel > worst:
                    worst, where = rel, (str(d), z, w)
        return _result("kernel", "series-vs-closed-form", worst < 1e-8,
                       f"worst rel {worst:.2e} at {where}")

    out.append(_timed(series_vs_closed))

    def hermitian_and_diagonal():
        fails = []
        for d in doms:
            for _ in range(max(4, n_pairs // 5)):
                z, w = _sample_point(d, rng), _sample_point(d, rng)
                a = kn.kernel_truncated(d, z, w, 20)
                b = kn.kernel_truncated(d, w, z, 20)
                if abs(a - b.conjugate()) > 1e-14 * max(abs(a), 1e-30):
                    fails.append((str(d), "hermitian", z, w))
                prev = None
                for nn in (5, 10, 15, 20):
                    diag = kn.kernel_truncated(d, z, z, nn)
                    if abs(diag.imag) > 1e-15 * abs(diag) or diag.real <= 0:
                        fails.append((str(d), "diagonal-positive", nn))
                    if prev is not None and diag.real < prev - 1e-12:
                        fails.append((str(d), "diagonal-monotone", nn))
                    prev = diag.real
        return _result("kernel", "hermitian-symmetry-and-diagonal", not fails,
                       str(fails[:3]))

    out.append(_timed(hermitian_and_diagonal))

    def reproduce_window():
        fails = []
        for d in doms:
            z = _sample_point(d, rng)
            window = ix.index_set_window(d, 2, 5)
            for alpha in window.members:
                if kn.reproduce_check(d, alpha, z, 5) != 0.0:
                    fails.append((str(d), alpha))
        return _result("kernel", "reproducing-property-exact-zero", not fails,
                       str(fails[:3]))

    out.append(_timed(reproduce_window))

    def density_monotone():
        d = dm.polydisc(1)
        fails = []
        for a in range(4):
            prev = math.inf
            for k in (1, 2, 4, 8, 16):
                pts = [(0.5 * np.exp(2j * math.pi * j / k),) for j in range(k)]
                res = kn.density_residual(d, (a,), pts)
                if res < -1e-15 or res > prev + 1e-12:
                    fails.append((a, k, res, prev))
                prev = res
            norm2 = float(dm.moment(d, (a,), 2))
            if prev >= 1e-3 * norm2:
                fails.append((a, "final residual too large", prev, norm2))
        return _result("kernel", "density-residual-monotone", not fails,
                       str(fails[:3]))

    out.append(_timed(density_monotone))

    def pnorm_brackets():
        d = dm.hartogs(1, 1)
        rep = ix.index_report(d)
        fails = []
        for p in (Fraction(3), Fraction(7, 2), Fraction(9, 2), Fraction(5)):
            try:
                est = kn.kernel_pnorm_estimate(d, (0, 0.5), p)
            except Inconclusive:
                continue
            if not est.diverging and not p < rep.beta_upper.value:
                fails.append((p, "finite verdict above beta"))
            if est.diverging and not p > rep.regularity_probe.value:
                fails.append((p, "diverging verdict below regularity"))
        return _result("kernel", "pnorm-probe-brackets-beta", not fails,
                       str(fails))

    out.append(_timed(pnorm_brackets))
    return out


# ---------------------------------------------------------------------------
# projection and duality invariants
# ---------------------------------------------------------------------------

def _random_mixed(d: DomainSpec, rng: np.random.Generator,
                  n_terms: int = 2) -> dp.MixedMonomialSum:
    """Random square-integrable mixed monomial sum with dyadic coefficients."""
    terms = []
    while len(terms) < n_terms:
        if d.family is Family.HARTOGS:
            alpha = (int(rng.integers(0, 4)), int(rng.integers(-2, 4)))
        else:
            alpha = tuple(int(rng.integers(0, 4)) for _ in range(d.dim))
        gamma = tuple(int(rng.integers(0, 3)) for _ in range(d.dim))
        if not dm.moment_finite(d, [2 * (a + g) for a, g in zip(alpha, gamma)]):
            continue
        c = QComplex(Fraction(int(rng.integers(-8, 9)), 8),
                     Fraction(int(rng.integers(-8, 9)), 8))
        terms.append((c, alpha, gamma))
    return dp.MixedMonomialSum.make(terms)


def projection_checks(doms: Sequence[DomainSpec], rng: np.random.Generator,
                      level: str = "quick") -> List[CheckResult]:
    out = []
    n_alg = 200 if level == "full" else 40

    def projection_algebra():
        fails = []
        for d in doms:
            deltas = [a for a in ix.index_set_window(d, 2, 2).members
                      if all(x >= 0 for x in a)]
            for _ in range(n_alg):
                f = _random_mixed(d, rng)
                g = _random_mixed(d, rng)
                bf, bg = dp.project(d, f), dp.project(d, g)
                if dp.project(d, bf).terms != bf.terms:
                    fails.append((str(d), "idempotence", f.terms))
                try:
                    if dp.pairing(d, bf, g) != dp.pairing(d, f, bg):
                        fails.append((str(d), "self-adjointness", f.terms,
                                      g.terms))
                except NotIntegrable:
                    pass  # a cross term fell outside L^1; identity undefined
                delta = deltas[int(rng.integers(len(deltas)))]
                e_delta = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)),
                                                       delta)
                if dp.pairing(d, f, e_delta) != dp.pairing(d, bf, e_delta):
                    fails.append((str(d), "pairing-reproduction", f.terms,
                                  delta))
        return _result("projection", "algebra-exact-identities", not fails,
                       str(fails[:2]))

    out.append(_timed(projection_algebra))

    def identity_on_allowable():
        fails = []
        for d in doms:
            window = ix.index_set_window(d, 2, 3)
            for alpha in window.members:
                e = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)), alpha)
                if dp.project(d, e).terms != e.terms:
                    fails.append((str(d), alpha))
        return _result("projection", "identity-on-allowable", not fails,
                       str(fails[:3]))

    out.append(_timed(identity_on_allowable))

    def witness_criticality():
        fails = []
        grid_n = 50 if level == "full" else 12
        tops = 12 if level == "full" else 5
        for m in range(1, tops):
            for n in range(1, tops + 1 - m):
                if math.gcd(m, n) != 1:
                    continue
                d = dm.hartogs(m, n)
                _val, wit = ix.regularity_probe(d, ix.default_window(d))
                alpha, gamma = wit
                crit = ix.hartogs_regularity_formula(m, n)
                for j in range(1, grid_n + 1):
                    below = crit - Fraction(j, 100)
                    above = crit + Fraction(j, 100)
                    if below > 1:
                        r = dp.projection_ratio(d, alpha, gamma, below)
                        if r.divergent:
                            fails.append((str(d), below, "divergent below"))
                    r = dp.projection_ratio(d, alpha, gamma, above)
                    if not r.divergent:
                        fails.append((str(d), above, "finite above"))
                r = dp.projection_ratio(d, alpha, gamma, crit)
                if not r.divergent:
                    fails.append((str(d), crit, "finite at critical"))
        return _result("projection", "witness-criticality", not fails,
                       str(fails[:3]))

    out.append(_timed(witness_criticality))

    def inequalities():
        n_trials = 500 if level == "full" else 50
        fails = []
        for d in doms:
            # tensor meshes grow exponentially with dimension; shrink the
            # per-axis budget there (Lyapunov's shared-mesh verdicts stay
            # sound; its base rule 8 x 4 doubles once, to 16 x 8)
            cfg = lya_cfg = None
            if d.dim >= 3:
                cfg = qd.QuadConfig(radial_nodes=8, angular_nodes=8,
                                    rel_tol=1e-5, max_doublings=1)
                lya_cfg = qd.QuadConfig(radial_nodes=8, angular_nodes=4, max_doublings=0)
            for trial in range(n_trials):
                f = _random_laurent(d, rng, trial)
                p = Fraction(int(rng.integers(9, int(TRIAL_P_MAX * 4) + 1)), 4)
                q = Fraction(int(rng.integers(5, 8)), 4)    # in (1, 2)
                theta = Fraction(int(rng.integers(1, 8)), 8)
                chk = dp.lyapunov_check(d, f, p, q, theta, lya_cfg)
                if not chk.holds:
                    fails.append((str(d), "lyapunov", f.terms, p, q, theta))
                g = _random_laurent(d, rng, trial)
                if g.p_integrable(d, dm.conjugate_exponent(p)):
                    chk2 = dp.holder_check(d, f, g, p, cfg)
                    if not chk2.holds:
                        fails.append((str(d), "holder", f.terms, g.terms, p))
        return _result("projection", "lyapunov-and-holder", not fails,
                       str(fails[:2]))

    out.append(_timed(inequalities))

    def injectivity():
        fails = []
        for d in doms:
            if dp.injectivity_witness_scan(d, 2, 4) is not None:
                fails.append((str(d), "witness at p=2"))
            if d.family is Family.HARTOGS:
                wit = dp.injectivity_witness_scan(
                    d, Fraction(2) + Fraction(1, 2), ix.default_window(d))
                if wit is None:
                    fails.append((str(d), "no witness above the bound"))
        return _result("projection", "injectivity-witness-scan", not fails,
                       str(fails))

    out.append(_timed(injectivity))
    return out


#: upper end of the exponent grid used by the inequality trials; samplers
#: enforce membership at this cap so the preconditions always hold.
TRIAL_P_MAX = Fraction(15, 4)


def _random_laurent(d: DomainSpec, rng: np.random.Generator,
                    trial: int) -> dp.MixedMonomialSum:
    """Laurent test functions: single monomials (exact norms) and pairs.

    Exponents stay in a small window and are resampled until the monomials
    belong to every space up to TRIAL_P_MAX.
    """
    single = trial % 5 < 2
    while True:
        if d.family is Family.HARTOGS:
            alpha = (int(rng.integers(0, 3)), int(rng.integers(-1, 3)))
        else:
            alpha = tuple(int(rng.integers(0, 3)) for _ in range(d.dim))
        if not ix.member(d, alpha, TRIAL_P_MAX):
            continue
        c1 = QComplex(Fraction(int(rng.integers(1, 9)), 8),
                      Fraction(int(rng.integers(-8, 9)), 8))
        if single:
            return dp.MixedMonomialSum.monomial(c1, alpha)
        beta = tuple(max(0, a) + int(rng.integers(0, 3)) for a in alpha)
        if beta == alpha or not ix.member(d, beta, TRIAL_P_MAX):
            continue
        c2 = QComplex(Fraction(int(rng.integers(-8, 9)), 8),
                      Fraction(int(rng.integers(-8, 9)), 8))
        if c2.is_zero():
            continue
        return dp.laurent([(c1, alpha), (c2, beta)])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class VerifySummary:
    results: List[CheckResult]
    bootstrap_ok: bool
    aborted: bool

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def matrix_lines(self) -> List[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.suite:12s} {r.name:42s} "
                         f"({r.elapsed:6.2f}s) {r.detail}")
        return lines


def run_verify(doms: Sequence[DomainSpec], level: str = "quick",
               seed: int = 20240901,
               moment_fn: Optional[Callable] = None) -> VerifySummary:
    """Run the bootstrap oracle, then every invariant suite.

    Downstream suites are skipped when the bootstrap fails: nothing that
    depends on the moment formulas can be trusted at that point.  A domain
    whose kernel window or bootstrap box exceeds ``MAX_WINDOW_POINTS``
    raises ``ParseError`` before any check runs.
    """
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    for d in doms:
        ix.check_radius(_kernel_radius(level), dim=d.dim)
        ix.check_radius(_moment_grid(level)[0], dim=d.dim)
    rng = np.random.default_rng(seed)
    results = bootstrap_oracle(doms, level, moment_fn=moment_fn)
    bootstrap_ok = all(r.passed for r in results)
    if not bootstrap_ok:
        return VerifySummary(results, False, True)
    results += domain_checks(doms, rng, level)
    results += index_checks(doms, rng, level)
    results += kernel_checks(doms, rng, level)
    results += projection_checks(doms, rng, level)
    return VerifySummary(results, True, False)
