"""Self-verification: the bootstrap stage, then one ordered table of checks.

The bootstrap compares every exact moment formula against the quadrature
oracle, one row per domain, before anything downstream is trusted; a failed
row ends the run after that stage.  ``CHECKS`` then lists the documented
invariants of each module (index-set monotonicity, threshold soundness, the
index chain, kernel agreement, projection algebra, interpolation-consequence
inequalities) as (suite, name, check) entries in the order they run, and
``run_verify`` times every row of both stages in one loop.  Every size that
differs between levels comes from one row of ``SIZES`` (a check fixes the rest
itself, such as the kernel diagonal's windows 5-20 or the 200 involution
draws), one row per level:

  quick   small windows and trial counts, suitable for a < 60 s sanity run
  full    the sizes the acceptance criteria demand

Randomized trials draw from a single seeded generator in table order, so a
verify run is reproducible from (domains, level, seed).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Sequence

import numpy as np

from . import domains as dm
from . import duality_projection as dp
from . import index_sets as ix
from . import kernel as kn
from . import quadrature as qd
from .domains import DomainSpec, Family
from .errors import Inconclusive, NotIntegrable, ParseError
from .exact import QComplex

ORACLE_REL_TOL = 1e-8
#: exponents 1, 5/4, ..., 6 of the random moment trials
P_GRID = tuple(Fraction(k, 4) for k in range(4, 25))


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0


class Size(NamedTuple):
    """One effort level: every size that differs between levels."""

    moment_radius: int      # bootstrap box max|alpha_i|
    moment_ps: tuple        # bootstrap exponent grid
    trials: int             # random moments; a quarter per domain for Hoelder
    index_radius: int       # index-set windows and threshold scans
    chain_top: int          # index chain on coprime H(m, n), m + n <= this
    kernel_pairs: int       # random point pairs per domain
    kernel_radius: int      # series window compared with the closed form
    max_mod: float          # modulus bound of those points (tail margin)
    algebra_trials: int     # random sum pairs per domain
    witness_top: int        # witness criticality on H(m, n), m + n <= this
    witness_steps: int      # exponents critical +- j/100, j <= this
    inequality_trials: int  # Lyapunov and Hoelder trials per domain


SIZES = {
    "quick": Size(moment_radius=3,
                  moment_ps=(Fraction(1), Fraction(2), Fraction(3)),
                  trials=100, index_radius=4, chain_top=6, kernel_pairs=10,
                  kernel_radius=30, max_mod=0.6, algebra_trials=40,
                  witness_top=5, witness_steps=12, inequality_trials=50),
    "full": Size(moment_radius=6,
                 moment_ps=(Fraction(1), Fraction(3, 2), Fraction(2),
                            Fraction(5, 2), Fraction(3), Fraction(4)),
                 trials=1000, index_radius=6, chain_top=12, kernel_pairs=50,
                 kernel_radius=40, max_mod=0.7, algebra_trials=200,
                 witness_top=12, witness_steps=50, inequality_trials=500),
}


# ---------------------------------------------------------------------------
# exact moments versus quadrature
# ---------------------------------------------------------------------------

def _oracle_scan(cases):
    """Exact moments against quadrature over (d, alpha, p) cases, the one place
    that compares them: the finite and divergent counts, the worst relative
    error of a finite moment with its (alpha, p), and the divergent cases whose
    ladder does not confirm them.  A ladder confirms a divergence when it
    diverges and never falls by over 1e-12 relative, as deeply divergent
    ladders plateau at inf; an ``Inconclusive`` one does not confirm it."""
    n, n_fin, worst, bad, fails = 0, 0, 0.0, None, []
    for n, (d, alpha, p) in enumerate(cases, 1):
        m = dm.moment(d, alpha, p)
        monomial = qd.MonomialSumIntegrand([(1.0, alpha, (0,) * d.dim)])
        if m.is_finite:
            n_fin += 1
            est = qd.integrate(d, qd.AbsPowerIntegrand(monomial, p))
            rel = abs(est.value - float(m)) / float(m)
            if not rel <= worst:  # a NaN estimate is the worst of all
                worst, bad = rel, (alpha, p)
            continue
        try:
            probe = qd.divergence_probe(d, monomial, p)
        except Inconclusive:
            fails.append((d, alpha, p))
            continue
        if not (probe.diverging and all(b >= a * (1 - 1e-12)
                                        for a, b in itertools.pairwise(probe.sequence))):
            fails.append((d, alpha, p))
    return n_fin, n - n_fin, worst, bad, fails


def _moments_vs_quadrature(d: DomainSpec, doms, rng, size):
    """The bootstrap row of ``d``: every moment of the box max|alpha_i| <=
    ``moment_radius`` at each p of ``moment_ps``, finite ones within
    ``ORACLE_REL_TOL`` of quadrature, divergent ones confirmed by the ladder."""
    box = range(-size.moment_radius, size.moment_radius + 1)
    n_fin, n_div, worst, bad, fails = _oracle_scan(
        (d, alpha, p) for alpha in itertools.product(box, repeat=d.dim)
        for p in size.moment_ps)
    return (worst <= ORACLE_REL_TOL and not fails,
            f"{n_fin} finite (worst rel err {worst:.2e} at {bad}), {n_div} divergent"
            + (f"; probe failed at {fails[0][1:]}" if fails else ""))


# ---------------------------------------------------------------------------
# domain-level invariants
# ---------------------------------------------------------------------------

def _random_moments(doms, rng, size):
    # each case is drawn (domain, alpha, then p) just before the scan reads it
    _n_fin, _n_div, worst, _bad, fails = _oracle_scan(
        (d, tuple(int(rng.integers(-6, 7)) for _ in range(d.dim)),
         P_GRID[int(rng.integers(len(P_GRID)))])
        for d in (doms[int(rng.integers(len(doms)))] for _ in range(size.trials)))
    return (worst <= ORACLE_REL_TOL and not fails,
            f"{size.trials} trials, worst rel {worst:.2e}, "
            f"divergence failures {[(str(d), a, p) for d, a, p in fails[:3]]}")


def _holder_inclusion(doms, rng, size):
    fails = []
    for d in doms:
        vol = float(dm.volume(d))
        for _ in range(size.trials // 4):
            alpha = tuple(int(rng.integers(-3, 4)) for _ in range(d.dim))
            q = P_GRID[int(rng.integers(len(P_GRID) - 1))]
            p = q + Fraction(int(rng.integers(1, 9)), 4)
            mq, mp = dm.moment(d, alpha, q), dm.moment(d, alpha, p)
            if not (mq.is_finite and mp.is_finite):
                continue
            lhs = qd.pth_root(mq.value, q)
            rhs = vol ** (1 / float(q) - 1 / float(p)) * qd.pth_root(mp.value, p)
            if lhs > rhs * (1 + 1e-12):
                fails.append((str(d), alpha, q, p))
    return not fails, str(fails[:3])


def _monotone_divergence(doms, rng, size):
    fails = []
    for d in doms:
        for alpha in itertools.product(range(-4, 5), repeat=d.dim):
            divergent_seen = False
            for p in P_GRID:
                fin = dm.moment_finite(d, alpha, p)
                if divergent_seen and fin:
                    fails.append((str(d), alpha, p))
                divergent_seen = divergent_seen or not fin
    return not fails, str(fails[:3])


def _conjugate_involution(doms, rng, size):
    for _ in range(200):
        p = 1 + Fraction(int(rng.integers(5, 400)), 4)
        q = dm.conjugate_exponent(p)
        if dm.conjugate_exponent(q) != p or 1 / p + 1 / q != 1:
            return False, str(p)
    return True, ""


# ---------------------------------------------------------------------------
# index-set invariants
# ---------------------------------------------------------------------------

def _anti_monotone(doms, rng, size):
    fails = []
    for d in doms:
        prev = None
        for p in (Fraction(k, 3) for k in range(3, 16)):
            cur = frozenset(ix.index_set_window(d, p, size.index_radius).members)
            if prev is not None and not cur <= prev:
                fails.append((str(d), p))
            prev = cur
    return not fails, str(fails)


def _threshold_completeness(doms, rng, size):
    radius = size.index_radius
    fails = []
    for d in doms:
        ts = ix.thresholds(d, Fraction(1), Fraction(8), radius)
        # soundness is asserted inside thresholds(); completeness: no flips
        # strictly between consecutive reported values.  The drawn intervals
        # are about 1/2000 of a gap wide and rarely straddle a missing flip,
        # so each gap also compares points just inside both ends (no draw)
        edges = [Fraction(1)] + [t.value for t in ts] + [Fraction(8)]
        for lo, hi in zip(edges, edges[1:]):
            if hi <= lo:
                continue
            ends = ix.sets_equal(d, lo + (hi - lo) / 10 ** 6, hi - (hi - lo) / 10 ** 6, radius)
            if not ends.equal:
                fails.append((str(d), lo, hi, ends.witness))
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
    return not fails, str(fails[:3])


def _coprime_triangles(top: int):
    """H(m, n) for coprime m, n >= 1 with m + n <= top, m ascending."""
    return [(m, n) for m in range(1, top) for n in range(1, top + 1 - m)
            if math.gcd(m, n) == 1]


def _chain_and_stability(doms, rng, size):
    fails = []
    for m, n in _coprime_triangles(size.chain_top):
        d = dm.hartogs(m, n)
        rep = ix.index_report(d)
        expected = ix.hartogs_regularity_formula(m, n)
        if not (rep.duality_bound == ix.IndexValue.exact(2)
                and rep.regularity_probe == ix.IndexValue.exact(expected)
                and rep.beta_upper == ix.IndexValue.exact(expected)):
            fails.append((str(d), str(rep.duality_bound),
                          str(rep.regularity_probe), str(rep.beta_upper)))
            continue
        rep2 = ix.index_report(d, max(ix.default_window(d), m + n) + 2)
        if (rep2.duality_bound, rep2.regularity_probe, rep2.beta_upper) != (
                rep.duality_bound, rep.regularity_probe, rep.beta_upper):
            fails.append((str(d), "window instability"))
    return not fails, str(fails[:3])


def _degenerate_unbounded(doms, rng, size):
    fails = []
    for kind in (dm.ball, dm.polydisc):
        for n in (1, 2, 3):
            rep = ix.index_report(kind(n))
            vals = (rep.duality_bound.kind, rep.regularity_probe.kind,
                    rep.beta_upper.kind)
            if vals != ("unbounded",) * 3:
                fails.append((str(kind(n)), vals))
    return not fails, str(fails)


def _duality_self_conjugate(doms, rng, size):
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
            cond_p = (ix.sets_equal(d, p, 2, rad).equal
                      and ix.sets_equal(d, q, 2, rad).equal)
            # the scan condition is symmetric in (p, q) and must reproduce
            # the reported bound: true strictly below it, false above
            if p < bound.value and not cond_p:
                fails.append((str(d), p, "false below bound"))
            if p > bound.value and cond_p:
                fails.append((str(d), p, "true above bound"))
    return not fails, str(fails[:3])


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


def _series_vs_closed(doms, rng, size):
    worst = 0.0
    where = None
    for d in doms:
        for _ in range(size.kernel_pairs):
            z = _sample_point(d, rng, size.max_mod)
            w = _sample_point(d, rng, size.max_mod)
            s = kn.kernel_truncated(d, z, w, size.kernel_radius)
            c = kn.kernel_closed_form(d, z, w)
            rel = abs(s - c) / abs(c)
            if rel > worst:
                worst, where = rel, (str(d), z, w)
    return worst < 1e-8, f"worst rel {worst:.2e} at {where}"


def _hermitian_and_diagonal(doms, rng, size):
    fails = []
    for d in doms:
        for _ in range(max(4, size.kernel_pairs // 5)):
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
    return not fails, str(fails[:3])


def _reproduce_window(doms, rng, size):
    fails = []
    for d in doms:
        z = _sample_point(d, rng)
        for alpha in ix.index_set_window(d, 2, 5).members:
            if kn.reproduce_check(d, alpha, z, 5) != 0.0:
                fails.append((str(d), alpha))
    return not fails, str(fails[:3])


def _density_monotone(doms, rng, size):
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
    return not fails, str(fails[:3])


def _pnorm_brackets(doms, rng, size):
    d = dm.hartogs(1, 1)
    rep = ix.index_report(d)
    fails, answered = [], 0
    for p in (Fraction(3), Fraction(7, 2), Fraction(9, 2), Fraction(5)):
        try:
            est = kn.kernel_pnorm_estimate(d, (0, 0.5), p)
        except Inconclusive:
            continue
        answered += 1
        if not est.diverging and not p < rep.beta_upper.value:
            fails.append((p, "finite verdict above beta"))
        if est.diverging and not p > rep.regularity_probe.value:
            fails.append((p, "diverging verdict below regularity"))
    if not answered:  # a check that checked nothing has not passed
        return False, "no p was answered: every estimate was Inconclusive"
    return not fails, str(fails)


# ---------------------------------------------------------------------------
# projection and duality invariants
# ---------------------------------------------------------------------------

def _random_mixed(d: DomainSpec, rng: np.random.Generator) -> dp.MixedMonomialSum:
    """Random square-integrable two-term mixed sum with dyadic coefficients."""
    terms = []
    while len(terms) < 2:
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


def _projection_algebra(doms, rng, size):
    fails = []
    for d in doms:
        deltas = [a for a in ix.index_set_window(d, 2, 2).members
                  if all(x >= 0 for x in a)]
        for _ in range(size.algebra_trials):
            f = _random_mixed(d, rng)
            g = _random_mixed(d, rng)
            bf, bg = dp.project(d, f), dp.project(d, g)
            if dp.project(d, bf).terms != bf.terms:
                fails.append((str(d), "idempotence", f.terms))
            try:
                if dp.pairing(d, bf, g) != dp.pairing(d, f, bg):
                    fails.append((str(d), "self-adjointness", f.terms, g.terms))
            except NotIntegrable:
                pass  # a cross term fell outside L^1; identity undefined
            delta = deltas[int(rng.integers(len(deltas)))]
            e_delta = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)), delta)
            if dp.pairing(d, f, e_delta) != dp.pairing(d, bf, e_delta):
                fails.append((str(d), "pairing-reproduction", f.terms, delta))
    return not fails, str(fails[:2])


def _identity_on_allowable(doms, rng, size):
    fails = []
    for d in doms:
        for alpha in ix.index_set_window(d, 2, 3).members:
            e = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)), alpha)
            if dp.project(d, e).terms != e.terms:
                fails.append((str(d), alpha))
    return not fails, str(fails[:3])


def _witness_criticality(doms, rng, size):
    fails = []
    for m, n in _coprime_triangles(size.witness_top):
        d = dm.hartogs(m, n)
        _val, (alpha, gamma) = ix.regularity_probe(d, ix.default_window(d))
        crit = ix.hartogs_regularity_formula(m, n)
        for j in range(1, size.witness_steps + 1):
            below = crit - Fraction(j, 100)
            above = crit + Fraction(j, 100)
            if below > 1 and dp.projection_ratio(d, alpha, gamma, below).divergent:
                fails.append((str(d), below, "divergent below"))
            if not dp.projection_ratio(d, alpha, gamma, above).divergent:
                fails.append((str(d), above, "finite above"))
        if not dp.projection_ratio(d, alpha, gamma, crit).divergent:
            fails.append((str(d), crit, "finite at critical"))
    return not fails, str(fails[:3])


def _inequalities(doms, rng, size):
    """Lyapunov and Hoelder on random Laurent sums, at the checks' own budgets."""
    fails = []
    for d in doms:
        for trial in range(size.inequality_trials):
            f = _random_laurent(d, rng, trial)
            p = Fraction(int(rng.integers(9, int(TRIAL_P_MAX * 4) + 1)), 4)
            q = Fraction(int(rng.integers(5, 8)), 4)    # in (1, 2)
            theta = Fraction(int(rng.integers(1, 8)), 8)
            if not dp.lyapunov_check(d, f, p, q, theta).holds:
                fails.append((str(d), "lyapunov", f.terms, p, q, theta))
            g = _random_laurent(d, rng, trial)
            if (g.p_integrable(d, dm.conjugate_exponent(p))
                    and not dp.holder_check(d, f, g, p).holds):
                fails.append((str(d), "holder", f.terms, g.terms, p))
    return not fails, str(fails[:2])


def _injectivity(doms, rng, size):
    fails = []
    for d in doms:
        if dp.injectivity_witness_scan(d, 2, 4) is not None:
            fails.append((str(d), "witness at p=2"))
        if d.family is Family.HARTOGS:
            wit = dp.injectivity_witness_scan(
                d, Fraction(2) + Fraction(1, 2), ix.default_window(d))
            if wit is None:
                fails.append((str(d), "no witness above the bound"))
    return not fails, str(fails)


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

#: every check after the bootstrap, in the order it runs and draws from the
#: generator; each is called as check(doms, rng, size) -> (passed, detail)
CHECKS = (
    ("domains", "random-moment-exactness", _random_moments),
    ("domains", "holder-inclusion", _holder_inclusion),
    ("domains", "monotone-divergence-in-p", _monotone_divergence),
    ("domains", "conjugate-involution", _conjugate_involution),
    ("index_sets", "anti-monotonicity", _anti_monotone),
    ("index_sets", "threshold-completeness", _threshold_completeness),
    ("index_sets", "hartogs-chain-and-window-stability", _chain_and_stability),
    ("index_sets", "ball-polydisc-unbounded", _degenerate_unbounded),
    ("index_sets", "duality-scan-self-conjugacy", _duality_self_conjugate),
    ("kernel", "series-vs-closed-form", _series_vs_closed),
    ("kernel", "hermitian-symmetry-and-diagonal", _hermitian_and_diagonal),
    ("kernel", "reproducing-property-exact-zero", _reproduce_window),
    ("kernel", "density-residual-monotone", _density_monotone),
    ("kernel", "pnorm-probe-brackets-beta", _pnorm_brackets),
    ("projection", "algebra-exact-identities", _projection_algebra),
    ("projection", "identity-on-allowable", _identity_on_allowable),
    ("projection", "witness-criticality", _witness_criticality),
    ("projection", "lyapunov-and-holder", _inequalities),
    ("projection", "injectivity-witness-scan", _injectivity),
)


@dataclass
class VerifySummary:
    results: List[CheckResult]
    bootstrap_ok: bool

    @property
    def aborted(self) -> bool:
        return not self.bootstrap_ok

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def matrix_lines(self) -> List[str]:
        return [f"[{'PASS' if r.passed else 'FAIL'}] {r.suite:12s} {r.name:42s} "
                f"({r.elapsed:6.2f}s) {r.detail}" for r in self.results]


def run_verify(doms: Sequence[DomainSpec], level: str = "quick",
               seed: int = 20240901) -> VerifySummary:
    """Run the bootstrap stage, one moments-vs-quadrature row per domain, then
    every entry of ``CHECKS``, each row timed in one loop.

    The checks are skipped when a bootstrap row fails: nothing that depends
    on the moment formulas can be trusted at that point.  A negative seed, or
    a domain whose kernel window or bootstrap box exceeds
    ``MAX_WINDOW_POINTS``, raises ``ParseError`` before any row runs.
    """
    if level not in SIZES:
        raise ValueError("level must be 'quick' or 'full'")
    if seed < 0:  # numpy's generator takes no negative seed
        raise ParseError(f"seed must be >= 0, not {seed}")
    size = SIZES[level]
    for d in doms:
        ix.check_radius(size.kernel_radius, dim=d.dim)
        ix.check_radius(size.moment_radius, dim=d.dim)
    bootstrap = [("bootstrap", f"moments-vs-quadrature[{d}]",
                  functools.partial(_moments_vs_quadrature, d)) for d in doms]
    rng = np.random.default_rng(seed)
    results = []
    for stage in (bootstrap, CHECKS):
        if not all(r.passed for r in results):
            return VerifySummary(results, False)
        for suite, name, check in stage:
            t0 = time.perf_counter()
            passed, detail = check(doms, rng, size)
            results.append(CheckResult(suite, name, bool(passed), detail,
                                       time.perf_counter() - t0))
    return VerifySummary(results, True)
