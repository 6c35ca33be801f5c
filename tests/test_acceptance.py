"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints a PASS line once its criterion holds, so a plain pytest run
doubles as the acceptance checklist.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from bergman_indices import cli
from bergman_indices import domains as dm
from bergman_indices import duality_projection as dp
from bergman_indices import index_sets as ix
from bergman_indices import kernel as kn
from bergman_indices import quadrature as qd
from bergman_indices import verify as vf
from bergman_indices.errors import NotIntegrable
from bergman_indices.exact import QComplex

HARTOGS_FAMILY = [(m, n) for m in range(1, 12) for n in range(1, 12)
                  if m + n <= 12 and math.gcd(m, n) == 1]
CLOSED_FORM_DOMAINS = [dm.polydisc(1), dm.polydisc(2), dm.ball(2),
                       dm.hartogs(1, 1)]
ORACLE_DOMAINS = [dm.polydisc(2), dm.ball(2), dm.hartogs(1, 1)]


def _announce(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_01_hartogs_duality_bound_exact_two(capsys):
    t0 = time.perf_counter()
    for m, n in HARTOGS_FAMILY:
        code = cli.run(["indices", f"hartogs:{m}/{n}"])
        out = capsys.readouterr().out
        assert code == 0
        reported = json.loads(out)["result"]["duality_bound"]
        assert reported == {"kind": "exact", "value": "2"}, (m, n)
        rep = ix.index_report(dm.hartogs(m, n))
        assert rep.duality_bound == ix.IndexValue.exact(2), (m, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"family scan took {elapsed:.2f}s"
    _announce(1, "duality bound Exact(2) across the triangle family")


def test_02_hartogs_regularity_formula_and_witness():
    for m, n in HARTOGS_FAMILY:
        d = dm.hartogs(m, n)
        rep = ix.index_report(d)
        formula = ix.hartogs_regularity_formula(m, n)
        assert rep.regularity_probe == ix.IndexValue.exact(formula), (m, n)
        _val, (alpha, gamma) = ix.regularity_probe(d, ix.default_window(d))
        below = dp.projection_ratio(d, alpha, gamma, formula - Fraction(1, 100))
        at = dp.projection_ratio(d, alpha, gamma, formula)
        assert not below.divergent and below.ratio > 0, (m, n)
        assert at.divergent, (m, n)
    _announce(2, "regularity probe equals 2(m+n)/(m+n-1) with a sharp witness")


def test_03_index_chain_and_degenerate_unbounded():
    for m, n in HARTOGS_FAMILY:
        rep = ix.index_report(dm.hartogs(m, n))
        assert rep.duality_bound.value <= rep.regularity_probe.value
        assert rep.regularity_probe.value <= rep.beta_upper.value
    for factory in (dm.ball, dm.polydisc):
        for n in (1, 2, 3):
            rep = ix.index_report(factory(n))
            assert rep.duality_bound.kind == "unbounded"
            assert rep.regularity_probe.kind == "unbounded"
            assert rep.beta_upper.kind == "unbounded"
    _announce(3, "index chain on the triangle family, unbounded on ball/polydisc")


def test_04_threshold_at_two():
    for m, n in HARTOGS_FAMILY:
        d = dm.hartogs(m, n)
        radius = ix.default_window(d)
        ts = ix.thresholds(d, Fraction(3, 2), Fraction(5, 2), radius)
        two = [t for t in ts if t.value == 2]
        assert two, (m, n)
        wit = two[0].witness
        assert ix.member(d, wit, Fraction(2) - Fraction(1, 1000))
        assert not ix.member(d, wit, 2)
    values = [t.value for t in
              ix.thresholds(dm.hartogs(1, 1), 1, 5, 6)]
    assert values == [Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4)]
    _announce(4, "2 is a threshold with an entering witness; 1/1 list exact")


def test_05_bootstrap_oracle_window():
    t0 = time.perf_counter()
    p_grid = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
              Fraction(3), Fraction(4)]
    cfg = qd.QuadConfig()
    n_checked = n_div = n_tenfold = 0
    for d in ORACLE_DOMAINS:
        for alpha in itertools.product(range(-6, 7), repeat=d.dim):
            monomial = qd.MonomialSumIntegrand([(1.0, alpha, (0,) * d.dim)])
            for p in p_grid:
                m = dm.moment(d, alpha, p)
                if m.is_finite:
                    est = qd.integrate(d, qd.AbsPowerIntegrand(monomial, p), cfg)
                    rel = abs(est.value - float(m)) / float(m)
                    assert rel < 1e-8, (str(d), alpha, p, rel)
                    n_checked += 1
                else:
                    probe = qd.divergence_probe(d, monomial, p, cfg)
                    assert probe.diverging, (str(d), alpha, p)
                    seq = probe.sequence
                    assert all(b >= a * (1 - 1e-12)
                               for a, b in zip(seq, seq[1:])), (str(d), alpha, p)
                    n_div += 1
                    n_tenfold += probe.tenfold
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"bootstrap suite took {elapsed:.1f}s"
    # strong (tenfold-per-level) growth shows up on a large share of the
    # divergent grid; critically divergent cases grow without bound but
    # logarithmically, which no finite cutoff ladder can make geometric
    assert n_tenfold > n_div // 3
    print(f"\n  bootstrap: {n_checked} finite, {n_div} divergent "
          f"({n_tenfold} with tenfold growth), {elapsed:.1f}s")
    _announce(5, "exact moments match quadrature; divergences confirmed")


def test_06_kernel_series_reproduction_and_pnorm():
    rng = np.random.default_rng(20240901)
    for d in CLOSED_FORM_DOMAINS:
        for _ in range(50):
            z = vf._sample_point(d, rng)
            w = vf._sample_point(d, rng)
            series = kn.kernel_truncated(d, z, w, 40)
            closed = kn.kernel_closed_form(d, z, w)
            assert abs(series - closed) / abs(closed) < 1e-8, (str(d), z, w)
    for d in ORACLE_DOMAINS:
        z = vf._sample_point(d, rng)
        for alpha in ix.index_set_window(d, 2, 5).members:
            assert kn.reproduce_check(d, alpha, z, 5) == 0.0, (str(d), alpha)
    h = dm.hartogs(1, 1)
    est3 = kn.kernel_pnorm_estimate(h, (0, 0.5), 3)
    est5 = kn.kernel_pnorm_estimate(h, (0, 0.5), 5)
    assert not est3.diverging and est3.value > 0
    assert est5.diverging
    _announce(6, "kernel series, exact reproduction, p-norm brackets")


def test_07_projection_algebra_exact():
    rng = np.random.default_rng(424242)
    for d in ORACLE_DOMAINS:
        deltas = [a for a in ix.index_set_window(d, 2, 2).members
                  if all(x >= 0 for x in a)]
        for _ in range(200):
            f = vf._random_mixed(d, rng)
            g = vf._random_mixed(d, rng)
            bf = dp.project(d, f)
            bg = dp.project(d, g)
            assert dp.project(d, bf).terms == bf.terms, (str(d), f.terms)
            try:
                assert dp.pairing(d, bf, g) == dp.pairing(d, f, bg), \
                    (str(d), f.terms, g.terms)
            except NotIntegrable:
                pass
            delta = deltas[int(rng.integers(len(deltas)))]
            e_delta = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)), delta)
            assert dp.pairing(d, f, e_delta) == dp.pairing(d, bf, e_delta)
        for alpha in ix.index_set_window(d, 2, 3).members:
            e = dp.MixedMonomialSum.monomial(QComplex(Fraction(1)), alpha)
            assert dp.project(d, e).terms == e.terms
    _announce(7, "projection algebra holds as exact rational identities")


def test_08_interpolation_consequences():
    rng = np.random.default_rng(777)
    for d in ORACLE_DOMAINS:
        for trial in range(500):
            f = vf._random_laurent(d, rng, trial)
            p = Fraction(int(rng.integers(9, 16)), 4)
            q = Fraction(int(rng.integers(5, 8)), 4)
            theta = Fraction(int(rng.integers(1, 8)), 8)
            chk = dp.lyapunov_check(d, f, p, q, theta)
            assert chk.holds, (str(d), f.terms, p, q, theta, chk)
            g = vf._random_laurent(d, rng, trial)
            if g.p_integrable(d, dm.conjugate_exponent(p)):
                chk2 = dp.holder_check(d, f, g, p)
                assert chk2.holds, (str(d), f.terms, g.terms, p, chk2)
    _announce(8, "log-convexity and pairing bounds hold on 500 trials/domain")


def test_09_density_proxy_roots_of_unity():
    d = dm.polydisc(1)
    for a in range(4):
        norm2 = float(dm.moment(d, (a,), 2))
        prev = math.inf
        final = None
        for k in (1, 2, 4, 8, 16):
            pts = [(0.5 * np.exp(2j * math.pi * j / k),) for j in range(k)]
            res = kn.density_residual(d, (a,), pts)
            assert res >= 0.0
            assert res <= prev + 1e-12, (a, k, res, prev)
            prev = res
            final = res
        assert final < 1e-3 * norm2, (a, final, norm2)
    _announce(9, "kernel-span residuals shrink monotonically below 1e-3")


def test_10_cli_determinism(capsys):
    argvs = [
        ["indices", "hartogs:1/1"],
        ["thresholds", "hartogs:1/1", "--window", "6", "--plo", "1",
         "--phi", "5"],
        ["index-set", "hartogs:3/2", "--p", "5/2", "--window", "4"],
        ["info", "ball:2"],
        ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "5"],
    ]
    for argv in argvs:
        outputs = set()
        for threads in ("1", "4", "8"):
            for _repeat in range(2):
                code = cli.run(argv + ["--threads", threads, "--seed", "11"])
                captured = capsys.readouterr()
                assert code == 0
                json.loads(captured.out)  # well-formed
                outputs.add(captured.out)
        assert len(outputs) == 1, f"non-deterministic output for {argv}"
    _announce(10, "byte-identical JSON across repeats and thread counts")
