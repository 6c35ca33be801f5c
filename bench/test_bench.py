"""Self-tests of the benchmark: determinism, references, golden CLI digests.

    python3 -m pytest bench -q
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from bergman_indices import domains as dm  # noqa: E402
from bergman_indices import duality_projection as dp  # noqa: E402
from bergman_indices import index_sets as ix  # noqa: E402
from bergman_indices import kernel as kn  # noqa: E402
from bergman_indices import quadrature as qd  # noqa: E402

SMALL = ["polydisc:1", "polydisc:2", "ball:2", "ball:3", "hartogs:1/1",
         "hartogs:2/1", "hartogs:3/2", "hartogs:1/4"]
P_VALUES = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(8, 3), Fraction(4),
            Fraction(9, 2)]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = wl.generate(workload, 5, BENCHMARK["run_seconds"])
    assert first == wl.generate(workload, 5, BENCHMARK["run_seconds"])
    assert first != wl.generate(workload, 6, BENCHMARK["run_seconds"])
    assert len(first) >= 150


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_request_repeats(workload):
    requests = wl.generate(workload, 5, BENCHMARK["run_seconds"])
    assert len(set(requests)) == len(requests)


def test_exact_queries_scan_each_lattice_once():
    for seconds in (4, BENCHMARK["run_seconds"], 60):
        boxes = [box for req in wl.generate("exact_queries", 5, seconds)
                 for box in wl.lattices(req)]
        assert len(set(boxes)) == len(boxes)
        assert all(radius >= refs.default_window(refs.parse(spec))
                   for req in wl.generate("exact_queries", 5, seconds)
                   if req.kind == "index_report" for spec, radius in req.params)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_warmup_is_outside_the_timed_list(workload):
    timed = wl.generate(workload, 5, 4)
    warm = wl.warmup_requests(workload, 5, timed)
    assert warm and not set(warm) & set(timed)
    assert not ({box for req in warm for box in wl.lattices(req)}
                & {box for req in timed for box in wl.lattices(req)})
    assert all(req.kind != "cold_series" for req in warm)
    assert warm == wl.warmup_requests(workload, 5, timed)


def test_laurent_inputs_are_exact_l4_members():
    requests = wl.generate("laurent_norms", 3, 2)
    calls = [(r.kind, r.params) for r in requests if r.kind != "row"]
    calls += [item for r in requests if r.kind == "row" for item in r.params]
    assert {kind for kind, _ in calls} == {"lyapunov", "holder", "lp4"}
    for kind, params in calls:
        d = dm.parse_domain(params[0])
        for terms in params[1:3 if kind == "holder" else 2]:
            assert all(ix.member(d, alpha, 4) for _re, _im, alpha in terms)


def test_membership_and_moments_match_the_package():
    rng = random.Random(1)
    for spec in SMALL:
        d, ref = dm.parse_domain(spec), refs.parse(spec)
        for alpha in refs.box(ref.dim, 3):
            for p in P_VALUES:
                assert refs.member(ref, alpha, p) == ix.member(d, alpha, p)
        for _ in range(50):
            c = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(ref.dim)]
            want = dm.radial_moment(d, c)
            got = refs.moment_value(ref, c)
            assert (got is None) == (not want.is_finite)
            if got is not None:
                assert math.isclose(got, float(want), rel_tol=1e-12)


def test_indices_and_thresholds_match_the_package():
    for spec in SMALL + ["hartogs:5/7", "hartogs:1/11"]:
        d, ref = dm.parse_domain(spec), refs.parse(spec)
        rep = ix.index_report(d)
        for got, want in zip((rep.duality_bound, rep.regularity_probe,
                              rep.beta_upper), refs.index_values(ref)):
            assert got == (ix.IndexValue.unbounded() if want is None
                           else ix.IndexValue.exact(want))
        got = [(t.value, tuple(t.witness)) for t in ix.thresholds(d, 1, 8, 4)]
        assert got == refs.thresholds(ref, 1, 8, 4)
        for p in (2, Fraction(5, 2), 4):
            assert (dp.injectivity_witness_scan(d, p, 5)
                    == refs.injectivity_witness(ref, p, 5))
            assert (list(ix.index_set_window(d, p, 3).members)
                    == refs.window_members(ref, p, 3))


def test_projection_pairing_and_ratio_match_the_package():
    rng = random.Random(2)
    for spec in ("polydisc:2", "ball:2", "ball:3", "hartogs:1/1", "hartogs:3/2"):
        d, ref = dm.parse_domain(spec), refs.parse(spec)
        for f, g in wl._mixed_pairs(ref, rng, 20):
            bf = dp.project(d, wl._qsum(f))
            assert ({delta: (q.re, q.im) for q, delta, _ in bf.terms}
                    == refs.project(ref, f))
            want = refs.pairing(ref, f, g)
            assert abs(complex(dp.pairing(d, wl._qsum(f), wl._qsum(g))) - want) \
                <= 1e-12 * max(1.0, abs(want))
    ball2 = refs.parse("ball:2")
    for a in (1, 5, 40):
        assert refs.projection_coeff(ball2, (a, 0), (1, 0)) == Fraction(a, a + 2)
    for m, n in refs.coprime_triangles(8):
        alpha, gamma = refs.critical_witness(m, n)
        crit = refs.index_values(refs.parse(f"hartogs:{m}/{n}"))[1]
        for p in (crit - Fraction(1, 7), crit, crit + 1):
            got = dp.projection_ratio(dm.hartogs(m, n), alpha, gamma, p)
            divergent, value = refs.projection_ratio(
                refs.parse(f"hartogs:{m}/{n}"), alpha, gamma, p)
            assert got.divergent == divergent == (p >= crit)
            if not divergent:
                assert math.isclose(got.ratio, value, rel_tol=1e-12)


def test_even_norm_identity_matches_the_package():
    rng = random.Random(3)
    for spec in wl.LAURENT_DOMAINS:
        d, ref = dm.parse_domain(spec), refs.parse(spec)
        singles, pairs = wl.laurent_shapes(ref)
        for shape in singles[:1] + rng.sample(pairs, 3):
            f = wl.laurent_sum(shape, rng)
            fs = wl._qsum(wl._laurent_terms(f))
            want = refs.lp4_norm(ref, [(complex(re, im), a) for re, im, a in f])
            square = dp.laurent([(q * q2, tuple(x + y for x, y in zip(a, a2)))
                                 for q, a, _ in fs.terms for q2, a2, _ in fs.terms])
            assert math.isclose(dp.laurent_norm(d, square, 2) ** 0.5, want,
                                rel_tol=1e-13)
            assert math.isclose(qd.lp_norm(d, fs.as_integrand(), 4), want,
                                rel_tol=1e-8)
            terms = [(complex(re, im), a) for re, im, a in f]
            assert refs.lp_norm(ref, terms, 4) == want
            assert math.isclose(refs.lp_norm(ref, terms, 2),
                                dp.laurent_norm(d, fs, 2), rel_tol=1e-12)
            single = wl._qsum(wl._laurent_terms(f[:1]))
            assert math.isclose(refs.lp_norm(ref, terms[:1], Fraction(5, 2)),
                                dp.laurent_norm(d, single, Fraction(5, 2)),
                                rel_tol=1e-12)
            assert (refs.lp_norm(ref, terms, 3) is None) == (len(terms) > 1)


def test_triangle_pairs_keep_the_series_rate_small():
    # a rate near 0.6 left a window-40 tail of 1.2e-8 on hartogs:2/1
    rng = random.Random(8)
    for spec in ("hartogs:1/1", "hartogs:2/1", "hartogs:3/2"):
        ref = refs.parse(spec)
        for _ in range(2000):
            z, w = wl._sample_point(ref, rng), wl._sample_point(ref, rng)
            rate = abs(z[0] * w[0]) / abs(z[1] * w[1]) ** (ref.n / ref.m)
            assert rate <= 0.36


def test_kernels_match_the_package():
    rng = random.Random(4)
    for spec in wl.KERNEL_DOMAINS + ("ball:3",):
        d, ref = dm.parse_domain(spec), refs.parse(spec)
        for _ in range(5):
            z, w = wl._sample_point(ref, rng), wl._sample_point(ref, rng)
            want = refs.kernel(ref, z, w)
            if ref.family != "hartogs" or (ref.m, ref.n) == (1, 1):
                assert abs(kn.kernel_closed_form(d, z, w) - want) <= 1e-12 * abs(want)
            if spec != "ball:3":
                assert abs(kn.kernel_truncated(d, z, w, 40) - want) <= 1e-9 * abs(want)
        assert refs.kernel_series_terms(ref, 6) == len(kn.kernel_series(d, 6).terms)
    for alpha in range(4):
        pts = [0.5 * complex(math.cos(t), math.sin(t))
               for t in (2 * math.pi * j / 8 for j in range(8))]
        got = kn.density_residual(dm.polydisc(1), (alpha,), [(p,) for p in pts])
        assert abs(got - refs.density_residual(alpha, pts)) <= 1e-12


def test_golden_cli_digests_match_the_package():
    golden = wl.golden_digests()
    assert set(golden) == {wl.golden_key(argv) for argv in wl.cli_argvs()}
    sent = [req.params for req in wl.generate("exact_queries", 1,
                                              BENCHMARK["run_seconds"])
            if req.kind == "cli"]
    assert {wl.golden_key(argv) for argv in sent} <= set(golden)
    for argv in wl.cli_argvs():
        code, text = wl.run_cli(argv)
        assert code == 0 and wl.stdout_digest(text) == golden[wl.golden_key(argv)]
    for argv in sent[:12]:
        assert wl.stdout_digest(wl.run_cli(argv)[1]) == golden[wl.golden_key(argv)]


def test_deadline_stops_a_stalled_request():
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)

    def stall(call):
        while True:
            time.sleep(0.01)

    req = wl.Request("stall", (), 0.2)
    outcome, latency, _ = run.execute(req, (stall, None), spans.Caller(False),
                                      wl.Guards())
    assert (outcome, latency) == ("deadline", 0.2)


def test_emitted_metric_names_match_benchmark_json():
    outcomes = [("ok", 0.01, ""), ("deadline", 5.0, "")]
    e2e = run.end_to_end(outcomes, 1.0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = run.per_layer([], wl.Guards(), 1.0, 0.0)
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert spec["unit"] == (e2e.get(spec["name"]) or layer[spec["name"]])[1]


def test_span_union_and_cost():
    assert spans.covered_s([{"start": 0, "end": 2}, {"start": 1, "end": 3},
                            {"start": 5, "end": 6}]) == 4
    assert 0 <= spans.span_cost_s(2000) < 1e-4
