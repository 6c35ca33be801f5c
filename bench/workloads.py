"""The four workloads: seeded request generation, calls, and answer checks.

A request is pure data (``Request``): a kind, its parameters and a deadline,
so the same seed gives the same list.  ``prepare`` turns it into a job: the
package input objects are built there, at set-up, and the job's ``run`` makes
the public calls through a ``spans.Caller`` while its ``check`` compares the
answers with ``refs`` and raises ``Mismatch`` on any disagreement.

Sub-millisecond calls are grouped into fixed rows so that each request takes
a few milliseconds or more.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bergman_indices import cli
from bergman_indices import domains as dm
from bergman_indices import duality_projection as dp
from bergman_indices import index_sets as ix
from bergman_indices import kernel as kn
from bergman_indices import quadrature as qd
from bergman_indices.exact import QComplex

import refs

DEADLINE_S = 5.0
#: requests that take seconds on the seed get five times their seed time
HEAVY_DEADLINE_S = 40.0

#: nominal cost on a 2-vCPU machine, used only to size a run to --seconds;
#: the request list depends on (workload, seed, seconds) alone
EXACT_ROUND_S = 3.1
ORACLE_ROWS_PER_S = 300
LAURENT_TRIALS_PER_S = 44

TRIANGLES = refs.coprime_triangles(12)
#: exact_queries sends its request families in rounds.  Every round takes
#: window radii, exponents and CLI argvs that no other round of the run takes,
#: so no request, and no (domain, radius) lattice, comes twice in a run.  The
#: radius pools below hold MAX_EXACT_ROUNDS rounds (about 25 s); a longer
#: --seconds gets that many.
MAX_EXACT_ROUNDS = 8
THRESHOLD_RADII = range(2, 2 + MAX_EXACT_ROUNDS)
#: R rounds of index_report plus one `cli indices` per triangle; at least the
#: family-sufficient window m + n
REPORT_RADII = range(12, 13 + MAX_EXACT_ROUNDS)
INJECTIVITY_RADII = range(REPORT_RADII.stop, REPORT_RADII.stop + MAX_EXACT_ROUNDS)
P_LOS = (Fraction(1), Fraction(3, 2), Fraction(2))
P_HIS = tuple(Fraction(k, 2) for k in range(12, 19))
INJECTIVITY_PS = (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3), Fraction(4),
                  Fraction(6))
#: the test_10 commands, on triangles no other exact_queries request uses
CLI_TRIANGLES = [t for t in refs.coprime_triangles(16) if sum(t) > 12]
P_GRID = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
          Fraction(4))
ORACLE_DOMAINS = ("polydisc:2", "ball:2", "ball:3", "hartogs:1/1", "hartogs:3/2")
LAURENT_DOMAINS = ("polydisc:2", "ball:2", "hartogs:1/1")
KERNEL_DOMAINS = ("polydisc:1", "polydisc:2", "ball:2", "hartogs:1/1",
                  "hartogs:2/1", "hartogs:3/2")
KERNEL_WINDOW = 40
DENSITY_KS = (1, 2, 4, 8, 16)
CLI_COMMANDS = (
    ("info",),
    ("indices",),
    ("thresholds", "--window", "3", "--plo", "1", "--phi", "5"),
    ("index-set", "--p", "5/2", "--window", "4"),
)
GOLDEN = Path(__file__).with_name("golden_cli.json")


@dataclass(frozen=True)
class Request:
    kind: str
    params: tuple
    deadline_s: float = DEADLINE_S


class Mismatch(Exception):
    """The program's answer disagrees with the reference."""


class Guards:
    """Largest observed value of each named accuracy measure."""

    def __init__(self):
        self.worst: dict = {}

    def observe(self, name: str, value: float, limit: float | None = None) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), value)
        if limit is not None and not value <= limit:
            raise Mismatch(f"{name} = {value:.3g} exceeds {limit:g}")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _dyadic(rng, lo=-8, hi=8) -> Fraction:
    return Fraction(rng.randint(lo, hi), 8)


def _qsum(terms):
    """(re, im, alpha, gamma) tuples -> the package's mixed monomial sum."""
    return dp.MixedMonomialSum.make(
        [(QComplex(re, im), alpha, gamma) for re, im, alpha, gamma in terms])


def _laurent_terms(terms):
    """(re, im, alpha) tuples -> (re, im, alpha, 0) tuples."""
    return [(re, im, alpha, (0,) * len(alpha)) for re, im, alpha in terms]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, seconds: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, seconds)


def warmup_requests(workload: str, seed: int, timed) -> list:
    """Requests drawn from another seed's one-second list that neither come in
    the timed list nor scan a (domain, radius) lattice of it: one per kind
    (per domain for kernel_pairs, whose series are cached per domain), the
    smallest by repr.  The cold series build is never warmed."""
    taken = set(timed)
    boxes = {box for req in timed for box in lattices(req)}
    chosen: dict = {}
    for req in generate(workload, seed + 7919, 1):
        if (req.kind == "cold_series" or req in taken
                or not boxes.isdisjoint(lattices(req))):
            continue
        key = (req.kind, req.params[0] if req.kind == "kernel_pairs" else "")
        if key not in chosen or repr(req.params) < repr(chosen[key].params):
            chosen[key] = req
    return [chosen[key] for key in sorted(chosen)]


def _distinct(rng, seen: set, draw):
    """A value of draw(rng) that is not in seen yet; it is added to seen."""
    value = draw(rng)
    while value in seen:
        value = draw(rng)
    seen.add(value)
    return value


def _shuffled(rng, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def _balanced(rng, values, count: int) -> list:
    """count of values in seeded order, each as often as the others to within
    one: the cost of a request can depend on them, the run's cost should not."""
    out: list = []
    while len(out) < count:
        out += _shuffled(rng, values)
    return out[:count]


def cli_argvs():
    """Every argv exact_queries can send through cli.run, without --threads."""
    argvs = [("indices", f"hartogs:{m}/{n}", "--window", str(r))
             for m, n in TRIANGLES for r in REPORT_RADII]
    argvs += [(cmd[0], f"hartogs:{m}/{n}") + cmd[1:] + ("--seed", "11")
              for cmd in CLI_COMMANDS for m, n in CLI_TRIANGLES]
    return argvs


def window_radii(dim: int) -> list:
    """Radii r of index_set_window on the dim-polydisc and dim-ball: 1, and
    every r whose box (2r+1)^dim has at most 2500 points."""
    return [r for r in range(1, 25) if r == 1 or (2 * r + 1) ** dim <= 2500]


def lattices(req) -> list:
    """The (domain, radius) boxes an exact_queries request scans.  The
    unbounded polydisc and ball reports scan none."""
    if req.kind == "index_report":
        return [item for item in req.params if item[0].startswith("hartogs")]
    if req.kind in ("thresholds", "index_set_window"):
        return [(req.params[0], req.params[-1])]
    if req.kind == "injectivity_row":
        return list(req.params[1])
    if req.kind == "cli" and req.params[0] != "info":
        spec, args = req.params[1], req.params[2:]
        if "--window" in args:
            return [(spec, int(args[args.index("--window") + 1]))]
        return [(spec, refs.default_window(refs.parse(spec)))]
    return []


def _gen_exact(rng, seconds):
    rounds = min(MAX_EXACT_ROUNDS, max(1, round(seconds / EXACT_ROUND_S)))
    out = []
    for m, n in TRIANGLES:
        spec = f"hartogs:{m}/{n}"
        crit = Fraction(2 * (m + n), m + n - 1)
        # the first `rounds` radii of each pool in seeded order: the run's
        # cost mix is the same for every seed
        reports = _shuffled(rng, REPORT_RADII[:rounds + 1])
        out += [Request("index_report", ((spec, r),)) for r in reports[:rounds]]
        out.append(Request("cli", ("indices", spec, "--window", str(reports[-1]))))
        out += [Request("thresholds", (spec, p_lo, p_hi, radius)) for p_lo, p_hi, radius
                in zip(_balanced(rng, P_LOS, rounds), _balanced(rng, P_HIS, rounds),
                       _shuffled(rng, THRESHOLD_RADII[:rounds]))]
        # near the critical exponent first, so that the random exponents,
        # drawn after them, can always avoid them
        near: set = set()
        sweeps = [[_distinct(rng, near, lambda r, e=e, s=s: crit + s * Fraction(
            r.randint(1, 9), 10 ** e)) for e in (1, 2, 3) for s in (-1, 1)]
            for _ in range(rounds)]
        seen = near | {crit}
        for ps in sweeps:
            ps += [_distinct(rng, seen, lambda r: Fraction(
                r.randint(50, 100 * int(crit) + 200), 100)) for _ in range(3)]
        sweeps[rng.randrange(rounds)].append(crit)
        out += [Request("ratio_sweep", (m, n, tuple(ps))) for ps in sweeps]
    injectivity = {t: _shuffled(rng, INJECTIVITY_RADII[:rounds]) for t in TRIANGLES}
    # the scan stops at its first witness, so its cost follows p
    rows = range(0, len(TRIANGLES), 15)
    ps = iter(_balanced(rng, INJECTIVITY_PS, rounds * len(rows)))
    for k in range(rounds):
        for start in rows:
            out.append(Request("injectivity_row", (next(ps), tuple(
                (f"hartogs:{m}/{n}", injectivity[m, n][k])
                for m, n in TRIANGLES[start:start + 15]))))
    # the unbounded verdicts are sub-millisecond: one row of six per round
    unbounded = [f"{fam}:{k}" for fam in ("polydisc", "ball") for k in (1, 2, 3)]
    out += [Request("index_report", tuple((spec, radius) for spec in unbounded))
            for radius in _shuffled(rng, REPORT_RADII[:rounds])]
    for fam in ("polydisc", "ball"):
        for k in range(1, 10):
            out += [Request("index_set_window", (f"{fam}:{k}",
                                                 Fraction(rng.randint(3, 16), 2), r))
                    for r in window_radii(k)[:rounds]]
    for spec in ("polydisc:2", "ball:2", "hartogs:1/1", "hartogs:3/2"):
        out += [Request("project_pairing_row",
                        (spec, _mixed_pairs(refs.parse(spec), rng, 16)))
                for _ in range(5 * rounds)]
    # the moment's cost grows with a1: each round's a1 comes from its own
    # slice of the band
    alphas: set = set()
    for band in (500, 1000, 2000, 4000):
        width = 2 * (band // 5) // rounds
        for k in _shuffled(rng, range(rounds)):
            lo = band - band // 5 + k * width
            alpha = _distinct(rng, alphas, lambda r: (
                r.randint(lo, lo + width - 1), r.randint(0, 3)))
            gamma = rng.choice(((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)))
            out.append(Request("ball_projection",
                               (alpha, gamma, _dyadic(rng, 1), _dyadic(rng))))
    queues = [_shuffled(rng, [(cmd[0], f"hartogs:{m}/{n}") + cmd[1:]
                              + ("--seed", "11") for m, n in CLI_TRIANGLES])
              for cmd in CLI_COMMANDS]
    for _ in range(3 * rounds):
        out += [Request("cli", queue.pop() + ("--threads", rng.choice("148")))
                for queue in queues]
    rng.shuffle(out)
    return out


def _random_mixed(d, rng, n_terms=2):
    """Square-integrable mixed sum of (re, im, alpha, gamma) terms."""
    terms = []
    while len(terms) < n_terms:
        if d.family == "hartogs":
            alpha = (rng.randint(0, 3), rng.randint(-2, 3))
        else:
            alpha = tuple(rng.randint(0, 3) for _ in range(d.dim))
        gamma = tuple(rng.randint(0, 2) for _ in range(d.dim))
        re, im = _dyadic(rng), _dyadic(rng)
        if (re or im) and refs.moment_finite(d, [2 * (a + g) for a, g in zip(alpha, gamma)]):
            terms.append((re, im, alpha, gamma))
    return tuple(terms)


def _as_terms(projected: dict):
    return [(re, im, delta, (0,) * len(delta))
            for delta, (re, im) in sorted(projected.items())]


def _mixed_pairs(d, rng, count):
    """(f, g) pairs whose identity <Bf, g> = <f, Bg> is absolutely integrable."""
    pairs = []
    while len(pairs) < count:
        f, g = _random_mixed(d, rng), _random_mixed(d, rng)
        if (refs.pairing(d, _as_terms(refs.project(d, f)), g) is not None
                and refs.pairing(d, f, _as_terms(refs.project(d, g))) is not None):
            pairs.append((f, g))
    return tuple(pairs)


def _gen_oracle(rng, seconds):
    # the domains take turns; each draws its alphas without repeats from the
    # smallest box max|alpha_i| <= reach (reach >= 6) that holds its share
    rows = max(1, seconds * ORACLE_ROWS_PER_S)
    share = -(-rows // len(ORACLE_DOMAINS))
    queues = {}
    for spec in ORACLE_DOMAINS:
        dim, reach = refs.parse(spec).dim, 6
        while (2 * reach + 1) ** dim < share:
            reach += 1
        queues[spec] = _shuffled(rng, refs.box(dim, reach))
    return [Request("oracle_row", (spec, queues[spec].pop()))
            for i in range(rows) for spec in (ORACLE_DOMAINS[i % len(ORACLE_DOMAINS)],)]


def laurent_shapes(d):
    """The test_08 exponent shapes inside L^4: single exponents alpha, and
    pairs (alpha, beta) with beta = max(alpha, 0) + {0, 1, 2} per axis."""
    if d.family == "hartogs":
        alphas = [(a1, a2) for a1 in range(3) for a2 in range(-1, 3)]
    else:
        alphas = list(itertools.product(range(3), repeat=d.dim))
    alphas = [a for a in alphas if refs.member(d, a, 4)]
    pairs = [(a, b) for a in alphas
             for b in itertools.product(*(range(max(x, 0), max(x, 0) + 3) for x in a))
             if b != a and refs.member(d, b, 4)]
    return [(a,) for a in alphas], pairs


def laurent_sum(shape, rng):
    """Seeded dyadic coefficients on an exponent shape: (re, im, alpha) terms."""
    terms = [(_dyadic(rng, 1), _dyadic(rng), shape[0])]
    for alpha in shape[1:]:
        re, im = 0, 0
        while not (re or im):
            re, im = _dyadic(rng), _dyadic(rng)
        terms.append((re, im, alpha))
    return tuple(terms)


def _gen_laurent(rng, seconds):
    # per domain and kind of trial, every shape (as f and as g), p, q and
    # theta comes up equally often, in seeded order, so the cost mix (the
    # mesh sizes follow the exponents) is the same for every seed
    shapes = {spec: laurent_shapes(refs.parse(spec)) for spec in LAURENT_DOMAINS}
    ps = [Fraction(k, 4) for k in range(9, 16)]
    qs = [Fraction(k, 4) for k in range(5, 8)]
    thetas = [Fraction(k, 8) for k in range(1, 8)]
    queues: dict = {}

    def draw(key, values):
        queue = queues.setdefault(key, [])
        if not queue:
            queue += values
            rng.shuffle(queue)
        return queue.pop()

    out, exact = [], []
    for trial in range(max(1, seconds * LAURENT_TRIALS_PER_S)):
        spec = LAURENT_DOMAINS[trial % len(LAURENT_DOMAINS)]
        single = trial % 5 < 2
        key = (spec, single)
        f = laurent_sum(draw(key + ("f",), shapes[spec][0 if single else 1]), rng)
        g = laurent_sum(draw(key + ("g",), shapes[spec][0 if single else 1]), rng)
        p, q = draw(key + ("p",), ps), draw(key + ("q",), qs)
        theta = draw(key + ("theta",), thetas)
        calls = [("lyapunov", (spec, f, p, q, theta)), ("holder", (spec, f, g, p)),
                 ("lp4", (spec, f))]
        if trial % 5 == 4:
            # even endpoints, where the shared-mesh norms have closed forms
            calls.append(("lyapunov", (spec, f, Fraction(4), Fraction(2), theta)))
        if not single:
            out += [Request(kind, params) for kind, params in calls]
            continue
        # single monomials have exact norms and sub-millisecond calls: rows of 6
        exact += calls
        if len(exact) == 18:
            out.append(Request("row", tuple(exact)))
            exact = []
    if exact:
        out.append(Request("row", tuple(exact)))
    return out


def _sample_point(d, rng, max_mod=0.6):
    """Interior point with moduli below max_mod.  On the triangle the series
    in (w1 conj z1, w2 conj z2) converges at the rate |z1 w1| / |z2 w2|^(n/m),
    so |z1| <= 0.6 |z2|^(n/m) keeps that rate at most 0.36 and the window-40
    tail far below the 1e-8 kernel check."""
    phases = [cmath.exp(2j * math.pi * rng.random()) for _ in range(d.dim)]
    if d.family == "polydisc":
        radii = [max_mod * rng.random() for _ in range(d.dim)]
    elif d.family == "ball":
        raw = [rng.random() for _ in range(d.dim)]
        scale = max(1.0, math.sqrt(sum(r * r for r in raw)) / max_mod)
        radii = [0.999 * r / scale for r in raw]
    else:
        r2 = 0.2 + (max_mod - 0.2) * rng.random()
        power = d.n / d.m
        radii = [0.6 * r2 ** power * rng.random(), r2]
    return tuple(r * ph for r, ph in zip(radii, phases))


def _gen_kernel(rng, _seconds):
    out = []
    for spec in KERNEL_DOMAINS:
        d = refs.parse(spec)
        pairs = [(_sample_point(d, rng), _sample_point(d, rng)) for _ in range(50)]
        # single polydisc:1 evaluations are sub-millisecond: rows of 25
        size = 25 if spec == "polydisc:1" else 1
        out += [Request("kernel_pairs", (spec, tuple(pairs[i:i + size])))
                for i in range(0, len(pairs), size)]
    for alpha in range(4):
        for _ in range(2):
            out.append(Request("density_sweep", (
                alpha, 0.45 + 0.1 * rng.random(), 2 * math.pi * rng.random())))
    z_pd1 = _sample_point(refs.parse("polydisc:1"), rng)
    z_pd2 = tuple(0.2 + 0.3 * rng.random() for _ in range(2))
    out += [Request("pnorm", ("hartogs:1/1", (0j, 0.5 + 0j), p, KERNEL_WINDOW))
            for p in (Fraction(2), Fraction(3), Fraction(7, 2), Fraction(9, 2),
                      Fraction(5))]
    out += [Request("pnorm", ("polydisc:1", z_pd1, Fraction(2), KERNEL_WINDOW)),
            Request("pnorm", ("polydisc:2", z_pd2, Fraction(2), KERNEL_WINDOW)),
            Request("pnorm", ("hartogs:2/1", (0j, 0.5 + 0j), Fraction(5, 2),
                              KERNEL_WINDOW), HEAVY_DEADLINE_S)]
    ball3 = refs.parse("ball:3")
    out.append(Request("cold_series", (_sample_point(ball3, rng, 0.35),
                                       _sample_point(ball3, rng, 0.35)),
                       HEAVY_DEADLINE_S))
    # the known stall of the seed: the series-fallback p-norm ladder on H(2, 1)
    out.append(Request("pnorm", ("hartogs:2/1", (0.05 + 0j, 0.5 + 0j),
                                 Fraction(3), 20)))
    # interleave, so the light requests sample the whole run
    rng.shuffle(out)
    return out


GENERATORS = {"exact_queries": _gen_exact, "moment_oracle": _gen_oracle,
              "laurent_norms": _gen_laurent, "kernel_sections": _gen_kernel}
WORKLOADS = tuple(GENERATORS)


# ---------------------------------------------------------------------------
# jobs: (run(call) -> answer, check(answer, guards))
# ---------------------------------------------------------------------------

def prepare(req: Request):
    return JOBS[req.kind](*req.params)


def _box_points(radius: int, dim: int) -> int:
    return (2 * radius + 1) ** dim


def _job_index_report(*items):
    calls = [(dm.parse_domain(spec), radius, {
        "domain": spec, "points": _box_points(radius, refs.parse(spec).dim)})
        for spec, radius in items]

    def run(call):
        return [call("index_sets", "index_report", ix.index_report, d, radius,
                     attrs=attrs) for d, radius, attrs in calls]

    def check(reports, _guards):
        for (spec, _), rep in zip(items, reports):
            values = refs.index_values(refs.parse(spec))
            for name, want in zip(("duality_bound", "regularity_probe",
                                   "beta_upper"), values):
                got = getattr(rep, name)
                if want is None:
                    _expect(got.kind == "unbounded", f"{spec} {name}: {got}")
                else:
                    _expect((got.kind, got.value) == ("exact", want),
                            f"{spec} {name}: {got} != {want}")
            for wit, role in rep.witnesses:
                if role == "projection_witness_alpha_gamma":
                    delta = tuple(a - g for a, g in zip(*wit))
                    _expect(refs.critical_exponent(refs.parse(spec), delta)
                            == values[1], f"{spec}: witness {wit} is not critical")
    return run, check


def _job_thresholds(spec, p_lo, p_hi, radius):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    attrs = {"points": _box_points(radius, ref.dim)}

    def run(call):
        return call("index_sets", "thresholds", ix.thresholds, d, p_lo, p_hi,
                    radius, attrs=attrs)

    def check(ts, _guards):
        got = [(t.value, tuple(t.witness)) for t in ts]
        _expect(got == refs.thresholds(ref, p_lo, p_hi, radius),
                f"{spec} thresholds {got}")
    return run, check


def _job_index_set_window(spec, p, radius):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    attrs = {"points": _box_points(radius, ref.dim)}

    def run(call):
        return call("index_sets", "index_set_window", ix.index_set_window, d, p,
                    radius, attrs=attrs)

    def check(window, _guards):
        _expect(list(window.members) == refs.window_members(ref, p, radius),
                f"{spec} window at p={p}, radius {radius}")
    return run, check


def _job_injectivity_row(p, items):
    doms = [(dm.parse_domain(spec), radius) for spec, radius in items]

    def run(call):
        return [call("duality_projection", "injectivity_witness_scan",
                     dp.injectivity_witness_scan, d, p, radius) for d, radius in doms]

    def check(found, _guards):
        for (spec, radius), got in zip(items, found):
            want = refs.injectivity_witness(refs.parse(spec), p, radius)
            _expect(got == want, f"{spec} injectivity at p={p}: {got} != {want}")
    return run, check


def _job_project_pairing_row(spec, pairs):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    sums = [(_qsum(f), _qsum(g)) for f, g in pairs]

    def run(call):
        out = []
        for f, g in sums:
            bf = call("duality_projection", "project", dp.project, d, f)
            bg = call("duality_projection", "project", dp.project, d, g)
            out.append((bf, bg,
                        call("duality_projection", "pairing", dp.pairing, d, bf, g),
                        call("duality_projection", "pairing", dp.pairing, d, f, bg)))
        return out

    def check(answers, _guards):
        for (f, g), (bf, bg, bf_g, f_bg) in zip(pairs, answers):
            for terms, got in ((f, bf), (g, bg)):
                want = refs.project(ref, terms)
                _expect({delta: (q.re, q.im) for q, delta, _ in got.terms} == want,
                        f"{spec} projection of {terms}")
            _expect(bf_g == f_bg, f"{spec}: <Bf, g> != <f, Bg>")
            want = refs.pairing(ref, _as_terms(refs.project(ref, f)), g)
            _expect(abs(complex(bf_g) - want) <= 1e-9 * max(1.0, abs(want)),
                    f"{spec}: <Bf, g> = {complex(bf_g)} != {want}")
    return run, check


def _job_ratio_sweep(m, n, ps):
    d, ref = dm.hartogs(m, n), refs.parse(f"hartogs:{m}/{n}")
    alpha, gamma = refs.critical_witness(m, n)

    def run(call):
        return [call("duality_projection", "projection_ratio", dp.projection_ratio,
                     d, alpha, gamma, p) for p in ps]

    def check(ratios, _guards):
        for p, got in zip(ps, ratios):
            divergent, value = refs.projection_ratio(ref, alpha, gamma, p)
            _expect(got.divergent == divergent, f"H({m},{n}) ratio verdict at p={p}")
            if not divergent:
                _expect(_rel(got.ratio, value) <= 1e-10,
                        f"H({m},{n}) ratio at p={p}: {got.ratio} != {value}")
    return run, check


def _job_ball_projection(alpha, gamma, re, im):
    d, ref = dm.ball(2), refs.parse("ball:2")
    f = _qsum([(re, im, alpha, gamma)])

    def run(call):
        norm = call("domains", "moment", dm.moment, d, alpha, 2)
        return norm, call("duality_projection", "project", dp.project, d, f)

    def check(answer, _guards):
        norm, bf = answer
        value = norm.value
        _expect(value is not None and value.key() == (4, (), ())
                and value.coeff == refs.ball_moment_coeff(alpha),
                f"ball:2 moment of z^{alpha}")
        want = refs.project(ref, [(re, im, alpha, gamma)])
        _expect({delta: (q.re, q.im) for q, delta, _ in bf.terms} == want,
                f"ball:2 projection of z^{alpha} conj(z)^{gamma}")
    return run, check


def run_cli(argv):
    """cli.run in process, returning (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_key(argv) -> str:
    """The argv without its --threads option, which must not change stdout."""
    if "--threads" in argv:
        at = argv.index("--threads")
        argv = argv[:at] + argv[at + 2:]
    return " ".join(argv)


@functools.cache
def golden_digests() -> dict:
    """SHA-256 of the seed's stdout for every argv of ``cli_argvs``."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def record_golden() -> None:
    """Rewrite golden_cli.json from the package on sys.path.

        PYTHONPATH=src:bench python3 -c "import workloads; workloads.record_golden()"
    """
    digests = {}
    for argv in cli_argvs():
        code, text = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"cli {' '.join(argv)} exited {code}")
        digests[golden_key(argv)] = stdout_digest(text)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


def _job_cli(*argv):
    key = golden_key(argv)
    want = golden_digests().get(key)
    attrs = {"indices": argv[1]} if argv[0] == "indices" and "--window" in argv else {}

    def run(call):
        return call("cli", "run", run_cli, argv, attrs=attrs)

    def check(answer, _guards):
        code, text = answer
        _expect(code == 0, f"cli {key}: exit {code}")
        _expect(stdout_digest(text) == want, f"cli {key}: stdout differs from golden")
        if attrs:
            result = json.loads(text)["result"]
            values = refs.index_values(refs.parse(argv[1]))
            _expect(result["regularity_probe"]["value"] == str(values[1]),
                    f"cli {key}: regularity {result['regularity_probe']}")
    return run, check


def _job_oracle_row(spec, alpha):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    mono = qd.MonomialSumIntegrand([(1.0, alpha, (0,) * d.dim)])
    cfg = qd.QuadConfig()
    items = [(p, qd.AbsPowerIntegrand(mono, p)) for p in P_GRID]

    def run(call):
        out = []
        for p, integrand in items:
            m = call("domains", "moment", dm.moment, d, alpha, p)
            if m.is_finite:
                out.append((p, m, call("quadrature", "integrate", qd.integrate, d,
                                       integrand, cfg)))
            else:
                probe = call("quadrature", "divergence_probe", qd.divergence_probe,
                             d, mono, p, cfg)
                call.note(levels=len(probe.sequence))
                out.append((p, m, probe))
        return out

    def check(rows, guards):
        for p, m, answer in rows:
            want = refs.moment_value(ref, [p * a for a in alpha])
            where = f"{spec} alpha={alpha} p={p}"
            _expect(m.is_finite == (want is not None), f"{where}: finiteness")
            if want is None:
                _expect(answer.diverging, f"{where}: probe did not diverge")
                continue
            _expect(_rel(float(m), want) <= 1e-11, f"{where}: exact moment")
            guards.observe("quadrature.integrate.max_rel_err",
                           _rel(answer.value, want), 1e-8)
            guards.observe("quadrature.integrate.max_rel_err_est",
                           answer.error_estimate / abs(answer.value))
    return run, check


def _job_lyapunov(spec, f, p, q, theta):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    fs = _qsum(_laurent_terms(f))
    terms = [(complex(re, im), alpha) for re, im, alpha in f]
    r = 1 / ((1 - theta) / p + theta / q)
    lhs, norm_p, norm_q = (refs.lp_norm(ref, terms, e) for e in (r, p, q))

    def run(call):
        return call("duality_projection", "lyapunov_check", dp.lyapunov_check, d,
                    fs, p, q, theta)

    def check(chk, guards):
        _expect(chk.holds, f"{spec} log-convexity fails for {f} at {p}, {q}, {theta}")
        # the verdict alone cannot catch a mesh error, which cancels in it
        if norm_p is not None and norm_q is not None:
            rhs = norm_p ** float(1 - theta) * norm_q ** float(theta)
            guards.observe("quadrature.lp_norm.max_rel_err", _rel(chk.rhs, rhs), 1e-8)
        if lhs is not None and len(f) == 1:
            guards.observe("quadrature.lp_norm.max_rel_err", _rel(chk.lhs, lhs), 1e-8)
        elif lhs is not None:
            # reported only: where r = 2 lies between p and q that are not
            # even, the shared mesh reads ||f||_2 up to 2.1e-8 off on ball:2
            guards.observe("duality_projection.lyapunov_check.max_rel_err",
                           _rel(chk.lhs, lhs))
    return run, check


def _job_holder(spec, f, g, p):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    fs, gs = _qsum(_laurent_terms(f)), _qsum(_laurent_terms(g))

    def run(call):
        return call("duality_projection", "holder_check", dp.holder_check, d, fs,
                    gs, p)

    def check(chk, _guards):
        _expect(chk.holds, f"{spec} Hoelder fails for {f}, {g} at p={p}")
        want = abs(refs.pairing(ref, _laurent_terms(f), _laurent_terms(g)))
        _expect(abs(chk.lhs - want) <= 1e-9 * max(1.0, want),
                f"{spec} |<f, g>| = {chk.lhs} != {want}")
    return run, check


def _job_lp4(spec, f):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    integrand = _qsum(_laurent_terms(f)).as_integrand()
    want = refs.lp_norm(ref, [(complex(re, im), alpha) for re, im, alpha in f], 4)

    def run(call):
        return call("quadrature", "lp_norm", qd.lp_norm, d, integrand, 4)

    def check(value, guards):
        guards.observe("quadrature.lp_norm.max_rel_err", _rel(value, want), 1e-8)
    return run, check


def _job_kernel_pairs(spec, pairs):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    closed = ref.family != "hartogs" or (ref.m, ref.n) == (1, 1)
    attrs = {"terms": refs.kernel_series_terms(ref, KERNEL_WINDOW)}

    def run(call):
        out = []
        for z, w in pairs:
            series = call("kernel", "kernel_truncated", kn.kernel_truncated, d, z, w,
                          KERNEL_WINDOW, attrs=attrs)
            out.append((series, call("kernel", "kernel_closed_form",
                                     kn.kernel_closed_form, d, z, w)
                        if closed else None))
        return out

    def check(values, guards):
        for (z, w), (series, closed_value) in zip(pairs, values):
            want = refs.kernel(ref, z, w)
            guards.observe("kernel.max_rel_err", _rel(series, want), 1e-8)
            if closed_value is not None:
                guards.observe("kernel.max_rel_err", _rel(closed_value, want), 1e-8)
    return run, check


def _job_density_sweep(alpha, radius, phase):
    d = dm.polydisc(1)
    point_sets = [[(radius * cmath.exp(1j * (phase + 2 * math.pi * j / k)),)
                   for j in range(k)] for k in DENSITY_KS]
    norm2 = math.pi / (alpha + 1)

    def run(call):
        return [call("kernel", "density_residual", kn.density_residual, d, (alpha,),
                     pts) for pts in point_sets]

    def check(residuals, _guards):
        for pts, got in zip(point_sets, residuals):
            want = refs.density_residual(alpha, [pt[0] for pt in pts])
            _expect(abs(got - want) <= 1e-9 * norm2,
                    f"density alpha={alpha} k={len(pts)}: {got} != {want}")
        _expect(all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:])),
                f"density alpha={alpha}: residuals not monotone")
        _expect(residuals[-1] < 1e-3 * norm2, f"density alpha={alpha}: final residual")
    return run, check


def _job_pnorm(spec, z, p, radius):
    d, ref = dm.parse_domain(spec), refs.parse(spec)
    crit = refs.index_values(ref)[2]

    def run(call):
        est = call("kernel", "kernel_pnorm_estimate", kn.kernel_pnorm_estimate, d, z,
                   p, radius)
        call.note(levels=len(est.sequence))
        return est

    def check(est, guards):
        diverging = crit is not None and p >= crit
        _expect(est.diverging == diverging,
                f"{spec} ||K(., {z})||_{p}: diverging={est.diverging}")
        if p == 2:
            want = math.sqrt(abs(refs.kernel(ref, z, z)))
            guards.observe("kernel.max_rel_err", _rel(est.value, want), 1e-8)
    return run, check


def _job_cold_series(z, w):
    d, ref = dm.ball(3), refs.parse("ball:3")
    attrs = {"cold": True}

    def run(call):
        return call("kernel", "kernel_truncated", kn.kernel_truncated, d, z, w, 20,
                    attrs=attrs)

    def check(value, guards):
        guards.observe("kernel.max_rel_err", _rel(value, refs.kernel(ref, z, w)), 1e-8)
    return run, check


def _job_row(*items):
    jobs = [JOBS[kind](*params) for kind, params in items]

    def run(call):
        return [job_run(call) for job_run, _ in jobs]

    def check(answers, guards):
        for (_, job_check), answer in zip(jobs, answers):
            job_check(answer, guards)
    return run, check


JOBS = {
    "index_report": _job_index_report, "thresholds": _job_thresholds,
    "index_set_window": _job_index_set_window,
    "injectivity_row": _job_injectivity_row,
    "project_pairing_row": _job_project_pairing_row,
    "ratio_sweep": _job_ratio_sweep, "ball_projection": _job_ball_projection,
    "cli": _job_cli, "oracle_row": _job_oracle_row, "lyapunov": _job_lyapunov,
    "holder": _job_holder, "lp4": _job_lp4, "kernel_pairs": _job_kernel_pairs,
    "density_sweep": _job_density_sweep, "pnorm": _job_pnorm,
    "cold_series": _job_cold_series, "row": _job_row,
}
