"""Command-line front end.

Subcommands: info, index-set, thresholds, indices, kernel, density, project,
probe, verify.  Each takes --seed and --threads plus only the flags its
handler reads, 43 in all (README "CLI" has the table); kernel --pnorm runs
at the default ``QuadConfig()`` budget, with no quadrature flag.  --format
exists only for density and probe (csv | json) and verify (table | json),
and everything else prints a JSON report under the envelope

    {"schema": "bergman-indices/1", "version": ..., "command": ...,
     "seed": ..., "domain": ..., "result": {...}}

with exact rationals as "num/den" strings and pi powers kept symbolic.
Reports carry no timestamps or thread counts, so identical arguments and
seed give byte-identical stdout; timing goes to stderr.  Inputs are capped
so that no short argv runs without bound.  The grammar is built once per
process.  ``run`` parses the domain, or verify's list, for the handler; it
is the one place errors become exit codes, read from the error class
(``errors``), so a rejected argv exits 2; and it prints each warning as one
stderr line, ``warning: ...``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys
import time
import warnings
from fractions import Fraction

from . import __version__
from . import domains as dm
from . import duality_projection as dp
from . import index_sets as ix
from . import kernel as kn
from . import verify as vf
from .errors import BergmanError, NotIntegrable, ParseError
from .exact import format_fraction, parse_fraction
from .quadrature import QuadConfig

SCHEMA_ID = "bergman-indices/1"
DEFAULT_SEED = 20240901
# input caps; a ball moment of z^alpha at exponent p folds Gamma products of
# size p * sum|alpha_i| / 2: probe bounds p, |alpha_i| and (ball) that size
MAX_EXPONENT = 1000  # |alpha_i| and gamma_i of a monomial
MAX_PROBE_P = 64
MAX_PROBE_STEPS = 256
MAX_DENSITY_POINTS = 256  # per Gram matrix, from --ks or --points
# above this dimension a kernel p-norm at z != 0 meets six-axis meshes and has
# no work bound; at z = 0 the section is constant and answers in seconds
MAX_PNORM_DIM = 2


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{name}: expected an integer, got {text!r}") from None


def _exponents(values, name: str) -> tuple:
    """Monomial exponents: integers of size at most MAX_EXPONENT."""
    if not all(type(e) is int for e in values):
        raise ParseError(f"{name}: exponents must be integers, got {values!r}")
    if any(abs(e) > MAX_EXPONENT for e in values):
        raise ParseError(f"{name}: exponents must lie in "
                         f"[-{MAX_EXPONENT}, {MAX_EXPONENT}], got {values!r}")
    return tuple(values)


def _parse_exponents(text: str, name: str) -> tuple:
    """A comma-separated multi-index."""
    return _exponents([_parse_int(part, name) for part in text.split(",")], name)


def _parse_point(text: str, dim: int):
    parts = text.split(",")
    if len(parts) != dim:
        raise ParseError(f"point {text!r} needs {dim} comma-separated components")
    try:
        return tuple(complex(part.strip().replace(" ", "")) for part in parts)
    except ValueError as exc:
        raise ParseError(f"malformed point {text!r}: {exc}") from None


def _emit(args, domain, result: dict) -> None:
    report = {
        "schema": SCHEMA_ID,
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "domain": domain.spec_string() if domain is not None else None,
        "result": result,
    }
    print(json.dumps(report, indent=2))


def _emit_rows(args, domain, head: dict, columns, rows) -> None:
    """A row table as a JSON report (``head`` plus "rows") or as CSV."""
    if args.format == "json":
        _emit(args, domain,
              {**head, "rows": [dict(zip(columns, row)) for row in rows]})
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(map(str, row)))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_info(args, d) -> int:
    vol = dm.volume(d)
    _emit(args, d, {
        "family": d.family.value,
        "dim": d.dim,
        "axis_meets_hyperplane": list(d.axis_meets_hyperplane),
        "volume": {"exact": vol.value.as_dict(), "float": float(vol)},
    })
    return 0


def cmd_index_set(args, d) -> int:
    p = parse_fraction(args.p)
    window = ix.index_set_window(d, p, args.window)
    _emit(args, d, {
        "p": format_fraction(p),
        "window": args.window,
        "count": len(window),
        "members": [list(a) for a in window.members],
    })
    return 0


def cmd_thresholds(args, d) -> int:
    ts = ix.thresholds(d, parse_fraction(args.plo), parse_fraction(args.phi),
                       args.window)
    _emit(args, d, {
        "p_lo": args.plo,
        "p_hi": args.phi,
        "window": args.window,
        "thresholds": [
            {"value": format_fraction(t.value), "float": float(t.value),
             "witness": list(t.witness), "direction": t.direction}
            for t in ts
        ],
    })
    return 0


def cmd_indices(args, d) -> int:
    rep = ix.index_report(d, args.window, parse_fraction(args.p_cap))
    _emit(args, d, rep.as_dict())
    return 0


def cmd_kernel(args, d) -> int:
    z = _parse_point(args.z, d.dim)
    w = _parse_point(args.w, d.dim)
    if args.pnorm is not None and d.dim > MAX_PNORM_DIM and any(z):
        raise ParseError(f"--pnorm in dimension {d.dim} needs z = 0 (dimensions "
                         f"above {MAX_PNORM_DIM} have no work bound at z != 0)")
    ix.check_radius(args.window, dim=d.dim)  # bad input (exit 2) before any refusal
    # the closed form first: beyond the float range it refuses before any series
    closed = kn.kernel_closed_form(d, z, w)
    value = kn.kernel_truncated(d, z, w, args.window)
    result = {
        "z": [[zi.real, zi.imag] for zi in z],
        "w": [[wi.real, wi.imag] for wi in w],
        "window": args.window,
        "value": {"re": value.real, "im": value.imag},
        "closed_form": {"re": closed.real, "im": closed.imag},
        "abs_diff": abs(value - closed),
    }
    if args.pnorm is not None:
        p = parse_fraction(args.pnorm)
        est = kn.kernel_pnorm_estimate(d, z, p, cfg=QuadConfig())
        result["pnorm"] = {"p": format_fraction(p), "value": est.value,
                           "diverging": est.diverging,
                           "sequence": list(est.sequence)}
    _emit(args, d, result)
    return 0


def _point_count(k: int, name: str) -> int:
    """Checked before any Gram matrix is built."""
    if not 1 <= k <= MAX_DENSITY_POINTS:
        raise ParseError(f"{name}: point counts must lie in "
                         f"[1, {MAX_DENSITY_POINTS}], got {k}")
    return k


def cmd_density(args, d) -> int:
    alpha = _parse_exponents(args.alpha, "--alpha")
    if args.points:
        try:
            pts = [tuple(complex(c[0], c[1]) for c in point)
                   for point in json.loads(args.points)]
        except (ValueError, LookupError, TypeError) as exc:
            raise ParseError(f"malformed --points: {exc!r}") from None
        rows = [(_point_count(len(pts), "--points"),
                 kn.density_residual(d, alpha, pts))]
    else:
        if d.dim != 1:
            raise ParseError("--ks point sets need a one-dimensional domain; "
                             "pass --points for higher dimensions")
        ks = [_point_count(_parse_int(part, "--ks"), "--ks")
              for part in args.ks.split(",")]
        rows = [(k, kn.density_residual(
                    d, alpha, [(args.radius * cmath.exp(2j * cmath.pi * j / k),)
                               for j in range(k)]))
                for k in ks]
    _emit_rows(args, d, {"alpha": list(alpha)}, ("k", "residual"), rows)
    return 0


def _load_terms(text: str):
    if text == "-":
        payload = sys.stdin.read()
    elif os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            payload = handle.read()
    else:
        payload = text
    try:
        terms = [(complex(t["c"][0], t["c"][1]), _exponents(t["alpha"], "alpha"),
                  _exponents(t.get("gamma", [0] * len(t["alpha"])), "gamma"))
                 for t in json.loads(payload)]
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed --terms: {exc!r}") from None
    return dp.MixedMonomialSum.make(terms)


def cmd_project(args, d) -> int:
    f = _load_terms(args.terms)
    bf = dp.project(d, f)
    _emit(args, d, {
        "input": f.as_term_dicts(),
        "projected": bf.as_term_dicts(),
    })
    return 0


def cmd_probe(args, d) -> int:
    alpha = _parse_exponents(args.alpha, "--alpha")
    gamma = _parse_exponents(args.gamma, "--gamma")
    p_lo, p_hi = parse_fraction(args.plo), parse_fraction(args.phi)
    if max(p_lo, p_hi) > MAX_PROBE_P:
        raise ParseError(f"--plo and --phi must be at most {MAX_PROBE_P}")
    if (d.family is dm.Family.BALL and max(p_lo, p_hi) * sum(map(abs, alpha + gamma))
            > 2 * MAX_PROBE_P * MAX_EXPONENT):
        raise ParseError("on the ball, p * sum(|alpha_i| + gamma_i) / 2 must be at "
                         f"most {MAX_PROBE_P * MAX_EXPONENT}")
    steps = args.steps
    if not 1 <= steps <= MAX_PROBE_STEPS:
        raise ParseError(f"--steps must lie in [1, {MAX_PROBE_STEPS}], got {steps}")
    rows = []
    for j in range(steps + 1):
        p = p_lo + (p_hi - p_lo) * Fraction(j, steps)
        if p <= 0:
            continue
        try:
            ratio = dp.projection_ratio(d, alpha, gamma, p)
            verdict = "divergent" if ratio.divergent else repr(ratio.ratio)
        except NotIntegrable as exc:
            verdict = f"not-integrable: {exc}"
        rows.append((format_fraction(p), verdict))
    _emit_rows(args, d, {"alpha": list(alpha), "gamma": list(gamma)},
               ("p", "ratio"), rows)
    return 0


def cmd_verify(args, doms) -> int:
    level = "full" if args.full else "quick"
    summary = vf.run_verify(doms, level=level, seed=args.seed)
    if args.format == "json":
        _emit(args, None, {
            "level": level,
            "domains": [d.spec_string() for d in doms],
            "ok": summary.ok,
            "bootstrap_ok": summary.bootstrap_ok,
            "aborted_after_bootstrap": summary.aborted,
            "checks": [
                {"suite": r.suite, "name": r.name, "passed": r.passed,
                 "detail": r.detail}
                for r in summary.results
            ],
        })
    else:
        for line in summary.matrix_lines():
            print(line)
        print(f"overall: {'PASS' if summary.ok else 'FAIL'}"
              + (" (aborted after bootstrap failure)" if summary.aborted else ""))
    return 0 if summary.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser, subcommands included, whose rejection is one
    stderr line, ``prog: error: message``, and exit 2, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the grammar unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bergman-indices",
        description="Duality, regularity, and integrability indices of "
                    "bounded Reinhardt domains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, default_domains=None):
        sp = sub.add_parser(name, help=summary)
        if default_domains is None:
            sp.add_argument("domain", help=dm.DOMAIN_GRAMMAR)
        else:
            sp.add_argument("domains", nargs="*", default=default_domains,
                            help="domain specs (default: "
                                 f"{' '.join(default_domains)})")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored (evaluation is single-threaded)")
        sp.set_defaults(fn=fn)
        return sp

    command("info", cmd_info, "domain facts and exact volume")

    sp = command("index-set", cmd_index_set, "allowable indices in a window")
    sp.add_argument("--p", default="2", help="exponent as 'a' or 'a/b'")
    sp.add_argument("--window", type=int, default=6)

    sp = command("thresholds", cmd_thresholds, "index-set change exponents")
    sp.add_argument("--plo", default="1")
    sp.add_argument("--phi", default="5")
    sp.add_argument("--window", type=int, default=6)

    sp = command("indices", cmd_indices,
                 "duality bound, regularity probe, beta upper bound")
    sp.add_argument("--window", type=int, default=None,
                    help="lattice radius (default: family-sufficient)")
    sp.add_argument("--p-cap", default="64")

    sp = command("kernel", cmd_kernel, "kernel value at a point pair")
    sp.add_argument("--z", required=True, help="comma-separated components, "
                    "e.g. '0.1+0.2j,0.5'")
    sp.add_argument("--w", required=True)
    sp.add_argument("--window", type=int, default=20)
    sp.add_argument("--pnorm", default=None, metavar="P",
                    help="also estimate ||K(.,z)||_P (divergence ladder)")

    sp = command("density", cmd_density, "kernel-span least-squares residuals")
    sp.add_argument("--alpha", default="0", help="target exponent, comma-separated")
    sp.add_argument("--ks", default="1,2,4,8,16",
                    help="scaled roots-of-unity point counts (dim-1 domains)")
    sp.add_argument("--radius", type=float, default=0.5)
    sp.add_argument("--points", default=None,
                    help="explicit JSON points [[ [re,im], ... ], ...]")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = command("project", cmd_project, "exact projection of a term list")
    sp.add_argument("--terms", required=True,
                    help="JSON term list, a path to one, or '-' for stdin")

    sp = command("probe", cmd_probe, "projection-norm ratio over a p grid")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--plo", default="2")
    sp.add_argument("--phi", default="6")
    sp.add_argument("--steps", type=int, default=16)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = command("verify", cmd_verify, "bootstrap oracle and invariant suites",
                 default_domains=("polydisc:1", "ball:2", "hartogs:1/1"))
    sp.add_argument("--full", action="store_true")
    sp.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        if "BERGMAN_SEED" in os.environ:  # the environment wins over --seed
            args.seed = _parse_int(os.environ["BERGMAN_SEED"], "BERGMAN_SEED")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # this run's own filter
            try:
                target = (dm.parse_domain(args.domain) if "domain" in args
                          else [dm.parse_domain(s) for s in args.domains])
                code = args.fn(args, target)
            finally:  # also when the handler raises
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
    except BergmanError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"elapsed_ms={1000 * (time.perf_counter() - started):.1f}",
          file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
