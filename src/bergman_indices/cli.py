"""Command-line front end.

Subcommands: info, index-set, thresholds, indices, kernel, density, project,
probe, verify.  Machine output is a JSON report with the envelope

    {"schema": "bergman-indices/1", "version": ..., "command": ...,
     "seed": ..., "domain": ..., "result": {...}}

with exact rationals serialized as "num/den" strings and pi powers kept
symbolic.  density and probe default to CSV.  Reports carry no timestamps or
thread counts, so identical arguments and seed give byte-identical stdout;
timing goes to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage/validation error, 3 inconclusive numerical verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import domains as dm
from . import duality_projection as dp
from . import index_sets as ix
from . import kernel as kn
from . import verify as vf
from .errors import (ChainViolation, DimensionMismatch, IllConditionedGram,
                     Inconclusive, NotIntegrable, ParseError, WindowTooSmall)
from .exact import format_fraction, parse_fraction
from .quadrature import QuadConfig

SCHEMA_ID = "bergman-indices/1"
DEFAULT_SEED = 20240901
THREADS_HELP = ("accepted and ignored, kept for argv compatibility "
                "(evaluation is single-threaded)")


def _quad_config(args) -> QuadConfig:
    return QuadConfig(radial_nodes=args.radial_nodes,
                      angular_nodes=args.angular_nodes,
                      corner_cutoff=args.cutoff,
                      refinement_levels=args.refine,
                      rel_tol=args.tol)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{name}: expected an integer, got {text!r}") from None


def _parse_ints(text: str, name: str) -> tuple:
    """A comma-separated integer list (multi-indices, point counts)."""
    return tuple(_parse_int(part, name) for part in text.split(","))


def _parse_point(text: str, dim: int):
    parts = text.split(",")
    if len(parts) != dim:
        raise ParseError(f"point {text!r} needs {dim} comma-separated components")
    try:
        return tuple(complex(part.strip().replace(" ", "")) for part in parts)
    except ValueError as exc:
        raise ParseError(f"malformed point {text!r}: {exc}") from None


def _emit(args, command: str, domain, result: dict) -> None:
    report = {
        "schema": SCHEMA_ID,
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "domain": domain.spec_string() if domain is not None else None,
        "result": result,
    }
    print(json.dumps(report, indent=2))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    d = dm.parse_domain(args.domain)
    vol = dm.volume(d)
    _emit(args, "info", d, {
        "family": d.family.value,
        "dim": d.dim,
        "axis_meets_hyperplane": list(d.axis_meets_hyperplane),
        "volume": {"exact": vol.value.as_dict(), "float": float(vol)},
    })
    return 0


def cmd_index_set(args) -> int:
    d = dm.parse_domain(args.domain)
    p = parse_fraction(args.p)
    window = ix.index_set_window(d, p, args.window)
    _emit(args, "index-set", d, {
        "p": format_fraction(p),
        "window": args.window,
        "count": len(window),
        "members": [list(a) for a in window.members],
    })
    return 0


def cmd_thresholds(args) -> int:
    d = dm.parse_domain(args.domain)
    ts = ix.thresholds(d, parse_fraction(args.plo), parse_fraction(args.phi),
                       args.window)
    _emit(args, "thresholds", d, {
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


def cmd_indices(args) -> int:
    d = dm.parse_domain(args.domain)
    rep = ix.index_report(d, args.window, parse_fraction(args.p_cap))
    _emit(args, "indices", d, rep.as_dict())
    return 0


def cmd_kernel(args) -> int:
    d = dm.parse_domain(args.domain)
    z = _parse_point(args.z, d.dim)
    w = _parse_point(args.w, d.dim)
    value = kn.kernel_truncated(d, z, w, args.window)
    result = {
        "z": [[zi.real, zi.imag] for zi in z],
        "w": [[wi.real, wi.imag] for wi in w],
        "window": args.window,
        "value": {"re": value.real, "im": value.imag},
    }
    closed = kn.kernel_closed_form(d, z, w)
    result["closed_form"] = {"re": closed.real, "im": closed.imag}
    result["abs_diff"] = abs(value - closed)
    if args.pnorm is not None:
        p = parse_fraction(args.pnorm)
        est = kn.kernel_pnorm_estimate(d, z, p, args.window, _quad_config(args))
        result["pnorm"] = {"p": format_fraction(p), "value": est.value,
                           "diverging": est.diverging,
                           "sequence": list(est.sequence)}
    _emit(args, "kernel", d, result)
    return 0


def cmd_density(args) -> int:
    d = dm.parse_domain(args.domain)
    alpha = _parse_ints(args.alpha, "--alpha")
    if args.points:
        try:
            pts = [tuple(complex(c[0], c[1]) for c in point)
                   for point in json.loads(args.points)]
        except (ValueError, LookupError, TypeError) as exc:
            raise ParseError(f"malformed --points: {exc!r}") from None
        rows = [(len(pts), kn.density_residual(d, alpha, pts))]
    else:
        if d.dim != 1:
            raise ParseError("--ks point sets need a one-dimensional domain; "
                             "pass --points for higher dimensions")
        import numpy as np
        rows = []
        ks = _parse_ints(args.ks, "--ks")
        if min(ks) < 1:
            raise ParseError(f"--ks point counts must be >= 1, got {args.ks!r}")
        for k in ks:
            pts = [(args.radius * np.exp(2j * np.pi * j / k),)
                   for j in range(k)]
            rows.append((k, kn.density_residual(d, alpha, pts)))
    if args.format == "json":
        _emit(args, "density", d, {
            "alpha": list(alpha),
            "rows": [{"k": k, "residual": r} for k, r in rows],
        })
    else:
        print("k,residual")
        for k, r in rows:
            print(f"{k},{r!r}")
    return 0


def _exponents(values) -> tuple:
    """A JSON exponent list as a tuple; anything but integers is a TypeError."""
    if not all(type(e) is int for e in values):
        raise TypeError(f"exponents must be integers, got {values!r}")
    return tuple(values)


def _load_terms(text: str):
    if text == "-":
        payload = sys.stdin.read()
    elif os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            payload = handle.read()
    else:
        payload = text
    try:
        terms = [(complex(t["c"][0], t["c"][1]), _exponents(t["alpha"]),
                  _exponents(t.get("gamma", [0] * len(t["alpha"]))))
                 for t in json.loads(payload)]
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed --terms: {exc!r}") from None
    return dp.MixedMonomialSum.make(terms)


def cmd_project(args) -> int:
    d = dm.parse_domain(args.domain)
    f = _load_terms(args.terms)
    bf = dp.project(d, f)
    _emit(args, "project", d, {
        "input": f.as_term_dicts(),
        "projected": bf.as_term_dicts(),
    })
    return 0


def cmd_probe(args) -> int:
    d = dm.parse_domain(args.domain)
    alpha = _parse_ints(args.alpha, "--alpha")
    gamma = _parse_ints(args.gamma, "--gamma")
    p_lo, p_hi = parse_fraction(args.plo), parse_fraction(args.phi)
    steps = args.steps
    if steps < 1:
        raise ParseError(f"--steps must be >= 1, got {steps}")
    rows = []
    for j in range(steps + 1):
        p = p_lo + (p_hi - p_lo) * Fraction(j, steps)
        if p <= 0:
            continue
        try:
            ratio = dp.projection_ratio(d, alpha, gamma, p)
        except NotIntegrable as exc:
            rows.append((p, f"not-integrable: {exc}"))
            continue
        rows.append((p, "divergent" if ratio.divergent else repr(ratio.ratio)))
    if args.format == "json":
        _emit(args, "probe", d, {
            "alpha": list(alpha), "gamma": list(gamma),
            "rows": [{"p": format_fraction(p), "ratio": r} for p, r in rows],
        })
    else:
        print("p,ratio")
        for p, r in rows:
            print(f"{format_fraction(p)},{r}")
    return 0


def cmd_verify(args) -> int:
    domain_specs = args.domains or ["polydisc:1", "ball:2", "hartogs:1/1"]
    doms = [dm.parse_domain(s) for s in domain_specs]
    level = "full" if args.full else "quick"
    summary = vf.run_verify(doms, level=level, seed=args.seed)
    if args.format == "json":
        _emit(args, "verify", None, {
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman-indices",
        description="Duality, regularity, and integrability indices of "
                    "bounded Reinhardt domains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, domain=True):
        if domain:
            sp.add_argument("domain",
                            help="polydisc:<n> | ball:<n> | hartogs:<m>/<n>")
        sp.add_argument("--format", choices=("json", "csv", "table"),
                        default=None)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
        sp.add_argument("--radial-nodes", type=int, default=64)
        sp.add_argument("--angular-nodes", type=int, default=None)
        sp.add_argument("--cutoff", type=float, default=0.0)
        sp.add_argument("--refine", type=int, default=3)
        sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("info", help="domain facts and exact volume")
    common(sp)
    sp.set_defaults(fn=cmd_info, default_format="json")

    sp = sub.add_parser("index-set", help="allowable indices in a window")
    common(sp)
    sp.add_argument("--p", default="2", help="exponent as 'a' or 'a/b'")
    sp.add_argument("--window", type=int, default=6)
    sp.set_defaults(fn=cmd_index_set, default_format="json")

    sp = sub.add_parser("thresholds", help="index-set change exponents")
    common(sp)
    sp.add_argument("--plo", default="1")
    sp.add_argument("--phi", default="5")
    sp.add_argument("--window", type=int, default=6)
    sp.set_defaults(fn=cmd_thresholds, default_format="json")

    sp = sub.add_parser("indices",
                        help="duality bound, regularity probe, beta upper bound")
    common(sp)
    sp.add_argument("--window", type=int, default=None,
                    help="lattice radius (default: family-sufficient)")
    sp.add_argument("--p-cap", default="64")
    sp.set_defaults(fn=cmd_indices, default_format="json")

    sp = sub.add_parser("kernel", help="kernel value at a point pair")
    common(sp)
    sp.add_argument("--z", required=True, help="comma-separated components, "
                    "e.g. '0.1+0.2j,0.5'")
    sp.add_argument("--w", required=True)
    sp.add_argument("--window", type=int, default=20)
    sp.add_argument("--pnorm", default=None, metavar="P",
                    help="also probe ||K(.,z)||_P with the quadrature flags")
    sp.set_defaults(fn=cmd_kernel, default_format="json")

    sp = sub.add_parser("density", help="kernel-span least-squares residuals")
    common(sp)
    sp.add_argument("--alpha", default="0", help="target exponent, comma-separated")
    sp.add_argument("--ks", default="1,2,4,8,16",
                    help="scaled roots-of-unity point counts (dim-1 domains)")
    sp.add_argument("--radius", type=float, default=0.5)
    sp.add_argument("--points", default=None,
                    help="explicit JSON points [[ [re,im], ... ], ...]")
    sp.set_defaults(fn=cmd_density, default_format="csv")

    sp = sub.add_parser("project", help="exact projection of a term list")
    common(sp)
    sp.add_argument("--terms", required=True,
                    help="JSON term list, a path to one, or '-' for stdin")
    sp.set_defaults(fn=cmd_project, default_format="json")

    sp = sub.add_parser("probe", help="projection-norm ratio over a p grid")
    common(sp)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--plo", default="2")
    sp.add_argument("--phi", default="6")
    sp.add_argument("--steps", type=int, default=16)
    sp.set_defaults(fn=cmd_probe, default_format="csv")

    sp = sub.add_parser("verify", help="bootstrap oracle and invariant suites")
    sp.add_argument("domains", nargs="*",
                    help="domain specs (default: polydisc:1 ball:2 hartogs:1/1)")
    sp.add_argument("--full", action="store_true")
    sp.add_argument("--format", choices=("json", "csv", "table"), default=None)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    sp.set_defaults(fn=cmd_verify, default_format="table")

    return parser


GRAMMAR_HINT = ("domain spec: polydisc:<n> | ball:<n> | hartogs:<m>/<n>; "
                "rational exponents: <int> or <int>/<uint>")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.format is None:
        args.format = args.default_format
    started = time.perf_counter()
    try:
        if "BERGMAN_SEED" in os.environ:  # the environment wins over --seed
            args.seed = _parse_int(os.environ["BERGMAN_SEED"], "BERGMAN_SEED")
        code = args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}\n{GRAMMAR_HINT}", file=sys.stderr)
        return 2
    except (NotIntegrable, WindowTooSmall, IllConditionedGram,
            DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except ChainViolation as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed_ms={1000 * (time.perf_counter() - started):.1f}",
          file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
