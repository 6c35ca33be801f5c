"""Allowable monomial index sets, threshold exponents, and the three indices.

For a Reinhardt domain the Laurent monomials supported on the allowable set

    S(p) = { alpha in Z^n : z^alpha holomorphic and  ||z^alpha||_p < infinity }

form a Schauder basis of the p-Bergman space, so index-set combinatorics
control duality, projection regularity, and kernel integrability:

  * duality bound   largest p >= 2 with S(p) = S(q') = S(2) for the conjugate
    pair (p, q'), computed exactly from the threshold list.  An index-set
    mismatch between conjugate exponents kills injectivity of the duality
    pairing, so this is an upper bound for the duality index of the domain.
  * regularity probe   smallest exact exponent at which the projection of a
    bounded mixed monomial leaves every L^p; an upper bound for the sup of p
    with a bounded projection, attained on the triangle families.
  * beta upper bound   largest p (up to a cap) with S(2) still inside S(p)
    inside the window; necessary for the kernel sections to lie in the
    p-Bergman space since their expansions are supported on all of S(2).

On the triangle H(m, n) the moment predicate gives the membership rule
alpha_1 >= 0 and p * (n*alpha_1 + m*alpha_2) > -2(m+n), so every threshold is
2(m+n)/k for a positive integer k, and the three indices come out 2,
2(m+n)/(m+n-1), 2(m+n)/(m+n-1).  The polydisc and ball admit no negative
exponents at all, which is the structural proof behind the unbounded verdicts.

Every flip exponent comes from one table per (domain, window), built by
``critical_table`` in a single pass over the integer slopes, sorted as integers;
thresholds, the three indices and the injectivity witness scan all read it
(most by bisection), and a 4-entry cache lets a report's indices share one
pass.  The soundness check on a reported threshold is the witness's own flip,
decided through the moment-based ``member``; the full window comparison
(``sets_equal``) is left to the threshold-completeness check of ``verify``.

All predicates in this module are exact rational comparisons.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .domains import (DomainSpec, Family, MultiIndex, check_exponent,
                      conjugate_exponent, holomorphy_ok, moment_finite)
from .errors import ChainViolation, ParseError, WindowTooSmall
from .exact import format_fraction

#: the most lattice points a window may have where it is walked
MAX_WINDOW_POINTS = 10 ** 6
#: caveat attached to every report; the bound need not equal the duality index
#: on domains outside the families with a proven index-set obstruction.
DUALITY_CAVEAT = ("duality_bound is the exact index-set upper bound for the "
                  "duality index; equality is established for the triangle "
                  "families, not for arbitrary Reinhardt domains")

#: attached when the verdicts are unbounded; scan exhaustion alone never is.
STRUCTURAL_NOTE = ("unbounded verdicts rest on a structural proof: every axis "
                   "meets its coordinate hyperplane, so no negative exponents "
                   "are allowable and the index set cannot depend on the "
                   "exponent")


def hartogs_regularity_formula(m: int, n: int) -> Fraction:
    """Critical projection exponent 2(m+n)/(m+n-1) for the triangle H(m, n)."""
    return Fraction(2 * (m + n), m + n - 1)


def structurally_p_independent(d: DomainSpec) -> bool:
    """True when no axis admits negative exponents, making S(p) = {alpha >= 0}.

    This is the structural proof obligation behind an Unbounded verdict:
    non-negative monomials are bounded on a bounded domain, so membership
    cannot depend on p.
    """
    return all(d.axis_meets_hyperplane)


def member(d: DomainSpec, alpha: MultiIndex, p) -> bool:
    """Exact membership of alpha in the allowable set at exponent p."""
    return holomorphy_ok(d, alpha) and moment_finite(d, alpha, p)


def check_radius(radius: int, least: int = 1, dim: int = 0) -> None:
    """Validate a lattice window radius (the box max|alpha_i| <= radius);
    a window walked in ``dim`` coordinates has at most MAX_WINDOW_POINTS."""
    if radius < least:
        raise ParseError(f"window radius must be >= {least}, got {radius}")
    if (2 * radius + 1) ** dim > MAX_WINDOW_POINTS:
        raise ParseError(f"window radius {radius} in dimension {dim} exceeds "
                         f"{MAX_WINDOW_POINTS} lattice points")


@functools.lru_cache(maxsize=4)
def critical_table(d: DomainSpec, radius: int) -> Tuple[Tuple[Fraction, MultiIndex], ...]:
    """Every finite membership-flip exponent realized in the window.

    Returns (value, witness) pairs in ascending value, the witness being the
    lex-smallest window index that is a member for p below the value and not
    at it.  Only the triangle has finite flips, at 2(m+n)/k for the integer
    slope -k = n*alpha_1 + m*alpha_2 < 0 of a holomorphic index (alpha_1 >= 0).
    The rows alpha_1 < min(m, radius + 1) hold each such slope once (m, n
    coprime); a row alpha_1 >= m repeats row alpha_1 - m's at lex-larger
    indices, and its other slopes exceed m*radius.  Other domains return ().
    """
    if d.family is not Family.HARTOGS:
        check_radius(radius)
        return ()
    check_radius(radius, dim=2)
    m, n = d.m, d.n
    flips = sorted((n * a1 + m * a2, (a1, a2)) for a1 in range(min(m, radius + 1))
                   for a2 in range(-radius, -(n * a1 // m)))  # slopes unique
    return tuple((Fraction(2 * (m + n), -slope), alpha)  # rises with slope
                 for slope, alpha in flips)


def critical_slice(d: DomainSpec, radius: int, lo, hi=None) -> tuple:
    """The rows of ``critical_table`` with lo < value <= hi (None: no upper
    bound), found by bisection."""
    table = critical_table(d, radius)
    return table[slice(*(t if t is None else bisect_right(table, t, key=lambda row: row[0])
                         for t in (lo, hi)))]


@dataclass(frozen=True)
class IndexSetWindow:
    """Allowable indices within the box max|alpha_i| <= radius at exponent p."""

    domain: DomainSpec
    p: Fraction
    radius: int
    members: Tuple[MultiIndex, ...]  # sorted lexicographically

    def __len__(self):
        return len(self.members)


def index_set_window(d: DomainSpec, p, radius: int) -> IndexSetWindow:
    """Exact lattice window of S(p), sorted lexicographically.

    Where membership is p-independent it is the non-negative orthant of the
    box; otherwise every box index is decided by its exact moment.
    """
    check_radius(radius, dim=d.dim)
    p = check_exponent(p)
    if structurally_p_independent(d):
        members = tuple(itertools.product(range(radius + 1), repeat=d.dim))
    else:
        box = itertools.product(range(-radius, radius + 1), repeat=d.dim)
        members = tuple(alpha for alpha in box if member(d, alpha, p))
    return IndexSetWindow(d, p, radius, members)


@dataclass(frozen=True)
class SetComparison:
    equal: bool
    witness: Optional[MultiIndex]  # lex-smallest symmetric-difference element


def sets_equal(d: DomainSpec, p1, p2, radius: int) -> SetComparison:
    """Do the allowable windows at p1 and p2 coincide?"""
    w1 = frozenset(index_set_window(d, p1, radius).members)
    w2 = frozenset(index_set_window(d, p2, radius).members)
    diff = w1 ^ w2
    if not diff:
        return SetComparison(True, None)
    return SetComparison(False, min(diff))


@dataclass(frozen=True)
class Threshold:
    value: Fraction
    witness: MultiIndex         # lex-smallest index whose membership flips
    direction: str = "enters_below"


def thresholds(d: DomainSpec, p_lo, p_hi, radius: int) -> list:
    """All membership-flip exponents in [p_lo, p_hi] realized in the window.

    Every reported witness is re-checked through its exact moment: a member
    just below the value and not a member at it (an internal soundness
    check, not a numerical one).
    """
    p_lo, p_hi = check_exponent(p_lo), check_exponent(p_hi)
    if p_lo >= p_hi:
        raise ParseError("need p_lo < p_hi")
    out = [Threshold(value, witness) for value, witness in critical_table(d, radius)
           if p_lo <= value <= p_hi]
    for t in out:
        below = max(t.value - Fraction(1, 1000), t.value / 2)
        if not member(d, t.witness, below) or member(d, t.witness, t.value):
            raise ChainViolation(
                f"threshold {t.value} reported without a membership flip")
    return out


# ---------------------------------------------------------------------------
# index values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexValue:
    """Exact(rational) | Unbounded | AtLeast(rational scan cap)."""

    kind: str
    value: Optional[Fraction] = None

    @staticmethod
    def exact(value) -> "IndexValue":
        return IndexValue("exact", Fraction(value))

    @staticmethod
    def unbounded() -> "IndexValue":
        return IndexValue("unbounded")

    @staticmethod
    def at_least(value) -> "IndexValue":
        return IndexValue("at_least", Fraction(value))

    def as_dict(self) -> dict:
        if self.kind == "unbounded":
            return {"kind": "unbounded"}
        return {"kind": self.kind, "value": format_fraction(self.value)}

    def __str__(self):
        if self.kind == "unbounded":
            return "unbounded"
        prefix = ">=" if self.kind == "at_least" else ""
        return f"{prefix}{self.value}"


def _comparable_le(a: IndexValue, b: IndexValue) -> Optional[bool]:
    """a <= b when decidable, else None (AtLeast caps are one-sided)."""
    if b.kind == "unbounded":
        return True
    if a.kind == "unbounded":
        return False  # unbounded <= bounded is false
    if a.kind == "exact" and b.kind == "exact":
        return a.value <= b.value
    if a.kind == "exact" and b.kind == "at_least":
        return True if a.value <= b.value else None
    if a.kind == "at_least" and b.kind == "exact":
        return None if a.value <= b.value else False
    return None


# ---------------------------------------------------------------------------
# the three indices
# ---------------------------------------------------------------------------

def duality_bound(d: DomainSpec, radius: int, p_cap) -> Tuple[IndexValue, list]:
    """sup of p in [2, p_cap] with S(p) = S(conjugate(p)) = S(2), exactly.

    Computed from the realizable threshold list: a threshold at 2 pins the
    bound to 2 (some index enters immediately below 2); otherwise the nearest
    threshold above 2 and the conjugate of the nearest below 2 compete.
    """
    p_cap = check_exponent(p_cap)
    if p_cap <= 2:
        raise ParseError("p_cap must exceed 2")
    check_radius(radius, 2)
    if structurally_p_independent(d):
        return IndexValue.unbounded(), []
    below = critical_slice(d, radius, 1, 2)[-1:]  # the last flip in (1, 2]
    if below and below[0][0] == 2:
        return IndexValue.exact(2), [(below[0][1], "enters_below_2")]
    candidates = ([(t, alpha, "threshold_above_2")
                   for t, alpha in critical_slice(d, radius, 2, p_cap)[:1]]
                  + [(conjugate_exponent(t), alpha, "conjugate_threshold_below_2")
                     for t, alpha in below])
    if not candidates:
        return IndexValue.at_least(p_cap), []
    bound, witness, role = min(candidates, key=lambda c: c[0])
    if bound > p_cap:
        return IndexValue.at_least(p_cap), []
    return IndexValue.exact(bound), [(witness, role)]


def regularity_probe(d: DomainSpec, radius: int) -> Tuple[IndexValue, Optional[tuple]]:
    """Critical exponent of the worst projection witness in the window.

    Takes the allowable-at-2 index delta whose moment turns divergent at the
    smallest exponent; the returned mixed-monomial witness (alpha, gamma)
    with gamma = (0, max(0, -delta_2)) and alpha = delta + gamma is bounded
    in every L^p while its projection is proportional to z^delta, so the
    projection cannot be bounded past the critical exponent.
    """
    check_radius(radius, 2)
    if structurally_p_independent(d):
        return IndexValue.unbounded(), None
    best = next(iter(critical_slice(d, radius, 2)), None)
    if best is None:
        raise WindowTooSmall(
            f"no divergence-direction index allowable at 2 within radius "
            f"{radius}; raise the window")
    crit, delta = best
    formula = hartogs_regularity_formula(d.m, d.n)
    if crit != formula:
        raise WindowTooSmall(
            f"window radius {radius} realizes critical exponent {crit} but the "
            f"family formula gives {formula}; raise the window to >= {d.m + d.n}")
    gamma = tuple(max(0, -x) if i == 1 else 0 for i, x in enumerate(delta))
    alpha = tuple(x + g for x, g in zip(delta, gamma))
    return IndexValue.exact(crit), (alpha, gamma)


def beta_upper(d: DomainSpec, radius: int, p_cap) -> Tuple[IndexValue, Optional[MultiIndex]]:
    """sup of p <= p_cap keeping every allowable-at-2 window index allowable.

    Necessary for kernel sections to lie in the p-Bergman space, since their
    monomial expansion is supported on the whole allowable-at-2 set.
    """
    p_cap = check_exponent(p_cap)
    check_radius(radius, 2)
    if structurally_p_independent(d):
        return IndexValue.unbounded(), None
    best = next(iter(critical_slice(d, radius, 2)), None)
    if best is None or best[0] > p_cap:
        return IndexValue.at_least(p_cap), None
    return IndexValue.exact(best[0]), best[1]


@dataclass(frozen=True)
class IndexReport:
    """The three index values with their witnesses and scan parameters."""

    domain: DomainSpec
    radius: int
    p_cap: Fraction
    duality_bound: IndexValue
    regularity_probe: IndexValue
    beta_upper: IndexValue
    witnesses: Tuple[tuple, ...] = field(default_factory=tuple)
    caveats: Tuple[str, ...] = (DUALITY_CAVEAT,)

    def as_dict(self) -> dict:
        return {
            "domain": self.domain.spec_string(),
            "window": self.radius,
            "p_cap": str(self.p_cap),
            "duality_bound": self.duality_bound.as_dict(),
            "regularity_probe": self.regularity_probe.as_dict(),
            "beta_upper": self.beta_upper.as_dict(),
            "witnesses": [
                {"index": list(map(list, w)) if isinstance(w[0], tuple) else list(w),
                 "role": role}
                for w, role in self.witnesses
            ],
            "caveats": list(self.caveats),
        }


def default_window(d: DomainSpec) -> int:
    """Window radius guaranteeing all family witnesses are realizable."""
    if d.family is Family.HARTOGS:
        return max(6, d.m + d.n)
    return 6


def index_report(d: DomainSpec, radius: Optional[int] = None,
                 p_cap=Fraction(64)) -> IndexReport:
    """Assemble the three indices and enforce the chain ordering.

    A violated ordering (duality <= regularity <= beta) can only come from an
    implementation bug, never from a valid state, so it raises.
    """
    if radius is None:
        radius = default_window(d)
    p_cap = check_exponent(p_cap)
    dual, dual_wit = duality_bound(d, radius, p_cap)
    reg, reg_wit = regularity_probe(d, radius)
    beta, beta_wit = beta_upper(d, radius, p_cap)
    for label, a, b in (("duality<=regularity", dual, reg),
                        ("regularity<=beta", reg, beta)):
        cmp = _comparable_le(a, b)
        if cmp is False:
            raise ChainViolation(f"index chain violated ({label}): {a} vs {b}")
    witnesses = list(dual_wit)
    if reg_wit is not None:
        witnesses.append((reg_wit, "projection_witness_alpha_gamma"))
    if beta_wit is not None:
        witnesses.append((beta_wit, "first_index_lost_from_S2"))
    caveats = (DUALITY_CAVEAT, STRUCTURAL_NOTE) \
        if structurally_p_independent(d) else (DUALITY_CAVEAT,)
    return IndexReport(d, radius, p_cap, dual, reg, beta, tuple(witnesses),
                       caveats)
