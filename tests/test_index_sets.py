"""Index-set windows, thresholds, and the three indices."""

import itertools
import math
from fractions import Fraction

import pytest

from bergman_indices import domains as dm
from bergman_indices import index_sets as ix
from bergman_indices.errors import ParseError, WindowTooSmall

H11 = dm.hartogs(1, 1)


def brute_window(d, p, radius):
    """Independent enumeration straight from the definition."""
    out = []
    for alpha in itertools.product(range(-radius, radius + 1), repeat=d.dim):
        if dm.holomorphy_ok(d, alpha) and dm.moment(d, alpha, p).is_finite:
            out.append(alpha)
    return tuple(sorted(out))


def test_member_examples():
    assert ix.member(H11, (0, -1), 2)
    assert not ix.member(H11, (0, -2), 2)
    assert ix.member(H11, (0, -2), Fraction(19, 10))
    assert ix.member(dm.ball(2), (3, 2), Fraction(17, 3))
    assert not ix.member(dm.ball(2), (-1, 2), 2)


def test_window_against_brute_force():
    for d, p, radius in [(H11, Fraction(2), 2), (H11, Fraction(4), 2),
                         (dm.polydisc(2), Fraction(7, 2), 3),
                         (dm.ball(2), Fraction(5, 2), 3),
                         (dm.hartogs(3, 2), Fraction(2), 4)]:
        window = ix.index_set_window(d, p, radius)
        assert window.members == brute_window(d, p, radius)


def test_window_counts_hartogs():
    # at exponent 2 the constraint is a1 >= 0 and a1 + a2 >= -1
    w2 = ix.index_set_window(H11, 2, 2)
    assert len(w2) == 14
    assert all(a[0] >= 0 and a[0] + a[1] >= -1 for a in w2.members)
    # at the critical exponent 4 the diagonal constraint tightens to >= 0
    w4 = ix.index_set_window(H11, 4, 2)
    assert len(w4) == 12
    assert all(a[0] >= 0 and a[0] + a[1] >= 0 for a in w4.members)


def test_window_count_polydisc():
    assert len(ix.index_set_window(dm.polydisc(2), Fraction(7, 2), 3)) == 16


def test_sets_equal_examples():
    assert ix.sets_equal(H11, 2, Fraction(9, 4), 4).equal
    cmp = ix.sets_equal(H11, 2, Fraction(7, 4), 4)
    assert not cmp.equal and cmp.witness == (0, -2)
    assert ix.sets_equal(dm.ball(3), Fraction(3, 2), 6, 3).equal


def test_anti_monotonicity():
    grid = [Fraction(k, 3) for k in range(3, 19)]
    for d in (H11, dm.hartogs(2, 3)):
        prev = None
        for p in grid:
            cur = frozenset(ix.index_set_window(d, p, 5).members)
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_thresholds_hartogs_11():
    ts = ix.thresholds(H11, 1, 5, 6)
    assert [t.value for t in ts] == [Fraction(1), Fraction(4, 3),
                                     Fraction(2), Fraction(4)]
    assert all(t.direction == "enters_below" for t in ts)
    # witness membership flips across each threshold
    eps = Fraction(1, 1000)
    for t in ts:
        assert ix.member(H11, t.witness, t.value - eps)
        assert not ix.member(H11, t.witness, t.value)


def test_thresholds_hartogs_12():
    ts = ix.thresholds(dm.hartogs(1, 2), 1, 6, 6)
    assert [t.value for t in ts] == [Fraction(1), Fraction(6, 5),
                                     Fraction(3, 2), Fraction(2),
                                     Fraction(3), Fraction(6)]


def test_thresholds_polydisc_empty():
    assert ix.thresholds(dm.polydisc(2), 1, 10, 6) == []


def test_duality_bound_values():
    for m, n in [(1, 1), (2, 1), (3, 2), (5, 3)]:
        d = dm.hartogs(m, n)
        bound, wit = ix.duality_bound(d, ix.default_window(d), 20)
        assert bound == ix.IndexValue.exact(2), (m, n)
        assert wit, (m, n)
    assert ix.duality_bound(dm.ball(2), 6, 20)[0].kind == "unbounded"
    assert ix.duality_bound(dm.polydisc(3), 6, 20)[0].kind == "unbounded"


def test_regularity_probe_values_and_witness():
    val, wit = ix.regularity_probe(H11, 4)
    assert val == ix.IndexValue.exact(4)
    assert wit == ((0, 0), (0, 1))
    val21, _ = ix.regularity_probe(dm.hartogs(2, 1), 4)
    assert val21 == ix.IndexValue.exact(3)
    assert ix.regularity_probe(dm.ball(2), 4)[0].kind == "unbounded"


def test_regularity_window_too_small():
    # the critical direction for H(7,3) needs delta_1 = 4, beyond radius 2
    with pytest.raises(WindowTooSmall):
        ix.regularity_probe(dm.hartogs(7, 3), 2)


def test_beta_upper_values():
    val, wit = ix.beta_upper(H11, 6, 64)
    assert val == ix.IndexValue.exact(4) and wit == (0, -1)
    assert ix.beta_upper(dm.hartogs(3, 2), 6, 64)[0] == \
        ix.IndexValue.exact(Fraction(5, 2))
    assert ix.beta_upper(dm.polydisc(2), 6, 64)[0].kind == "unbounded"


def test_index_report_examples():
    rep = ix.index_report(H11)
    assert (rep.duality_bound, rep.regularity_probe, rep.beta_upper) == (
        ix.IndexValue.exact(2), ix.IndexValue.exact(4), ix.IndexValue.exact(4))
    rep53 = ix.index_report(dm.hartogs(5, 3))
    assert rep53.regularity_probe == ix.IndexValue.exact(Fraction(16, 7))
    assert rep53.beta_upper == ix.IndexValue.exact(Fraction(16, 7))
    rep_ball = ix.index_report(dm.ball(1))
    assert rep_ball.duality_bound.kind == "unbounded"
    assert rep_ball.caveats  # the duality caveat is always attached


def test_window_stability():
    for m, n in [(1, 1), (3, 2), (4, 1)]:
        d = dm.hartogs(m, n)
        base = max(ix.default_window(d), m + n)
        r1, r2 = ix.index_report(d, base), ix.index_report(d, base + 2)
        assert (r1.duality_bound, r1.regularity_probe, r1.beta_upper) == (
            r2.duality_bound, r2.regularity_probe, r2.beta_upper)


def test_report_serialization():
    d = rep = ix.index_report(H11).as_dict()
    assert rep["duality_bound"] == {"kind": "exact", "value": "2"}
    assert rep["regularity_probe"] == {"kind": "exact", "value": "4"}
    assert rep["domain"] == "hartogs:1/1"


def test_preconditions():
    with pytest.raises(ParseError):
        ix.index_set_window(H11, 2, 0)
    with pytest.raises(ParseError):
        ix.thresholds(H11, 3, 2, 4)
    with pytest.raises(ParseError):
        ix.duality_bound(H11, 6, 2)
    with pytest.raises(ParseError):
        ix.duality_bound(H11, 1, 20)


# ---------------------------------------------------------------------------
# brute-force agreement: every lattice query against box scans through member
# ---------------------------------------------------------------------------

AGREEMENT_RADII = range(1, 8)
AGREEMENT_DOMAINS = (
    [dm.hartogs(m, n) for m in range(1, 9) for n in range(1, 10 - m)
     if math.gcd(m, n) == 1]
    + [dm.polydisc(k) for k in (1, 2, 3)] + [dm.ball(k) for k in (1, 2, 3)])
#: triangles with a large m or n, at radii below and above m: the critical
#: table walks only the rows alpha_1 < min(m, radius + 1)
WIDE_RADII = {dm.hartogs(12, 1): (3, 11, 12, 13), dm.hartogs(1, 12): (1, 2, 5, 13),
              dm.hartogs(11, 5): (4, 10, 11, 12, 16)}
INJECTIVITY_PS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4))
WINDOW_PS = (Fraction(1), Fraction(2), Fraction(7, 2))


def flip_candidates(d, radius):
    """Exponents where p * slope can meet -2(m+n) for a window slope."""
    if d.family is not dm.Family.HARTOGS:
        return []
    return sorted(Fraction(2 * (d.m + d.n), k)
                  for k in range(1, (d.m + d.n) * radius + 1))


def reference_flip(d, alpha, candidates):
    """The exponent where alpha stops being a member, by bisection on member.

    None when membership does not change over the candidate range, or over
    [1/2, 9] (which holds the thresholds range) on domains without
    candidates.  Asserts that alpha is a member just below the flip and not
    at it.
    """
    low = candidates[0] / 2 if candidates else Fraction(1, 2)
    high = candidates[-1] if candidates else Fraction(9)
    if not ix.member(d, alpha, low) or ix.member(d, alpha, high):
        assert ix.member(d, alpha, low) == ix.member(d, alpha, high), alpha
        return None
    assert candidates, f"{alpha} flips on a domain without candidates"
    lo, hi = -1, len(candidates) - 1  # member at candidates[lo], not at [hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ix.member(d, alpha, candidates[mid]):
            lo = mid
        else:
            hi = mid
    below = candidates[lo] if lo >= 0 else low
    assert ix.member(d, alpha, (below + candidates[hi]) / 2), alpha
    return candidates[hi]


def reference_lattice(d, radius):
    """(box in lex order, membership at every probed p, flip of each index)."""
    box = list(itertools.product(range(-radius, radius + 1), repeat=d.dim))
    ps = set(WINDOW_PS) | set(INJECTIVITY_PS) | {
        dm.conjugate_exponent(p) for p in INJECTIVITY_PS if p > 2}
    inside = {p: {a for a in box if ix.member(d, a, p)} for p in ps}
    candidates = flip_candidates(d, radius)
    flips = {a: reference_flip(d, a, candidates) for a in box}
    return box, inside, flips


def reference_thresholds(box, flips, p_lo, p_hi):
    found = {}
    for alpha in box:
        v = flips[alpha]
        if v is not None and p_lo <= v <= p_hi:
            found.setdefault(v, alpha)
    return [(v, found[v]) for v in sorted(found)]


def reference_indices(d, box, flips, radius, p_cap):
    """The three indices, computed from the reference flips by definition."""
    if ix.structurally_p_independent(d):
        unbounded = ix.IndexValue.unbounded()
        return (unbounded, []), (unbounded, None), (unbounded, None)
    crits = dict(reference_thresholds(box, flips, 0, math.inf))
    two = Fraction(2)
    candidates = []
    if two in crits:
        dual = (ix.IndexValue.exact(2), [(crits[two], "enters_below_2")])
    else:
        above = [t for t in crits if two < t <= p_cap]
        below = [t for t in crits if 1 < t < two]
        if above:
            candidates.append((min(above), crits[min(above)], "threshold_above_2"))
        if below:
            candidates.append((dm.conjugate_exponent(max(below)), crits[max(below)],
                               "conjugate_threshold_below_2"))
        bound = min(candidates, key=lambda c: c[0]) if candidates else None
        if bound is None or bound[0] > p_cap:
            dual = (ix.IndexValue.at_least(p_cap), [])
        else:
            dual = (ix.IndexValue.exact(bound[0]), [(bound[1], bound[2])])
    above_two = [t for t in crits if t > two]
    first = (min(above_two), crits[min(above_two)]) if above_two else None
    if first is None or first[0] != ix.hartogs_regularity_formula(d.m, d.n):
        reg = WindowTooSmall
    else:
        delta = first[1]
        gamma = (0, max(0, -delta[1]))
        reg = (ix.IndexValue.exact(first[0]),
               (tuple(x + g for x, g in zip(delta, gamma)), gamma))
    if first is None or first[0] > p_cap:
        beta = (ix.IndexValue.at_least(p_cap), None)
    else:
        beta = (ix.IndexValue.exact(first[0]), first[1])
    return dual, reg, beta


@pytest.mark.parametrize("d", AGREEMENT_DOMAINS + list(WIDE_RADII), ids=str)
def test_lattice_queries_match_member_scans(d):
    from bergman_indices import duality_projection as dp

    radii = WIDE_RADII.get(d, AGREEMENT_RADII)
    full_box, full_inside, full_flips = reference_lattice(d, max(radii))
    for radius in radii:
        # windows nest, so each radius reads the largest box restricted to it
        box = [a for a in full_box if max(map(abs, a)) <= radius]
        flips = {a: full_flips[a] for a in box}
        got = [(t.value, t.witness) for t in ix.thresholds(d, 1, 9, radius)]
        assert got == reference_thresholds(box, flips, 1, 9), (str(d), radius)
        for p in WINDOW_PS:
            want = tuple(a for a in box if a in full_inside[p])
            assert ix.index_set_window(d, p, radius).members == want, (str(d), p, radius)
        for p in INJECTIVITY_PS:
            q = Fraction(2) if p == 2 else dm.conjugate_exponent(p)
            want = next((a for a in box if a in full_inside[q]
                         and a not in full_inside[p]), None)
            assert dp.injectivity_witness_scan(d, p, radius) == want, (str(d), p, radius)
        if radius < 2:
            continue
        for p_cap in (Fraction(5, 2), Fraction(64)):
            dual, reg, beta = reference_indices(d, box, flips, radius, p_cap)
            assert ix.duality_bound(d, radius, p_cap) == dual, (str(d), radius, p_cap)
            assert ix.beta_upper(d, radius, p_cap) == beta, (str(d), radius, p_cap)
        if reg is WindowTooSmall:
            with pytest.raises(WindowTooSmall):
                ix.regularity_probe(d, radius)
        else:
            assert ix.regularity_probe(d, radius) == reg, (str(d), radius)
