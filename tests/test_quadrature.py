"""Quadrature oracle accuracy, angular exactness, and divergence probing."""

import collections
import hashlib
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_indices import domains as dm
from bergman_indices import kernel as kn
from bergman_indices import quadrature as qd
from bergman_indices.errors import Inconclusive, NaNOnGrid, ParseError

PI = math.pi
H11 = dm.hartogs(1, 1)
CFG = qd.QuadConfig()


def _monomial(alpha, dim):
    return qd.MonomialSumIntegrand([(1.0, alpha, (0,) * dim)])


def test_volume_oracle_hartogs():
    res = qd.integrate(H11, qd.AbsPowerIntegrand(_monomial((0, 0), 2), 2), CFG)
    assert res.value == pytest.approx(PI ** 2 / 2, abs=1e-10)


def test_polydisc_mixed_moment():
    res = qd.integrate(dm.polydisc(2),
                       qd.AbsPowerIntegrand(_monomial((2, 1), 2), 2), CFG)
    assert res.value == pytest.approx(PI ** 2 / 6, abs=1e-12)


def test_ball_dirichlet_moment():
    res = qd.integrate(dm.ball(2),
                       qd.AbsPowerIntegrand(_monomial((1, 0), 2), 2), CFG)
    assert res.value == pytest.approx(PI ** 2 / 6, abs=1e-10)


def test_lp_norm_monomials_match_exact():
    for d, alpha in [(dm.polydisc(2), (1, 2)), (dm.ball(2), (2, 0)),
                     (H11, (1, -1))]:
        for p in (Fraction(3, 2), 2, Fraction(7, 2)):
            exact = float(dm.moment(d, alpha, p)) ** (1 / float(p))
            est = qd.lp_norm(d, _monomial(alpha, 2), p, CFG)
            assert est == pytest.approx(exact, rel=1e-8)


def test_lp_norm_conjugated_factor():
    # |conj(z2)|^6 integrates like |z2|^6
    f = qd.MonomialSumIntegrand([(1.0, (0, 0), (0, 1))])
    est = qd.lp_norm(H11, f, 6, CFG)
    assert est == pytest.approx((4 * PI ** 2 / 20) ** (1 / 6), rel=1e-10)


def test_zero_norm():
    f = qd.MonomialSumIntegrand([(0.0, (0, 0), (0, 0)), (1.0, (1, 0), (0, 0))])
    assert qd.lp_norm(H11, qd.MonomialSumIntegrand([(0.0, (0, 0), (0, 0))]),
                      2, CFG) == 0.0
    assert qd.lp_norm(H11, f, 2, CFG) > 0


def test_divergence_probe_examples():
    inv_z2 = _monomial((0, -1), 2)
    probe = qd.divergence_probe(H11, inv_z2, 4, CFG)
    assert probe.diverging and not probe.stable
    probe3 = qd.divergence_probe(H11, inv_z2, 3, CFG)
    assert probe3.stable
    assert probe3.sequence[-1] == pytest.approx(
        (4 * PI ** 2 / 2) ** (1 / 3), rel=1e-5)
    const = _monomial((0,), 1)
    assert qd.divergence_probe(dm.polydisc(1), const, 2, CFG).stable


def test_divergence_probe_monotone_sequences():
    for alpha, p in [((0, -2), 2), ((0, -2), 4), ((-1, -1), 1)]:
        if dm.moment(H11, alpha, p).is_finite:
            continue
        probe = qd.divergence_probe(H11, _monomial(alpha, 2), p, CFG)
        assert probe.diverging
        seq = probe.sequence
        assert all(b >= a * (1 - 1e-12) for a, b in zip(seq, seq[1:]))


def test_strong_divergence_has_tenfold_signature():
    probe = qd.divergence_probe(H11, _monomial((0, -2), 2), 4, CFG)
    assert probe.diverging and probe.tenfold


def _black_box_monomial(alpha):
    """z^alpha as a black box, which forces the tensor path."""
    return qd.BlackBoxIntegrand(
        lambda *zs: math.prod(z ** a for z, a in zip(zs, alpha)), len(alpha),
        angular_bandwidth=(0,) * len(alpha), modulus_exponents=alpha)


def test_tensor_ladder_matches_separable_ladder():
    alpha = (0, -1)
    for p in (3, 4):  # finite at 3, divergent at 4
        sep = qd.divergence_probe(H11, _monomial(alpha, 2), p, CFG)
        ten = qd.divergence_probe(H11, _black_box_monomial(alpha), p, CFG)
        assert (ten.diverging, ten.stable) == (sep.diverging, sep.stable)
        assert ten.sequence == pytest.approx(sep.sequence, rel=1e-9)
        if ten.diverging:  # nested boxes: new mass only adds, no slack
            assert all(b >= a for a, b in zip(ten.sequence, ten.sequence[1:]))
        if p == 3:
            # |z2|^-3 dV on H(1,1) is u du dv on level L's box (c, 1)^2,
            # c = 10^(-2(L+1)), times (2 pi)^2
            for level, (s, t) in enumerate(zip(sep.sequence, ten.sequence)):
                c = 10.0 ** (-2 * (level + 1))
                exact = 4 * PI ** 2 * (1 - c ** 2) * (1 - c) / 2
                assert s ** p == pytest.approx(exact, rel=1e-12), level
                assert t ** p == pytest.approx(exact, rel=1e-9), level


def test_nan_in_one_cutoff_block_raises():
    def nan_below(w1, w2):
        out = np.ones(np.broadcast_shapes(np.shape(w1), np.shape(w2)))
        out[np.broadcast_to(np.abs(w2) < 1e-3, out.shape)] = np.nan
        return out

    # finite on level 1's box (1e-2, 1)^2; level 2 adds NaN blocks
    box = qd.BlackBoxIntegrand(nan_below, 2, (None,) * 2, (0,) * 2)
    with pytest.raises(NaNOnGrid):
        qd.divergence_probe(H11, box, 2, qd.QuadConfig(radial_nodes=4, angular_nodes=4))


def _piecewise_inverse(masses):
    """A polydisc:1 black box whose |f|^2 is c_j / |z|^2 on log piece j,
    [10^(-2(j+1)), 10^(-2j)], for the ladder's pieces j < 7: piece j
    carries mass 4 pi ln(10) c_j."""
    c = np.sqrt(np.asarray(masses))

    def fn(z):
        return c[np.floor(-np.log10(np.abs(z)) / 2).astype(int)] / z

    return qd.BlackBoxIntegrand(fn, 1, (0,), (-1,))


def test_ladder_reads_a_steady_slow_contraction_as_stable():
    # increments contract by 0.8: too slow to settle at 3 levels, steady at 4
    masses = [0.8 ** j for j in range(qd.MAX_LADDER_LEVELS)]
    probe = qd.divergence_probe(dm.polydisc(1), _piecewise_inverse(masses), 2, CFG)
    assert probe.stable and not probe.diverging
    assert len(probe.sequence) == 4
    unit = 4 * PI * math.log(10)
    for level, norm in enumerate(probe.sequence, 1):
        assert norm ** 2 == pytest.approx(unit * sum(masses[:level]), rel=1e-12)


def test_ladder_with_rising_contraction_is_inconclusive_at_its_deepest_level():
    # increment ratios 0.72, 0.76, ..., 0.92: each exceeds the last by more
    # than the 0.02 a steady contraction allows, and none reaches 0.98
    masses = list(itertools.accumulate([1, 0.72, 0.76, 0.80, 0.84, 0.88, 0.92],
                                       lambda m, r: m * r))
    with pytest.raises(Inconclusive, match="did not stabilize or diverge") as exc:
        qd.divergence_probe(dm.polydisc(1), _piecewise_inverse(masses), 2, CFG)
    norms = str(exc.value).split(": ", 1)[1]
    assert norms.count(",") == qd.MAX_LADDER_LEVELS - 1


def _chunk_rule(shape, dim):
    """Boxes, one (start, stop) pair per axis, of the chunks of a tensor mesh
    of ``shape`` with ``dim`` radial axes, by the rule the pass has always
    used: runs of whole rows of the first radial axis of at most 2M points;
    a row above that is cut in runs of the first angular axis, the other
    radial axes whole and nothing cut further."""
    budget, n_rows, per_row = 2_000_000, shape[0], math.prod(shape[1:])
    rows = max(1, min(n_rows, budget // per_row))
    runs = [None]
    if per_row > budget and len(shape) > dim and shape[dim] > 1:
        step = max(1, budget // max(per_row // shape[dim], 1))
        runs = [(t, min(t + step, shape[dim])) for t in range(0, shape[dim], step)]
    for start in range(0, n_rows, rows):
        for run in runs:
            box = [(start, min(start + rows, n_rows))] + [(0, n) for n in shape[1:]]
            if run:
                box[dim] = run
            yield tuple(box)


def _boxes(shape, tiles):
    """The boxes of ``_tiles``' index tuples on an array of ``shape``."""
    for idx in tiles:
        idx += (slice(None),) * (len(shape) - len(idx))
        yield tuple(s.indices(n)[:2] for s, n in zip(idx, shape))


def _chunk_tiles(shape, dim):
    return qd._tiles(shape, qd.CHUNK_POINTS, (0, dim) if len(shape) > dim else (0,))


def test_chunk_tiles_keep_the_chunk_rule():
    shapes = [(4,), (12, 12, 8), (24, 24, 16), (128, 128, 32), (32, 32, 256, 256),
              (16, 16, 64, 64), (256, 256, 256, 256), (2000, 1001), (64,) * 3 + (48,) * 3,
              (64, 64, 64, 2, 24, 24),  # an angle-split ball:3 chunk above 2M points
              (128,) * 4]  # polydisc:4 rows above 2M points with no angular axis
    shapes += [(n,) * dim + ang for n in (8, 64) for dim in (1, 2, 3)
               for ang in [(), (2,), (32,), (256,), (2, 24), (256, 256)] if len(ang) <= dim]
    for shape in shapes:  # read with up to three trailing axes as angles
        for dim in range(max(1, len(shape) - 3), len(shape) + 1):
            want = list(_chunk_rule(shape, dim))
            assert list(_boxes(shape, _chunk_tiles(shape, dim))) == want, (shape, dim)


def test_chunks_split_the_angles_of_an_oversized_row():
    # one radial row of 32 x 256 x 256 points exceeds the 2M chunk budget
    shape = (32, 32, 256, 256)
    chunks = list(_boxes(shape, _chunk_tiles(shape, 2)))
    assert len(chunks) == 64
    assert sum(math.prod(b - a for a, b in box) for box in chunks) == math.prod(shape)
    for row, pair in enumerate(zip(chunks[::2], chunks[1::2])):
        assert [box[0] for box in pair] == [(row, row + 1)] * 2
        assert [box[2] for box in pair] == [(0, 244), (244, 256)]


def _whole_chunk_sums(d, g, n_radial, ang_counts, block, chunks=None):
    """The tensor pass with each chunk of ``_chunk_rule`` (its first
    ``chunks`` only, if given) evaluated whole: one ``weight * v`` per chunk
    and exponent, as before slabs."""
    radii, weight = qd._radial_mesh(d, qd._axis_hints(d, g.base, g.p), n_radial, block)
    k, ones = len(ang_counts), (1,) * (d.dim + len(ang_counts))
    mesh = [a.reshape(a.shape + (1,) * k) for a in (weight, *radii)]
    mesh += [(np.arange(m) * (2 * PI / m)).reshape(ones[:i] + (m,) + ones[i + 1:])
             for i, m in enumerate(ang_counts, d.dim)]
    shape = np.broadcast_shapes(*(a.shape for a in mesh))
    totals = [0.0] * len(g.ps)
    for box in itertools.islice(_chunk_rule(shape, d.dim), chunks):
        w, *at = [a[tuple(slice(*ab) if n > 1 else slice(None) for ab, n in zip(box, a.shape))]
                  for a in mesh]
        with np.errstate(invalid="ignore", over="ignore"):
            vals = np.abs(g.base.eval_polar(at[:d.dim], at[d.dim:]))
            totals = [t + float(np.sum(w * np.power(vals, float(p))))
                      for t, p in zip(totals, g.ps)]
    ang_w = (math.prod(2 * PI / m for m in ang_counts)
             * (2 * PI) ** (d.dim - len(ang_counts)))
    return [t * ang_w for t in totals]


def _first_slabs(d, n_radial, ang_counts):
    """The slab index tuples of the first chunk of the mesh."""
    shape = (n_radial,) * d.dim + tuple(ang_counts)
    box = next(_chunk_rule(shape, d.dim))
    chunk = tuple(b - a for a, b in box)
    return list(qd._tiles(chunk, qd.SLAB_POINTS, range(len(chunk))))


def _slab_case(name):
    """(domain, integrand, radial nodes, angular counts, block) of a slab test."""
    laurent = qd.MonomialSumIntegrand([(1.0, (0, -1), (0, 0)), (0.7j, (2, 2), (0, 0))])
    if name == "two-term sum":  # 128 x 128 x 32: slabs of 8 rows on axis 0
        return H11, qd.AbsPowerIntegrand(laurent, Fraction(5, 2)), 128, [32], None
    if name == "lyapunov":
        ps = [Fraction(140, 59), Fraction(5, 2), Fraction(7, 4)]
        return H11, qd.AbsPowerIntegrand(laurent, ps), 64, [32], None
    if name == "kernel":  # rows of 16 x 64 x 64 points: split on the second axis
        section = kn._kernel_integrand(dm.hartogs(2, 1), (0.05, 0.5))
        return dm.hartogs(2, 1), qd.AbsPowerIntegrand(section, 3), 16, [64, 64], (0, 0)
    # the mesh of test_chunks_split_the_angles_of_an_oversized_row
    f = qd.MonomialSumIntegrand([(1.0, (0, 0), (0, 0)), (0.5, (1, 0), (0, 0)),
                                 (0.25j, (0, 1), (0, 0))])
    return dm.polydisc(2), qd.AbsPowerIntegrand(f, Fraction(3, 2)), 32, [256, 256], None


@pytest.mark.parametrize("name, split_axis", [("two-term sum", 0), ("lyapunov", 0),
                                              ("kernel", 1), ("angle-split", 2)])
def test_slabs_keep_every_bit_of_whole_chunk_sums(name, split_axis, monkeypatch):
    d, g, n, ang_counts, block = _slab_case(name)
    chunks = None
    if name == "angle-split":  # the first radial row: 244 angles, then 12
        chunks, tiles = 2, qd._tiles
        monkeypatch.setattr(qd, "_tiles", lambda shape, limit, axes: itertools.islice(
            tiles(shape, limit, axes), 2 if limit == qd.CHUNK_POINTS else None))
    slabs = _first_slabs(d, n, ang_counts)
    assert len(slabs) > 1 and len(slabs[0]) == split_axis + 1
    want = _whole_chunk_sums(d, g, n, ang_counts, block, chunks)
    hints = qd._axis_hints(d, g.base, g.p)
    assert qd._tensor_integrate(d, g, hints, n, ang_counts, block) == want


def test_slabs_tile_their_chunk_in_order():
    for shape in [(3, 5), (40, 64, 32), (1, 16, 64, 64), (1, 32, 244, 256), (2, 300000)]:
        covered = np.zeros(shape, dtype=int)
        for order, idx in enumerate(qd._tiles(shape, qd.SLAB_POINTS, range(len(shape))), 1):
            block = covered[idx]
            assert block.size <= max(qd.SLAB_POINTS, shape[-1])
            assert not block.any()
            block[...] = order
        flat = covered.ravel()  # C order: slabs are consecutive runs
        assert flat.all() and (np.diff(flat) >= 0).all()


def test_tensor_pass_peak_memory_stays_below_27_mb():
    # H(2,1) kernel section, p = 3, 32 radial x 64 x 64 angular nodes:
    # 4.2M points in three chunks; whole-chunk evaluation peaked at 64 MB, and
    # a second live chunk buffer at 32-35 MB, against 19.0 MB for one
    d = dm.hartogs(2, 1)
    g = qd.AbsPowerIntegrand(kn._kernel_integrand(d, (0.05, 0.5)), 3)
    hints = qd._axis_hints(d, g.base, g.p)
    tracemalloc.start()
    try:
        qd._tensor_integrate(d, g, hints, 32, [64, 64], (0, 0))
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 27e6


def _allocating_sum(f, radii, thetas):
    """``MonomialSumIntegrand.eval_polar`` as it was before it took ``out``:
    each term a new array, added with ``out + term``."""
    out = None
    for (c, alpha, gamma), coords in zip(f.terms, f._coords):
        term = c
        for r, a, g in zip(radii, alpha, gamma):
            if a + g:
                term = term * r ** (a + g)
        for t, k in zip(thetas, coords):
            if k:
                term = term * np.exp(1j * k * t)
        out = term if out is None else out + term
    return out


def _tensor_mesh(d, f, p, n_radial, ang_counts):
    """(radii, angles) of the whole tensor mesh, shaped as ``_tensor_integrate``
    broadcasts them."""
    radii, _w = qd._radial_mesh(d, qd._axis_hints(d, f, p), n_radial, None)
    k, ones = len(ang_counts), (1,) * (d.dim + len(ang_counts))
    radii = [r.reshape(r.shape + (1,) * k) for r in radii]
    angles = [(np.arange(m) * (2 * PI / m)).reshape(ones[:i] + (m,) + ones[i + 1:])
              for i, m in enumerate(ang_counts, d.dim)]
    return radii, angles


def test_in_place_sum_keeps_every_bit_of_the_allocating_sum():
    """eval_polar(r, theta, out=buf) against the allocating reference, by
    bytes, on seeded sums of 2-5 terms: on the whole mesh, on slabs of rows
    and on slabs cut down to one or two angles."""
    rng = np.random.default_rng(2808)
    seen = collections.Counter()
    doms = [dm.polydisc(2), dm.ball(2), H11, dm.ball(3), dm.polydisc(3)]
    for trial in range(60):
        d = doms[trial % len(doms)]
        n_terms = 2 + trial % 4
        terms = [(complex(*rng.normal(size=2)),
                  tuple(int(a) for a in rng.integers(0, 3, d.dim)),
                  tuple(int(g) for g in rng.integers(0, 2, d.dim)))
                 for _ in range(n_terms)]
        if trial % 3 == 0:  # a constant first term
            terms[0] = (terms[0][0], (0,) * d.dim, (0,) * d.dim)
        f = qd.MonomialSumIntegrand(terms)
        k = len(f.angular_bandwidth)
        seen[str(d), k, sum(terms[0][1]) + sum(terms[0][2]) == 0] += 1
        radii, angles = _tensor_mesh(d, f, 2, 6, [3] * k)
        mesh = radii + angles
        shape = np.broadcast_shapes(*(a.shape for a in mesh))
        rows, bits = [list(qd._tiles(shape, limit, range(len(shape))))
                      for limit in (math.prod(shape) // 4, 2)]
        for idx in [(), *rows, *(bits[i] for i in rng.choice(len(bits), 8))]:
            at = [qd._cut(a, idx) for a in mesh]
            slab = np.broadcast_shapes(*(a.shape for a in at))
            want = np.broadcast_to(_allocating_sum(f, at[:d.dim], at[d.dim:]), slab)
            buf = np.full(slab, np.nan + 0j)
            got = np.broadcast_to(f.eval_polar(at[:d.dim], at[d.dim:], out=buf), slab)
            assert got.tobytes() == want.tobytes(), (str(d), terms, idx)
            alloc = np.broadcast_to(f.eval_polar(at[:d.dim], at[d.dim:]), slab)
            assert alloc.tobytes() == want.tobytes()
    for name, k in [("polydisc:2", 2), ("ball:2", 2), ("ball:3", 3)]:
        assert seen[name, k, True] and seen[name, k, False], (name, k)


def test_warm_tensor_pass_peaks_below_its_chunk_buffer_and_scratch():
    # polydisc:2, p = 4, 128 radial x 4 angular nodes, as in an L^4 check: one
    # chunk buffer of 128 * 128 * 4 floats; allocating each slab's sum, |f|
    # and |f|^p anew peaked at 2.23 MB on a warm repeat
    d = dm.polydisc(2)
    f = qd.MonomialSumIntegrand([(1.0, (1, 0), (0, 0)), (0.5j, (1, 1), (0, 0))])
    g = qd.AbsPowerIntegrand(f, 4)
    hints = qd._axis_hints(d, f, g.p)
    assert qd._angular_counts(g, CFG)[0] == [4]
    qd._tensor_integrate(d, g, hints, 128, [4], None)
    tracemalloc.start()
    try:
        qd._tensor_integrate(d, g, hints, 128, [4], None)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 128 * 4 * 8 + 1.5 * qd.SLAB_POINTS * 16


@st.composite
def _chunk_shapes(draw):
    shape, room = [], 1 << 22
    for _ in range(draw(st.integers(1, 6))):
        shape.append(draw(st.integers(1, min(room, 1 << 17))))
        room //= shape[-1]
    return tuple(shape)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_chunk_shapes())
def test_no_slab_exceeds_slab_points(shape):
    # the per-thread scratch holds SLAB_POINTS points per buffer
    for idx in qd._tiles(shape, qd.SLAB_POINTS, range(len(shape))):
        cut = [len(range(*s.indices(n))) for s, n in zip(idx, shape)]
        assert math.prod(cut + list(shape[len(idx):])) <= qd.SLAB_POINTS


def test_threads_keep_their_own_scratch():
    """Two threads run 128-node passes on different sums at the same time;
    each result keeps the bits of the serial pass."""
    d = dm.polydisc(2)
    sums = [qd.MonomialSumIntegrand([(1.0, (1, 0), (0, 0)), (0.5j, (1, 1), (0, 0))]),
            qd.MonomialSumIntegrand([(0.25, (0, 0), (0, 0)), (1 - 1j, (2, 0), (0, 0)),
                                     (-0.75, (0, 2), (0, 0))])]
    jobs = [(qd.AbsPowerIntegrand(f, [Fraction(5, 2), 4]), qd._axis_hints(d, f, 4))
            for f in sums]
    serial = [qd._tensor_integrate(d, g, hints, 128, [8, 8][:len(g.base.angular_bandwidth)],
                                   None) for g, hints in jobs]
    start, results = threading.Barrier(2, timeout=60), [[], []]

    def run(i):
        g, hints = jobs[i]
        for _ in range(12):
            start.wait()
            results[i].append(qd._tensor_integrate(
                d, g, hints, 128, [8, 8][:len(g.base.angular_bandwidth)], None))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert [[x.hex() for x in r] for r in got] == [[x.hex() for x in want]] * 12


def test_separable_path_refines_to_budget():
    # on H(7,5) at p = 41/12 the second axis exponent -83/84 has denominator
    # 84 > qd.MAP_POWER_CAP: the capped power leaves the mapped profile
    # singular, it converges only algebraically, so doublings must buy accuracy
    d, alpha, p = dm.hartogs(7, 5), (0, -1), Fraction(41, 12)
    g = qd.AbsPowerIntegrand(_monomial(alpha, 2), p)
    exact = float(dm.moment(d, alpha, p))
    full = qd.integrate(d, g, CFG).value
    short = qd.integrate(d, g, qd.QuadConfig(max_doublings=0)).value
    assert abs(full - exact) < abs(short - exact)
    # an exact map agrees at the first doubling: the budget changes no bit
    g = qd.AbsPowerIntegrand(_monomial((1, -1), 2), 3)
    assert (qd.integrate(H11, g, CFG)
            == qd.integrate(H11, g, qd.QuadConfig(max_doublings=0)))


@pytest.mark.parametrize("m, n", [(7, 5), (8, 7), (13, 1)])
def test_steep_triangle_moments_match_at_the_oracle_tolerance(m, n):
    """Axis exponents near -1 with denominators in (12, 38] take their exact
    map power: H(7,5) at alpha = (-1, -2), p = 5/4 read 1.35e-3 off, and
    H(13,1) at (3, -1), p = 11/4 7.9e-4, under a power capped at 12."""
    d = dm.hartogs(m, n)
    ps = (Fraction(1), Fraction(5, 4), Fraction(2), Fraction(11, 4), Fraction(3))
    finite = 0
    for alpha in itertools.product(range(-3, 4), repeat=2):
        for p in ps:
            exact = dm.moment(d, alpha, p)
            if exact.is_finite:
                finite += 1
                got = qd.integrate(d, qd.AbsPowerIntegrand(_monomial(alpha, 2), p)).value
                assert abs(got - float(exact)) <= 1e-8 * float(exact), (alpha, p)
    assert finite > 100


def test_map_power_cap_keeps_every_node_normal():
    """Bruns' bound sin^2(pi / (4n + 2)) lies below the smallest node of an
    n-node rule, and at n = MAX_RULE_NODES its MAP_POWER_CAP-th power, not the
    next one, is a normal float."""
    for n in (8, 64, 1024):
        assert qd._leggauss01(n)[0][0] > math.sin(math.pi / (4 * n + 2)) ** 2
    x = math.sin(math.pi / (4 * qd.MAX_RULE_NODES + 2)) ** 2
    assert x ** (qd.MAP_POWER_CAP + 1) < sys.float_info.min <= x ** qd.MAP_POWER_CAP


def test_steep_ball_axis_beyond_the_power_cap_stays_finite():
    """|z1^-1 z2^60|^(63/32) on the ball: its first axis, exponent -63/64, is
    above MAP_POWER_CAP and meets rules of over 1,000 nodes, where x^64
    underflows and the sum read NaN; the power 38 reads 7.9e-5 off, inside
    the error estimate (the power 12 read 6.3e-2 off)."""
    d, alpha, p = dm.ball(2), (-1, 60), Fraction(63, 32)
    assert qd._axis_hints(d, _monomial(alpha, 2), p)[0][0] == (-63, 64)
    got = qd.integrate(d, qd.AbsPowerIntegrand(_monomial(alpha, 2), p))
    exact = float(dm.moment(d, alpha, p))
    assert abs(got.value - exact) <= min(got.error_estimate, 1e-4 * exact)


def test_a_large_exponent_keeps_its_small_rule():
    """H(13,1), alpha = (0, 700), p = 1: the axis exponent 9115/13 is smooth,
    so it takes the power 1 and a 359-node rule (the exact power 13 asked
    4,572 nodes and, doubled, more than MAX_RULE_NODES)."""
    d, f = dm.hartogs(13, 1), _monomial((0, 700), 2)
    assert [n for _e, n in qd._separable(d, f, Fraction(1), CFG.radial_nodes)[2]] == [64, 359]
    got = qd.integrate(d, qd.AbsPowerIntegrand(f, 1)).value
    assert got == pytest.approx(float(dm.moment(d, (0, 700), 1)), rel=1e-9)


def test_a_rule_above_the_node_bound_is_refused_unbuilt():
    # |z^1000|^64 needs a 32,009-node rule: numpy would build an 8.2 GB matrix
    start = time.perf_counter()
    with pytest.raises(Inconclusive, match="rule of 32,009 nodes exceeds the bound of 8,192"):
        qd.lp_norm(dm.polydisc(1), _monomial((1000,), 1), 64)
    assert time.perf_counter() - start < 1.0


def test_other_budgets_on_the_same_rules_reuse_every_axis_sum(monkeypatch,
                                                              clear_separable_caches):
    """The axis memo holds no budget: a second ``integrate`` of a monomial
    under another ``rel_tol`` or ``max_doublings`` that runs the same rule
    sizes computes no axis sum, and reads the bits of a cold run."""
    g = qd.AbsPowerIntegrand(_monomial((1, -1), 2), 3)  # exact maps: stop at 2n
    budgets = [CFG, qd.QuadConfig(max_doublings=0), qd.QuadConfig(rel_tol=1e-6),
               qd.QuadConfig(rel_tol=1e-12, max_doublings=5)]

    def run(cfg):
        res = qd.integrate(H11, g, cfg)
        return repr((res.value, res.error_estimate))

    cold = []
    for cfg in budgets:
        clear_separable_caches()
        cold.append(run(cfg))
    clear_separable_caches()
    sums, axis_sum = [], qd._axis_sum
    monkeypatch.setattr(qd, "_axis_sum", lambda *args: sums.append(args) or axis_sum(*args))
    warm = [run(budgets[0])]
    assert len(sums) == 4  # two axes, each at n and 2n nodes
    warm += [run(cfg) for cfg in budgets[1:]]
    assert len(sums) == 4
    assert warm == cold


def test_pass_bound_refuses_a_mesh_before_evaluating_it(monkeypatch):
    f = qd.MonomialSumIntegrand([(1.0, (0, 0), (0, 0)), (0.5, (1, 0), (0, 0))])
    g = qd.AbsPowerIntegrand(f, 3)
    cfg = qd.QuadConfig(radial_nodes=8, angular_nodes=8)  # 512, 4,096, 32,768 points
    assert qd.integrate(H11, g, cfg).value == 5.867337186583313
    passes = []
    evaluate = qd._tensor_integrate
    monkeypatch.setattr(qd, "_tensor_integrate",
                        lambda *args: passes.append(args[3]) or evaluate(*args))
    monkeypatch.setattr(qd, "MAX_PASS_POINTS", 10_000)
    with pytest.raises(Inconclusive, match="pass of 32,768 mesh points"):
        qd.integrate(H11, g, cfg)
    assert passes == [8, 16]  # radial nodes of the passes that ran


def test_every_doubling_doubles_each_inexact_angular_axis(monkeypatch):
    # the kernel section at z = 0.99 never converges: its angular error decays
    # like 0.99^N, so every pass must double the angle (a cap held it at 256)
    passes = []
    evaluate = qd._tensor_integrate
    monkeypatch.setattr(qd, "_tensor_integrate",
                        lambda *args: passes.append(args[4]) or evaluate(*args))
    g = qd.AbsPowerIntegrand(kn._kernel_integrand(dm.polydisc(1), (0.99,)), 2)
    qd.integrate(dm.polydisc(1), g, CFG)
    assert passes == [[32], [64], [128], [256], [512]]  # angular nodes per pass


def test_ladder_reads_node_counts_only():
    # the ladder runs at LADDER_TOL with one doubling, whatever the budget's
    # rel_tol and max_doublings; it reads only the node counts
    for f, p in [(_monomial((0, -1), 2), 3),
                 (qd.MonomialSumIntegrand([(1.0, (0, -1), (0, 0)),
                                           (0.5, (1, 0), (0, 0))]), 4)]:
        deep = qd.divergence_probe(H11, f, p, qd.QuadConfig(max_doublings=3))
        capped = qd.divergence_probe(H11, f, p, qd.QuadConfig(max_doublings=1))
        tight = qd.divergence_probe(H11, f, p, qd.QuadConfig(rel_tol=1e-12))
        assert deep == capped == tight
    # a tensor ladder on ball:2, where rel_tol 1e-2 and 1e-12 once differed
    f = qd.MonomialSumIntegrand([(1.0, (1, 0), (0, 0)), (0.9, (0, 1), (0, 0))])
    probes = {qd.divergence_probe(dm.ball(2), f, 3, qd.QuadConfig(
                  radial_nodes=16, angular_nodes=16, rel_tol=tol, max_doublings=k))
              for tol in (1e-2, 1e-9, 1e-12) for k in (0, 1, 3)}
    assert len(probes) == 1


def test_angular_exactness_above_bandwidth():
    f = qd.MonomialSumIntegrand([(1.0, (1, 0), (0, 2)), (0.5j, (0, 1), (1, 0))])
    band = f.angular_bandwidth
    results = []
    for extra in (2, 4, 8):
        cfg = qd.QuadConfig(radial_nodes=32,
                            angular_nodes=2 * max(band) + extra)
        results.append(qd.integrate(H11, qd.AbsPowerIntegrand(f, 2), cfg).value)
    assert results[0] == pytest.approx(results[2], rel=1e-13)
    assert results[1] == pytest.approx(results[2], rel=1e-13)


def test_coordinate_permutation_symmetry():
    for d in (dm.polydisc(2), dm.ball(2)):
        a = qd.integrate(d, qd.AbsPowerIntegrand(_monomial((3, 1), 2),
                                                 Fraction(5, 2)), CFG).value
        b = qd.integrate(d, qd.AbsPowerIntegrand(_monomial((1, 3), 2),
                                                 Fraction(5, 2)), CFG).value
        assert a == pytest.approx(b, rel=1e-12)


def test_multi_term_norm_against_expansion():
    # |1 + z1|^2 integrates to ||1||^2 + ||z1||^2 by orthogonality
    f = qd.MonomialSumIntegrand([(1.0, (0, 0), (0, 0)), (1.0, (1, 0), (0, 0))])
    est = qd.lp_norm(H11, f, 2, qd.QuadConfig(radial_nodes=32))
    exact = math.sqrt(float(dm.moment(H11, (0, 0), 2))
                      + float(dm.moment(H11, (1, 0), 2)))
    assert est == pytest.approx(exact, rel=1e-9)


def test_shared_mesh_norms_satisfy_discrete_convexity():
    f = qd.MonomialSumIntegrand([(1.0, (0, -1), (0, 0)), (0.7j, (2, 2), (0, 0))])
    r, p, q = Fraction(140, 59), Fraction(5, 2), Fraction(7, 4)
    # one doubling of the base rule: the final mesh is 24 radial x 16 angular
    nr, np_, nq = qd.lp_norms(H11, f, [r, p, q],
                              qd.QuadConfig(radial_nodes=12, angular_nodes=8,
                                            max_doublings=0))
    theta = Fraction(1, 8)
    assert 1 / r == (1 - theta) / p + theta / q
    assert nr <= np_ ** float(1 - theta) * nq ** float(theta) * (1 + 1e-12)


def test_lp_norms_at_mixed_parity_match_lp_norm():
    # an even largest exponent must not make the angular axes exact for the
    # others: |f|^(8/3) is no trigonometric polynomial.  The reference runs
    # lp_norm from 24 radial nodes (1e-14 from the default's, 6x faster)
    for d, terms in [
            (dm.polydisc(2), [(1.0, (0, 0), (0, 0)), (0.9, (1, 1), (0, 0))]),
            (H11, [(1.0, (0, 0), (0, 0)), (0.9, (1, 1), (0, 0))]),
            (dm.ball(2), [(1.0, (1, 0), (0, 0)), (0.9, (0, 1), (0, 0))])]:
        f = qd.MonomialSumIntegrand(terms)
        ps = [Fraction(8, 3), 4, 2]
        norms = qd.lp_norms(d, f, ps, qd.QuadConfig(radial_nodes=12,
                                                    angular_nodes=16))
        for p, norm in zip(ps, norms):
            want = qd.lp_norm(d, f, p, qd.QuadConfig(radial_nodes=24))
            assert abs(norm - want) <= 1e-9, (str(d), p)


def test_angle_free_black_box_counts_at_every_mesh_point():
    # a constant declared angle-free has values of less than the mesh's
    # shape; a chunk summed as weight * values at that shape lost one
    # angular axis's 2 nodes, a norm of pi / sqrt(2) on 8 radial nodes
    d = dm.polydisc(2)
    one = qd.BlackBoxIntegrand(lambda z1, z2: 1.0 + 0 * z1, 2, (0, 0), (0, 0))
    for n in (8, 128):
        cfg = qd.QuadConfig(radial_nodes=n, angular_nodes=8, max_doublings=0)
        assert abs(qd.lp_norm(d, one, 2, cfg) - PI) <= 1e-12
        assert abs(qd.divergence_probe(d, one, 2, cfg).sequence[-1] - PI) <= 1e-9


def test_nan_rejected(monkeypatch):
    def bad(w1, w2):
        with np.errstate(invalid="ignore"):
            return (w1 - w1) / (w1 - w1)  # NaN everywhere

    cfg = qd.QuadConfig(radial_nodes=4, angular_nodes=4, max_doublings=0)
    box = qd.BlackBoxIntegrand(bad, 2, (None,) * 2, (0,) * 2)
    passes = []
    evaluate = qd._tensor_integrate
    monkeypatch.setattr(qd, "_tensor_integrate",
                        lambda *args: passes.append(args[3]) or evaluate(*args))
    with pytest.raises(ValueError):  # |bad|^2
        qd.integrate(H11, qd.AbsPowerIntegrand(box, 2), cfg)
    assert passes == [4]  # the NaN pass is refused before the next one runs
    # integrate takes only |f|^p: a bare integrand is a one-line TypeError
    with pytest.raises(TypeError, match="AbsPowerIntegrand") as bare:
        qd.integrate(H11, box, cfg)
    assert "\n" not in str(bare.value)


def test_random_moment_probes_quarter_grid():
    """Random windows over the quarter-integer exponent grid vs the oracle."""
    rng = np.random.default_rng(31)
    doms = [dm.polydisc(2), dm.ball(2), H11, dm.hartogs(2, 3)]
    p_grid = [Fraction(k, 4) for k in range(4, 25)]
    for _ in range(120):
        d = doms[int(rng.integers(len(doms)))]
        alpha = tuple(int(rng.integers(-6, 7)) for _ in range(d.dim))
        p = p_grid[int(rng.integers(len(p_grid)))]
        m = dm.moment(d, alpha, p)
        g = _monomial(alpha, d.dim)
        if m.is_finite:
            est = qd.integrate(d, qd.AbsPowerIntegrand(g, p), CFG)
            assert abs(est.value - float(m)) / float(m) < 1e-8, (str(d), alpha, p)
        else:
            assert qd.divergence_probe(d, g, p, CFG).diverging, (str(d), alpha, p)


def test_config_validation():
    with pytest.raises(ValueError):
        qd.QuadConfig(radial_nodes=2)
    with pytest.raises(ParseError):
        qd.QuadConfig(max_doublings=-1)
    qd.QuadConfig(max_doublings=0)  # the base rule and one doubling
    # budgets that are not ints would crash later, in a shift or a range()
    for bad in ({"radial_nodes": 64.0}, {"max_doublings": 1.5},
                {"angular_nodes": 8.0},
                {"max_doublings": False}, {"radial_nodes": Fraction(64)}):
        with pytest.raises(ParseError, match="integer"):
            qd.QuadConfig(**bad)


def _exact_even_norm(d, terms, p):
    """||f||_p at even p = 2k of a sum of c z^alpha zbar^gamma terms, exactly.

    |f|^(2k) = f^k conj(f)^k expands over index tuples (s_1..s_k, u_1..u_k);
    the torus kills every product except those with f_s1 + .. + f_sk =
    f_u1 + .. + f_uk, and each survivor is a radial moment.
    """
    parts = [(complex(c), [a + g for a, g in zip(al, ga)],
              [a - g for a, g in zip(al, ga)]) for c, al, ga in terms]

    def total(ts, which):
        return [sum(col) for col in zip(*(t[which] for t in ts))]

    value = 0j
    for left in itertools.product(parts, repeat=p // 2):
        for right in itertools.product(parts, repeat=p // 2):
            if total(left, 2) == total(right, 2):
                m = dm.radial_moment(d, total(left + right, 1))
                assert m.is_finite
                coeff = (math.prod(t[0] for t in left)
                         * math.prod(t[0].conjugate() for t in right))
                value += coeff * float(m)
    return value.real ** (1.0 / p)


def test_lattice_basis_random_frequency_sets():
    rng = np.random.default_rng(2405)
    for _ in range(400):
        dim, n_terms = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        freqs = [tuple(int(x) for x in rng.integers(-4, 5, dim))
                 for _ in range(n_terms)]
        diffs = [tuple(a - b for a, b in zip(f, freqs[0])) for f in freqs]
        basis, coords = qd.lattice_basis(diffs)
        k = len(basis)
        assert k == np.linalg.matrix_rank(np.array(diffs, dtype=float))
        if k:
            assert np.linalg.matrix_rank(np.array(basis, dtype=float)) == k
        # Hermite form: pivots strictly right-moving and positive, the
        # entries above each pivot reduced modulo it
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots))
        for j, (b, col) in enumerate(zip(basis, pivots)):
            assert b[col] > 0
            assert all(0 <= basis[i][col] < b[col] for i in range(j))
        for v, c in zip(diffs, coords):
            assert len(c) == k
            assert tuple(sum(ci * b[j] for ci, b in zip(c, basis))
                         for j in range(dim)) == v
        if k:  # the coordinates generate Z^k: B spans the differences' lattice
            minors = [round(np.linalg.det(np.array(rows, dtype=float)))
                      for rows in itertools.combinations(coords, k)]
            assert math.gcd(*minors) == 1


def test_torus_reduction_with_gcd_above_one():
    assert qd.lattice_basis([(0, 0), (2, 2)]) == ([(2, 2)], [(0,), (1,)])
    assert qd.lattice_basis([(0, 0), (0, -2)]) == ([(0, 2)], [(0,), (-1,)])
    cases = [(dm.polydisc(2), [(1.0, (0, 0), (0, 0)), (0.5j, (2, 2), (0, 0))]),
             (H11, [(1.0, (1, 0), (0, 0)), (0.75 - 0.5j, (3, 2), (0, 0))]),
             (dm.ball(2), [(1.0, (1, 1), (0, 0)), (-0.5, (1, 3), (0, 0))])]
    for d, terms in cases:
        f = qd.MonomialSumIntegrand(terms)
        for p in (2, 4):
            assert qd.lp_norm(d, f, p, CFG) == pytest.approx(
                _exact_even_norm(d, terms, p), rel=1e-10), (str(d), p)


def test_reduced_sum_keeps_its_modulus_on_the_torus():
    """|f.eval_polar(r, B theta)| = |sum_t c_t r^(alpha+gamma) e^(i (alpha-gamma).theta)|
    for B the lattice basis of the frequency differences, on random mixed
    sums in C^1-C^3 (some of rank k < dim)."""
    rng = np.random.default_rng(1204)
    ranks = []
    for _ in range(80):
        dim, n_terms = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        terms = [(complex(*rng.normal(size=2)),
                  tuple(int(a) for a in rng.integers(-1, 4, dim)),
                  tuple(int(g) for g in rng.integers(0, 4, dim)))
                 for _ in range(n_terms)]
        f = qd.MonomialSumIntegrand(terms)
        freqs = [[a - g for a, g in zip(alpha, gamma)] for _c, alpha, gamma in terms]
        basis, _coords = qd.lattice_basis(
            [[a - b for a, b in zip(fr, freqs[0])] for fr in freqs])
        ranks.append((len(basis), dim))
        assert len(f.angular_bandwidth) == len(basis)
        radii = list(rng.uniform(0.2, 1.0, (dim, 64)))
        theta = rng.uniform(0.0, 2 * PI, (dim, 64))
        psi = list(np.array(basis, dtype=float).reshape(-1, dim) @ theta)
        got = np.abs(f.eval_polar(radii, psi))
        want, scale = np.zeros(64, dtype=complex), np.zeros(64)
        for (c, alpha, gamma), fr in zip(terms, freqs):
            radial = np.prod([r ** float(a + g) for r, a, g in zip(radii, alpha, gamma)],
                             axis=0)
            want += c * radial * np.exp(1j * (np.array(fr, dtype=float) @ theta))
            scale += abs(c) * radial
        # relative to the sum of the terms' moduli, so cancellation is fair
        assert np.all(np.abs(got - np.abs(want)) <= 1e-12 * scale)
    assert any(0 < k < dim for k, dim in ranks)
    assert any(k == dim > 1 for k, dim in ranks)


def test_even_p_norms_match_exact_expansion():
    cases = [(dm.polydisc(2), [(1.0, (1, 0), (0, 0)), (0.5j, (0, 2), (0, 0))]),
             (dm.ball(2), [(0.25 + 1j, (2, 1), (0, 0)), (0.75, (0, 1), (0, 0))]),
             (H11, [(1.0, (0, 0), (0, 0)), (-0.5 + 0.5j, (1, -1), (0, 0))]),
             (H11, [(0.5, (2, 1), (0, 0)), (1j, (0, 1), (1, 0))]),
             # k = 0: mixed terms sharing the frequency (1, 0)
             (dm.polydisc(2), [(1.0, (1, 0), (0, 0)), (0.5, (1, 1), (0, 1))])]
    for d, terms in cases:
        est = qd.lp_norm(d, qd.MonomialSumIntegrand(terms), 4, CFG)
        assert est == pytest.approx(_exact_even_norm(d, terms, 4),
                                    rel=1e-10), str(d)
    # lp_norms takes the same reduction; its radial rules are exact
    # for these polynomial profiles on the polydisc
    for d, terms in (cases[0], cases[-1]):
        shared = qd.lp_norms(d, qd.MonomialSumIntegrand(terms), [4, 2],
                             qd.QuadConfig(radial_nodes=12, angular_nodes=16))
        assert shared == pytest.approx(
            [_exact_even_norm(d, terms, p) for p in (4, 2)], rel=1e-10)
    # rank 2 on polydisc:3: differences (-1, 1, 1) and (1, 0, 1); the
    # profile is polynomial, so 8 radial nodes per axis are already exact
    terms = [(1.0, (1, 0, 0), (0, 0, 0)), (0.5j, (0, 1, 1), (0, 0, 0)),
             (-0.75, (2, 0, 1), (0, 0, 0))]
    f = qd.MonomialSumIntegrand(terms)
    assert len(qd.lattice_basis([(0, 0, 0), (-1, 1, 1), (1, 0, 1)])[0]) == 2
    est = qd.lp_norm(dm.polydisc(3), f, 4, qd.QuadConfig(radial_nodes=8))
    assert est == pytest.approx(_exact_even_norm(dm.polydisc(3), terms, 4),
                                rel=1e-10)


def test_axis_memo_is_bit_identical_and_bounded(clear_separable_caches):
    """Single-monomial integrals and ladders read the same bits whether each
    call starts from an empty axis memo and rule caches or from warm ones."""
    rng = random.Random(2405)
    cases = []
    for d in (dm.polydisc(2), dm.ball(3), dm.hartogs(3, 2)):
        for _ in range(10):
            alpha = tuple(rng.randint(-3, 3) for _ in range(d.dim))
            cases.append((d, alpha, Fraction(rng.randint(4, 24), 4)))

    def scan(clear_each):
        out = []
        for d, alpha, p in cases:
            f = _monomial(alpha, d.dim)
            if clear_each:
                clear_separable_caches()
            if dm.moment_finite(d, [p * a for a in alpha]):
                res = qd.integrate(d, qd.AbsPowerIntegrand(f, p), CFG)
                out.append((res.value, res.error_estimate))
            try:
                out.append(qd.divergence_probe(d, f, p, CFG))
            except Inconclusive as exc:
                out.append(str(exc))
        return [repr(x) for x in out]

    cold = scan(clear_each=True)
    clear_separable_caches()
    filling = scan(clear_each=False)
    hits = qd._axis_integral.cache_info().hits
    warm = scan(clear_each=False)
    assert qd._axis_integral.cache_info().hits > hits
    assert cold == filling == warm
    n_finite = sum(dm.moment_finite(d, [p * a for a in alpha])
                   for d, alpha, p in cases)
    assert 0 < n_finite < len(cases)  # finite and divergent p both met
    for cache in (qd._axis_integral, qd._mapped_rule, qd._log_rule):
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    assert isinstance(qd._axis_integral(1, 1, 0, 1, 64, 0), float)
    assert isinstance(qd._axis_integral(1, 1, 0, 1, 64, 3), float)
    # the cached rules are shared, so they are read-only
    assert not any(a.flags.writeable for a in qd._log_rule(64, 1) + qd._log_rule(64, 3)
                   + qd._mapped_rule(64, 2, 3))


def test_separable_ladder_builds_one_rule_size_per_axis_and_level(monkeypatch,
                                                                  clear_separable_caches):
    """Each level of a single monomial's ladder reads one rule per axis, twice
    the axis's base size on the cut box, and builds no other: one
    Gauss-Legendre size per axis and level, and a sequence equal bit for bit
    to the levels summed here on ``_log_rule``."""
    cases = [(dm.polydisc(2), (1, -1), Fraction(3)),
             (dm.ball(3), (0, -1, 2), Fraction(5, 2)),
             (dm.hartogs(3, 2), (2, -3), Fraction(2)),
             (dm.hartogs(3, 2), (1, 0), Fraction(3, 2))]
    real = qd._leggauss01
    for d, alpha, p in cases:
        f = _monomial(alpha, d.dim)
        hints = qd._axis_hints(d, f, p)
        sizes = []
        for (e_num, e_den), (b_num, b_den) in hints:  # the base size, in Fractions
            e, b = Fraction(e_num, e_den), Fraction(b_num, b_den)
            lift = _fraction_pick_power(e) * (abs(e) + 1) + _fraction_pick_power(b) * (abs(b) + 1)
            sizes.append(2 * max(CFG.radial_nodes, math.floor(lift / 2) + 8))
        clear_separable_caches()
        built = []
        monkeypatch.setattr(qd, "_leggauss01", lambda n: built.append(n) or real(n))
        probe = qd.divergence_probe(d, f, p, CFG)
        monkeypatch.setattr(qd, "_leggauss01", real)
        levels = len(probe.sequence)
        assert sorted(built) == sorted(n for n in set(sizes) for _level in range(levels))
        want = []
        for level in range(1, levels + 1):
            value = 1.0
            for ((e_num, e_den), (b_num, b_den)), n in zip(hints, sizes):
                u, w = qd._log_rule(n, level)
                vals = u ** (e_num / e_den)
                if b_num:
                    vals = vals * (1.0 - u) ** (b_num / b_den)
                value *= float(np.sum(w * vals))
            value *= (PI if d.family is dm.Family.BALL else 2 * PI) ** d.dim
            want.append(float(value) ** (1.0 / float(p)))
        assert probe.sequence == tuple(want), (str(d), alpha, p)


def _fraction_hints(d, profile):
    """The box axis hints of the modulus profile, in Fraction arithmetic."""
    if d.family is dm.Family.POLYDISC:
        return [(c + 1, Fraction(0)) for c in profile]
    if d.family is dm.Family.HARTOGS:
        c1, c2 = profile
        return [(c1 + 1, Fraction(0)),
                (Fraction(d.n, d.m) * (c1 + 2) + c2 + 1, Fraction(0))]
    a = [c / 2 for c in profile]
    return [(a[j], sum((a[i] + 1 for i in range(j + 1, d.dim)), Fraction(0)))
            for j in range(d.dim)]


def _fraction_pick_power(e, cap=qd.MAP_POWER_CAP):
    """The map power for the endpoint exponent e, in Fraction arithmetic."""
    e1 = e + 1
    smooth = math.ceil(3 / e1) if e1 > 0 else 1
    if e1.denominator <= min(cap, qd.EXACT_POWER_RATIO * smooth):
        return e1.denominator
    return min(cap, smooth)


def test_integer_axis_hints_match_fraction_formulas():
    """The integer hints and map powers equal the Fraction formulas, on the
    polydisc, the ball and H(m, n) with m + n <= 16, at p = k/4."""
    rng = random.Random(1102)
    triangles = [dm.hartogs(m, n) for m in range(1, 16) for n in range(1, 17 - m)
                 if math.gcd(m, n) == 1]
    doms = [dm.polydisc(1), dm.polydisc(2), dm.polydisc(3), dm.ball(2), dm.ball(3)]
    cases = [(d, tuple(rng.randint(-6, 6) for _ in range(d.dim)),
              Fraction(rng.randint(1, 40), 4))
             for d in doms + triangles for _ in range(12)]
    # a black box declaring fractional modulus exponents takes the tensor path
    box = qd.BlackBoxIntegrand(None, 2, (None,) * 2, (Fraction(1, 3), -2.5))
    box_hints = qd._axis_hints(dm.hartogs(3, 5), box, Fraction(7, 4))
    checks = [(qd._axis_hints(d, _monomial(alpha, d.dim), p),
               _fraction_hints(d, [p * a for a in alpha]))
              for d, alpha, p in cases]
    checks.append((box_hints, _fraction_hints(
        dm.hartogs(3, 5), [Fraction(7, 12), Fraction(-35, 8)])))
    # declared zero exponents; a sum's are its least alpha+gamma per axis
    for d in doms + triangles[:4]:
        zero = qd.BlackBoxIntegrand(None, d.dim, (None,) * d.dim, (0,) * d.dim)
        checks.append((qd._axis_hints(d, zero, Fraction(7, 4)),
                       _fraction_hints(d, [Fraction(0)] * d.dim)))
        terms = [(1.0, tuple(range(d.dim)), (1,) * d.dim), (1.0, (2,) * d.dim, (0,) * d.dim)]
        checks.append((qd._axis_hints(d, qd.MonomialSumIntegrand(terms), Fraction(5, 2)),
                       _fraction_hints(d, [Fraction(5, 2) * min(i + 1, 2)
                                           for i in range(d.dim)])))
    branches = collections.Counter()
    for got, want in checks:
        assert len(got) == len(want)
        for pair, value in zip((e for h in got for e in h), (e for h in want for e in h)):
            assert pair == (value.numerator, value.denominator)
            power = qd._pick_power(*pair)
            assert power == _fraction_pick_power(value)
            tensor = qd._pick_power(*pair, qd.TENSOR_POWER_CAP)
            assert tensor == _fraction_pick_power(value, qd.TENSOR_POWER_CAP)
            # at the tensor cap: den up to 12, else the smoothing power up to 12
            assert tensor == (value.denominator if value.denominator <= 12 else
                              min(12, math.ceil(3 / (value + 1)) if value > -1 else 1))
            den = value.denominator
            branches[power == den, den > qd.EXACT_POWER_RATIO, den > qd.MAP_POWER_CAP] += 1
    # the fallback is met past both limits, and the exact power above the ratio
    assert branches[False, True, True] and branches[False, True, False]
    assert branches[True, True, False]


#: sha256 of the reprs that ``_seeded_scan`` returns, recorded when the axis
#: hints and the memo were still computed in Fraction arithmetic
SCAN_SHA256 = "7dd253b31892b5a545908cf48a3aaeed5d13bd868752b1c6d9fcbaa561815a99"


def _seeded_scan():
    """Reprs of integrate (finite moments) and divergence_probe on 60 seeded
    single-monomial cases."""
    rng = random.Random(1101)
    doms = (dm.polydisc(2), dm.polydisc(3), dm.ball(2), dm.ball(3),
            dm.hartogs(1, 1), dm.hartogs(3, 2), dm.hartogs(2, 7))
    out = []
    for _ in range(60):
        d = rng.choice(doms)
        alpha = tuple(rng.randint(-3, 4) for _ in range(d.dim))
        p = Fraction(rng.randint(2, 24), 4)
        f = qd.MonomialSumIntegrand(
            [(complex(rng.uniform(0.5, 2), 0.25), alpha, (0,) * d.dim)])
        if dm.moment_finite(d, [p * a for a in alpha]):
            res = qd.integrate(d, qd.AbsPowerIntegrand(f, p))
            out.append(repr((res.value, res.error_estimate)))
        try:
            out.append(repr(qd.divergence_probe(d, f, p)))
        except Inconclusive as exc:
            out.append(str(exc))
    return out


def test_separable_scan_is_bit_identical_to_pinned_digest():
    reprs = _seeded_scan()
    assert len(reprs) == 96  # 36 finite integrals next to the 60 probes
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == SCAN_SHA256
