import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphiso import checks
from sphiso import circle_calculus as cc
from sphiso import record
from sphiso import spectra as sp
from sphiso.errors import PreconditionError
from sphiso.symbols import Curve, Hull, LaurentPoly, conv_hull, eval_grid

Z = LaurentPoly.variable(0, 1)
ZBAR = Z.conjugate()


def suite(count, max_degree=5):
    return checks.spectra_suite_symbols(404, count, max_degree)


def covering_grid(phi, n, grid_size=512):
    """The n x n lambdas `convex_bound_check` lays over phi's working curve."""
    xs, ys = sp.lambda_grid(Curve(phi, grid_size).samples, n)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def noted(kernel, *args, **kwargs):
    """(report, notes) of one kernel call."""
    with record.collect() as (notes, _):
        rep = kernel(*args, **kwargs)
    return rep, notes


# ---------------------------------------------------------------------------
# membership


def test_membership_winding_region():
    assert sp.spectrum_membership(Z, 0.0) == sp.WINDING_NONZERO
    assert sp.spectrum_membership(Z**2, 0.3 + 0.2j) == sp.WINDING_NONZERO


def test_membership_outside():
    assert sp.spectrum_membership(Z, 2.0) == sp.OUTSIDE
    assert sp.spectrum_membership(Z + ZBAR, 1j) == sp.OUTSIDE


def test_membership_on_curve():
    c = LaurentPoly.constant(0.7 - 0.2j)
    assert sp.spectrum_membership(c, 0.7 - 0.2j) == sp.ON_CURVE
    assert sp.spectrum_membership(Z, 1.0) == sp.ON_CURVE


def test_membership_batch_matches_scalar():
    phi = Z**2 + 0.5 * ZBAR
    lams = [0.0, 3.0, 0.2 + 0.1j]
    batch = sp.membership_batch(phi, lams)
    assert list(batch) == [sp.spectrum_membership(phi, v) for v in lams]


def test_membership_outside_l1_ball():
    for i, phi in enumerate(suite(6)):
        r = phi.l1_norm() + 0.5
        for t in (0.0, 1.3, 4.1):
            lam = r * complex(math.cos(t), math.sin(t))
            assert sp.spectrum_membership(phi, lam) == sp.OUTSIDE


def test_membership_stable_under_grid_doubling():
    for phi in suite(5):
        lams = covering_grid(phi, 5)
        s1 = sp.membership_batch(phi, lams, 2048)
        s2 = sp.membership_batch(phi, lams, 4096)
        for a, b in zip(s1, s2):
            assert a == sp.ON_CURVE or b == sp.ON_CURVE or a == b


# ---------------------------------------------------------------------------
# essential-range inclusion


def test_hartman_wintner_shift():
    rep = sp.hartman_wintner_check(Z, grid_size=512, probes=100)
    assert rep.verdict and rep.probe_pass
    assert rep.probes_certified == 100
    assert rep.counterexamples == []


def test_hartman_wintner_winged_cubic():
    rep = sp.hartman_wintner_check(Z**3 + 0.5 * ZBAR, grid_size=512)
    assert rep.verdict
    assert rep.probes_certified > 0


def test_hartman_wintner_real_symbol_vacuous():
    rep = sp.hartman_wintner_check(Z + ZBAR, grid_size=512)
    assert rep.verdict
    assert rep.probes_certified == 0


def test_hartman_wintner_random_suite():
    for phi in suite(4):
        assert sp.hartman_wintner_check(phi, grid_size=512).verdict


def test_hartman_wintner_fine_windings_match_the_doubled_grid(monkeypatch):
    # a candidate clear of the fine polyline by more than its sag winds
    # alike on the fine grid, on the true curve and so on a grid twice as fine
    calls = []
    honest = sp._winding_numbers

    def kept(samples, lams):
        calls.append((samples, np.asarray(lams)))
        return honest(samples, lams)

    monkeypatch.setattr(sp, "_winding_numbers", kept)
    for phi in suite(4) + [Z**3 + 0.5 * ZBAR]:
        calls.clear()
        assert sp.hartman_wintner_check(phi, grid_size=512).verdict
        # fine grids have at least 4 * grid_size points; the certified probes
        # lie within tol / 2 of a working sample, so ON_CURVE settles them on
        # the working grid without a crossing count
        fine = [(s, lams) for s, lams in calls if s.size > 512]
        assert fine and len(fine) == len(calls)
        for samples, lams in fine:
            doubled = eval_grid(phi, 2 * samples.size)
            assert np.array_equal(honest(samples, lams), honest(doubled, lams))


# ---------------------------------------------------------------------------
# pruned distances


def polyline_distance(samples, lams):
    """The earlier dense scan: distance from each lam to the closed polyline."""
    a = samples
    e = np.roll(samples, -1) - a
    ee = np.abs(e) ** 2
    ee_safe = np.where(ee == 0, 1.0, ee)
    lam = np.asarray(lams, dtype=complex)[:, None]
    t = ((lam - a[None, :]) * np.conj(e[None, :])).real / ee_safe[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    return np.abs(lam - (a[None, :] + t * e[None, :])).min(axis=1)


def sample_distance(samples, lams):
    """The dense scan of the samples alone."""
    return np.abs(samples[None, :] - np.asarray(lams, dtype=complex)[:, None]).min(axis=1)


def boxed(samples, lams, reach, edges):
    """`_within` on its boxes, however few the lambdas."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_BOX_SETUP", -math.inf)
        return sp._within(samples, lams, reach, edges)


coeff = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-4, 4), coeff, min_size=1, max_size=4),
    grid_size=st.sampled_from([64, 500, 512]),
    offsets=st.lists(
        st.complex_numbers(max_magnitude=0.1, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    start=st.integers(0, 511),
    at=st.integers(0, 11),
    widen=st.sampled_from([1.0, 0.5, 2.0]),
    edges=st.booleans(),
)
def test_pruned_distance_matches_dense_scan(coeffs, grid_size, offsets, start, at, widen, edges):
    # widen = 1 puts one lambda on the threshold, inside the recheck band
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    samples = eval_grid(phi, grid_size)
    picks = (start + 37 * np.arange(len(offsets))) % grid_size
    lams = samples[picks] + np.array(offsets, dtype=complex)
    exact = (polyline_distance if edges else sample_distance)(samples, lams)
    reach = widen * exact[at % lams.size]
    near, rescanned = boxed(samples, lams, reach, edges)
    assert np.array_equal(near, ~(exact > reach))
    assert 0 <= rescanned <= lams.size
    # one reach per lambda
    each = widen * exact[(at + np.arange(lams.size)) % lams.size]
    near, _ = boxed(samples, lams, each, edges)
    assert np.array_equal(near, ~(exact > each))


def test_pruned_distance_falls_back_and_rechecks():
    # unit circle on 64 points: two chunks of 32, one box per half plane
    circle = eval_grid(Z, 64)
    for edges in (True, False):
        # both boxes are measured; every distance lies far from the threshold
        near, rescanned = boxed(circle, [0j], 1.5, edges)
        assert near.tolist() == [True] and rescanned == 0
        # 3 is exactly 2 from the vertex 1: on the threshold, measured again
        near, rescanned = boxed(circle, [3 + 0j], 2.0, edges)
        assert near.tolist() == [True] and rescanned == 1
        # both boxes lie 2 from 3: the lambda meets no box
        near, rescanned = boxed(circle, [3 + 0j], 1.9, edges)
        assert near.tolist() == [False] and rescanned == 0
        # a few lambdas on few samples, an empty batch or a reach of 1e-100
        # or less go to the dense scan whole
        near, rescanned = sp._within(circle, [0j, 3 + 0j], 1.9, edges)
        assert near.tolist() == [True, False] and rescanned == 2
        near, rescanned = sp._within(circle, [], [], edges)
        assert near.size == 0 and rescanned == 0
        tiny = 1e-101 * circle
        lams = 1e-101 * np.array([0.5, 1.0, 1.5, 1j])
        near, rescanned = boxed(tiny, lams, 2e-102, edges)
        assert rescanned == lams.size
        assert near.tolist() == (sp._distance(tiny, lams, edges) <= 2e-102).tolist()
        # an infinite reach prunes nothing: a NaN lambda stays far, as densely
        lams = np.array([complex(math.nan, 0.0), 0j, complex(math.inf, 1.0)])
        near, rescanned = boxed(circle, lams, math.inf, edges)
        assert near.tolist() == [False, True, True] and rescanned == lams.size


@pytest.mark.parametrize("edges", [True, False], ids=["edges", "points"])
@pytest.mark.parametrize(
    "text, scale, size",
    [
        ("z^2 + 0.5*zbar^3", 1.0, 2048),
        ("z + zbar", 1.0, 2048),
        ("1j*z + 1j*zbar", 1.0, 2048),
        ("z^2 + 0.5*zbar^3", 1e100, 2048),
        ("z^3 - 0.4*zbar", 1.0, 3001),  # the last chunk padded
    ],
)
def test_box_pruned_distance_matches_the_exact_scan(text, scale, size, edges):
    # a curve on a segment (z + zbar), one on a vertical segment, whose boxes
    # have no width, and a curve 1e100 wide
    phi = scale * LaurentPoly.from_text(text)
    samples = Curve(phi, size).samples
    rng = np.random.default_rng(17)
    anchors = samples[rng.integers(0, samples.size, 600)]
    step = scale * rng.uniform(0.0, 0.02, 600) * np.exp(2j * np.pi * rng.uniform(0, 1, 600))
    far = scale * (rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, 3, 50))
    huge = 1e300 * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    lams = np.concatenate([anchors + step, far, samples[:7], huge])
    exact = sp._distance(samples, lams, edges)
    assert np.array_equal(exact, (polyline_distance if edges else sample_distance)(samples, lams))
    # the lambdas on samples have reach 0 in the last two, which sends the
    # batch to the dense scan; in the last, each lambda lies on its threshold
    for reach in (2e-4 * scale, 1e-2 * scale, np.roll(exact, 7), exact):
        each = np.broadcast_to(reach, lams.shape)
        near, rescanned = sp._within(samples, lams, reach, edges)
        assert np.array_equal(near, exact <= each)
        if np.ndim(reach) == 0:
            assert rescanned < lams.size // 10
    positive = np.maximum(exact, 1e-3 * scale)
    near, rescanned = sp._within(samples, lams, positive, edges)
    assert np.array_equal(near, exact <= positive)
    assert rescanned < lams.size


@pytest.mark.parametrize("edges", [True, False])
def test_box_pruned_distance_measures_repeated_samples(edges):
    # every sample three times: two edges of every three have zero length
    samples = np.repeat(Curve(Z**2 + 0.5 * ZBAR**3, 1024).samples, 3)
    rng = np.random.default_rng(3)
    lams = samples[rng.integers(0, samples.size, 300)] + rng.normal(0.0, 0.01, 300)
    exact = sp._distance(samples, lams, edges)
    for reach in (3e-3, np.roll(exact, 1)):
        near, _ = sp._within(samples, lams, reach, edges)
        assert np.array_equal(near, exact <= reach)


def random_symbol_of_band(rng, band):
    lo = -int(rng.integers(0, band + 1))
    coeffs = {lo: 1.0, lo + band: 1.0}
    for k in range(lo, lo + band + 1):
        if rng.uniform() < 0.6:
            coeffs[k] = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return LaurentPoly(1, {(k,): complex(c) for k, c in coeffs.items()})


@pytest.mark.parametrize("grid_size", [512, 1000, 2048, 8192])
def test_classify_matches_the_dense_scan(grid_size):
    # a constant symbol (tol = 0, so m = 1), bands 1-12, and curves with small
    # loops (z + a z^n with a n > 1), where a ring too coarse would cut corners
    rng = np.random.default_rng(grid_size)
    symbols = [LaurentPoly.constant(0.5 - 0.25j)]
    symbols += [random_symbol_of_band(rng, band) for band in range(1, 13)]
    symbols += [Z + (1.2 / n) * (Z**n if n > 0 else ZBAR**-n) for n in (-7, -3, 4, 9)]
    strides = []
    for phi in symbols:
        curve = Curve(phi, grid_size)
        samples, tol = curve.samples, curve.tol
        ring, m, g = curve.coarse
        assert np.array_equal(ring, samples[::m])
        assert g == np.abs(np.diff(samples, append=samples[:1])).max()
        # m is the largest stride whose homotopy radius m g stays inside tol,
        # with room for rounding (or 1, or the whole grid)
        room = tol - 2.0**-48 * (phi.l1_norm() + tol)
        ratio = room / (g * (1.0 + sp._MARGIN)) if g else 0.0
        assert m == 1 or m < ratio
        assert m == grid_size or m + 1 >= ratio
        strides.append(m)
        size = max(1.0, phi.l1_norm())
        for count in (1, 2, 7, 16, 48, 131, 400):
            # near the curve, in its range box, on a sample and beyond the l1 bound
            near = samples[rng.integers(0, grid_size, count)]
            near = near + tol * rng.uniform(0.5, 1.5, count) * np.exp(2j * np.pi * rng.random(count))
            box = rng.uniform(-1, 1, count) * np.abs(samples.real).max() + 1j * rng.uniform(
                -1, 1, count
            ) * np.abs(samples.imag).max()
            lams = np.where(rng.random(count) < 0.5, near, box)
            lams[::5] = samples[rng.integers(0, grid_size, lams[::5].size)]
            # on the ring, and in the band (tol, tol + (m // 2) g] about it
            lams[2::5] = ring[rng.integers(0, ring.size, lams[2::5].size)]
            band = lams[3::5].size
            lams[3::5] = ring[rng.integers(0, ring.size, band)] + (
                tol + (1.0 - rng.random(band)) * (m // 2) * g
            ) * np.exp(2j * np.pi * rng.random(band))
            # off a sample (half of them on the ring) along the normal, either
            # side, 0.9 to 2 tol away or within 5e-10 tol of tol
            off = lams[4::5].size
            j = np.where(
                rng.random(off) < 0.5, m * rng.integers(0, ring.size, off), rng.integers(0, grid_size, off)
            )
            chord = samples[(j + 1) % grid_size] - samples[j - 1]
            normal = 1j * chord / np.maximum(np.abs(chord), 1e-300)
            side = np.where(
                rng.random(off) < 0.5, rng.uniform(0.9, 2.0, off), 1.0 + rng.choice([-5e-10, 5e-10], off)
            )
            side *= np.where(rng.random(off) < 0.5, 1.0, -1.0)
            lams[4::5] = samples[j] + tol * side * normal
            lams[1::7] *= 3.0 * size
            dense = sp._codes(sp._distance(samples, lams) <= tol, sp._winding_numbers(samples, lams))
            assert np.array_equal(sp._classify(curve, lams), dense)
    assert strides[0] == 1 and min(strides[1:]) >= 9


def test_membership_batch_scans_no_far_lambda_densely(monkeypatch):
    # 48 lambdas farther than 10 tol from the curve are settled on the
    # coarse ring, so none reaches a scan of the full samples, dense or boxed
    phi = Z + 0.2 * ZBAR**2
    curve = Curve(phi, 2048)
    ring, m, _ = curve.coarse
    assert m >= 8 and ring.size == -(-2048 // m)
    rng = np.random.default_rng(8)
    pool = 2.5 * (rng.uniform(-1, 1, 2000) + 1j * rng.uniform(-1, 1, 2000))
    lams = pool[sp._distance(curve.samples, pool) > 10 * curve.tol][:48]
    assert lams.size == 48
    scanned = []

    def spy(name):
        honest = getattr(sp, name)

        def measured(samples, pts, *args, **kw):
            if samples.size == curve.samples.size:
                scanned.append(np.size(pts))
            return honest(samples, pts, *args, **kw)

        monkeypatch.setattr(sp, name, measured)

    spy("_distance")
    spy("_front")
    statuses = sp.membership_batch(phi, lams, 2048)
    assert sum(scanned) == 0
    assert sp.ON_CURVE not in set(statuses)
    assert set(statuses) == {sp.OUTSIDE, sp.WINDING_NONZERO}


def dense_codes(samples, tol, lams):
    """Status codes by the exact distance and the full polyline's windings."""
    return sp._codes(sp._distance(samples, lams) <= tol, sp._winding_numbers(samples, lams))


def test_classify_band_bound_holds_on_a_hairpin():
    # z + 0.034 z^35 folds back within each block of the ring, so a sample in
    # the middle of a block lies nearly (m // 2) g from the ring: lambdas just
    # beyond tol of it sit deep in the band that only all samples settle
    curve = Curve(Z + 0.034 * Z**35, 512)
    samples, tol = curve.samples, curve.tol
    _, m, _ = curve.coarse
    assert m == 10
    mid = samples[m // 2 :: m]
    lams = (mid[:, None] + tol * (1.0 + 1e-7) * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
    assert lams.size == 3264
    dense = dense_codes(samples, tol, lams)
    assert set(dense.tolist()) == {0, 1, 2}
    assert np.array_equal(sp._classify(curve, lams), dense)


class CrossingSpy:
    """Records the lambdas of every `spectra._winding_numbers` call."""

    def __init__(self, monkeypatch):
        self.calls = []
        honest = sp._winding_numbers

        def counted(samples, lams):
            self.calls.append(np.array(lams, dtype=complex))
            return honest(samples, lams)

        monkeypatch.setattr(sp, "_winding_numbers", counted)


def test_classify_counts_crossings_only_off_the_curve(monkeypatch):
    spy = CrossingSpy(monkeypatch)
    rng = np.random.default_rng(34)
    for phi in [Z**2 + 0.5 * ZBAR, Z + 0.034 * Z**35, random_symbol_of_band(rng, 7)]:
        for grid_size in (512, 2048):
            curve = Curve(phi, grid_size)
            samples, tol = curve.samples, curve.tol
            near = samples[rng.integers(0, grid_size, 150)]
            near = near + tol * rng.uniform(0.0, 2.0, 150) * np.exp(2j * np.pi * rng.random(150))
            far = 2.0 * phi.l1_norm() * (rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50))
            lams = np.concatenate((near, far))
            dense = dense_codes(samples, tol, lams)
            spy.calls.clear()
            assert np.array_equal(sp._classify(curve, lams), dense)
            (counted,) = spy.calls
            off = lams[sp._distance(samples, lams) > tol]
            assert 0 < off.size < lams.size
            assert np.array_equal(counted, off)


def test_membership_on_the_curve_counts_no_crossing(monkeypatch):
    spy = CrossingSpy(monkeypatch)
    phi = Z**2 + 0.5 * ZBAR
    lam = Curve(phi, 2048).samples[100]
    assert sp.spectrum_membership(phi, lam) == sp.ON_CURVE
    assert sp.spectrum_membership(phi, 0.1 + 0.05j) == sp.WINDING_NONZERO
    assert len(spy.calls) == 1 and spy.calls[0].tolist() == [0.1 + 0.05j]


def test_classify_empty_and_non_finite_batches():
    phi = Z**2 + 0.5 * ZBAR
    assert sp.membership_batch(phi, []).shape == (0,)
    assert sp._classify(Curve(phi, 2048), np.array([], dtype=complex)).shape == (0,)
    on = list(Curve(phi, 2048).samples[:5])
    for bad in (math.nan, complex(0.0, math.inf), -math.inf):
        with pytest.raises(PreconditionError, match="finite lambdas"):
            sp.membership_batch(phi, on + [bad])
        with pytest.raises(PreconditionError, match="finite lambdas"):
            sp.spectrum_membership(phi, bad)


# ---------------------------------------------------------------------------
# covering grids


def product_grid(xs, ys):
    """The lambdas xs[c] + 1j * ys[k], row by row, with each coordinate's bits
    kept (a -0.0 too, which xs + 1j * ys would turn into 0.0)."""
    lams = np.empty((len(ys), len(xs)), dtype=complex)
    lams.real = np.asarray(xs, dtype=float)[None, :]
    lams.imag = np.asarray(ys, dtype=float)[:, None]
    return lams.ravel()


def grid_flags(samples, xs, ys, tol):
    """(scanline flags, exact flags) of the product grid xs x ys."""
    exact = sp._distance(samples, product_grid(xs, ys)) <= tol
    return sp._near_grid(samples, xs, ys, tol), exact


def test_grid_on_curve_on_planted_thresholds():
    # dyadic samples and tol, so the rows at +-tol and the lambdas at tol
    # (1 +- 1e-12) from a sample are what they say
    samples = np.array([0.5 + 0.25j, -0.75 + 0.5j, 0.25 - 0.5j, 1.0 + 0.0j])
    tol = 0.125
    xs, ys = [], []
    for s in samples:
        for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12):
            xs += [s.real - tol * f, s.real + tol * f]
            ys += [s.imag - tol * f, s.imag + tol * f]
        xs += [s.real, np.nextafter(s.real, 9.0), np.nextafter(s.real, -9.0)]
        ys += [s.imag]
    xs, ys = np.unique(xs), np.unique(ys)
    near, exact = grid_flags(samples, xs, ys, tol)
    assert np.array_equal(near, exact)
    lams = product_grid(xs, ys)
    d = sp._distance(samples, lams)
    # the planted thresholds: at tol exactly, an ulp off the vertical, and
    # 1e-12 of tol to either side
    assert (d == tol).sum() >= 4 * samples.size
    assert (near & (d > tol * (1 - 2e-12))).any() and (~near & (d < tol * (1 + 2e-12))).any()
    # every lambda on a row at exactly +-tol is near at x = Re s alone
    for s in samples:
        for y in (s.imag - tol, s.imag + tol):
            row = near.reshape(ys.size, xs.size)[np.flatnonzero(ys == y)[0]]
            assert row[xs == s.real].all() and row.sum() >= 1


def test_grid_on_curve_on_edge_shapes():
    curve = Curve(Z**2 + 0.3 * ZBAR, 512)
    samples, tol = curve.samples, curve.tol
    lo, hi = -1.6, 1.6
    even = np.linspace(lo, hi, 41)
    rng = np.random.default_rng(5)
    uneven = np.sort(np.concatenate([lo + (hi - lo) * rng.random(30) ** 3, [lo, hi]]))
    with_zeros = np.unique(np.concatenate([even, [0.0]]))
    with_zeros = np.where(with_zeros == 0.0, -0.0, with_zeros)
    cases = [
        (even, even),
        (uneven, even),
        (even, uneven),
        (with_zeros, with_zeros),  # -0.0 on both axes
        (even, [0.3]),  # one row
        ([0.3], even),  # one column
        ([samples[7].real], [samples[7].imag]),  # one lambda, on a sample
    ]
    sides = set()
    for xs, ys in cases:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        near, exact = grid_flags(samples, xs, ys, tol)
        assert np.array_equal(near, exact), (xs.size, ys.size)
        sides.update(near.tolist())
    assert sides == {True, False}
    assert np.signbit(with_zeros).any()


def test_grid_on_curve_measures_a_tol_below_1e_100_exactly(monkeypatch):
    samples = 1e-101 * eval_grid(Z, 64)
    xs = ys = np.linspace(-2e-101, 2e-101, 33)
    scanned = []
    distance = sp._distance

    def spy(samples, lams, *args, **kw):
        scanned.append(np.size(lams))
        return distance(samples, lams, *args, **kw)

    monkeypatch.setattr(sp, "_distance", spy)
    near, exact = grid_flags(samples, xs, ys, 2e-102)
    assert np.array_equal(near, exact) and near.any() and not near.all()
    assert scanned[0] == xs.size * ys.size


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-4, 4), coeff, min_size=1, max_size=4),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=24),
    ys=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=24),
    at=st.integers(0, 10_000),
    widen=st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0]),
)
def test_grid_on_curve_matches_exact_scan(coeffs, xs, ys, at, widen):
    # tol is the distance of one grid lambda (widen = 1 puts it on the
    # threshold), so every band of the scanline test is crossed
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    samples = eval_grid(phi, 64)
    xs, ys = np.unique(xs), np.unique(ys)
    d = sp._distance(samples, product_grid(xs, ys))
    tol = widen * d[at % d.size]
    if tol > 0:
        near, exact = grid_flags(samples, xs, ys, tol)
        assert np.array_equal(near, exact)


# ---------------------------------------------------------------------------
# convex bound


def test_convex_bound_shift():
    rep = sp.convex_bound_check(Z, 40)
    assert rep.verdict
    assert rep.counterexamples == []
    assert set(rep.statuses) <= {sp.ON_CURVE, sp.WINDING_NONZERO, sp.OUTSIDE}


def test_convex_bound_selfadjoint_and_shifted():
    for phi in (Z + ZBAR, LaurentPoly.constant(2.0) + Z**2):
        rep = sp.convex_bound_check(phi, 40)
        assert rep.verdict


def test_convex_bound_random_suite():
    for phi in suite(3):
        rep = sp.convex_bound_check(phi, 30)
        assert rep.verdict


def full_scenario_symbols():
    return checks._suite_symbols(dict(checks.DEFAULT_PARAMS), 20260815)


def test_convex_bound_flags_a_shrunken_hull(monkeypatch):
    # the working hull decides alone: a shrunken one is built once per call,
    # on the 512 working samples, and nothing rescues the lambdas it misses
    fed = []

    def shrunk(points):
        fed.append(np.array(points))
        v = conv_hull(points).vertices
        c = v.mean()
        return Hull(c + 0.99 * (v - c))

    monkeypatch.setattr(sp, "conv_hull", shrunk)
    for phi in full_scenario_symbols()[:4]:
        fed.clear()
        rep = sp.convex_bound_check(phi, 200)
        assert not rep.verdict
        assert rep.counterexamples
        (working,) = fed
        assert np.array_equal(working, eval_grid(phi, 512))
        assert np.array_equal(rep.lams, covering_grid(phi, 200))


def row_ends(statuses, n):
    """Flat indices, ascending, of the leftmost and rightmost ON_CURVE and
    WINDING_NONZERO lambda of each row of the n x n grid."""
    ends = set()
    for row in range(n):
        for status in (sp.ON_CURVE, sp.WINDING_NONZERO):
            cols = np.flatnonzero(statuses[row * n : (row + 1) * n] == status)
            if cols.size:
                ends.update((row * n + cols[0], row * n + cols[-1]))
    return np.array(sorted(ends))


def test_convex_bound_measures_only_the_row_ends(monkeypatch):
    # on a passing symbol the hull stage measures the outermost lambda of
    # each status on each row and nothing else, at most 4 per row.
    # z + 0.3 zbar^2 gives both statuses. No refined grid is sized
    phi = Z + 0.3 * ZBAR**2
    scanned = []
    distance = sp._distance

    def spy_distance(samples, pts, edges=False):
        if edges:
            scanned.append(np.array(pts))
        return distance(samples, pts, edges)

    def forbidden(*args, **kwargs):
        raise AssertionError("no refined grid")

    monkeypatch.setattr(sp, "_distance", spy_distance)
    monkeypatch.setattr(Curve, "refine", forbidden)
    n = 200
    rep = sp.convex_bound_check(phi, n)
    assert rep.verdict
    [pts] = scanned
    ends = row_ends(rep.statuses, n)
    assert np.array_equal(pts, rep.lams[ends])
    assert np.bincount(ends // n, minlength=n).max() <= 4
    assert set(rep.statuses[ends]) == {sp.ON_CURVE, sp.WINDING_NONZERO}
    assert pts.size < np.count_nonzero(rep.statuses != sp.OUTSIDE) / 10


def every_lambda_counterexamples(rep, hull):
    """The counterexamples of a test of every lambda that is not OUTSIDE, in
    the report's order: winding ones, then ON_CURVE ones, row-major. A
    lambda passes strictly left of every counterclockwise edge of a polygon
    hull (a point or segment hull has no inside), or within its limit of
    the hull's boundary."""
    tested = rep.statuses != sp.OUTSIDE
    pts, status = rep.lams[tested], rep.statuses[tested]
    limit = np.where(status == sp.WINDING_NONZERO, sp._TOL_WINDING, rep.tol_on_curve) - 1e-12
    verts = hull.vertices
    cross = (np.conj(np.roll(verts, -1) - verts) * (pts[:, None] - verts)).imag
    inside = (cross > 0).all(axis=1) & (verts.size > 2)
    ok = inside | (sp._distance(verts, pts, edges=True) <= limit)
    counter = [complex(v) for v in pts[~ok & (status == sp.WINDING_NONZERO)]]
    return counter + [complex(v) for v in pts[~ok & (status == sp.ON_CURVE)]]


@pytest.mark.parametrize("plant, n", [("shrunken", 200), ("shifted", 100)])
def test_convex_bound_row_ends_keep_every_counterexample(monkeypatch, plant, n):
    # a wrong hull fails some row ends; those rows are measured lambda by
    # lambda, and the counterexamples and their order are those of a test
    # of every lambda: the distance to a convex set is convex along a row.
    # The full.json symbols give ON_CURVE lambdas only, z winding ones too;
    # the hull shifted by 3 tol fails both kinds
    built = []

    def planted(points):
        v = conv_hull(points).vertices
        if plant == "shrunken":
            c = v.mean()
            hull = Hull(c + 0.99 * (v - c))
        else:
            hull = Hull(v + 3.0 * Curve(phi, 512).tol * (0.6 + 0.8j))
        built.append(hull)
        return hull

    monkeypatch.setattr(sp, "conv_hull", planted)
    kinds = set()
    for phi in full_scenario_symbols()[:3] + [Z]:
        built.clear()
        rep = sp.convex_bound_check(phi, n)
        (hull,) = built
        want = every_lambda_counterexamples(rep, hull)
        assert want and rep.counterexamples == want and not rep.verdict
        kinds.update(rep.statuses[np.isin(rep.lams, want)])
    assert kinds == ({sp.ON_CURVE} if plant == "shrunken" else {sp.ON_CURVE, sp.WINDING_NONZERO})


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_convex_bound_working_hull_accepts_every_lambda(scale):
    # the premise of deciding on the working hull alone: every ON_CURVE
    # lambda lies within tol of a working sample, every winding one inside
    # the working polygon. The full.json symbols give ON_CURVE and OUTSIDE
    # lambdas at n = 100, z gives winding ones too. At 1e-6 the grid's
    # least half-width of 0.1 puts every lambda OUTSIDE, so nothing is tested
    seen = set()
    for phi in full_scenario_symbols()[:8] + [Z]:
        rep = sp.convex_bound_check(scale * phi, 100)
        assert rep.verdict and rep.counterexamples == []
        seen.update(rep.statuses)
    assert seen == ({sp.OUTSIDE} if scale < 1 else set(sp._STATUS_NAMES))


def test_spectra_checks_never_import_scipy_spatial(child_env):
    # a lazy import is paid afresh in every pool worker, so no spectra check
    # may need one that sphiso.cli does not load
    code = (
        "import sys; from sphiso import checks\n"
        "params = dict(checks.DEFAULT_PARAMS, spectra_symbols=2, lambda_points=40, probes=10)\n"
        "for cid in checks.suite_check_ids('spectra'):\n"
        "    assert checks.run_check(cid, params, 3).verdict, cid\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_run_never_imports_the_scipy_linalg_package(child_env, tmp_path):
    # sphiso loads scipy's compiled LAPACK/BLAS wrappers alone, and the run
    # reads scipy's version from its file, so not even the scipy package is
    # imported; a later import of scipy.linalg hands out the very routines
    # sphiso calls
    import scipy

    smoke = Path(__file__).resolve().parent.parent / "scenarios" / "smoke.json"
    code = (
        "import sys; import sphiso.cli\n"
        "print('scipy.linalg' in sys.modules)\n"
        f"argv = ['run', {str(smoke)!r}, '--suite', 'all', '--out', {str(tmp_path)!r}]\n"
        "assert sphiso.cli.main(argv) == 0\n"
        "print('scipy.linalg' in sys.modules, 'scipy' in sys.modules)\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "from sphiso import linalg\n"
        "print(scipy.linalg.lapack.zpbtrf is linalg._flapack.zpbtrf,"
        " scipy.linalg.lapack.ztrtrs is linalg._flapack.ztrtrs,"
        " scipy.linalg.blas.zhbmv is linalg._fblas.zhbmv)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-2:] == ["False False", "True True True"]
    (manifest,) = tmp_path.glob("*/manifest.json")
    assert json.loads(manifest.read_text())["scipy"] == scipy.__version__


def test_hartman_wintner_flags_a_planted_outside(monkeypatch):
    honest = sp._classify

    def planted(curve, lams):
        codes = honest(curve, lams)
        codes[0] = 2
        return codes

    monkeypatch.setattr(sp, "_classify", planted)
    rep = sp.hartman_wintner_check(Z**3 + 0.5 * ZBAR, grid_size=512)
    assert rep.probes_certified > 0
    assert not rep.probe_pass
    assert not rep.verdict and len(rep.counterexamples) == 1


# ---------------------------------------------------------------------------
# numerical range


def test_numerical_range_identity():
    one = LaurentPoly.constant(1.0)
    thetas = [0.0, 0.7, math.pi / 2, 2.9]
    rep = sp.numerical_range_support(cc.make_toeplitz(one), thetas, 8)
    assert rep.verdict
    for t, h in zip(rep.thetas, rep.support_values):
        assert abs(h - math.cos(t)) <= 1e-12
    assert abs(rep.support_values[0] - 1.0) <= 1e-12


def test_numerical_range_cosine_sup():
    rep = sp.numerical_range_support(cc.make_toeplitz(Z + ZBAR), [0.0], 256)
    h = rep.support_values[0]
    assert 2.0 - 1e-3 <= h <= 2.0 + 1e-8
    assert rep.verdict


def test_numerical_range_shift_bounded():
    thetas = [2.0 * math.pi * k / 16 for k in range(16)]
    rep = sp.numerical_range_support(cc.make_toeplitz(Z), thetas, 64)
    assert rep.verdict
    assert max(rep.support_values) <= 1.0 + 1e-8


def test_arc_sup_bounds_the_dense_grid_maxima():
    # the arc bound plus its sag is never below the sup grid sampled before
    # the arcs (sized for a sag of 2e-9, clamped at 300,000 points), nor below
    # a grid four times as dense; and the value it reports was sampled, so it
    # stays within the dense grid's own sag of that grid's maximum
    phs = [complex(math.cos(t), math.sin(t)) for t in 2.0 * math.pi * np.arange(16) / 16]
    for phi in full_scenario_symbols()[:8]:
        with record.collect() as (notes, _):
            old = Curve(phi, 4096).refine(2e-9, 4096, 4096, 300_000, "sup_grid")
        dense = Curve(phi, 4 * old.size)
        tops, sags, points = sp._arc_sup(phi, phs)
        assert 4096 < points < 20_000 and max(sags) <= 2e-9
        for ph, top, sag in zip(phs, tops, sags):
            assert top + sag >= float(np.max((ph * old.samples).real))
            dense_max = float(np.max((ph * dense.samples).real))
            assert top + sag >= dense_max
            assert top <= dense_max + dense.sag + 1e-12


def test_arc_sup_resamples_a_peak_whose_samples_fall_below_another():
    # Re(z^3 + eps e^{-2 pi i / 3} z) peaks at 1 + eps near t = 2 pi / 3, a
    # third of a spacing from the nearest of 4096 samples, which reads about
    # 1 - 6e-7; the grid maximum, 1 - eps / 2, sits on the sample t = 0. Only
    # the sag keeps the arcs around the higher peak
    eps = 5e-7
    phi = LaurentPoly(1, {(3,): 1.0, (1,): eps * complex(np.exp(-2j * np.pi / 3))})
    t = 2.0 * math.pi / 3.0 + np.linspace(-1e-3, 1e-3, 200_001)
    true_max = float(np.max(phi.eval_at(np.exp(1j * t)).real))
    assert float(np.max(Curve(phi, 4096).samples.real)) < true_max - 5e-7
    (top,), (sag,), _ = sp._arc_sup(phi, [1.0 + 0j])
    assert top <= true_max + 1e-15 and top + sag >= true_max


def test_arc_sup_resamples_nothing_where_the_direction_is_flat():
    # Re(e^{i theta} phi) of a curve on a line is constant in the normal
    # direction: no arc is resampled there, and the sag is 0
    phi = LaurentPoly.from_text("1j*z + 1j*zbar")  # 2i cos t
    tops, sags, points = sp._arc_sup(phi, [1.0 + 0j])
    assert abs(tops[0]) <= 1e-15 and sags == [0.0] and points == 4096
    # a huge symbol stops at base points per arc, far past the sag target
    tops, sags, points = sp._arc_sup(1e100 * Z, [1.0 + 0j])
    assert 4096 < points <= 4096 + 16 * 4095 and 2e-9 < sags[0] < 1e100 * 1e-13


def test_numerical_range_trunc_guard():
    x = cc.make_toeplitz(Z**2 + ZBAR**2)
    with pytest.raises(PreconditionError):
        sp.numerical_range_support(x, [0.0], 4)


def test_numerical_range_band_solve_matches_dense():
    # the band handed to the kernel is the hermitian part of e^{i theta} X_N
    # entry for entry: the symbol's band, widened to k - 1 by a k x k corner
    rng = checks._rng(404, 10, 0)
    corner = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    cases = [
        (cc.make_toeplitz(checks.random_symbol(rng, 5, min_terms=2)), 5),
        (cc.ToeplitzElement(Z + 0.3 * ZBAR, corner), 4),
        (cc.ToeplitzElement(Z**4 - 0.5j * ZBAR**2, corner[:2, :2]), 4),
    ]
    thetas = [0.0, 0.9, 2.0, 4.4]
    eps = np.finfo(float).eps
    for x, band in cases:
        rep, notes = noted(sp.numerical_range_support, x, thetas, 64)
        assert notes["band"] == [band]
        xn = cc.truncation(x, 64)
        for t, h in zip(thetas, rep.support_values):
            ph = complex(math.cos(t), math.sin(t))
            herm = (ph * xn + np.conj(ph) * xn.conj().T) / 2.0
            tol = 8 * (band + 1) * eps * np.max(np.abs(herm).sum(axis=0))
            assert abs(h - np.linalg.eigvalsh(herm)[-1]) <= tol


# 1 - (1 - cos t)^3: its maximum 1 at t = 0 is flat to sixth order, so the
# compressions' support at theta = 0 sits within 1e-9 of the bound
FLAT_TOP = (
    "-1.5 + 1.875*z + 1.875*zbar - 0.75*z^2 - 0.75*zbar^2 + 0.125*z^3 + 0.125*zbar^3"
)


def test_numerical_range_check_fails_on_an_inflated_support(monkeypatch):
    params = dict(
        checks.DEFAULT_PARAMS,
        symbols=[FLAT_TOP],
        spectra_symbols=1,
        nr_thetas=8,
        nr_truncation=128,
    )
    honest = checks.run_check("numerical_range", params, 7)
    assert honest.verdict and honest.residuals["violations"] == 0
    assert honest.residuals["support_margin_worst"] > -1e-9
    inflated = sp.band_max_eig
    monkeypatch.setattr(sp, "band_max_eig", lambda ab, guess=math.nan: inflated(ab, guess) + 1e-6)
    rec = checks.run_check("numerical_range", params, 7)
    assert not rec.verdict
    assert rec.residuals["violations"] > 0


def test_numerical_range_counts_a_nan_support_as_a_violation(monkeypatch):
    # h > bound is False for a NaN h; every NaN direction must still count
    monkeypatch.setattr(sp, "band_max_eig", lambda ab, guess=math.nan: math.nan)
    thetas = [0.0, 1.0, 2.0]
    rep = sp.numerical_range_support(cc.make_toeplitz(Z + 0.5 * ZBAR), thetas, 64)
    assert rep.counterexamples == thetas and not rep.verdict


def test_deep_spectrum_points_inside_numerical_range():
    # winding-certified lambdas well inside the range hull must lie in the
    # truncated numerical range: support gaps stay above -1e-6 at trunc 512
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    for i in range(2):
        phi = checks.random_symbol(checks._rng(404, 9, i), 3, min_terms=2)
        rep = sp.numerical_range_support(cc.make_toeplitz(phi), thetas, 512)
        samples = eval_grid(phi, 8192)
        sup_dir = np.array(
            [float(np.max((np.exp(1j * t) * samples).real)) for t in thetas]
        )
        lams = covering_grid(phi, 40)
        statuses = sp.membership_batch(phi, lams, 512)
        inside = lams[statuses == sp.WINDING_NONZERO]
        checked = 0
        for lam in inside:
            proj = np.array([(np.exp(1j * t) * lam).real for t in thetas])
            if np.min(sup_dir - proj) < 2e-3:
                continue
            checked += 1
            overshoot = float(np.max(proj - np.array(rep.support_values)))
            assert overshoot <= 1e-6
        assert checked > 0


# ---------------------------------------------------------------------------
# reports


def test_spectrum_report_shift():
    # both certificates behind spectrum_0.csv hold for the shift
    hw = sp.hartman_wintner_check(Z, grid_size=512)
    cb = sp.convex_bound_check(Z, 200, grid_size=512)
    assert hw.verdict and cb.verdict
    assert hw.counterexamples == [] and cb.counterexamples == []
    assert cb.lams.size == 200 * 200


def test_spectrum_report_consistency_guard():
    arr = np.array([], dtype=complex)
    with pytest.raises(PreconditionError):
        sp.ConvexBoundReport(
            statuses=np.array([], dtype=object),
            lams=arr,
            tol_on_curve=1e-9,
            counterexamples=[1j],
            verdict=True,
        )


def csv_text(rows):
    """The oracle of the CSV text: rows as `csv.writer` writes them."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def per_value_rows(rep):
    """The CSV rows as first written: one repr per coordinate of each lambda."""
    rows = [("lambda_re", "lambda_im", "status")]
    for lam, st in zip(rep.lams.tolist(), rep.statuses.tolist()):
        rows.append((repr(lam.real), repr(lam.imag), st))
    return rows


def test_report_serialization():
    rep = sp.convex_bound_check(Z + ZBAR, 20, grid_size=512)
    assert rep.verdict
    text = sp.report_csv(rep)
    assert text == csv_text(per_value_rows(rep))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["lambda_re", "lambda_im", "status"]
    assert len(rows) == 401 and text.count("\r\n") == 401
    assert all(r[2] in (sp.ON_CURVE, sp.WINDING_NONZERO, sp.OUTSIDE) for r in rows[1:])
    assert [complex(float(r[0]), float(r[1])) for r in rows[1:]] == list(rep.lams)


def test_report_csv_rows_match_per_value_repr():
    # -0.0 and 0.0, and coordinates one ulp apart, keep their own text
    xs = [-1.0, -0.0, 0.0, 0.1, np.nextafter(0.1, 1.0), 2.5]
    ys = [-0.0, 0.0, 0.3, np.nextafter(0.3, 1.0)]
    lams = product_grid(xs, ys)
    statuses = sp._NAMES[np.arange(lams.size) % 3]
    rep = sp.ConvexBoundReport(statuses, lams, 1e-9, [], True)
    text = sp.report_csv(rep)
    assert text == csv_text(per_value_rows(rep))
    lines = text.split("\r\n")
    assert [line.split(",")[0] for line in lines[2:4]] == ["-0.0", "0.0"]
    assert lines[4].split(",")[0] != lines[5].split(",")[0]
    assert lines[1].split(",")[1] == "-0.0"
    phi = Z**2 + 0.3 * ZBAR
    rep = sp.convex_bound_check(phi, 60)
    assert sp.report_csv(rep) == csv_text(per_value_rows(rep))


def test_curve_tolerance_scales_with_grid():
    phi = Z**2 + 0.5 * ZBAR
    assert Curve(phi, 2048).tol == 2.0 * Curve(phi, 4096).tol
