import math

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


coeff = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-4, 4), coeff, min_size=1, max_size=4),
    grid_size=st.sampled_from([64, 512]),
    offsets=st.lists(
        st.complex_numbers(max_magnitude=0.1, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    start=st.integers(0, 511),
    at=st.integers(0, 11),
    widen=st.sampled_from([1.0, 0.5, 2.0]),
)
def test_pruned_distance_matches_dense_scan(coeffs, grid_size, offsets, start, at, widen):
    # k = 2 sends lambdas with a third vertex in reach to the exact scan, and
    # widen = 1 puts one lambda on the threshold, inside the recheck band
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    samples = eval_grid(phi, grid_size)
    picks = (start + 37 * np.arange(len(offsets))) % grid_size
    lams = samples[picks] + np.array(offsets, dtype=complex)
    exact = polyline_distance(samples, lams)
    reach = widen * exact[at % lams.size]
    near, rescanned = sp._within(samples, lams, reach, edges=True, k=2)
    assert np.array_equal(near, ~(exact > reach))
    assert 0 <= rescanned <= lams.size
    points = np.abs(samples[None, :] - lams[:, None]).min(axis=1)
    near, _ = sp._within(samples, lams, widen * points[at % lams.size])
    assert np.array_equal(near, points <= widen * points[at % lams.size])
    # one reach per lambda
    each = widen * exact[(at + np.arange(lams.size)) % lams.size]
    near, _ = sp._within(samples, lams, each, edges=True, k=2)
    assert np.array_equal(near, ~(exact > each))


def test_pruned_distance_falls_back_and_rechecks():
    circle = eval_grid(Z, 64)  # unit circle, edges about 0.098 long
    # every vertex is within reach of the centre: the k-th neighbour is inside
    # the radius, so the exact scan decides
    near, rescanned = sp._within(circle, [0j], 1.5, edges=True, k=2)
    assert near.tolist() == [True] and rescanned == 1
    # 3 is exactly 2 from the vertex 1: on the threshold, inside the band
    near, rescanned = sp._within(circle, [3 + 0j], 2.0, edges=True)
    assert near.tolist() == [True] and rescanned == 1
    # no vertex within 1.9 + half an edge: decided by the tree alone
    near, rescanned = sp._within(circle, [3 + 0j], 1.9, edges=True)
    assert near.tolist() == [False] and rescanned == 0
    near, rescanned = sp._within(circle, [0.5 + 0j, 3 + 0j], 0.6)
    assert near.tolist() == [True, False] and rescanned == 0
    # one reach per lambda: the tree searches out to the largest
    near, rescanned = sp._within(circle, [0.5 + 0j, 3 + 0j, 3 + 0j], [0.6, 2.1, 1.9])
    assert near.tolist() == [True, True, False] and rescanned == 0
    near, rescanned = sp._within(circle, [], [])
    assert near.size == 0 and rescanned == 0


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


def test_convex_bound_coarse_hull_lies_inside_the_refined_hull(monkeypatch):
    # the one hull is that of the working samples; they lie on the refined
    # curve up to rounding (2 pi j / g against 2 pi jm / (gm), and the
    # products), so the working hull lies within the rounding of the hull of
    # the whole refined grid, far within the 1e-12 margin of the hull test
    fed = []

    def spy(points):
        fed.append(np.array(points))
        return conv_hull(points)

    monkeypatch.setattr(sp, "conv_hull", spy)
    for phi in full_scenario_symbols():
        fed.clear()
        _, notes = noted(sp.convex_bound_check, phi, 8)
        (working,) = fed
        assert np.array_equal(working, eval_grid(phi, 512))
        refined = conv_hull(eval_grid(phi, notes["refined_size"][0]))
        assert np.max(refined.distance_bound(working)) <= 1e-13


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


def test_convex_bound_settles_leftovers_at_hull_vertices(monkeypatch):
    # ON_CURVE lambdas carry a wide tolerance, so many lie outside the sector
    # triangles; the nearest hull vertex settles them, and the boundary scan
    # sees the rest, which the vertex bound may not accept
    phi = LaurentPoly.from_text("z^3 + (0.4-0.3j)*zbar^3")
    scanned, accepted = [], []
    within, distance = sp._within, sp._distance

    def spy_within(samples, pts, reach, edges=False, k=16):
        near, rescanned = within(samples, pts, reach, edges, k)
        if not edges and np.ndim(reach):
            exact = distance(samples, pts, edges=True) <= reach
            accepted.append((near.sum(), (near & ~exact).sum()))
        return near, rescanned

    def spy_distance(samples, pts, edges=False, **kw):
        if edges:
            scanned.append(np.size(pts))
        return distance(samples, pts, edges, **kw)

    monkeypatch.setattr(sp, "_within", spy_within)
    monkeypatch.setattr(sp, "_distance", spy_distance)
    rep = sp.convex_bound_check(phi, 200)
    assert rep.verdict
    [(settled, unsound)] = accepted
    assert unsound == 0
    assert settled > 10 * scanned[-1]


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


def test_hartman_wintner_flags_a_planted_outside(monkeypatch):
    honest = sp._classify

    def planted(samples, tol, lams):
        codes = honest(samples, tol, lams)
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
    monkeypatch.setattr(sp, "band_max_eig", lambda ab: inflated(ab) + 1e-6)
    rec = checks.run_check("numerical_range", params, 7)
    assert not rec.verdict
    assert rec.residuals["violations"] > 0


def test_numerical_range_counts_a_nan_support_as_a_violation(monkeypatch):
    # h > bound is False for a NaN h; every NaN direction must still count
    monkeypatch.setattr(sp, "band_max_eig", lambda ab: math.nan)
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


def test_report_serialization():
    rep = sp.convex_bound_check(Z + ZBAR, 20, grid_size=512)
    assert rep.verdict
    rows = sp.report_csv_rows(rep)
    assert rows[0] == ("lambda_re", "lambda_im", "status")
    assert len(rows) == 401
    assert all(r[2] in (sp.ON_CURVE, sp.WINDING_NONZERO, sp.OUTSIDE) for r in rows[1:])
    assert [complex(float(r[0]), float(r[1])) for r in rows[1:]] == list(rep.lams)


def per_value_rows(rep):
    """The CSV rows as first written: one repr per coordinate of each lambda."""
    rows = [("lambda_re", "lambda_im", "status")]
    for lam, st in zip(rep.lams.tolist(), rep.statuses.tolist()):
        rows.append((repr(lam.real), repr(lam.imag), st))
    return rows


def test_report_csv_rows_match_per_value_repr():
    # -0.0 and 0.0, and coordinates one ulp apart, keep their own text
    xs = [-1.0, -0.0, 0.0, 0.1, np.nextafter(0.1, 1.0), 2.5]
    ys = [-0.0, 0.0, 0.3, np.nextafter(0.3, 1.0)]
    lams = product_grid(xs, ys)
    statuses = sp._NAMES[np.arange(lams.size) % 3]
    rep = sp.ConvexBoundReport(statuses, lams, 1e-9, [], True)
    rows = sp.report_csv_rows(rep)
    assert rows == per_value_rows(rep)
    assert [r[0] for r in rows[2:4]] == ["-0.0", "0.0"]
    assert rows[4][0] != rows[5][0] and rows[1][1] == "-0.0"
    phi = Z**2 + 0.3 * ZBAR
    rep = sp.convex_bound_check(phi, 60)
    assert sp.report_csv_rows(rep) == per_value_rows(rep)


def test_curve_tolerance_scales_with_grid():
    phi = Z**2 + 0.5 * ZBAR
    assert Curve(phi, 2048).tol == 2.0 * Curve(phi, 4096).tol
