"""Crossing-number winding against the dense accumulated-argument oracle.

The library counts winding numbers by crossing numbers (`_winding_numbers`
for scattered lambdas, `spectra._grid_windings` by rows for covering grids)
and decides ON_CURVE by distance: on covering grids from the runs each
sample covers on the rows (`_near_grid`), elsewhere pruned by a k-d tree
(`_within`). The oracle below
is the earlier implementation: it sums the principal argument of each step
of samples - lam, rounds the total to a multiple of 2 pi and refuses to
answer when the total drifts. Off the sampled polyline both count the same
integer, so every status and every winding number must agree exactly.

`_crossings` finds the crossings by a dense edge-by-scanline table on small
inputs and by ranking the vertices among the sorted scanlines on large ones;
the two paths are called directly here and must return the same crossings,
each with the same bits, in whatever order.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphiso import checks
from sphiso import spectra as sp
from sphiso import symbols as sy
from sphiso.errors import OnCurveError, PreconditionError
from sphiso.symbols import (
    Curve,
    LaurentPoly,
    _winding_numbers,
    eval_grid,
    winding,
)

FULL_SEED = 20260815  # the seed of scenarios/full.json


def dense_winding(samples, lams, chunk_entries=1 << 18):
    """(distance to the nearest sample, accumulated-argument winding).

    The argument of each step is that of next * conj(this), which has the
    step's argument without a division; a step from or to a sample equal to
    lam reads 0, and such a lambda is on the curve anyway.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    dist = np.empty(lams.size)
    total = np.empty(lams.size)
    step = max(1, chunk_entries // max(1, samples.size))
    for lo in range(0, lams.size, step):
        rel = samples[None, :] - lams[lo : lo + step, None]
        dist[lo : lo + step] = np.abs(rel).min(axis=1)
        total[lo : lo + step] = np.angle(np.roll(rel, -1, axis=1) * np.conj(rel)).sum(axis=1)
    w = np.rint(total / (2.0 * np.pi))
    drift = np.abs(total - 2.0 * np.pi * w) > 1e-6
    return dist, w.astype(int), drift


def status_codes(samples, tol, lams):
    """Oracle status codes: 0 on-curve, 1 winding nonzero, 2 outside."""
    dist, w, drift = dense_winding(samples, lams)
    on = dist <= tol
    assert not np.any(drift & ~on), "oracle winding drifted off 2 pi Z"
    return np.where(on, 0, np.where(w != 0, 1, 2)).astype(np.int8)


def product(xs, ys):
    """The lambdas xs[c] + 1j * ys[k], row by row."""
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def grid_codes(samples, tol, xs, ys):
    """Status codes of a product grid, as `convex_bound_check` forms them."""
    near = sp._near_grid(samples, xs, ys, tol)
    return sp._codes(near, sp._grid_windings(samples, xs, ys))


def pruned_codes(samples, tol, lams):
    """Status codes of scattered lambdas by the k-d front and crossings."""
    return sp._codes(sp._within(samples, lams, tol)[0], _winding_numbers(samples, lams))


def full_symbols():
    params = dict(checks.DEFAULT_PARAMS)
    return checks._suite_symbols(params, FULL_SEED)


def test_full_scenario_grids_match_oracle():
    symbols = full_symbols()
    assert len(symbols) == 20
    for phi in symbols:
        curve = Curve(phi, 512)
        samples, tol = curve.samples, curve.tol
        xs, ys = sp.lambda_grid(samples, 200)
        want = status_codes(samples, tol, product(xs, ys))
        assert np.array_equal(sp._near_grid(samples, xs, ys, tol), want == 0)
        assert np.array_equal(grid_codes(samples, tol, xs, ys), want)
        rep = sp.convex_bound_check(phi, 200, 512)
        names = np.array(sp._STATUS_NAMES, dtype=object)[want]
        assert np.array_equal(rep.statuses, names)


def scattered_lambdas(phi, grid_size, rng, count):
    """Uniform lambdas over the range box and lambdas at 0.5 to 2 curve
    tolerances from a sample, on both sides of the ON_CURVE threshold."""
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    lo = samples.real.min() - 0.5, samples.imag.min() - 0.5
    hi = samples.real.max() + 0.5, samples.imag.max() + 0.5
    box = rng.uniform(lo[0], hi[0], count) + 1j * rng.uniform(lo[1], hi[1], count)
    anchors = samples[rng.integers(0, samples.size, count)]
    near = anchors + tol * rng.uniform(0.5, 2.0, count) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, count)
    )
    return np.concatenate([box, near])


@pytest.mark.parametrize("grid_size", [512, 2048])
def test_scattered_and_near_curve_match_oracle(grid_size):
    rng = np.random.default_rng(grid_size)
    for i in range(12):
        phi = checks.random_symbol(checks._rng(77, grid_size, i), 6, min_terms=2)
        curve = Curve(phi, grid_size)
        samples, tol = curve.samples, curve.tol
        lams = scattered_lambdas(phi, grid_size, rng, 300)
        want = status_codes(samples, tol, lams)
        assert np.array_equal(sp._classify(samples, tol, lams), want)
        assert np.array_equal(pruned_codes(samples, tol, lams), want)
        names = sp.membership_batch(phi, lams, grid_size)
        assert list(names) == [sp._STATUS_NAMES[c] for c in want]
        assert sp.spectrum_membership(phi, lams[0], grid_size) == names[0]
        # both sides of the ON_CURVE threshold occur among the near lambdas
        near = want[300:]
        assert (near == 0).any() and (near != 0).any()


def test_ties_on_vertex_ordinates_and_horizontal_edges():
    # a staircase polygon, every other edge horizontal, and a diamond; every
    # lambda sits exactly on the ordinate of some vertex
    stairs = np.array(
        [0, 2, 2 + 1j, 3 + 1j, 3 + 3j, 1 + 3j, 1 + 2j, 0 + 2j], dtype=complex
    )
    diamond = np.array([1, 1j, -1, -1j], dtype=complex)
    row = np.linspace(-0.5, 3.5, 41) + 2j  # crosses a horizontal edge
    cases = [
        (stairs, [1 + 1j, 0.5 + 1j, -1 + 1j, 4 + 1j, -1 + 3j, 5 + 0j, 1.5 + 2j]),
        (stairs, row),
        (diamond, [0j, -0.5 + 0j, 0.5 + 0j, 2 + 0j, -2 + 0j, 0.5j, 3 + 1j, -3 - 1j]),
        (diamond[::-1], [0j, -0.5 + 0j, 2 + 0j, -2 + 0j]),
    ]
    seen = set()
    for samples, lams in cases:
        lams = np.asarray(lams, dtype=complex)
        off = sp._distance(samples, lams, edges=True) > 1e-9
        _, w, _ = dense_winding(samples, lams[off])
        assert np.array_equal(_winding_numbers(samples, lams[off]), w)
        seen.update(w.tolist())
    assert seen == {-1, 0, 1}
    # product grids whose rows run through vertices and along flat edges,
    # and whose columns hit vertex abscissae
    for samples in (stairs, diamond, diamond[::-1]):
        xs = np.linspace(-1.5, 3.5, 41)
        ys = np.linspace(-1.5, 3.5, 21)
        lams = product(xs, ys)
        off = sp._distance(samples, lams, edges=True) > 1e-9
        _, w, _ = dense_winding(samples, lams)
        assert np.array_equal(sp._grid_windings(samples, xs, ys)[off], w[off])


def test_ties_on_symbol_sample_ordinates():
    # lambdas at the exact imaginary part of a sample of the sampled curve
    for text in ("z", "z^2 + 0.3*zbar", "(0.5+0.5j)*z^3 + zbar"):
        phi = LaurentPoly.from_text(text)
        curve = Curve(phi, 512)
        samples, tol = curve.samples, curve.tol
        xs = np.linspace(samples.real.min() - 1, samples.real.max() + 1, 57)
        rows = samples.imag[::8]
        # rows in the samples' order are no covering grid, whose rows ascend
        for ys in (rows, np.sort(rows)):
            lams = product(xs, ys)
            want = status_codes(samples, tol, lams)
            assert np.array_equal(sp._classify(samples, tol, lams), want)
            assert np.array_equal(pruned_codes(samples, tol, lams), want)
        assert np.array_equal(grid_codes(samples, tol, xs, ys), want)


@pytest.mark.parametrize(
    "text, deep",
    [
        ("z^2 + 0.1*zbar", 2),
        ("zbar^2 + 0.2*z", -2),
        ("z^2 + 0.6*z", 2),
        ("0.5*zbar + zbar^2 - 0.1*z^3", -2),
    ],
)
def test_self_intersecting_windings(text, deep):
    phi = LaurentPoly.from_text(text)
    curve = Curve(phi, 512)
    samples, tol = curve.samples, curve.tol
    xs, ys = sp.lambda_grid(samples, 60)
    lams = product(xs, ys)
    dist, w, _ = dense_winding(samples, lams)
    off = dist > tol
    assert deep in set(w[off].tolist())
    assert np.array_equal(_winding_numbers(samples, lams)[off], w[off])
    assert np.array_equal(sp._grid_windings(samples, xs, ys)[off], w[off])
    for lam, want in zip(lams[off][::7], w[off][::7]):
        assert winding(phi, lam) == want
    for lam in lams[~off][::11]:
        with pytest.raises(OnCurveError):
            winding(phi, lam)


def test_winding_rejects_non_finite_lambda():
    phi = LaurentPoly.from_text("z")
    for lam in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(PreconditionError):
            sp.spectrum_membership(phi, lam)
        with pytest.raises(PreconditionError):
            sp.membership_batch(phi, [0.0, lam])
    # the convex bound lays its grid over its own samples, which overflow
    # here; it must refuse them rather than cover an infinite box
    big = LaurentPoly.from_text("1e308*z + 1e308*z^2")
    with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="finite sampled curve"):
        sp.convex_bound_check(big, 20, 512)


# coefficients at least 0.05 keep rounding far below the curve tolerance
coeff = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-4, 4), coeff, min_size=1, max_size=5),
    lams=st.lists(
        st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    grid_size=st.sampled_from([64, 512]),
)
def test_crossing_matches_oracle_property(coeffs, lams, grid_size):
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    lams = np.array(lams, dtype=complex)
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    want = status_codes(samples, tol, lams)
    assert np.array_equal(sp._classify(samples, tol, lams), want)
    assert np.array_equal(pruned_codes(samples, tol, lams), want)
    dist, w, _ = dense_winding(samples, lams)
    for lam, d, wi in zip(lams, dist, w):
        if d > tol:
            assert winding(phi, lam, grid_size) == wi


def test_non_uniform_product_grid_windings():
    # uneven columns with repeats, and rows through sample ordinates, so
    # `_first`'s mean-spacing guess lands far off, its steps must correct it,
    # and the rows meet vertices
    rng = np.random.default_rng(5)
    for text in ("z^2 + 0.3*zbar", "0.5*zbar + zbar^2 - 0.1*z^3"):
        phi = LaurentPoly.from_text(text)
        curve = Curve(phi, 512)
        samples, tol = curve.samples, curve.tol
        xs = np.sort(np.concatenate([rng.uniform(-2.0, 2.0, 60) ** 3 / 4.0, samples.real[:5]]))
        xs[10] = xs[11]
        ys = np.sort(np.concatenate([rng.uniform(-2.0, 2.0, 30), samples.imag[::64]]))
        lams = (xs + 1j * ys[:, None]).ravel()
        off = sp._distance(samples, lams) > tol
        assert off.any() and not off.all()
        w = _winding_numbers(samples, lams)
        assert (w[off] != 0).any()
        assert np.array_equal(sp._grid_windings(samples, xs, ys)[off], w[off])
        assert np.array_equal(sp._near_grid(samples, xs, ys, tol), ~off)


def table_and_rank(samples, ys):
    """`_crossings` by the dense table and by the rank search, whatever the
    sizes."""
    with mock.patch.object(sy, "_DENSE_ENTRIES", math.inf):
        table = sy._crossings(samples, ys)
    with mock.patch.object(sy, "_DENSE_ENTRIES", -1):
        rank = sy._crossings(samples, ys)
    return table, rank


def crossing_set(crossings):
    """The crossings as a sorted (count, 3) array of (k, abscissa bits,
    sign), so that orders compare as multisets."""
    k, x, sign = crossings
    assert k.dtype.kind == "i" and x.dtype == sign.dtype == np.float64
    rows = np.column_stack([k, x.view(np.int64), sign.astype(np.int64)])
    return rows[np.lexsort(rows.T[::-1])]


def assert_same_crossings(a, b):
    assert np.array_equal(crossing_set(a), crossing_set(b))


@settings(max_examples=120, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-6, 6), coeff, min_size=1, max_size=5),
    grid_size=st.sampled_from([64, 512, 8192, 65536]),
    shift=st.integers(0, 1 << 20),
    lattice=st.sampled_from([0.0, 0.25, 1e-3]),
    picks=st.lists(st.integers(0, 1 << 20), max_size=12),
    free=st.lists(st.floats(-8.0, 8.0), max_size=6),
)
def test_rank_crossings_match_table(coeffs, grid_size, shift, lattice, picks, free):
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    samples = np.array(eval_grid(phi, grid_size))
    if lattice:
        # snap to a lattice: flat edges, and many vertices on one scanline
        samples = np.round(samples / lattice) * lattice
    # start the ring anywhere, so the wrap at index 0 may cut a rising stretch
    samples = np.roll(samples, shift % grid_size)
    ys = np.concatenate([samples.imag[[i % grid_size for i in picks]], free])
    assert_same_crossings(*table_and_rank(samples, ys))


def test_rank_crossings_on_flat_edges_wrap_and_no_scanlines():
    # the staircase of the ties test, in every rotation, has flat edges on
    # four ordinates, and every ordinate is a vertex's; repeated scanlines
    # count once each
    stairs = np.array(
        [0, 2, 2 + 1j, 3 + 1j, 3 + 3j, 1 + 3j, 1 + 2j, 0 + 2j], dtype=complex
    )
    for shift in range(stairs.size):
        samples = np.roll(stairs, shift)
        ys = np.array([2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        table, rank = table_and_rank(samples, ys)
        assert_same_crossings(table, rank)
        assert np.bincount(table[0], minlength=ys.size).tolist() == [2, 0, 2, 2, 2, 2, 2, 2, 0, 0]
        for empty in table_and_rank(samples, np.empty(0)):
            assert all(col.size == 0 for col in empty)
    # a constant ring crosses nothing
    for none in table_and_rank(np.full(8, 1 + 1j), np.array([0.0, 1.0, 2.0])):
        assert none[0].size == 0


@pytest.mark.parametrize("lines, table_calls", [(16, 1), (17, 0)], ids=["table", "rank"])
def test_crossings_take_each_path_on_its_side(lines, table_calls, monkeypatch):
    # L * (S + 1) entries at _DENSE_ENTRIES exactly take the table, one
    # scanline more takes the rank search
    phi = LaurentPoly.from_text("z^2 + 0.3*zbar")
    samples = eval_grid(phi, sy._DENSE_ENTRIES // 16 - 1)
    ys = np.linspace(-1.2, 1.2, lines)
    table, rank = table_and_rank(samples, ys)
    calls = []
    table_edges = sy._table_edges
    monkeypatch.setattr(sy, "_table_edges", lambda *args: calls.append(1) or table_edges(*args))
    got = sy._crossings(samples, ys)
    assert len(calls) == table_calls
    assert_same_crossings(table, got)
    assert_same_crossings(rank, got)
    assert got[0].size >= 2 * lines


def test_real_valued_symbol_on_its_noise_band():
    # z + zbar is real, and rounding noise of up to 2.2e-16 in the imaginary
    # parts makes the scanlines through that band cross thousands of edges;
    # here they run through each of its ordinates and between them
    samples = eval_grid(LaurentPoly.from_text("z + zbar"), 8192)
    ys = np.unique(samples.imag)
    ys = np.concatenate([ys, (ys[1:] + ys[:-1]) / 2.0])
    table, rank = table_and_rank(samples, ys)
    assert table[0].size > ys.size * 1000
    assert_same_crossings(table, rank)
    # and the windings about lambdas off that band are those of a segment
    lams = np.array([0.5 + 1e-3j, 3.0 + 0.0j, -0.5 - 1e-3j])
    assert _winding_numbers(samples, lams).tolist() == [0, 0, 0]
