"""Crossing-number winding against the dense accumulated-argument oracle.

The library counts winding numbers by crossing numbers (`_winding_numbers`
for scattered lambdas, `_grid_winding_numbers` for covering grids) and
decides ON_CURVE by distance: on covering grids from the runs each sample
covers on the rows (`_near_grid`), elsewhere pruned by a k-d tree
(`_within`). The oracle below
is the earlier implementation: it sums the principal argument of each step
of samples - lam, rounds the total to a multiple of 2 pi and refuses to
answer when the total drifts. Off the sampled polyline both count the same
integer, so every status and every winding number must agree exactly.

`_crossings` finds the crossings by a dense edge-by-scanline table on small
inputs and by binary search in y-monotone runs on large ones; the two paths
are called directly here and must return the same arrays bit for bit.
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
    _grid_winding_numbers,
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


def grid_codes(samples, tol, lams):
    """Status codes of a product grid, as `convex_bound_check` forms them."""
    return sp._codes(sp._near_grid(samples, lams, tol), _grid_winding_numbers(samples, lams))


def pruned_codes(samples, tol, lams):
    """Status codes of scattered lambdas by the k-d front and row windings."""
    return sp._codes(sp._within(samples, lams, tol)[0], _grid_winding_numbers(samples, lams))


def full_symbols():
    params = dict(checks.DEFAULT_PARAMS)
    return checks._suite_symbols(params, FULL_SEED)


def test_full_scenario_grids_match_oracle():
    symbols = full_symbols()
    assert len(symbols) == 20
    for phi in symbols:
        curve = Curve(phi, 512)
        samples, tol = curve.samples, curve.tol
        lams = sp.lambda_grid(phi, 200, 512)
        want = status_codes(samples, tol, lams)
        assert np.array_equal(sp._near_grid(samples, lams, tol), want == 0)
        assert np.array_equal(grid_codes(samples, tol, lams), want)
        rep = sp.convex_bound_check(phi, lams, 512)
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
        assert np.array_equal(_grid_winding_numbers(samples, lams[off]), w)
        seen.update(w.tolist())
    assert seen == {-1, 0, 1}


def test_ties_on_symbol_sample_ordinates():
    # lambdas at the exact imaginary part of a sample of the sampled curve
    for text in ("z", "z^2 + 0.3*zbar", "(0.5+0.5j)*z^3 + zbar"):
        phi = LaurentPoly.from_text(text)
        curve = Curve(phi, 512)
        samples, tol = curve.samples, curve.tol
        xs = np.linspace(samples.real.min() - 1, samples.real.max() + 1, 57)
        rows = samples.imag[::8]
        # rows in the samples' order are no covering grid, whose rows ascend
        for ys, codes in ((rows, pruned_codes), (np.sort(rows), grid_codes)):
            lams = (xs[None, :] + 1j * ys[:, None]).ravel()
            want = status_codes(samples, tol, lams)
            assert np.array_equal(sp._classify(samples, tol, lams), want)
            assert np.array_equal(codes(samples, tol, lams), want)


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
    lams = sp.lambda_grid(phi, 60, 512)
    dist, w, _ = dense_winding(samples, lams)
    off = dist > tol
    assert deep in set(w[off].tolist())
    assert np.array_equal(_winding_numbers(samples, lams)[off], w[off])
    assert np.array_equal(_grid_winding_numbers(samples, lams)[off], w[off])
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


def both_crossings(samples, ys, chunk_entries=4_000_000):
    """`_crossings` by the dense table and by runs, whatever the sizes."""
    with mock.patch.object(sy, "_DENSE_ENTRIES", math.inf):
        dense = sy._crossings(samples, ys, chunk_entries)
    # a ring of S edges has at most S runs
    with mock.patch.object(sy, "_DENSE_ENTRIES", -1), mock.patch.object(sy, "_RUN_SHARE", 1):
        runs = sy._crossings(samples, ys, chunk_entries)
    return dense, runs


def assert_same_bits(dense, runs):
    for a, b in zip(dense, runs):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(-6, 6), coeff, min_size=1, max_size=5),
    grid_size=st.sampled_from([64, 512, 8192, 65536]),
    shift=st.integers(0, 1 << 20),
    lattice=st.sampled_from([0.0, 0.25, 1e-3]),
    picks=st.lists(st.integers(0, 1 << 20), max_size=12),
    free=st.lists(st.floats(-8.0, 8.0), max_size=6),
    chunk_entries=st.sampled_from([4_000_000, 64]),
)
def test_run_crossings_match_dense_bitwise(
    coeffs, grid_size, shift, lattice, picks, free, chunk_entries
):
    phi = LaurentPoly(1, {(k,): c for k, c in coeffs.items()})
    samples = np.array(eval_grid(phi, grid_size))
    if lattice:
        # snap to a lattice: flat edges, and many vertices on one scanline
        samples = np.round(samples / lattice) * lattice
    # start the ring anywhere, so the wrap at index 0 may cut through a run
    samples = np.roll(samples, shift % grid_size)
    ys = np.concatenate([samples.imag[[i % grid_size for i in picks]], free])
    dense, runs = both_crossings(samples, ys, chunk_entries)
    assert_same_bits(dense, runs)
    assert np.all(np.diff(dense[0]) >= 0)  # (k, edge) order


def test_run_crossings_on_flat_edges_wrap_and_no_scanlines():
    # the staircase of the ties test, rotated so index 0 falls inside a run,
    # has flat edges on four ordinates, and every ordinate is a vertex's
    stairs = np.array(
        [0, 2, 2 + 1j, 3 + 1j, 3 + 3j, 1 + 3j, 1 + 2j, 0 + 2j], dtype=complex
    )
    for shift in range(stairs.size):
        samples = np.roll(stairs, shift)
        ys = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        dense, runs = both_crossings(samples, ys)
        assert_same_bits(dense, runs)
        assert dense[0].size
        for empty in both_crossings(samples, np.empty(0)):
            assert all(col.size == 0 for col in empty)
    # a constant ring has no runs at all
    dense, runs = both_crossings(np.full(8, 1 + 1j), np.array([0.0, 1.0, 2.0]))
    assert_same_bits(dense, runs)
    assert dense[0].size == 0


def refuse(*args):
    raise AssertionError("path not expected here")


def test_crossings_pick_runs_on_large_inputs(monkeypatch):
    phi = LaurentPoly.from_text("z^2 + 0.3*zbar")
    samples = eval_grid(phi, 65536)
    ys = np.linspace(-1.5, 1.5, 400)
    want = both_crossings(samples, ys)[0]
    monkeypatch.setattr(sy, "_table_edges", refuse)
    assert_same_bits(want, sy._crossings(samples, ys))


def test_real_valued_symbol_keeps_the_dense_table(monkeypatch):
    # rounding noise in the imaginary part of z + zbar cuts the ring into
    # tens of thousands of runs; the binary searches would cost more than
    # the table and hold L x R queries, so the table must be taken
    samples = eval_grid(LaurentPoly.from_text("z + zbar"), 65536)
    ring = np.concatenate((samples, samples[:1]))
    assert sy._monotone_runs(ring.imag, samples.size)[0].size > samples.size / 16
    assert sy._monotone_runs(ring.imag, samples.size / sy._RUN_SHARE) is None
    ys = samples.imag[::164][:400]
    with mock.patch.object(sy, "_DENSE_ENTRIES", math.inf):
        want = sy._crossings(samples, ys)
    monkeypatch.setattr(sy, "_run_edges", refuse)
    assert_same_bits(want, sy._crossings(samples, ys))
