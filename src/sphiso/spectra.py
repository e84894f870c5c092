"""Spectral checks for circle Toeplitz operators.

Two classical facts are verified with certified directions: essential-range
inclusion (every symbol value lies in the spectrum) and the convex bound
sigma(T_phi) subset conv(essran phi). Membership for banded symbols is decided
by winding numbers, never by eigenvalues of truncations; truncation spectra of
nonnormal Toeplitz matrices are notoriously misleading, while the winding
description is exact. Numerical-range slices are one-sided safe because
compressions only shrink the numerical range.

Winding numbers are integer crossing counts of the sampled polyline
(`symbols._crossings`): exact for every lambda off the polyline, so no
accumulated angle can drift. A lambda within the curve's `tol` of a sample
is ON_CURVE, decided by the exact distance. Distances have one exact scan,
`_distance`, to the samples or to the polyline through them, and two pruned
fronts that agree with it bit for bit: each settles what a relative _MARGIN
(1e-9) on either side of the threshold decides, and hands every lambda in
between to the exact scan. On a covering grid, each row is one scanline:
each crossing counts its sign on the run of columns left of it, and each
sample covers one run of columns within tol (`_near_grid`); a difference
array per row counts the runs over every lambda. For scattered lambdas,
`_within` lets a k-d tree pick the few samples or edges that can decide each
one; it settles the clearance of the near-range probes and the convex-bound
lambdas near a hull vertex.

Every check reads the curve through one `symbols.Curve`: phi sampled by
`symbols.eval_grid` on a uniform grid, with its ON_CURVE distance `tol` and
its chord sag `sag`. Grids of up to 2048 points (the 512- and 2048-point
working grids of every query here) are summed from a bounded cache of
unit-root power tables; larger ones (most fine grids, the sup grids) are
evaluated afresh by `LaurentPoly.eval_at`, whose bits the tables keep.

Tolerance bookkeeping. A sampled curve misses the true curve by at most the
chord sag (spacing^2 * B''/8 with B'' the l1 bound on the second derivative),
and a sampled sup misses the true sup by the same amount. Refined, sup and
probe grids are sized from that bound by one rule, `Curve.refine`, so the slack
handed to membership tests is an actual certificate, not a guess; a cap that
clamps the size is noted. The convex bound samples phi once: its covering
grid, its statuses and its hull all come from the working samples, and the
refined grid only sizes the sag in its winding tolerance. On a correct hull
no lambda needs more: each ON_CURVE lambda lies within tol of a working
sample, a point of the hull, and each lambda of nonzero winding lies inside
the working polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_calculus import ToeplitzElement, truncation
from .errors import PreconditionError
from .linalg import band_max_eig, op_norm
from .record import note
from .symbols import (
    Curve,
    _crossings,
    _segment_distance,
    _winding_numbers,
    conv_hull,
    eval_grid,
)

__all__ = [
    "ON_CURVE",
    "WINDING_NONZERO",
    "OUTSIDE",
    "spectrum_membership",
    "membership_batch",
    "lambda_grid",
    "HartmanWintnerReport",
    "hartman_wintner_check",
    "ConvexBoundReport",
    "convex_bound_check",
    "NumericalRangeReport",
    "numerical_range_support",
    "report_csv_rows",
]

ON_CURVE = "ON_CURVE"
WINDING_NONZERO = "WINDING_NONZERO"
OUTSIDE = "OUTSIDE"

_STATUS_NAMES = (ON_CURVE, WINDING_NONZERO, OUTSIDE)
_NAMES = np.array(_STATUS_NAMES, dtype=object)

# hull/sup grids are sized so the chord-sag bound stays below this
_SAG_TARGET = 2e-9
_GRID_CAP = 300_000
# lambda grids cover the range box scaled by this factor about its centre
_INFLATE = 1.2
# the pruned distance fronts widen or narrow a reach by this relative margin,
# far beyond their own rounding, and measure what falls in between exactly
_MARGIN = 1e-9
_SCAN_ENTRIES = 1_000_000


def _distance(samples, lams, edges=False):
    """Distance from each lam to the samples, or with edges to the closed
    polyline through them, by dense rows of about _SCAN_ENTRIES entries."""
    lams = np.asarray(lams, dtype=complex).ravel()
    e = np.roll(samples, -1) - samples if edges else None
    out = np.empty(lams.size)
    step = max(1, _SCAN_ENTRIES // max(1, samples.size))
    for lo in range(0, lams.size, step):
        lam = lams[lo : lo + step, None]
        d = np.abs(samples - lam) if e is None else _segment_distance(lam, samples, e)
        out[lo : lo + step] = d.min(axis=1)
    return out


def _within(samples, lams, reach, edges=False, k=16):
    """(near, rescanned): whether each lam lies within reach (one float, or
    one per lam) of the samples, or with edges of the closed polyline through
    them, pruned by a k-d tree; rescanned counts the lambdas measured again by
    the exact scan `_distance`. For scattered lambdas; a covering grid goes
    through `_near_grid`.

    A point within reach of an edge lies within reach + |edge| / 2 of one of
    the edge's end points, so the tree returns the k nearest vertices within
    that radius (widened by the relative _MARGIN: tree distances agree with
    np.abs to a few ulps) and only the two edges at each are measured, by the
    exact scan's formula. A lambda whose k-th neighbour is still inside the
    radius may have more and is scanned exactly. Without edges the nearest
    vertex settles it (k = 1). The tree may rank vertices that tie to within
    ulps either way, so lambdas whose measured distance lies within a relative
    _MARGIN of reach are scanned exactly too. Below 1e-100 the squared
    distances inside the tree could underflow, so a tiny reach is scanned
    exactly throughout. The tree searches out to the largest reach.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    reach = np.broadcast_to(np.asarray(reach, dtype=float), lams.shape)
    if lams.size == 0 or not reach.min() > 1e-100:
        return _distance(samples, lams, edges) <= reach, lams.size
    from scipy.spatial import cKDTree

    n = samples.size
    if edges:
        e = np.roll(samples, -1) - samples
        radius = (reach.max() + np.abs(e).max() / 2.0) * (1.0 + _MARGIN)
    else:
        k, radius = 1, reach.max() * (1.0 + _MARGIN)
    tree = cKDTree(np.column_stack([samples.real, samples.imag]))
    _, idx = tree.query(
        np.column_stack([lams.real, lams.imag]), k=k, distance_upper_bound=radius
    )
    idx = idx.reshape(lams.size, k)
    found = idx < n  # missing neighbours come back as index n
    idx = np.where(found, idx, 0)
    lam = lams[:, None]
    if edges:
        # the edge out of and the edge into each vertex found
        ends = np.concatenate([idx, (idx - 1) % n], axis=1)
        d = _segment_distance(lam, samples[ends], e[ends])
        d[~np.concatenate([found, found], axis=1)] = np.inf
    else:
        d = np.where(found, np.abs(samples[idx] - lam), np.inf)
    dist = d.min(axis=1)
    rescan = np.abs(dist - reach) <= reach * _MARGIN
    if edges:
        rescan |= found[:, -1]
    rescan = np.flatnonzero(rescan)
    dist[rescan] = _distance(samples, lams[rescan], edges)
    return dist <= reach, rescan.size


def _first(grid, centre, reach, strict, guess=None):
    """For each centre, the first index c of the ascending grid at which
    grid[c] - centre (rounded) is >= reach, or > reach if strict; grid.size
    if there is none.

    The rounded difference never falls as c grows, so a guess is corrected
    exactly: step down while the entry before passes, then up while the entry
    fails, with -inf and inf standing in before and after the grid. A guess
    passed in is corrected in place; otherwise it comes from the mean
    spacing, close on `lambda_grid`'s evenly spaced axes, and the steps
    correct it on any other.
    """
    n = grid.size
    c = guess
    if c is None:
        step = (grid[-1] - grid[0]) / max(n - 1, 1)
        c = np.zeros(centre.shape, dtype=np.intp)
        if step > 0:
            c[:] = np.clip(np.ceil((centre + reach - grid[0]) / step), 0, n)
    padded = np.concatenate(([-np.inf], grid, [np.inf]))  # grid[i] at i + 1
    passes, fails = (np.greater, np.less_equal) if strict else (np.greater_equal, np.less)
    reach = np.broadcast_to(reach, centre.shape)
    sel = np.flatnonzero(passes(padded[c] - centre, reach))
    while sel.size:
        c[sel] -= 1
        sel = sel[passes(padded[c[sel]] - centre[sel], reach[sel])]
    sel = np.flatnonzero(fails(padded[c + 1] - centre, reach))
    while sel.size:
        c[sel] += 1
        sel = sel[fails(padded[c[sel] + 1] - centre[sel], reach[sel])]
    return c


def _runs(k, start, end, nx, ny):
    """Row-major counts over an ny x nx grid of the runs [start, end) of
    columns on row k that cover each entry; a run with end < start counts -1
    on [end, start). Each run adds one at start and takes it off at end of a
    difference array per row, one entry longer than the row (`np.bincount`),
    and a cumulative sum along the row counts the runs."""
    row = k * (nx + 1)
    size = ny * (nx + 1)
    count = np.bincount(row + start, minlength=size) - np.bincount(row + end, minlength=size)
    return np.cumsum(count.reshape(ny, nx + 1), axis=1)[:, :-1].ravel()


def _near_grid(samples, xs, ys, tol):
    """Whether each lambda xs[c] + 1j * ys[k] of the product grid of two
    ascending axes, row-major, lies within tol of a sample:
    `_distance(samples, lams) <= tol` bit for bit, by scanlines.

    A sample s covers the lambda x + 1j * y at radius r when a = |y - Im s|
    <= r and u = |x - Re s| <= w(r) = sqrt(r - a) * sqrt(r + a), every
    operation rounded. Its rows form one run of ys and, on each, its
    abscissae one run of xs, since a rounded difference never falls as its
    first operand grows (`_first`); `_runs` counts the runs of every
    (row, sample) pair over the grid. That costs O(pairs + grid), with no
    query per lambda. Lambdas covered at r_lo = tol (1 - _MARGIN) are near,
    those not covered at r_hi = tol (1 + _MARGIN) are not, and the few in
    between are measured by `_distance`. The r_lo pairs are the r_hi pairs
    with a <= r_lo, and their runs lie within the r_hi runs, whose ends are
    their guesses. Outside 1e-100 < tol < 1e100 every lambda is measured:
    below, as in `_within`, the products could underflow; above, r + a could
    overflow.

    Why the margin holds. `_distance` compares d = hypot(u, a), rounded, with
    tol, on the very differences rounded here (x - Re s rounds to minus
    Re s - x). Let e = 2^-53. The rounded hypot errs by under 2e relative,
    r by 2e, and the rounded w(r) by under 4e: one rounding in r - a and one
    in r + a, each halved by its square root, one in each root and one in
    the product.
    - If d <= tol, then a <= tol (1 + 2e) < r_hi, so s covers row y at r_hi,
      and u^2 <= tol^2 (1 + 2e)^2 - a^2. The true w(r_hi)^2 = r_hi^2 - a^2
      >= tol^2 (1 + _MARGIN)^2 (1 - 2e)^2 - a^2 is larger by about
      2 _MARGIN tol^2, and the roundings take at most 16e tol^2 of that:
      u <= w(r_hi), rounded.
    - If a <= r_lo and u <= w(r_lo), rounded, then u^2 + a^2 <=
      r_lo^2 (1 + 4e)^2 and d <= tol (1 - _MARGIN)(1 + 8e) < tol.
    The bound does not weaken as w -> 0: for a >= r / 2, r - a is exact
    (Sterbenz), and a product of square roots squares no difference, so
    nothing cancels. Every step stays normal when tol > 1e-100: where
    d <= tol, r_hi - a >= tol (_MARGIN - 4e) > 1e-110; a subnormal r_lo - a
    is exact and its square root normal; and sqrt(r + a) > 1e-50.
    """
    if not 1e-100 < tol < 1e100:
        return _distance(samples, (xs + 1j * ys[:, None]).ravel()) <= tol
    r_lo, r_hi = tol * (1.0 - _MARGIN), tol * (1.0 + _MARGIN)
    si, sr = samples.imag, samples.real
    first = _first(ys, si, -r_hi, False)
    count = _first(ys, si, r_hi, True) - first
    j = np.repeat(np.arange(samples.size), count)
    k = np.arange(j.size) - np.repeat(np.cumsum(count) - count - first, count)
    a = np.abs(ys[k] - si[j])
    x0 = sr[j]
    w = np.sqrt(r_hi - a) * np.sqrt(r_hi + a)
    start, end = _first(xs, x0, -w, False), _first(xs, x0, w, True)
    maybe = _runs(k, start, end, xs.size, ys.size) > 0
    inner = np.flatnonzero(a <= r_lo)
    a, x0 = a[inner], x0[inner]
    w = np.sqrt(r_lo - a) * np.sqrt(r_lo + a)
    start = _first(xs, x0, -w, False, start[inner])
    end = _first(xs, x0, w, True, end[inner])
    near = _runs(k[inner], start, end, xs.size, ys.size) > 0
    between = np.flatnonzero(maybe & ~near)
    lams = xs[between % xs.size] + 1j * ys[between // xs.size]
    near[between] = _distance(samples, lams) <= tol
    return near


def _grid_windings(samples, xs, ys):
    """Winding numbers about each lambda of the product grid of the ascending
    axes xs and ys, row-major. Each row is one scanline (`_crossings`), and a
    crossing at abscissa x lies right of the lambdas xs[c] < x: a run of
    columns from 0 that counts its sign (`_runs`, ends swapped for -1)."""
    k, x, sign = _crossings(samples, ys)
    end = np.searchsorted(xs, x)
    up = sign > 0
    return _runs(k, np.where(up, 0, end), np.where(up, end, 0), xs.size, ys.size)


def _codes(on_curve, windings):
    """Status codes: 0 on-curve, 1 winding nonzero, 2 outside."""
    return np.where(on_curve, 0, np.where(windings != 0, 1, 2)).astype(np.int8)


def _classify(samples, tol, lams):
    """Status codes for scattered lambdas: exact distances, crossing windings."""
    lams = np.asarray(lams, dtype=complex).ravel()
    return _codes(_distance(samples, lams) <= tol, _winding_numbers(samples, lams))


def _statuses(phi, lams, grid_size):
    """Status codes of lambdas against phi sampled on grid_size points."""
    curve = Curve(phi, grid_size)
    return _classify(curve.samples, curve.tol, lams)


def spectrum_membership(phi, lam, grid_size=2048):
    """ON_CURVE / WINDING_NONZERO / OUTSIDE for a single lambda.

    lam belongs to sigma(T_phi) exactly when the answer is not OUTSIDE.
    """
    return _STATUS_NAMES[_statuses(phi, [lam], grid_size)[0]]


def membership_batch(phi, lams, grid_size=2048):
    """Status name array for a batch of lambdas on one shared sample grid."""
    return _NAMES[_statuses(phi, lams, grid_size)]


def lambda_grid(samples, n):
    """Axes (xs, ys), both ascending, of the n x n lambda grid covering the
    range box of the samples scaled by _INFLATE about its centre, and at
    least 0.2 * max(half-width, half-height, 0.5) to each side."""
    re, im = samples.real, samples.imag
    cx, cy = (re.min() + re.max()) / 2.0, (im.min() + im.max()) / 2.0
    hx, hy = (re.max() - re.min()) / 2.0, (im.max() - im.min()) / 2.0
    pad = 0.2 * max(hx, hy, 0.5)
    hx = max(_INFLATE * hx, pad)
    hy = max(_INFLATE * hy, pad)
    return np.linspace(cx - hx, cx + hx, n), np.linspace(cy - hy, cy + hy, n)


@dataclass(frozen=True)
class HartmanWintnerReport:
    probes_requested: int
    probes_certified: int
    probe_pass: bool
    counterexamples: list
    verdict: bool


_FINE_CAP = 65536


def hartman_wintner_check(phi, grid_size=512, probes=100, seed=11):
    """Essential-range inclusion by near-range probes.

    Random lambdas within 0.01 of the sampled curve are drawn, and those
    certified inside a winding-nonzero region are kept: farther from the fine
    polyline than twice its sag bound (so the discrete winding equals the
    true one) and winding nonzero, by crossing numbers, on the fine grid and
    its doubling. The fine
    grid is sized for a sag of 1e-5 and clamped at 65536 points. Clearance is
    tested against the fine vertices a k-d tree finds near each candidate
    (`_within`); the candidates that needed the exact scan of every fine edge
    are noted as clearance_fallbacks, with the fine grid's size and clamp and
    the probes certified (as probes_kept). Certified probes must not read
    OUTSIDE on the working grid. Symbols whose spectrum has empty interior
    (real-valued ones, say) certify no probes and pass vacuously.
    """
    rng = np.random.default_rng(seed)
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    fine = curve.refine(1e-5, 4 * grid_size, 1, _FINE_CAP, "fine")
    fine2 = eval_grid(phi, 2 * fine.size)
    clearance = max(2e-4, 4.0 * fine.sag)

    hi = min(0.01, tol / 2.0)
    lo_step = min(1e-3, hi / 2.0)
    certified = []
    fallbacks = 0
    attempts = 0
    cap = 40 * probes
    batch = max(4 * probes, 64)
    while hi > 0 and len(certified) < probes and attempts < cap:
        take = min(batch, cap - attempts)
        attempts += take
        anchors = samples[rng.integers(0, samples.size, take)]
        steps = rng.uniform(lo_step, hi, take) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, take)
        )
        cand = anchors + steps
        # the clearance keeps every candidate off both fine polylines
        near, rescanned = _within(fine.samples, cand, clearance, edges=True)
        fallbacks += rescanned
        cand = cand[~near]
        if cand.size:
            keep = _winding_numbers(fine.samples, cand) != 0
            keep &= _winding_numbers(fine2, cand) != 0
            certified.extend(cand[keep].tolist())
            certified = certified[:probes]

    counter = []
    probe_pass = True
    if certified:
        work = _classify(samples, tol, certified)
        bad = np.asarray(certified)[work == 2]
        counter = [complex(b) for b in bad]
        probe_pass = not counter
    note(probes_kept=len(certified), clearance_fallbacks=fallbacks)
    return HartmanWintnerReport(probes, len(certified), probe_pass, counter, probe_pass)


@dataclass(frozen=True)
class ConvexBoundReport:
    statuses: np.ndarray
    lams: np.ndarray
    tol_on_curve: float
    counterexamples: list
    verdict: bool

    def __post_init__(self):
        if self.verdict != (not self.counterexamples):
            raise PreconditionError("verdict inconsistent with counterexample list")


def convex_bound_check(phi, n=200, grid_size=512):
    """Every lambda not OUTSIDE must sit in the hull of the essential range.

    phi is sampled once, on grid_size points, and the lambdas are the n x n
    grid `lambda_grid` lays over those samples; PreconditionError if the
    samples are not finite. Statuses come from crossing numbers, one scanline
    per row of the grid (`_grid_windings`), and ON_CURVE from the runs of
    columns each sample covers on those rows (`_near_grid`), both exact.
    Winding-certified lambdas are tested at tol_winding, the sag bound of a
    refined grid (a multiple of the working grid sized so the sag stays
    under 2e-9; only its size is computed, never its samples) plus 5e-9, and
    at least 1e-8. ON_CURVE lambdas carry the working curve tolerance on top,
    since that is how far they may sit from their anchoring sample.

    A lambda is accepted on an upper bound of its distance to the hull of
    the working samples that stays 1e-12 below its tolerance. The bounds are
    tried cheapest first: `Hull.distance_bound`, the distance to the nearest
    hull vertex by `_within`, and the exact distance to the hull's boundary.
    On a correct hull they accept every tested lambda:
    - an ON_CURVE lambda lies within tol of a working sample, and every
      working sample is a point of the working hull;
    - a lambda of nonzero winding lies inside the working polygon, so inside
      that polygon's hull;
    and the 1e-8 floor of tol_winding and the 1e-12 margin absorb the
    rounding of the three bounds. Every lambda left is a counterexample.
    """
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    if not np.isfinite(samples).all():
        raise PreconditionError("the convex bound needs a finite sampled curve")
    xs, ys = lambda_grid(samples, n)
    lams = (xs[None, :] + 1j * ys[:, None]).ravel()
    codes = _codes(_near_grid(samples, xs, ys, tol), _grid_windings(samples, xs, ys))

    refined = curve.refine(_SAG_TARGET, grid_size, grid_size, _GRID_CAP, "refined")
    tol_winding = max(1e-8, refined.sag + 5e-9)
    tol_on_curve = tol + tol_winding

    tested = codes != 2
    pts, pcodes = lams[tested], codes[tested]
    limit = np.where(pcodes == 1, tol_winding, tol_on_curve) - 1e-12
    hull = conv_hull(samples)
    ok = hull.distance_bound(pts) <= limit
    rest = np.flatnonzero(~ok)
    ok[rest] = _within(hull.vertices, pts[rest], limit[rest])[0]
    rest = rest[~ok[rest]]
    ok[rest] = _distance(hull.vertices, pts[rest], edges=True) <= limit[rest]

    counter = [complex(v) for v in pts[~ok & (pcodes == 1)]]
    counter.extend(complex(v) for v in pts[~ok & (pcodes == 0)])
    return ConvexBoundReport(_NAMES[codes], lams, tol_on_curve, counter, not counter)


@dataclass(frozen=True)
class NumericalRangeReport:
    thetas: list
    support_values: list
    bounds: list
    counterexamples: list
    verdict: bool


def numerical_range_support(x, thetas, trunc):
    """Support function h(theta) of the truncated numerical range.

    h(theta) is the top eigenvalue of the hermitian part of e^{i theta} X_N,
    a band matrix: the symbol's band, widened to k - 1 by a k x k upper-left
    correction. `linalg.band_max_eig` finds it by banded-Cholesky bisection
    and returns the upper end of its bracket, so h errs upward but for the
    factorization's rounding. Compression can only shrink the numerical
    range, so each value must stay below the grid sup of Re(e^{i theta} phi)
    plus the correction norm, up to the grid sag and 1e-8; violations land in
    counterexamples.
    """
    if not isinstance(x, ToeplitzElement):
        x = ToeplitzElement(x)
    corr = x.corr_array
    active = max(corr.shape) if corr.size else 0
    need = 4 * (x.symbol.band() + active)
    if trunc < need:
        raise PreconditionError(f"trunc {trunc} < 4*(band + correction) = {need}")
    xn = truncation(x, trunc)
    kd = max(x.symbol.band(), active - 1)
    # upper band storage of X_N and of X_N*: row kd - d holds superdiagonal d
    upper = np.zeros((kd + 1, trunc), dtype=complex)
    upper_adj = np.zeros((kd + 1, trunc), dtype=complex)
    for d in range(kd + 1):
        upper[kd - d, d:] = np.diagonal(xn, d)
        upper_adj[kd - d, d:] = np.conj(np.diagonal(xn, -d))

    base = max(4096, 4 * (1 + x.symbol.band()))
    sup = Curve(x.symbol, base).refine(_SAG_TARGET, base, base, _GRID_CAP, "sup_grid")
    samples, sag = sup.samples, sup.sag
    fnorm = op_norm(corr) if corr.size else 0.0

    thetas = [float(t) for t in thetas]
    hs, bounds, counter = [], [], []
    for t in thetas:
        ph = complex(math.cos(t), math.sin(t))
        h = band_max_eig((ph * upper + np.conj(ph) * upper_adj) / 2.0)
        bound = float(np.max((ph * samples).real)) + fnorm
        hs.append(h)
        bounds.append(bound)
        if not h <= bound + sag + 1e-8:  # a NaN h is a violation too
            counter.append(t)
    note(band=kd)
    return NumericalRangeReport(thetas, hs, bounds, counter, not counter)


def _reprs(values):
    """repr of each float, formed once per distinct value: np.unique on the
    int64 view tells the bits apart, so -0.0 and 0.0 keep their own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)[inverse]


def report_csv_rows(rep):
    """(lambda_re, lambda_im, status) rows of a ConvexBoundReport, for plotting."""
    rows = [("lambda_re", "lambda_im", "status")]
    re, im = _reprs(rep.lams.real).tolist(), _reprs(rep.lams.imag).tolist()
    rows.extend(zip(re, im, rep.statuses.tolist()))
    return rows
