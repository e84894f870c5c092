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
array per row counts the runs over every lambda. Scattered lambdas are
classified on the curve's coarse ring (`Curve.coarse`): every m-th sample,
m the number of the longest steps between samples that fit in tol. The
ring's distances settle ON_CURVE first, for every lambda but those at most
(m // 2) longest steps beyond tol, which are measured on all samples; a
point of the curve is in the spectrum whatever its winding. Only the
lambdas left are counted, by the ring's crossings: a straight-line homotopy
carries the polyline onto the ring without crossing any lambda that is not
ON_CURVE (`_classify`). Distances to scattered lambdas come from `_front`:
it bounds chunks of consecutive samples by boxes and measures only the
chunks whose boxes come within reach of each lambda, and leaves single
lambdas, small batches and small curves to the exact scan. `_within`
settles a threshold on it: ON_CURVE on all samples and the clearance of the
near-range probes.

Every check reads the curve through one `symbols.Curve`: phi sampled by
`symbols.eval_grid` on a uniform grid, with its ON_CURVE distance `tol` and
its chord sag `sag`. Grids of up to 2048 points (the 512- and 2048-point
working grids of every query here) are summed from a bounded cache of
unit-root power tables, and phi keeps its samples there, at most 40 KiB of
them, each grid's with its coarse ring, so repeated queries on one symbol
object sample it and measure its steps once per grid. The
memo lives on the object, not in a cache keyed by value, because equal
symbols whose coefficients come in another order sum their terms in another
order and keep their own bits. Larger grids (most fine grids, the sup
bound's 4096-point grid and its resampled arcs) are evaluated afresh by
`LaurentPoly.eval_at`, whose bits the tables keep.

Tolerance bookkeeping. A sampled curve misses the true curve by at most the
chord sag (spacing^2 * B''/8 with B'' the l1 bound on the second derivative),
and a sampled sup misses the true sup by the same amount. Probe grids are
sized from that bound by `Curve.refine`, and the sup bound resamples only
the arcs that can hold the maximum (`_arc_sup`), so the slack handed to
each test is an actual certificate, not a guess; a cap that clamps a size
is noted. The convex bound samples phi once: its covering grid, its
statuses and its hull all come from the working samples, so no sag enters
it. A lambda passes inside the hull polygon by crossing number, or within
its tolerance of the hull's boundary by distance. On a correct hull no
lambda needs more than rounding: each ON_CURVE lambda lies within tol of a
working sample, a point of the hull, and each lambda of nonzero winding
lies inside the working polygon.
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
    _MARGIN,
    Curve,
    _crossings,
    _finite_lambdas,
    _segment_distance,
    _winding_numbers,
    conv_hull,
    eval_grid,  # unused here; perfbench/tracing.py patches this binding
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
    "report_csv",
]

ON_CURVE = "ON_CURVE"
WINDING_NONZERO = "WINDING_NONZERO"
OUTSIDE = "OUTSIDE"

_STATUS_NAMES = (ON_CURVE, WINDING_NONZERO, OUTSIDE)
_NAMES = np.array(_STATUS_NAMES, dtype=object)

# the sup bound resamples its arcs so the chord-sag bound stays below this
_SAG_TARGET = 2e-9
# lambda grids cover the range box scaled by this factor about its centre
_INFLATE = 1.2
# the convex bound's hull tolerance for lambdas of nonzero winding: these lie
# inside the hull of the very samples, so it only absorbs rounding
_TOL_WINDING = 1e-8
_SCAN_ENTRIES = 1_000_000
# `_front`'s chunks hold at least _CHUNK samples. Its boxes cost about as
# much as a dense scan of _BOX_SETUP + S + _BOX_LAMBDA L (lambda, sample)
# pairs, an edge as much as _EDGE_COST samples (`BENCH_scattered_boxes.json`;
# _BOX_LAMBDA re-measured on coarse rings in `BENCH_coarse_polyline.json`)
_CHUNK = 8
_BOX_SETUP = 16384
_BOX_LAMBDA = 128
_EDGE_COST = 4


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


def _padded(a, size):
    """a, lengthened to size entries by repeating its last entry."""
    return a if a.size == size else np.concatenate((a, np.repeat(a[-1:], size - a.size)))


def _front(samples, lams, reach, edges=False):
    """(dist, exact): for each lam, its distance to the samples, or with
    edges to the closed polyline through them, where that is at most
    bar = reach (1 + _MARGIN), and some value above bar where it is not;
    reach one float or one per lam. exact tells that dist is
    `_distance(samples, lams, edges)` itself; otherwise a distance within
    bar may differ from it by ulps, since arrays of other shapes may round
    apart, and callers settle the lambdas near a threshold by a margin. For
    scattered lambdas; a covering grid goes through `_near_grid`.

    The S samples are cut into chunks of c consecutive ones, c a power of
    two near sqrt(S) (a quarter of that for edges, which cost more to
    measure) and at least _CHUNK; the last chunk is padded with the last
    sample and the last (closing) edge. A chunk's box spans its samples and
    the next chunk's first, so it holds the chunk's edges too: a segment
    lies in the hull of its end points. Widened by 8 ulps of the largest
    coordinate, it also holds every point that the exact scan's rounded
    formula places on those edges. A rounded difference never shrinks as
    its operand moves away, so where a side of the box lies beyond bar from
    a lambda, rounded, so does every sample and edge of the chunk, as the
    exact scan measures them. Such a pair (lambda, chunk) is dropped, the
    pairs left are measured by the exact scan's formulas, and a lambda that
    meets no box is far (inf). The pairs to test come from the lambdas
    sorted by Re: each box takes the run of them within 2 max(bar) of its
    span in Re, which holds every lambda within bar of it.

    The dense scan serves the whole batch where the crossover sweep finds
    it cheaper (`BENCH_coarse_polyline.json`): L lambdas cost w L S entries
    densely, w = _EDGE_COST for edges and 1 for samples, and the boxes
    about _BOX_SETUP + S + _BOX_LAMBDA L. So single lambdas, small batches
    and small curves, whose tol covers much of their range, keep the dense
    scan. It also serves an infinite reach, which no box can prune, and a
    reach of 1e-100 or less: the exact scan's formula squares lengths near
    reach, and a subnormal square rounds too coarsely for the relative
    _MARGIN to cover.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    reach = np.zeros(lams.shape) + reach
    n = samples.size
    w = _EDGE_COST if edges else 1
    dense = w * lams.size * n <= _BOX_SETUP + n + _BOX_LAMBDA * lams.size
    if dense or not 1e-100 < reach.min() <= reach.max() < np.inf:
        return _distance(samples, lams, edges), True
    c = max(_CHUNK, (1 << (n.bit_length() // 2)) // w)
    k = -(-n // c)
    pts = _padded(samples, k * c).reshape(k, c)
    # the real and imaginary parts of each chunk and of the next one's first
    parts = np.empty((2, k, c + 1))
    parts[0, :, :c], parts[1, :, :c] = pts.real, pts.imag
    parts[:, :-1, c], parts[:, -1, c] = parts[:, 1:, 0], parts[:, 0, 0]
    # each box as (min Re, min Im, -max Re, -max Im), widened
    box = np.concatenate((parts.min(axis=2), -parts.max(axis=2)))
    box -= 2.0**-50 * -box.min()
    if edges:
        e = _padded(np.roll(samples, -1) - samples, k * c).reshape(k, c)
    bar = reach * (1.0 + _MARGIN)
    dist = np.full(lams.size, np.inf)
    # slices of at most about _SCAN_ENTRIES (lambda, box) and (pair, sample) entries
    step, block = max(1, _SCAN_ENTRIES // k), max(1, _SCAN_ENTRIES // c)
    for lo in range(0, lams.size, step):
        # the lambdas of the slice sorted by Re, and for each box the run of
        # them within twice the largest bar of its span in Re
        order = lo + np.argsort(lams.real[lo : lo + step])
        xs = lams.real[order]
        wide = 2.0 * bar[lo : lo + step].max()
        first = np.searchsorted(xs, box[0] - wide)
        count = np.searchsorted(xs, wide - box[2], side="right") - first
        chunk = np.repeat(np.arange(k), count)
        own = order[np.arange(chunk.size) + np.repeat(first - np.cumsum(count) + count, count)]
        # a pair is kept when no side of its box lies beyond bar from the lambda
        x, y, b = lams.real[own], lams.imag[own], bar[own]
        keep = (box[0, chunk] - x <= b) & (box[2, chunk] + x <= b)
        keep &= (box[1, chunk] - y <= b) & (box[3, chunk] + y <= b)
        own, chunk = own[keep], chunk[keep]
        for at in range(0, own.size, block):
            o, j = own[at : at + block], chunk[at : at + block]
            lam = lams[o, None]
            d = _segment_distance(lam, pts[j], e[j]) if edges else np.abs(pts[j] - lam)
            np.minimum.at(dist, o, d.min(axis=1))
    return dist, False


def _within(samples, lams, reach, edges=False):
    """(near, rescanned): `_distance(samples, lams, edges) <= reach` bit for
    bit, reach one float or one per lam, from `_front`; rescanned counts the
    lambdas measured by `_distance` itself: every one where the front
    scanned densely, else those within a relative _MARGIN of reach."""
    lams = np.asarray(lams, dtype=complex).ravel()
    reach = np.zeros(lams.shape) + reach
    dist, exact = _front(samples, lams, reach, edges)
    if exact:
        return dist <= reach, lams.size
    rescan = np.flatnonzero(np.abs(dist - reach) <= reach * _MARGIN)
    if rescan.size:
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


def _classify(curve, lams):
    """Status codes for scattered lambdas against a Curve, on its coarse
    ring: every m-th sample, m g (1 + _MARGIN) < tol for the longest step g
    between samples (`Curve.coarse`). ON_CURVE is settled first, and
    crossings are counted only for the lambdas it leaves: a point of the
    curve is in the spectrum whatever its winding.

    ON_CURVE is `_distance(samples, lams) <= tol`, bit for bit. `_front`
    measures the distance d from each lambda to the ring up to
    reach = tol + (m // 2) g. d <= tol (1 - _MARGIN) is ON_CURVE, since the
    ring's samples are samples; d > reach (1 + _MARGIN) is not, since every
    sample is at most m // 2 steps from c_k or c_(k+1), so within
    (m // 2) g of the ring; the margins cover the ulps by which the front
    may round. Only the lambdas in between are measured on all samples
    (`_within`). With m = 1 the ring is the samples, and only the margins'
    band is measured again.

    The windings of the lambdas left are crossing numbers of the ring.
    Block k of the polyline runs from c_k = s_(km) along m steps to
    c_(k+1) (the last one, closing at c_0 = s_S, along at most m). Every
    point of it, and of the chord c_k -> c_(k+1), lies within m g of c_k,
    and so does every point of the straight-line homotopy between the two
    polylines. So the homotopy misses every lambda farther than m g from
    all c_k, and each lambda counted is one: it lies farther than
    tol > m g from every sample. The ring winds about it as the polyline
    does. The counts stay exact through rounding: with u = 2^-53, a
    crossing's abscissa x (`_crossings`) rounds by under u (6 |dx| + |x|),
    where |x| <= l1 and an edge's |dx| <= m g < tol, while distances and
    steps round by a few u relative. A lambda farther than tol from every
    sample by the exact scan lies farther from both polylines than
    tol - m g (1 + 3u) - 2u tol > 27u (l1 + tol), by the room that
    `Curve.coarse` leaves, so neither count rounds. A lambda's count does
    not depend on the others in the call, so counting a subset gives each
    the same integer.
    """
    lams = _finite_lambdas(lams)
    ring, m, g = curve.coarse
    tol = curve.tol
    reach = tol + (m // 2) * g
    dist = _front(ring, lams, reach)[0]
    on = dist <= tol * (1.0 - _MARGIN)
    between = np.flatnonzero(~on & (dist <= reach * (1.0 + _MARGIN)))
    if between.size:
        on[between] = _within(curve.samples, lams[between], tol)[0]
    codes = np.zeros(lams.size, dtype=np.int8)
    off = np.flatnonzero(~on)
    if off.size:
        codes[off] = np.where(_winding_numbers(ring, lams[off]) != 0, 1, 2)
    return codes


def spectrum_membership(phi, lam, grid_size=2048):
    """ON_CURVE / WINDING_NONZERO / OUTSIDE for a single lambda.

    lam belongs to sigma(T_phi) exactly when the answer is not OUTSIDE.
    """
    return _STATUS_NAMES[_classify(Curve(phi, grid_size), [lam])[0]]


def membership_batch(phi, lams, grid_size=2048):
    """Status name array for a batch of lambdas on one shared sample grid."""
    return _NAMES[_classify(Curve(phi, grid_size), lams)]


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
    polyline than max(2e-4, 4 sag) and winding nonzero, by crossing numbers,
    on it. The true curve stays within the sag of that polyline at each
    parameter, so the homotopy between them misses a cleared lambda and the
    two wind alike. The fine grid is sized for a sag of 1e-5 and clamped at
    65536 points. Clearance is tested against the fine edges of the chunks
    whose boxes come near each candidate (`_within`); the candidates
    measured again by the exact scan of every fine edge are noted as
    clearance_fallbacks, with the fine grid's size and clamp and the probes
    certified (as probes_kept). Certified probes must not read OUTSIDE on
    the working grid, but that comparison cannot fail: every probe lies
    within hi <= tol / 2 of a working sample, so `_classify` reads it
    ON_CURVE there. What the check establishes is the fine grid's
    certificate; a gate that can fail needs an independent count of the
    windings (by roots, not yet made). Symbols whose spectrum has empty
    interior (real-valued ones, say) certify no probes and pass vacuously.
    """
    rng = np.random.default_rng(seed)
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    fine = curve.refine(1e-5, 4 * grid_size, 1, _FINE_CAP, "fine")
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
        near, rescanned = _within(fine.samples, cand, clearance, edges=True)
        fallbacks += rescanned
        cand = cand[~near]
        if cand.size:
            keep = _winding_numbers(fine.samples, cand) != 0
            certified.extend(cand[keep].tolist())
            certified = certified[:probes]

    counter = []
    probe_pass = True
    if certified:
        work = _classify(curve, certified)
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


def _row_ends(mask):
    """Flat indices, ascending, of the first and last True entry on each row
    of a 2-D mask that has one."""
    rows = np.flatnonzero(mask.any(axis=1))
    width = mask.shape[1]
    first = mask[rows].argmax(axis=1)
    last = width - 1 - mask[rows, ::-1].argmax(axis=1)
    return np.unique(np.concatenate((rows * width + first, rows * width + last)))


def convex_bound_check(phi, n=200, grid_size=512):
    """Every lambda not OUTSIDE must sit in the hull of the essential range.

    phi is sampled once, on grid_size points, and the lambdas are the n x n
    grid `lambda_grid` lays over those samples. Statuses come from crossing
    numbers, one scanline per row of the grid (`_grid_windings`), and
    ON_CURVE from the runs of columns each sample covers on those rows
    (`_near_grid`), both exact.
    Winding-certified lambdas are tested at _TOL_WINDING (1e-8), ON_CURVE
    lambdas at the working curve tolerance on top, since that is how far they
    may sit from their anchoring sample.

    A lambda is accepted when it lies inside the hull polygon of the working
    samples by crossing number (exact off the boundary), or when its
    distance to the hull's boundary stays 1e-12 below its tolerance (a
    lambda within rounding of the boundary passes so). On a correct hull
    every tested lambda is accepted:
    - an ON_CURVE lambda lies within tol of a working sample, and every
      working sample is a point of the working hull;
    - a lambda of nonzero winding lies inside the working polygon, so inside
      that polygon's hull;
    and _TOL_WINDING and the 1e-12 margin absorb the rounding. Every lambda
    left is a counterexample.

    Only the row ends are measured. The distance to a convex set is a
    convex function, so on a segment it is at most its larger value at the
    two ends. The lambdas of one status on one grid row lie on the segment
    between the leftmost and the rightmost of them, so they all pass when
    those two pass: at most 4 lambdas per row are tested.
    A row with an end that fails is measured lambda by lambda, so the
    counterexamples, in row-major order (winding ones first), are those a
    test of every lambda finds.
    """
    curve = Curve(phi, grid_size)
    samples, tol = curve.samples, curve.tol
    xs, ys = lambda_grid(samples, n)
    lams = (xs[None, :] + 1j * ys[:, None]).ravel()
    codes = _codes(_near_grid(samples, xs, ys, tol), _grid_windings(samples, xs, ys))
    tol_on_curve = tol + _TOL_WINDING
    limit = np.where(codes == 1, _TOL_WINDING, tol_on_curve) - 1e-12
    hull = conv_hull(samples)

    def accepted(at):
        inside = _winding_numbers(hull.vertices, lams[at]) != 0
        return inside | (_distance(hull.vertices, lams[at], edges=True) <= limit[at])

    grid = codes.reshape(n, n)
    ends = np.union1d(_row_ends(grid == 0), _row_ends(grid == 1))
    ok = np.ones(codes.size, dtype=bool)
    ok[ends] = accepted(ends)
    failed = np.zeros(n, dtype=bool)
    failed[ends[~ok[ends]] // n] = True
    redo = np.flatnonzero(np.repeat(failed, n) & (codes != 2))
    if redo.size:
        ok[redo] = accepted(redo)

    counter = [complex(v) for v in lams[~ok & (codes == 1)]]
    counter.extend(complex(v) for v in lams[~ok & (codes == 0)])
    return ConvexBoundReport(_NAMES[codes], lams, tol_on_curve, counter, not counter)


@dataclass(frozen=True)
class NumericalRangeReport:
    thetas: list
    support_values: list
    bounds: list
    counterexamples: list
    verdict: bool


def _arc_sup(phi, phs):
    """(tops, sags, points): for each unit phase ph, the greatest sampled value
    of f(t) = Re(ph phi(e^{it})) and a sag that the true maximum of f cannot
    exceed it by; points counts the values of phi evaluated.

    phi is sampled once on base = max(4096, 4 (1 + band)) points, spacing h.
    Pairing the exponents k and -k, f is a sum of cosines of amplitudes
    a_k = |ph c_k + conj(ph c_-k)|, so |f''| <= B = sum k^2 a_k (at most the
    curve's B'') and f strays at most h^2 B / 8 above the chord of each arc
    between two samples. An arc whose larger end falls short of the grid
    maximum by more than that cannot hold the true maximum. Every other arc
    is resampled, through `LaurentPoly.eval_at`, at the points of the
    uniform grid of base * m angles that lie inside it, m = ceil(h sqrt(B /
    (8 _SAG_TARGET))) but at most base; the true maximum then lies within
    that grid's sag (h / m)^2 B / 8 of the largest value sampled, below
    _SAG_TARGET unless m stopped at base. A direction in which f is constant
    (Re(ph phi) of a curve on a line, say) has B = 0 and resamples nothing.
    """
    band = phi.band()
    base = max(4096, 4 * (1 + band))
    samples = Curve(phi, base).samples
    k = np.arange(1, band + 1)
    pos = np.array([phi.coeff(int(j)) for j in k])
    neg = np.array([phi.coeff(-int(j)) for j in k])
    h = 2.0 * np.pi / base
    tops, sags, points = [], [], base
    for ph in phs:
        b2 = float(np.sum(k * k * np.abs(ph * pos + np.conj(ph * neg))))
        f = (ph * samples).real
        top = float(f.max())
        m = max(1, min(base, math.ceil(h * math.sqrt(b2 / (8.0 * _SAG_TARGET)))))
        if m > 1:
            arcs = np.flatnonzero(np.maximum(f, np.roll(f, -1)) + h * h * b2 / 8.0 >= top)
            j = (arcs[:, None] * m + np.arange(1, m)).ravel()
            fine = phi.eval_at(np.exp(1j * (2.0 * np.pi * j / (base * m))))
            top = max(top, float(np.max((ph * fine).real)))
            points += j.size
        tops.append(top)
        sags.append((h / m) ** 2 * b2 / 8.0)
    return tops, sags, points


def numerical_range_support(x, thetas, trunc):
    """Support function h(theta) of the truncated numerical range.

    h(theta) is the top eigenvalue of the hermitian part of e^{i theta} X_N,
    a band matrix: the symbol's band, widened to k - 1 by a k x k upper-left
    correction. `linalg.band_max_eig` finds it by banded-Cholesky bisection
    and returns the upper end of its bracket, so h errs upward but for the
    factorization's rounding. Compression can only shrink the numerical
    range, so each value must stay below the sup of Re(e^{i theta} phi) plus
    the correction norm. The sup is bounded per direction by `_arc_sup`: the
    largest value sampled, which is the bound reported, plus its sag; with
    1e-8 on top for rounding, a value above that lands in counterexamples.
    The points evaluated for the sup and the largest sag are noted as
    sup_points and sup_sag.
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
    fnorm = op_norm(corr) if corr.size else 0.0

    thetas = [float(t) for t in thetas]
    phs = [complex(math.cos(t), math.sin(t)) for t in thetas]
    tops, sags, points = _arc_sup(x.symbol, phs)
    hs, bounds, counter = [], [], []
    for t, ph, top, sag in zip(thetas, phs, tops, sags):
        h = band_max_eig((ph * upper + np.conj(ph) * upper_adj) / 2.0, top)
        bound = top + fnorm
        hs.append(h)
        bounds.append(bound)
        if not h <= bound + sag + 1e-8:  # a NaN h is a violation too
            counter.append(t)
    note(sup_points=points, sup_sag=max(sags, default=0.0), band=kd)
    return NumericalRangeReport(thetas, hs, bounds, counter, not counter)


def _reprs(values):
    """repr of each float, formed once per distinct value: np.unique on the
    int64 view tells the bits apart, so -0.0 and 0.0 keep their own text."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)[inverse]


def report_csv(rep):
    """The (lambda_re, lambda_im, status) table of a ConvexBoundReport, for
    plotting, as CSV text: ',' between fields and '\\r\\n' after each line,
    what `csv.writer`'s default dialect writes. No field needs quoting: a
    float's repr and a status name hold no comma, quote or line break."""
    re, im = _reprs(rep.lams.real).tolist(), _reprs(rep.lams.imag).tolist()
    lines = map(",".join, zip(re, im, rep.statuses.tolist()))
    return "\r\n".join(["lambda_re,lambda_im,status", *lines, ""])
