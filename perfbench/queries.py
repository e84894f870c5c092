"""Closed-loop symbol queries with an independent oracle for every answer.

One client issues small library calls, one at a time, on fresh random
symbols. Each symbol gets a short burst: a sup-norm bracket, then winding and
membership queries at lambdas placed outside, inside and near its curve, then
one small membership batch. Only the library call is timed; generating the
inputs and checking the answers happen between calls.

Oracle. For phi with negative degree m, z^m * (phi(z) - lam) is a polynomial,
and the winding number of phi - lam about 0 on the unit circle equals the
number of its roots inside the unit disc minus m. When a root lies within
ROOT_MARGIN of the circle, lam is too close to the curve to trust either side.

ON_CURVE is checked against sphiso's documented rule: lam is on the curve
when a sample of the call's uniform grid (G points, spacing h = 2 pi / G)
lies within tol = 10 h D, where D = sum |k| |c_k| bounds |phi'|. A dense
evaluation at spacing h / FINE brackets the true distance d from lam to the
curve. If d > tol, no sample can be that close and ON_CURVE is wrong; if
d + h D / 2 <= tol, some sample must be that close and any other answer is
wrong. In the band between, either answer is allowed and the answer counts
as unverified, as it does when a root is too close to the circle.
"""

from __future__ import annotations

import time

import numpy as np

ROOT_MARGIN = 1e-6
FINE = 4
SYMBOLS_PER_BLOCK = 25
MAX_DEGREE = 12
# grid sizes passed to the calls (sphiso's defaults), which the oracle needs
WINDING_GRID = 512
MEMBERSHIP_GRID = 2048
KINDS = ("outside", "inside", "near")  # lambda i of a list has kind i % 3

# answer classes; ON_CURVE and OUTSIDE/WINDING_NONZERO match sphiso.spectra
ON_CURVE = "ON_CURVE"
WINDING_NONZERO = "WINDING_NONZERO"
OUTSIDE = "OUTSIDE"


def random_coeffs(rng):
    """Coefficient dict {k: c} of a random symbol with band 1..MAX_DEGREE."""
    band = int(rng.integers(1, MAX_DEGREE + 1))
    lo = -int(rng.integers(0, band + 1))
    hi = lo + band
    coeffs = {}
    for k in range(lo, hi + 1):
        if k in (lo, hi) or rng.uniform() < 0.6:
            mag = rng.uniform(0.1, 1.0)
            coeffs[k] = complex(mag * np.exp(2j * np.pi * rng.uniform()))
    return coeffs


def _curve(coeffs, theta):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return sum(c * z**k for k, c in coeffs.items())


def place_lambdas(coeffs, rng, count):
    """count lambdas cycling through outside, inside and near the curve."""
    l1 = sum(abs(c) for c in coeffs.values())
    box = _curve(coeffs, np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    lo_re, hi_re = box.real.min(), box.real.max()
    lo_im, hi_im = box.imag.min(), box.imag.max()
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:  # beyond the l1 bound: winding 0
            lam = l1 * rng.uniform(1.05, 2.0) * np.exp(2j * np.pi * rng.uniform())
        elif kind == 1:  # inside the range box
            lam = complex(rng.uniform(lo_re, hi_re), rng.uniform(lo_im, hi_im))
        else:  # near the curve
            base = complex(_curve(coeffs, rng.uniform(0.0, 2.0 * np.pi)))
            lam = base + rng.uniform(1e-4, 1e-2) * l1 * np.exp(2j * np.pi * rng.uniform())
        out.append(complex(lam))
    return out


def oracle_winding(coeffs, lam):
    """Winding number of phi - lam by root counting, or None if too close."""
    m = max(0, -min(coeffs))
    top = max(max(coeffs), 0)
    poly = np.zeros(top + m + 1, dtype=complex)  # index = power of z
    for k, c in coeffs.items():
        poly[k + m] += c
    poly[m] -= lam
    roots = np.roots(poly[::-1])
    mod = np.abs(roots)
    if np.any(np.abs(mod - 1.0) < ROOT_MARGIN):
        return None
    return int(np.count_nonzero(mod < 1.0)) - m


class Oracle:
    """Judges answers about one symbol at the two grid sizes the calls use."""

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self.deriv = sum(abs(k) * abs(c) for k, c in coeffs.items())
        self.dense = {}

    def on_curve(self, lam, grid_size):
        """True if ON_CURVE is required, False if it is wrong, None between."""
        if grid_size not in self.dense:
            n = FINE * grid_size
            self.dense[grid_size] = _curve(self.coeffs, 2.0 * np.pi * np.arange(n) / n)
        h = 2.0 * np.pi / grid_size
        tol = 10.0 * h * self.deriv
        d = float(np.min(np.abs(self.dense[grid_size] - lam)))
        if d - h * self.deriv / (2 * FINE) > tol * (1 + 1e-9):
            return False
        if d + h * self.deriv / 2 <= tol * (1 - 1e-9):
            return True
        return None

    def judge(self, lam, answer, grid_size, status=True):
        """'verified', 'unverified' or a failure message for one answer.

        answer is ON_CURVE, or a winding number (status=False), or a
        WINDING_NONZERO / OUTSIDE status (status=True).
        """
        on = self.on_curve(lam, grid_size)
        if answer == ON_CURVE:
            if on is False:
                return f"ON_CURVE but lam={lam!r} is farther than the tolerance"
            return "verified" if on else "unverified"
        if on:
            return f"{answer} but lam={lam!r} is within the tolerance of the curve"
        w = oracle_winding(self.coeffs, lam)
        if w is None:
            return "unverified"
        expect = (WINDING_NONZERO if w != 0 else OUTSIDE) if status else w
        if answer != expect:
            return f"{answer} but oracle says {expect} at lam={lam!r}"
        return "verified" if on is False else "unverified"


def check_sup(coeffs, answer, grid_size):
    """The sup bracket: upper is the l1 sum, lower the max on the grid."""
    lower, upper = answer
    l1 = sum(abs(c) for c in coeffs.values())
    grid_max = float(np.max(np.abs(_curve(coeffs, 2.0 * np.pi * np.arange(grid_size) / grid_size))))
    scale = max(1.0, l1)
    return (
        abs(upper - l1) <= 1e-12 * scale
        and abs(lower - grid_max) <= 1e-9 * scale
        and lower <= upper
    )


def make_block(seed, index):
    """The inputs of one block: a list of (coeffs, lambdas, batch)."""
    rng = np.random.default_rng([int(seed), 7919, int(index)])
    block = []
    for _ in range(SYMBOLS_PER_BLOCK):
        coeffs = random_coeffs(rng)
        lams = place_lambdas(coeffs, rng, 6)
        batch = place_lambdas(coeffs, rng, int(rng.integers(8, 49)))
        block.append((coeffs, lams, batch))
    return block


class Tally:
    """Per-query latencies, outcome counts, and answer counts per lambda kind."""

    def __init__(self):
        self.latencies_ns = []
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.unverified = 0
        self.errors = []
        self.answers = {kind: {"verified": 0, "unverified": 0, "failed": 0} for kind in KINDS}

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def add(self, other):
        self.latencies_ns += other.latencies_ns
        self.errors += other.errors[: 10 - len(self.errors)]
        for key in ("attempted", "failed", "verified", "unverified"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        for kind in KINDS:
            for key, n in other.answers[kind].items():
                self.answers[kind][key] += n


def _judge_all(tally, oracle, lams, answers, grid_size, status=True, first=0):
    """Judge the answers to the lambdas of one query: one operation.

    lams[i] is lambda first + i of a list made by place_lambdas.
    """
    outcomes = []
    for i, (lam, answer) in enumerate(zip(lams, answers)):
        verdict = oracle.judge(lam, answer, grid_size, status)
        key = verdict if verdict in ("verified", "unverified") else "failed"
        tally.answers[KINDS[(first + i) % 3]][key] += 1
        outcomes.append(verdict)
    bad = [v for v in outcomes if v not in ("verified", "unverified")]
    if bad:
        tally.fail(bad[0])
    elif "verified" in outcomes:
        tally.verified += 1
    else:
        tally.unverified += 1


def run_block(sphiso, block, tally):
    """Issue every query of one block; return the summed call time in ns."""
    LaurentPoly = sphiso.symbols.LaurentPoly
    OnCurveError = sphiso.errors.OnCurveError
    spectra, symbols = sphiso.spectra, sphiso.symbols
    clock = time.perf_counter_ns
    busy = 0

    def call(fn, *args):
        nonlocal busy
        tally.attempted += 1
        t0 = clock()
        try:
            return fn(*args), None
        except OnCurveError:
            return ON_CURVE, None
        except Exception as exc:  # any other raise is a failed query
            return None, exc
        finally:
            dt = clock() - t0
            busy += dt
            tally.latencies_ns.append(dt)

    for coeffs, lams, batch in block:
        phi = LaurentPoly(1, coeffs)
        oracle = Oracle(coeffs)
        answer, exc = call(symbols.sup_norm, phi, WINDING_GRID)
        if exc is not None:
            tally.fail(f"sup_norm raised {exc!r}")
        elif check_sup(coeffs, answer, WINDING_GRID):
            tally.verified += 1
        else:
            tally.fail(f"sup_norm bracket {answer} wrong")
        # lams[:3] and lams[3:] each hold one lambda of every kind
        for i, lam in enumerate(lams):
            fn, grid, status = (
                (symbols.winding, WINDING_GRID, False)
                if i < 3
                else (spectra.spectrum_membership, MEMBERSHIP_GRID, True)
            )
            answer, exc = call(fn, phi, lam, grid)
            if exc is not None:
                tally.fail(f"{fn.__name__} raised {exc!r}")
            else:
                _judge_all(tally, oracle, [lam], [answer], grid, status, first=i)
        answers, exc = call(spectra.membership_batch, phi, batch, MEMBERSHIP_GRID)
        if exc is not None:
            tally.fail(f"membership_batch raised {exc!r}")
        elif len(answers) != len(batch):
            tally.fail("membership_batch returned the wrong number of answers")
        else:
            # one query, failed if any answer in it disagrees with the oracle
            _judge_all(tally, oracle, batch, [str(a) for a in answers], MEMBERSHIP_GRID)
    return busy
