"""Laurent-polynomial symbols and their elementary function theory.

A symbol is a Laurent polynomial in variables z1..zn restricted to the unit
torus (or, for the sphere models, kept with separate analytic and conjugate
exponents; see `parse_terms`). Exponent vectors live in Z^nvars and index a
coefficient dict; zbar_j on the torus is z_j^(-1).

Text format: terms like ``2.5*z1^3*zbar2^1`` joined by ``+``/``-``, with
``z``/``zbar`` accepted in one variable and complex coefficients written in
parentheses, e.g. ``(1.5-2j)*z^2``. The factors of a term are joined by
``*``; two factors side by side (``2z``, ``z1 z2``) are an error, not a sum.
`LaurentPoly.to_text` emits a canonical form that `from_text` parses back
to the identical object, bit for bit.

A symbol never changes once built, so each `LaurentPoly` keeps a small memo
of what is computed from it: its band, l1 norm and two derivative bounds,
and the samples of the one-variable grids of up to 2048 points that
`eval_grid` has drawn, 40 KiB of them at most. Repeated queries on one
symbol (a sup bracket, then windings, then memberships) then sample it once
per grid. The memo lives on the object, never in a cache keyed by value:
equal symbols whose coefficients come in another order sum their terms in
another order, and each keeps its own bits.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArityError, OnCurveError, PreconditionError
from .record import note

__all__ = [
    "LaurentPoly",
    "parse_terms",
    "eval_grid",
    "winding",
    "Curve",
    "sup_norm",
    "conv_hull",
    "Hull",
]


def _clean_complex(c):
    c = complex(c)
    # normalize -0.0 components so canonical forms are bit-stable
    return complex(c.real + 0.0, c.imag + 0.0)


def _finite(coeffs):
    """coeffs, once every value is finite."""
    if not all(map(cmath.isfinite, coeffs.values())):
        raise PreconditionError("symbol coefficients must be finite")
    return coeffs


class LaurentPoly:
    """Finitely supported coefficient map exponent-vector -> complex."""

    __slots__ = ("nvars", "_coeffs", "_memo")

    def __init__(self, nvars, coeffs=None):
        if nvars < 1:
            raise PreconditionError("nvars must be >= 1")
        self.nvars = int(nvars)
        store = {}
        for e, c in (coeffs or {}).items():
            if isinstance(e, int):
                e = (e,)
            e = tuple(int(k) for k in e)
            if len(e) != self.nvars:
                raise PreconditionError(f"exponent {e} has wrong arity for nvars={nvars}")
            c = _clean_complex(c)
            if c != 0:
                acc = store.get(e)
                if acc is None:
                    store[e] = c
                else:
                    acc = _clean_complex(acc + c)
                    if acc == 0:
                        del store[e]
                    else:
                        store[e] = acc
        self._coeffs = _finite(store)
        self._memo = {}

    @classmethod
    def _of(cls, nvars, coeffs):
        """A symbol from coefficients whose keys this class made: distinct
        tuples of nvars ints, so not checked again. Values are cleaned, zeros
        dropped and finiteness checked as in __init__."""
        store = {}
        for e, c in coeffs.items():
            c = _clean_complex(c)
            if c != 0:
                store[e] = c
        out = cls.__new__(cls)
        out.nvars = nvars
        out._coeffs = _finite(store)
        out._memo = {}
        return out

    def _memoized(self, key, compute):
        """compute(), worked out once per symbol and kept in its memo."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def __getstate__(self):
        # the memo is rebuilt on demand, so pickles carry the symbol alone
        return None, {"nvars": self.nvars, "_coeffs": self._coeffs}

    def __setstate__(self, state):
        slots = state[1]
        self.nvars, self._coeffs, self._memo = slots["nvars"], slots["_coeffs"], {}

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars=1):
        return cls(nvars, {})

    @classmethod
    def constant(cls, c, nvars=1):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, j=0, nvars=1):
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, exponent, coeff=1.0, nvars=None):
        if isinstance(exponent, int):
            exponent = (exponent,)
        if nvars is None:
            nvars = len(exponent)
        return cls(nvars, {tuple(exponent): coeff})

    # ---- basic queries -------------------------------------------------

    @property
    def coeffs(self):
        return dict(self._coeffs)

    def coeff(self, exponent):
        if isinstance(exponent, int):
            exponent = (exponent,)
        return self._coeffs.get(tuple(exponent), 0j)

    def terms(self):
        return self._coeffs.items()

    def is_zero(self):
        return not self._coeffs

    def band(self):
        """Largest |exponent| component over the support."""
        return self._memoized(
            "band", lambda: max((max(abs(k) for k in e) for e in self._coeffs), default=0)
        )

    def deg_pos(self):
        """Largest exponent (one variable), 0 for empty support."""
        self._require_univariate()
        return max((e[0] for e in self._coeffs if e[0] > 0), default=0)

    def deg_neg(self):
        """Magnitude of the most negative exponent (one variable)."""
        self._require_univariate()
        return max((-e[0] for e in self._coeffs if e[0] < 0), default=0)

    def is_analytic(self):
        return all(all(k >= 0 for k in e) for e in self._coeffs)

    def l1_norm(self):
        return self._memoized("l1", lambda: float(sum(abs(c) for c in self._coeffs.values())))

    def derivative_l1_bound(self):
        """sup |d/dtheta phi(e^{i theta})| <= sum |k| |c_k| (one variable)."""
        self._require_univariate()
        return self._memoized(
            "d1", lambda: float(sum(abs(e[0]) * abs(c) for e, c in self._coeffs.items()))
        )

    def second_derivative_l1_bound(self):
        self._require_univariate()
        return self._memoized(
            "d2", lambda: float(sum(e[0] * e[0] * abs(c) for e, c in self._coeffs.items()))
        )

    def _require_univariate(self):
        if self.nvars != 1:
            raise PreconditionError("operation defined for one-variable symbols only")

    # ---- algebra -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0j) + c
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise PreconditionError("variable count mismatch")
        out = {}
        pairs = other._coeffs.items()
        if self.nvars == 1:
            for (k1,), c1 in self._coeffs.items():
                for (k2,), c2 in pairs:
                    e = (k1 + k2,)
                    out[e] = out.get(e, 0j) + c1 * c2
        else:
            for e1, c1 in self._coeffs.items():
                for e2, c2 in pairs:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0j) + c1 * c2
        return LaurentPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("only nonnegative integer powers")
        out = LaurentPoly.constant(1.0, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return LaurentPoly(
            self.nvars,
            {tuple(-k for k in e): c.conjugate() for e, c in self._coeffs.items()},
        )

    def _coerce(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly.constant(other, self.nvars)
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise PreconditionError("variable count mismatch")
            return other
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._coeffs.items())))

    # ---- evaluation ----------------------------------------------------

    def eval_at(self, points):
        """Evaluate at complex points, shape (..., nvars) or (...,) when nvars=1."""
        pts = np.asarray(points, dtype=complex)
        if self.nvars == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., np.newaxis]
        if pts.shape[-1] != self.nvars:
            raise PreconditionError(f"points need last axis {self.nvars}")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for e, c in self._coeffs.items():
            # term times power, written out: `term * p ** k` would turn into
            # p ** k * term where numpy reuses a temporary of 256 KiB or more
            term = c
            for j, k in enumerate(e):
                if k:
                    p = pts[..., j] ** k
                    term = np.multiply(term, p, out=p)
            out += term
        return out

    # ---- text form -------------------------------------------------------

    def to_text(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            factors = []
            for j, k in enumerate(e):
                if k == 0:
                    continue
                name = ("z" if k > 0 else "zbar") if self.nvars == 1 else (
                    f"z{j + 1}" if k > 0 else f"zbar{j + 1}"
                )
                p = abs(k)
                factors.append(name if p == 1 else f"{name}^{p}")
            body = "*".join([_fmt_coeff(c)] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-") and not p.startswith("(-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    @classmethod
    def from_text(cls, text, nvars=None):
        terms = parse_terms(text, nvars)
        coeffs = {}
        for t in terms:
            e = tuple(a - b for a, b in zip(t.zpow, t.zbarpow))
            coeffs[e] = coeffs.get(e, 0j) + t.coeff
        return cls(terms[0].nvars, coeffs)

    def __repr__(self):
        return f"LaurentPoly({self.to_text()!r})"


def _fmt_coeff(c):
    if c.imag == 0.0:
        return repr(c.real)
    sign = "+" if c.imag > 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}j)"


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class RawTerm:
    """One parsed product: coefficient and separate z / zbar powers."""

    coeff: complex
    zpow: tuple
    zbarpow: tuple

    @property
    def nvars(self):
        return len(self.zpow)


# one token: a parenthesised complex literal, a number, a variable with its
# index and exponent, or an operator; whitespace around it is skipped
_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<cplx>\([^()]*\))"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[jJ]?)"
    r"|(?P<var>z(?P<bar>bar)?(?P<idx>\d*)(?:\s*\^\s*(?P<neg>-?)\s*(?P<exp>\d+))?)"
    r"|(?P<op>[*+\-])"
    r")\s*"
)


def parse_terms(text, nvars=None):
    """Parse symbol text into RawTerm list, keeping z and zbar powers apart.

    Every term is widened to the arity of the text, or to nvars when given;
    a text with more variables than nvars is refused. The torus
    interpretation (`LaurentPoly.from_text`) nets the powers out; the
    sphere models keep both sides.
    """
    # raw holds each term as [coefficient, z powers, zbar powers], the powers
    # by variable index; term is the open one, None before its first factor
    raw, sign, term, due, pos = [], 1.0, None, True, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PreconditionError(f"cannot tokenize symbol text at position {pos}: {text[pos:pos+12]!r}")
        pos, kind = m.end(), m.lastgroup
        tok = m[kind]
        if not due:  # a factor has just come: only '*', '+', '-' or the end may follow
            if kind != "op":
                raise PreconditionError(f"expected '*', '+' or '-' before position {m.start(kind)}")
            due = True
            if tok == "*":
                continue
            term = None
        if kind == "op":  # a factor is due; a sign run may only open a term
            if tok == "*" or term is not None:
                raise PreconditionError(f"expected a coefficient or variable at position {m.start(kind)}")
            sign = -sign if tok == "-" else sign
            continue
        if term is None:
            term, sign = [complex(sign), {}, {}], 1.0
            raw.append(term)
        if kind == "num":
            term[0] *= complex(tok) if tok[-1] in "jJ" else float(tok)
        elif kind == "cplx":
            try:
                term[0] *= complex(tok)
            except ValueError:
                raise PreconditionError(f"bad complex literal {tok!r}") from None
        else:
            idx = int(m["idx"] or 1) - 1
            if idx < 0:
                raise PreconditionError(f"variable index in {tok!r} must be >= 1")
            pows = term[2] if m["bar"] else term[1]
            pows[idx] = pows.get(idx, 0) + (int(m["neg"] + m["exp"]) if m["exp"] else 1)
        due = False
    if due:
        raise PreconditionError(f"expected a coefficient or variable at position {len(text)}")
    seen = 1 + max((k for _, zpow, zbarpow in raw for k in (*zpow, *zbarpow)), default=0)
    if nvars is None:
        nvars = seen
    elif seen > nvars:
        raise ArityError(seen, nvars)
    return [
        RawTerm(
            _clean_complex(c),
            tuple(zpow.get(j, 0) for j in range(nvars)),
            tuple(zbarpow.get(j, 0) for j in range(nvars)),
        )
        for c, zpow, zbarpow in raw
    ]


# ---------------------------------------------------------------------------
# grids, winding, sup norms


# Unit-root power tables are cached for grids up to this many points: 32 KiB
# a table, 2 MiB for the 64 the cache holds. Larger grids go through eval_at.
_TABLE_POINTS = 2048
# A symbol memoizes its own samples on these same grids, at most this many
# bytes of them: the 512- and 2048-point grids of the queries. Larger grids,
# such as `hartman_wintner`'s fine ones of up to 65,536 points, do not
# outlive their `Curve`.
_MEMO_BYTES = 40 * 1024


@lru_cache(maxsize=64)
def _unit_powers(grid_size, k):
    """ring ** k on the uniform grid of grid_size angles, read-only; ring is
    formed by the expression `eval_grid` uses, so the table holds its bits."""
    ring = np.exp(1j * (2.0 * np.pi * np.arange(grid_size) / grid_size))
    table = ring**k
    table.setflags(write=False)
    return table


def eval_grid(phi, grid_size):
    """Samples of phi on the uniform torus grid with grid_size points per
    axis, as a read-only array (row-major over the axes).

    This is the one place the grid angles 2 pi j / grid_size are formed, so
    every caller that samples a curve gets the same bits.

    A one-variable symbol on a grid of at most _TABLE_POINTS = 2048 points is
    summed from cached tables of the unit roots' powers (`_unit_powers`,
    which depend on the grid and the exponent only), term by term in the
    order `LaurentPoly.eval_at` takes: the same products in the same order,
    so the same bits. phi keeps these samples in its memo (see the module
    docstring) and returns them on every later call on that grid; its grids
    stay within _MEMO_BYTES, the oldest dropped first. Larger grids and
    several variables go through `eval_at`. The cut bounds the cache at
    2 MiB.
    """
    need = 4 * (1 + phi.band())
    if grid_size < need:
        raise PreconditionError(f"grid_size {grid_size} < 4*(1+band) = {need}")
    if phi.nvars == 1 and grid_size <= _TABLE_POINTS:
        grids = phi._memoized("grids", dict)
        samples = grids.get(grid_size)
        if samples is None:
            samples = np.zeros(grid_size, dtype=complex)
            for (k,), c in phi._coeffs.items():
                samples += c * _unit_powers(grid_size, k) if k else c
            samples.setflags(write=False)
            while 16 * (sum(grids) + grid_size) > _MEMO_BYTES:
                del grids[next(iter(grids))]
            grids[grid_size] = samples
        return samples
    ring = np.exp(1j * (2.0 * np.pi * np.arange(grid_size) / grid_size))
    if phi.nvars == 1:
        samples = phi.eval_at(ring)
    else:
        mesh = np.meshgrid(*([ring] * phi.nvars), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        samples = phi.eval_at(pts)
    samples = np.ascontiguousarray(samples.ravel())
    samples.setflags(write=False)
    return samples


# past it samples may overflow, and their squared distances do from ~1.3e154
_MAX_L1 = 1e150


@dataclass(frozen=True)
class Curve:
    """A one-variable symbol sampled on the uniform grid of size points, with
    the certified tolerances of that sampling.

    samples are `eval_grid`'s, computed on first use. On grids of up to 2048
    points they are phi's memoized samples, shared by every Curve of phi on
    that grid: phi is immutable and keeps its own bits (see the module
    docstring). A larger grid's samples go with its Curve. tol is the distance
    below which a lambda is ON_CURVE: 10 * spacing * (l1 bound on the first
    derivative), conservative but certifiable, since consecutive samples are
    at most spacing * bound apart. sag bounds how far the true curve strays
    from the chord between two samples, spacing^2 * (l1 bound on the second
    derivative) / 8; a sampled sup misses the true sup by as much. phi's l1
    norm must not exceed _MAX_L1, nor its second-derivative bound overflow.
    """

    phi: LaurentPoly
    size: int

    def __post_init__(self):
        phi = self.phi
        phi._require_univariate()
        if not (phi.l1_norm() <= _MAX_L1 and math.isfinite(phi.second_derivative_l1_bound())):
            raise PreconditionError(
                "coefficients too large, the l1 norm exceeds 1e150 "
                "or the second-derivative bound is not finite"
            )

    @cached_property
    def samples(self):
        return eval_grid(self.phi, self.size)

    @property
    def tol(self):
        return 10.0 * (2.0 * np.pi / self.size) * self.phi.derivative_l1_bound()

    @property
    def sag(self):
        return (2.0 * np.pi / self.size) ** 2 * self.phi.second_derivative_l1_bound() / 8.0

    def refine(self, target, floor, step, cap, name):
        """The curve on the least multiple of step, at least floor, whose sag
        is below target; past cap, on the largest multiple of step within it.
        The size and whether the cap clamped it are noted as {name}_size and
        {name}_clamped."""
        b2 = self.phi.second_derivative_l1_bound()
        # past cap + step the cap clamps anyway; an infinite need would not ceil
        need = min(2.0 * np.pi * math.sqrt(b2 / (8.0 * target)), cap + step)
        size = max(floor, step * math.ceil(need / step))
        clamped = size > cap
        if clamped:
            size = step * max(1, cap // step)
        note(**{f"{name}_size": size, f"{name}_clamped": clamped})
        return Curve(self.phi, size)


def winding(phi, lam, grid_size=512):
    """Winding number of phi(e^{i theta}) - lam, by crossing numbers.

    The curve is sampled on the uniform grid and the winding number of the
    closed polyline through the samples is counted exactly by
    `_winding_numbers`. Raises OnCurveError when lam is within the curve's
    tol of a sample; farther away the polyline and the curve wind alike,
    since consecutive samples are at most that far apart.
    """
    curve = Curve(phi, grid_size)
    lam = complex(lam)
    dist = float(np.min(np.abs(curve.samples - lam)))
    if dist <= curve.tol:
        raise OnCurveError(dist, curve.tol)
    return int(_winding_numbers(curve.samples, [lam])[0])


# The dense crossing table is cheaper than the rank search up to about this
# many entries L * (S + 1) for L >= 2 scanlines. Timed on one x86-64 core
# over 8 symbols of full.json: the rank search first won at 4k-6k entries for
# S = 512 to 2048 samples, and at 12k-16k for S = 4096 and 8192. A single
# scanline takes the table on any curve: 52-59 against 69-74 us at S = 8192,
# 328 against 401-417 us at 65,536 (`BENCH_sample_once.json`).
_DENSE_ENTRIES = 1 << 13


def _crossings(samples, ys):
    """Edge crossings of the scanlines y = ys[k] by the closed polyline
    through samples, as (k, abscissa, sign) arrays in no particular order.

    Crossing-number rule with the half-open convention (Hormann & Agathos,
    Comput. Geom. 20, 2001): edge (a, b) crosses y upward, sign +1.0, when
    a.imag <= y < b.imag and downward, sign -1.0, when b.imag <= y < a.imag.
    A vertex on the scanline is crossed by exactly one of its two edges and a
    horizontal edge by none, so the signs of the crossings right of lambda
    add up to the winding number of the polyline about every lambda off it,
    exactly. Lambdas on the polyline get some integer; callers classify them
    by distance first. Callers only add up these signs, and sums of +-1.0 are
    exact in any order, so the order of the crossings is left open.

    The crossed edges are found one of two ways, with the same result, and
    the abscissae by one formula: by the dense table (`_table_edges`) for a
    single scanline or up to _DENSE_ENTRIES entries, else by the rank search
    (`_rank_edges`).
    """
    ring = np.concatenate((samples, samples[:1]))
    dense = ys.size <= 1 or ys.size * ring.size <= _DENSE_ENTRIES
    k, e, sign = (_table_edges if dense else _rank_edges)(ring.imag, ys)
    a, b = ring[e], ring[e + 1]
    y = ys[k]
    x = a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
    return k, x, sign


def _table_edges(ring_y, ys):
    """(k, edge, sign) of every crossing, from the table of ring vertices on
    or below each scanline: O(L S) for L scanlines and S samples."""
    below = ring_y <= ys[:, None]
    k, e = np.nonzero(below[:, :-1] != below[:, 1:])
    return k, e, np.where(below[k, e], 1.0, -1.0)


def _rank_edges(ring_y, ys):
    """(k, edge, sign) of every crossing, by rank: rank[v] counts the
    scanlines below vertex v, and sorted scanline i lies on or above v exactly
    when i >= rank[v]. So edge e crosses the sorted scanlines from
    min(rank[e], rank[e + 1]) up to the max, exclusive, upward when the rank
    steps up. That is the half-open rule, in O((S + L) log L) plus one per
    crossing."""
    order = np.argsort(ys, kind="stable")
    rank = np.searchsorted(ys[order], ring_y)
    e = np.flatnonzero(rank[1:] != rank[:-1])
    lo, hi = rank[e], rank[e + 1]
    count = np.abs(hi - lo)
    # crossing j of edge e lies on sorted scanline min(lo, hi) + j
    first = np.cumsum(count) - count
    k = order[np.arange(count.sum()) + np.repeat(np.minimum(lo, hi) - first, count)]
    return k, np.repeat(e, count), np.repeat(np.where(hi > lo, 1.0, -1.0), count)


def _finite_lambdas(lams):
    lams = np.asarray(lams, dtype=complex).ravel()
    if not np.isfinite(lams).all():
        raise PreconditionError("winding numbers need finite lambdas")
    return lams


def _winding_numbers(samples, lams):
    """Winding numbers of the closed polyline through samples about
    scattered lambdas: each lambda is its own scanline (`_crossings`)."""
    lams = _finite_lambdas(lams)
    k, x, sign = _crossings(samples, lams.imag)
    w = np.bincount(k, weights=sign * (x > lams.real[k]), minlength=lams.size)
    return w.astype(np.int64)


def sup_norm(phi, grid_size=512):
    """(lower, upper) bracket for sup |phi| on the torus: grid max and l1 sum.

    Each sample and the sum round relative to the l1 norm, so the two may
    cross by a relative 1e-12 before the bracket counts as inverted."""
    lower = float(np.max(np.abs(eval_grid(phi, grid_size))))
    upper = phi.l1_norm()
    if lower > upper * (1.0 + 1e-12):
        raise PreconditionError("sup bracket inverted; coefficients are inconsistent")
    # grid rounding can push the estimate an ulp past the l1 bound
    return min(lower, upper), upper


# ---------------------------------------------------------------------------
# convex hulls


def _segment_distance(q, a, e):
    """Distance from q to the segment a -> a + e, elementwise with broadcasting;
    a zero e gives |q - a|."""
    ee = np.abs(e) ** 2
    t = ((q - a) * np.conj(e)).real / np.where(ee == 0, 1.0, ee)
    return np.abs(q - (a + np.clip(t, 0.0, 1.0) * e))


class Hull:
    """Convex hull of a finite point set in C, with tolerant membership.

    membership_batch(lams, tol) is one-sided safe: it never rejects a point
    whose distance to the hull is <= tol (near corners it may accept points
    up to sqrt(2) * tol away, which only loosens an inclusion check). No
    check calls it; it stays because perfbench's tracer times it by name.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex)
        if v.size == 0:
            raise PreconditionError("hull of an empty point set")
        self.vertices = v
        if v.size == 1:
            self.kind = "point"
        elif v.size == 2:
            self.kind = "segment"
        else:
            self.kind = "polygon"
            c = v.mean()
            ang = np.angle(v - c)
            order = np.argsort(ang, kind="stable")
            self._c = c
            self._va = v[order]
            self._aa = ang[order]

    def _sector_edge(self, q):
        """(a, e, signed) for a polygon: the edge a -> a + e of the sector about
        the vertex mean that holds each q, and q's signed distance to its line,
        positive on the inner side."""
        va, aa, m = self._va, self._aa, self._va.size
        idx = np.searchsorted(aa, np.angle(q - self._c), side="right") - 1
        idx %= m
        a = va[idx]
        e = va[(idx + 1) % m] - a
        return a, e, (np.conj(e) * (q - a)).imag / np.abs(e)

    def outside_distance(self, lams):
        """Distance-like defect: 0 inside, else a lower bound on the distance
        to the hull (exact for point/segment hulls and polygon edge regions)."""
        q = np.atleast_1d(np.asarray(lams, dtype=complex))
        if self.kind == "point":
            return np.abs(q - self.vertices[0])
        if self.kind == "segment":
            a, b = self.vertices
            return _segment_distance(q, a, b - a)
        _, _, signed = self._sector_edge(q)
        return np.maximum(0.0, -signed)

    def membership_batch(self, lams, tol):
        return self.outside_distance(lams) <= tol


def _half_chain(points):
    """One half of the monotone chain: the points kept while every turn
    o -> a -> q stays strictly counterclockwise, that is while the cross
    product Im(conj(a - o) (q - o)) stays positive."""
    out = []
    for q in points:
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            if ((a - o).conjugate() * (q - o)).imag > 0:
                break
            out.pop()
        out.append(q)
    return out


def conv_hull(points):
    """Convex hull (CCW vertices) of complex points, by Andrew's monotone
    chain (Inform. Process. Lett. 9, 1979) over the points sorted by real, then
    imaginary part, walked as Python complex values. Collinear and repeated
    points drop out of the chain; when fewer than three vertices are left,
    the input is a point or lies on a line, and the hull is its one point or
    its two extreme points."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise PreconditionError("conv_hull of an empty point set")
    p = pts[np.lexsort((pts.imag, pts.real))].tolist()
    lower, upper = _half_chain(p), _half_chain(reversed(p))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        return Hull(np.array(p[:1] if p[0] == p[-1] else [p[0], p[-1]]))
    return Hull(np.array(verts))
