"""Graded model for the Szego tuple on the sphere.

H^2 of the sphere S^{2n-1} (normalized surface measure) has orthogonal
monomials z^alpha with

    ||z^alpha||^2 = (n-1)! alpha! / (n-1+|alpha|)!,

kept here as exact big-integer rationals (Rudin 1980, Prop. 1.4.9);
`stick_breaking_moment` reaches them by a second exact route. The coordinate
multiplications compress to weighted shifts T_j e_alpha = w_j(alpha)
e_{alpha+e_j}, w_j(alpha) = sqrt((alpha_j+1)/(n+|alpha|)), the weights that
`SzegoTuple` holds. The Toeplitz operators are the fixed points of
Phi(X) = sum_j T_j* X T_j (Davie-Jewell), and Phi(1) = 1; both residuals
form Phi in one place, from the weights. Operators are stored degree-truncated
at d with images beyond degree d zeroed, so every entry is the exact
compression entry and the defect of Phi(1) = 1 is -1 exactly on the top shell.

Symbols on the sphere keep analytic and conjugate exponents separate
(zbar_j is not z_j^{-1} off the torus); see `SphereSymbol`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .linalg import worst
from .symbols import parse_terms

__all__ = [
    "sphere_moment",
    "stick_breaking_moment",
    "SphereSymbol",
    "GradedOperator",
    "SzegoTuple",
    "szego_tuple",
    "toeplitz_graded",
    "fixed_point_residual",
    "FixedPointReport",
    "defect_report",
    "DefectReport",
    "multiindices",
    "normal_extension_defect",
]

_MAX_TOTAL_DEGREE = 60


def _multiindex(n, alpha):
    alpha = tuple(int(a) for a in alpha)
    if n < 1 or len(alpha) != n:
        raise PreconditionError(f"alpha must have length n={n}")
    if any(a < 0 for a in alpha):
        raise PreconditionError("multi-index entries must be >= 0")
    total = sum(alpha)
    if total > _MAX_TOTAL_DEGREE:
        raise ResourceLimitError(f"|alpha| = {total} exceeds the exact-moment cap {_MAX_TOTAL_DEGREE}")
    return alpha


def sphere_moment(n, alpha):
    """Exact rational value of integral |z^alpha|^2 over the sphere."""
    alpha = _multiindex(n, alpha)
    num = math.factorial(n - 1)
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(n - 1 + sum(alpha)))


def stick_breaking_moment(n, alpha):
    """sphere_moment by stick-breaking: (|z_0|^2, ..., |z_{n-1}|^2) is uniform
    on the simplex, |z_j|^2 = B_j prod_{i<j} (1 - B_i) with independent
    B_j ~ Beta(1, n-1-j), so the moment is the product over j < n-1 of
    (n-1-j) int_0^1 b^{a_j} (1-b)^e db, e = a_{j+1} + ... + a_{n-1} + n-2-j,
    each expanded binomially in exact rationals."""
    alpha = _multiindex(n, alpha)
    out = Fraction(1)
    for j in range(n - 1):
        a, e = alpha[j], sum(alpha[j + 1 :]) + n - 2 - j
        out *= (n - 1 - j) * sum(
            Fraction((-1) ** k * math.comb(e, k), a + k + 1) for k in range(e + 1)
        )
    return out


# ---------------------------------------------------------------------------
# symbols with separated exponents


class SphereSymbol:
    """Polynomial in z_1..z_n and their conjugates, exponents kept apart."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise PreconditionError("nvars must be >= 1")
        self.nvars = int(nvars)
        store = {}
        for (g, d), c in (terms or {}).items():
            g, d = tuple(int(x) for x in g), tuple(int(x) for x in d)
            if len(g) != nvars or len(d) != nvars:
                raise PreconditionError("exponent arity mismatch")
            if any(x < 0 for x in g + d):
                raise PreconditionError("sphere symbols use nonnegative exponents")
            c = complex(c)
            if c != 0:
                key = (g, d)
                acc = store.get(key, 0j) + c
                if acc == 0:
                    store.pop(key, None)
                else:
                    store[key] = acc
        if not all(map(cmath.isfinite, store.values())):
            raise PreconditionError("sphere symbol coefficients must be finite")
        self._terms = store

    @classmethod
    def from_text(cls, text, nvars=None):
        raw = parse_terms(text, nvars)
        terms = {}
        for t in raw:
            if any(p < 0 for p in t.zpow + t.zbarpow):
                raise PreconditionError("negative powers are undefined on the sphere")
            key = (t.zpow, t.zbarpow)
            terms[key] = terms.get(key, 0j) + t.coeff
        return cls(raw[0].nvars, terms)

    def terms(self):
        return self._terms.items()

    def band(self):
        """Largest total degree shift |gamma| - |delta| in absolute value."""
        if not self._terms:
            return 0
        return max(abs(sum(g) - sum(d)) for (g, d) in self._terms)

    def __repr__(self):
        return f"SphereSymbol(n={self.nvars}, {len(self._terms)} terms)"


# ---------------------------------------------------------------------------
# graded operators


def multiindices(n, d):
    """All alpha with |alpha| <= d, graded-lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    for total in range(d + 1):
        rec((), total, n)
    return out


class GradedOperator:
    """Degree-truncated operator on the monomial basis of the sphere model.

    entries maps (beta, alpha) to <X e_alpha, e_beta>; indices run over
    degrees <= d. safe_degree marks the window where entries agree with the
    untruncated operator (everything, for plain compressions of symbols).
    """

    __slots__ = ("n", "d", "entries", "safe_degree")

    def __init__(self, n, d, entries=None, safe_degree=None):
        self.n = int(n)
        self.d = int(d)
        self.safe_degree = self.d if safe_degree is None else int(safe_degree)
        store = {}
        for (b, a), c in (entries or {}).items():
            b, a = tuple(b), tuple(a)
            if len(b) != self.n or len(a) != self.n:
                raise PreconditionError("multi-index arity mismatch")
            if sum(b) > self.d or sum(a) > self.d:
                raise PreconditionError("entry beyond the degree truncation")
            c = complex(c)
            if c != 0:
                store[(b, a)] = c
        self.entries = store

    def entry(self, beta, alpha):
        return self.entries.get((tuple(beta), tuple(alpha)), 0j)

    def max_abs(self, degree_limit=None):
        return worst(
            abs(c)
            for (b, a), c in self.entries.items()
            if degree_limit is None or (sum(b) <= degree_limit and sum(a) <= degree_limit)
        )

    def __repr__(self):
        return f"GradedOperator(n={self.n}, d={self.d}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class SzegoTuple:
    """The compressed coordinate shifts by their weights:
    T_j e_alpha = weights[j][alpha] e_{alpha+e_j} for |alpha| < d."""

    n: int
    d: int
    weights: tuple


def szego_tuple(n, d):
    """The compressed coordinate shifts T_1..T_n at degree truncation d."""
    if n < 1 or d < 1:
        raise PreconditionError("need n >= 1 and d >= 1")
    if d > _MAX_TOTAL_DEGREE:
        raise ResourceLimitError(f"degree {d} exceeds the exact-moment cap")
    idx = multiindices(n, d - 1)
    weights = tuple(
        {a: math.sqrt(Fraction(a[j] + 1, n + sum(a))) for a in idx} for j in range(n)
    )
    return SzegoTuple(n, d, weights)


def toeplitz_graded(phi, n, d):
    """Compression of multiplication by phi to the analytic monomials, degree <= d.

    Every entry is the exact rational moment ratio rounded once to float.
    """
    if phi.nvars != n:
        raise PreconditionError("symbol arity disagrees with n")
    if phi.band() > d // 2:
        raise PreconditionError(f"band {phi.band()} exceeds d/2 = {d // 2}")
    entries = {}
    for a in multiindices(n, d):
        ma = sphere_moment(n, a)
        for (g, dd), c in phi.terms():
            b = tuple(x + y - z for x, y, z in zip(a, g, dd))
            if any(x < 0 for x in b) or sum(b) > d:
                continue
            top = sphere_moment(n, tuple(x + y for x, y in zip(g, a)))
            ratio2 = top * top / (ma * sphere_moment(n, b))
            val = c * math.sqrt(ratio2)
            key = (b, a)
            acc = entries.get(key, 0j) + val
            entries[key] = acc
    return GradedOperator(n, d, entries, safe_degree=d - phi.band())


def _average(entries, tup):
    """sum_j T_j* X T_j for the operator X with these entries, as entries.

    The term of j at (beta, alpha) is w_j(beta) X[beta+e_j, alpha+e_j]
    w_j(alpha), multiplied in the order of T_j* (X T_j); the terms of an
    entry are added in ascending j.
    """
    out = {}
    for j, w in enumerate(tup.weights):
        for (b, a), c in entries.items():
            if b[j] and a[j]:
                beta = b[:j] + (b[j] - 1,) + b[j + 1 :]
                alpha = a[:j] + (a[j] - 1,) + a[j + 1 :]
                key = (beta, alpha)
                out[key] = out.get(key, 0j) + w[beta] * (c * w[alpha])
    return out


@dataclass(frozen=True)
class FixedPointReport:
    interior_max: float
    boundary_max: float
    safe_degree: int


def fixed_point_residual(x, tup):
    """Residual of sum_j T_j* X T_j - X, split into the window where the
    truncated computation is exact (degrees < safe) and the boundary."""
    if (x.n, x.d) != (tup.n, tup.d):
        raise PreconditionError("operator and tuple shapes disagree")
    r = _average(x.entries, tup)
    for k, c in x.entries.items():
        r[k] = r.get(k, 0j) - c
    r = GradedOperator(x.n, x.d, r)
    safe = min(x.safe_degree, x.d)
    interior = safe - 1
    inner = r.max_abs(degree_limit=interior)
    outer = worst(
        abs(c) for (b, a), c in r.entries.items() if sum(b) > interior or sum(a) > interior
    )
    return FixedPointReport(inner, outer, safe)


@dataclass(frozen=True)
class DefectReport:
    interior_max: float
    top_shell_min: float
    top_shell_max: float
    off_diagonal_max: float
    support_ok: bool


def defect_report(tup):
    """Structure of sum_j T_j* T_j - 1 under the degree truncation: zero on
    degrees < d (the weights telescope), exactly -1 on the top shell."""
    n, d = tup.n, tup.d
    ident = {(a, a): 1.0 for a in multiindices(n, d)}
    diff = _average(ident, tup)
    for k in ident:
        diff[k] = diff.get(k, 0j) - 1.0
    diff = GradedOperator(n, d, diff)
    interior = diff.max_abs(degree_limit=d - 1)
    entries = diff.entries.items()
    off = [abs(c) for (b, a), c in entries if b != a]
    top = [c.real for (b, a), c in entries if b == a and sum(a) == d]
    inner = [abs(c) for (b, a), c in entries if b == a and sum(a) != d]
    support_ok = not off and all(v <= 1e-12 for v in inner)
    lo = float(np.min(top)) if top else 0.0
    return DefectReport(interior, lo, worst(top), worst(off), support_ok)


def normal_extension_defect(n, degree):
    """Cross-check the shift weights against the two-sided monomial picture.

    On the span of z^gamma zbar^delta the multiplications M_j act by exponent
    shift; compressing <M_j m_alpha, m_beta> with the exact two-sided Gram
    form must reproduce the graded shift entries. Returns the largest
    deviation (float rounding only).
    """
    t = szego_tuple(n, degree)
    devs = []
    for j, w in enumerate(t.weights):
        for a, wa in w.items():
            b = a[:j] + (a[j] + 1,) + a[j + 1 :]
            # <z_j z^a, z^b> = moment(b) since z_j z^a = z^b; normalize.
            g = sphere_moment(n, b)
            val = float(g) / math.sqrt(float(sphere_moment(n, a)) * float(g))
            devs.append(abs(val - wa))
    return worst(devs)
