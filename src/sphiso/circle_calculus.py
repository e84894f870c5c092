"""Exact calculus for circle Toeplitz operators with finite-rank corrections.

Matrix convention (fixed throughout): the Hardy-space basis is e_k = z^k for
k >= 0 and a symbol phi acts through (T_phi)_{ij} = phihat(i - j). Every
element here is X = T_phi + F with phi a one-variable Laurent polynomial and
F a finite complex block anchored at entry (0, 0). The class is closed under
products:

    (T_phi + F)(T_psi + G) = T_{phi psi} + C(phi, psi) + T_phi G + F T_psi + F G

with the exact semicommutator block

    C(phi, psi)_{ij} = - sum_{k <= -1} phihat(i - k) psihat(k - j),

supported in rows < deg_pos(phi) and columns < deg_neg(psi). All operations
below are finite and exact up to float arithmetic; no truncation enters until
a norm or a report asks for one.

The compression X -> T_z* X T_z shifts the correction block up-left one step
and fixes the Toeplitz part, so iterating it `active size` many times is an
exact projection onto the Toeplitz subspace. That finite iteration stands in
for the usual invariant-mean average, which is not computable; on this class
the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, PreconditionError
from .linalg import band_max_eig, op_norm, worst
from .symbols import LaurentPoly, eval_grid, sup_norm

__all__ = [
    "ToeplitzElement",
    "make_toeplitz",
    "finite_rank",
    "identity",
    "mul",
    "adjoint",
    "phi_map",
    "project_phi",
    "symbol_map",
    "is_toeplitz",
    "semicommutator",
    "verify_averaging_identities",
    "AveragingReport",
    "commutant_character",
    "CommutantReport",
    "LiftEvidence",
    "NOT_TOEPLITZ",
    "TOEPLITZ_NOT_ANALYTIC",
    "ANALYTIC_TOEPLITZ",
    "cross_section_isometry",
    "CrossSectionReport",
    "toeplitz_matrix",
    "truncation",
    "truncation_norm",
    "diff_max",
    "symbol_diff_max",
]

_FLUSH = 1e-14
_CROSS_GRID = 2048  # the cross-section's sup grid
_CROSS_TOL = 1e-3  # the gap at which the cross-section's bracket counts closed
_SUP_GRID = 16384  # the least grid of the commutant lift's sup bracket


def _canonical_correction(arr):
    a = np.asarray(arr, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError("correction must be a matrix")
    if not np.isfinite(a).all():
        raise PreconditionError("correction entries must be finite")
    if a.size:
        m = np.max(np.abs(a))
        if m > 0.0:
            a = np.where(np.abs(a) < _FLUSH * m, 0.0, a)
        r = a.shape[0]
        while r > 0 and not np.any(a[r - 1, :]):
            r -= 1
        c = a.shape[1]
        while c > 0 and not np.any(a[:r, c - 1]):
            c -= 1
        a = a[:r, :c]
    if a.size == 0:
        a = np.zeros((0, 0), dtype=complex)
    return np.ascontiguousarray(a)


class ToeplitzElement:
    """X = T_phi + F. Immutable; the correction is stored trimmed."""

    __slots__ = ("symbol", "_corr")

    def __init__(self, symbol, correction=None):
        if symbol.nvars != 1:
            raise PreconditionError("circle elements take one-variable symbols")
        self.symbol = symbol
        if correction is None:
            a = np.zeros((0, 0), dtype=complex)
        else:
            a = _canonical_correction(correction)
        a.setflags(write=False)
        self._corr = a

    @property
    def corr_array(self):
        return self._corr

    @property
    def active_size(self):
        return self._corr.shape

    def is_pure(self):
        return self._corr.size == 0

    # ---- linear structure ----

    def __add__(self, other):
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        return ToeplitzElement(self.symbol + other.symbol, _padded_sum(self._corr, other._corr))

    def __sub__(self, other):
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        return ToeplitzElement(self.symbol - other.symbol, _padded_sum(self._corr, -other._corr))

    def __mul__(self, c):
        if isinstance(c, (int, float, complex)):
            return ToeplitzElement(self.symbol * c, self._corr * c)
        if isinstance(c, ToeplitzElement):
            return mul(self, c)
        return NotImplemented

    def merge_key(self):
        """Structural key: exact symbol terms plus correction bytes."""
        sym = tuple(sorted(self.symbol.terms()))
        return (self.symbol.nvars, sym, self._corr.shape, self._corr.tobytes())

    def __repr__(self):
        r, c = self._corr.shape
        return f"ToeplitzElement({self.symbol.to_text()!r}, corr={r}x{c})"


def _padded_sum(a, b):
    r = max(a.shape[0], b.shape[0])
    c = max(a.shape[1], b.shape[1])
    out = np.zeros((r, c), dtype=complex)
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def make_toeplitz(phi):
    """Pure Toeplitz element of a one-variable Laurent polynomial symbol."""
    return ToeplitzElement(phi)


def finite_rank(block):
    """Element with zero symbol and the given correction block at (0, 0)."""
    return ToeplitzElement(LaurentPoly.zero(1), block)


def identity():
    return ToeplitzElement(LaurentPoly.constant(1.0, 1))


def _toeplitz_rect(phi, rows, cols):
    phi._require_univariate()
    out = np.zeros((rows, cols), dtype=complex)
    for (k,), c in phi.terms():
        i0 = max(0, k)
        j0 = i0 - k
        m = min(rows - i0, cols - j0)
        if m > 0:
            idx = np.arange(m)
            out[i0 + idx, j0 + idx] = c
    return out


def _hankel(p, sign, rows, cols):
    """H[i, j] = phat(sign * (i + j + 1)), a rows x cols Hankel block."""
    c = np.array([p.coeff(sign * (s + 1)) for s in range(rows + cols - 1)], dtype=complex)
    return c[np.add.outer(np.arange(rows), np.arange(cols))]


def _semicommutator_block(phi, psi):
    """C(phi, psi) by Widom's identity, -H(phi) H(psi~): with m = -k - 1 the
    sum over k <= -1 is the product of H(phi)[i, m] = phihat(i + m + 1) and
    H(psi~)[m, j] = psihat(-m - j - 1)."""
    rows, cols = phi.deg_pos(), psi.deg_neg()
    return -(_hankel(phi, 1, rows, cols) @ _hankel(psi, -1, cols, cols))


def mul(x, y):
    """Exact product in the corrected Toeplitz class."""
    phi, psi = x.symbol, y.symbol
    f, g = x.corr_array, y.corr_array
    pieces = [_semicommutator_block(phi, psi)]
    if g.size:
        rg, cg = g.shape
        pieces.append(_toeplitz_rect(phi, rg + phi.deg_pos(), rg) @ g)
    if f.size:
        rf, cf = f.shape
        pieces.append(f @ _toeplitz_rect(psi, cf, cf + psi.deg_neg()))
    if f.size and g.size:
        k = max(f.shape[1], g.shape[0])
        fp = np.zeros((f.shape[0], k), dtype=complex)
        fp[:, : f.shape[1]] = f
        gp = np.zeros((k, g.shape[1]), dtype=complex)
        gp[: g.shape[0], :] = g
        pieces.append(fp @ gp)
    corr = pieces[0]
    for p in pieces[1:]:
        corr = _padded_sum(corr, p)
    return ToeplitzElement(phi * psi, corr)


def adjoint(x):
    return ToeplitzElement(x.symbol.conjugate(), x.corr_array.conj().T)


def phi_map(x):
    """The compression X -> T_z* X T_z: entry (i, j) of X moves from (i+1, j+1).

    Fixes the Toeplitz part and shifts the correction up-left one step.
    """
    return ToeplitzElement(x.symbol, x.corr_array[1:, 1:])


def project_phi(x):
    """Projection onto pure Toeplitz elements by iterating phi_map.

    The correction loses its first row and column each step, so it dies after
    max(active rows, active cols) iterations; the result is exactly T_phi.
    """
    steps = max(x.active_size) if x.corr_array.size else 0
    out = x
    for _ in range(steps):
        out = phi_map(out)
    return out


def symbol_map(x):
    """The symbol homomorphism: kills the finite-rank part."""
    return x.symbol


def is_toeplitz(x):
    """True when the correction block is empty.

    Cross-checked against the fixed-point criterion phi_map(X) == X; the two
    are equivalent on this class, and InvariantError is raised if they differ.
    """
    structural = x.corr_array.size == 0
    dynamical = diff_max(phi_map(x), x) == 0.0
    if structural != dynamical:
        raise InvariantError("fixed-point and structural Toeplitz tests disagree")
    return structural


def semicommutator(phi, psi):
    """T_phi T_psi - T_{phi psi}: zero symbol, block inside the degree box."""
    prod = mul(make_toeplitz(phi), make_toeplitz(psi))
    s = prod - make_toeplitz(phi * psi)
    if not s.symbol.is_zero():
        raise InvariantError("semicommutator symbol failed to cancel")
    r, c = s.active_size
    if r > phi.deg_pos() or c > psi.deg_neg():
        raise InvariantError("semicommutator escaped its degree box")
    return s


def symbol_diff_max(a, b):
    """Largest coefficient deviation between two symbols."""
    ca, cb = a.coeffs, b.coeffs
    return worst(abs(ca.get(e, 0j) - cb.get(e, 0j)) for e in set(ca) | set(cb))


def diff_max(x, y):
    """Largest deviation between two elements, over coefficients and blocks."""
    diff = _padded_sum(x.corr_array, -y.corr_array)
    return worst((symbol_diff_max(x.symbol, y.symbol), worst(np.abs(diff))))


@dataclass(frozen=True)
class AveragingReport:
    """Residuals for the three averaged products and the induced multiplication."""

    max_pairwise_residual: float
    choi_effros_residual: float
    product_symbol: LaurentPoly
    idempotent_residual: float
    unital_residual: float


def verify_averaging_identities(x, y):
    """Check Phi(Phi(X)Y) = Phi(X Phi(Y)) = Phi(Phi(X)Phi(Y)) and that the
    last one realizes T_{pi(X) pi(Y)}. All four agree exactly on this class."""
    px, py = project_phi(x), project_phi(y)
    e1 = project_phi(mul(px, y))
    e2 = project_phi(mul(x, py))
    e3 = project_phi(mul(px, py))
    pair = worst((diff_max(e1, e2), diff_max(e1, e3), diff_max(e2, e3)))
    prod_sym = symbol_map(x) * symbol_map(y)
    choi = diff_max(e3, make_toeplitz(prod_sym))
    idem = diff_max(project_phi(px), px)
    ident = identity()
    unital = diff_max(project_phi(ident), ident)
    return AveragingReport(pair, choi, prod_sym, idem, unital)


# ---------------------------------------------------------------------------
# truncations and norms


def toeplitz_matrix(phi, n):
    """Dense N x N compression of T_phi."""
    if n < 1:
        raise PreconditionError("truncation size must be >= 1")
    return _toeplitz_rect(phi, n, n)


def truncation(x, n):
    """Dense N x N compression of the element; N must cover the correction."""
    r, c = x.active_size
    if n < max(r, c, 1):
        raise PreconditionError(f"truncation {n} smaller than active correction {max(r, c)}")
    out = toeplitz_matrix(x.symbol, n)
    if x.corr_array.size:
        out[:r, :c] += x.corr_array
    return out


def _pure_truncation_norm(phi, n):
    """Norm of the N x N compression A of a pure Toeplitz operator.

    sqrt of the largest eigenvalue of A*A by `linalg.band_max_eig`:
    bisection with one banded Cholesky factorization per step, O(N * kd^2)
    each, with no dense SVD and no band reduction. A holds the diagonals
    lo..hi, the least and greatest exponents kept (|k| < N), so A*A has
    bandwidth kd = hi - lo (at most N - 1), not twice the band: the band
    itself for an analytic or co-analytic symbol, 0 for a monomial. Zero
    diagonals stored past kd would only add exact zeros to the factorization
    while raising its cost. The eigenvalue is the upper end of the bisection
    bracket, so the norm errs upward but for the factorization's rounding.

    Entry (p, p + d) of A*A sums conj(c_k) c_(k-d) over the exponents k
    whose row p + k lies inside A, in ascending k from 0j, in Python complex
    arithmetic: a row-by-row sparse product's order, whose bits it keeps.
    Away from the first and last rows every k counts, so each diagonal is
    one value there and is summed term by term only near its two ends.
    """
    phi._require_univariate()
    if n < 1:
        raise PreconditionError("truncation size must be >= 1")
    w = phi.band()
    if w == 0:
        return abs(phi.coeff(0))
    coeffs = {k: c for (k,), c in phi.terms() if abs(k) < n}
    if not coeffs:
        return 0.0
    ks = sorted(coeffs)
    u = min(ks[-1] - ks[0], n - 1)
    band = np.zeros((u + 1, n), dtype=complex)
    for d in range(u + 1):
        # every term counts for p in [lo, hi); the rows outside lose some
        pairs = [(k, coeffs[k].conjugate() * coeffs[k - d]) for k in ks if k - d in coeffs]
        if not pairs:
            continue
        row = band[u - d, d:]

        def entry(p):
            return sum((term for k, term in pairs if 0 <= p + k < n), 0j)

        lo, hi = max(0, -pairs[0][0]), n - max(d, pairs[-1][0])
        if lo < hi:
            row[lo:hi] = entry(lo)
        for p in [*range(min(lo, row.size)), *range(max(lo, hi), row.size)]:
            row[p] = entry(p)
    return float(np.sqrt(max(band_max_eig(band), 0.0)))


def truncation_norm(x, n):
    """Operator norm of the N x N compression (a lower bound for ||X||)."""
    if isinstance(x, LaurentPoly):
        return _pure_truncation_norm(x, n)
    if x.is_pure():
        return _pure_truncation_norm(x.symbol, n)
    return op_norm(truncation(x, n))


def _upper_norm(x):
    """l1(symbol) + ||correction||, an upper bound on ||X||."""
    upper = x.symbol.l1_norm()
    if x.corr_array.size:
        upper += op_norm(x.corr_array)
    return upper


@dataclass(frozen=True)
class CrossSectionReport:
    level: int
    truncations: list
    lower_bounds: list
    sup_estimate: float
    gap: float
    monotone: bool
    verdict: str


def _block_grid_sup(block, grid_size):
    k = len(block)
    g = max(grid_size, max(4 * (1 + p.band()) for row in block for p in row))
    vals = np.empty((g, k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            vals[:, a, b] = eval_grid(block[a][b], g)
    sv = np.linalg.svd(vals, compute_uv=False)
    return float(np.max(sv[:, 0]))


def _block_truncation_norm(block, n):
    k = len(block)
    if k == 1:
        return _pure_truncation_norm(block[0][0], n)
    big = np.block([[toeplitz_matrix(block[a][b], n) for b in range(k)] for a in range(k)])
    return op_norm(big)


def cross_section_isometry(block, truncations):
    """Compare compression norms of a (matrix of) symbol(s) at each of the
    truncations against the pointwise sup of the symbol matrix norm.

    Compression norms increase with the truncation (nested compressions) and
    converge to the operator norm, which equals the sup; the verdict is PASS
    once the bracket closes to _CROSS_TOL, INCONCLUSIVE otherwise (lower
    bounds cannot refute).
    """
    if isinstance(block, LaurentPoly):
        block = [[block]]
    k = len(block)
    if any(len(row) != k for row in block):
        raise PreconditionError("symbol block must be square")
    lows = [_block_truncation_norm(block, n) for n in truncations]
    monotone = all(lows[i] <= lows[i + 1] + 1e-12 for i in range(len(lows) - 1))
    sup_lo = _block_grid_sup(block, _CROSS_GRID)
    gap = abs(lows[-1] - sup_lo)
    verdict = "PASS" if (gap <= _CROSS_TOL and monotone) else "INCONCLUSIVE"
    return CrossSectionReport(
        level=k,
        truncations=list(truncations),
        lower_bounds=lows,
        sup_estimate=sup_lo,
        gap=gap,
        monotone=monotone,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# commutant


NOT_TOEPLITZ = "NOT_TOEPLITZ"
TOEPLITZ_NOT_ANALYTIC = "TOEPLITZ_NOT_ANALYTIC"
ANALYTIC_TOEPLITZ = "ANALYTIC_TOEPLITZ"


@dataclass(frozen=True)
class LiftEvidence:
    """Norm evidence that the bilateral lift of the symbol preserves norm."""

    symbol: LaurentPoly
    sup_lower: float
    sup_upper: float
    trunc_lower: float
    gap: float


@dataclass(frozen=True)
class CommutantReport:
    classification: str
    toeplitz: bool
    xstarx_toeplitz: bool
    commutes_with_shift: bool
    lift: LiftEvidence | None = field(default=None)


def commutant_character(x, trunc=1024):
    """Decide membership of X in the commutant of the shift.

    Two routes, required to agree: (a) X and X*X are both Toeplitz, (b) X
    commutes with T_z. Membership forces X = T_psi with psi analytic; the
    report then carries the lift evidence (the symbol acting by bilateral
    multiplication has norm sup|psi|, bracketed against the compression norm).
    """
    is_t = is_toeplitz(x)
    xstarx_t = is_toeplitz(mul(adjoint(x), x))
    both = is_t and xstarx_t
    shift = make_toeplitz(LaurentPoly.variable(0, 1))
    # exact on this class: both products run the same convolution code path,
    # and a trimmed nonzero correction always leaves a nonzero commutator row
    commutes = diff_max(mul(x, shift), mul(shift, x)) == 0.0
    if both != commutes:
        raise InvariantError("commutant criteria disagree")
    if not is_t:
        cls = NOT_TOEPLITZ
    elif both:
        cls = ANALYTIC_TOEPLITZ
        if not x.symbol.is_analytic():
            raise InvariantError("analytic classification with non-analytic symbol")
    else:
        cls = TOEPLITZ_NOT_ANALYTIC
    lift = None
    if cls == ANALYTIC_TOEPLITZ:
        lo, up = sup_norm(x.symbol, grid_size=max(_SUP_GRID, 4 * (1 + x.symbol.band())))
        tl = truncation_norm(x.symbol, trunc)
        lift = LiftEvidence(x.symbol, lo, up, tl, abs(tl - lo))
    return CommutantReport(cls, is_t, xstarx_t, commutes, lift)
