"""Weighted Hardy spaces on the circle for trig-polynomial densities.

A measure is dm = w dtheta/2pi with w a strictly positive trig polynomial,
held by its Fourier coefficients what(k), what(0) = 1. Monomials have
Gram matrix G[a, b] = what(a - b); a Cholesky factorization G = L L* turns
{1, z, ..., z^d} into the orthonormal basis p_0..p_d, and compressions
<phi p_j, p_i>_m are assembled by exact coefficient convolution against the
(finitely supported) density coefficients. No quadrature anywhere.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConditioningError, PreconditionError
from .symbols import LaurentPoly, eval_grid

__all__ = [
    "CircleMeasure",
    "HardyBasis",
    "onb",
    "moment_matrix",
    "truncated_toeplitz",
    "brown_halmos_residual",
    "shift_isometry_residual",
]

_GRID = 1024


class CircleMeasure:
    """Trig-polynomial density on the circle, what(-k) = conj(what(k))."""

    def __init__(self, coeffs, min_density=1e-9):
        store = {}
        for k, c in coeffs.items():
            k = int(k)
            if k < 0:
                raise PreconditionError("give coefficients for k >= 0 only")
            c = complex(c)
            if not cmath.isfinite(c):
                raise PreconditionError("density coefficients must be finite")
            if c != 0 or k == 0:
                store[k] = c
        if abs(store.get(0, 0j) - 1.0) > 1e-14:
            raise PreconditionError("density must be normalized: what(0) = 1")
        if store.get(0) is not None and store[0].imag != 0.0:
            raise PreconditionError("what(0) must be real")
        self.coeffs = store
        self.degree = max(store) if store else 0
        self.min_density = float(min_density)
        n = max(_GRID, 4 * (1 + self.degree))
        lo = float(np.min(self.density_grid(n)))
        if lo < self.min_density:
            raise PreconditionError(
                f"density dips to {lo:.3e} on the {n}-point grid, below floor {self.min_density:.3e}"
            )
        self._density_min = lo

    def w_hat(self, k):
        k = int(k)
        if k >= 0:
            return self.coeffs.get(k, 0j)
        return self.coeffs.get(-k, 0j).conjugate()

    def density_grid(self, n=_GRID):
        """w on the n-point grid of `symbols.eval_grid` (n >= 4 (1 + degree))."""
        w = dict(self.coeffs)
        w.update({-k: c.conjugate() for k, c in self.coeffs.items() if k})
        vals = eval_grid(LaurentPoly(1, w), n)
        if float(np.max(np.abs(vals.imag))) > 1e-12:
            raise PreconditionError("density failed to be real on the grid")
        return vals.real

    def __repr__(self):
        return f"CircleMeasure(degree={self.degree}, min={self._density_min:.3g})"


def _density_matrix(m, rows, cols):
    """what(row - col) for each row and col, filled one diagonal at a time."""
    diff = rows[:, None] - cols[None, :]
    out = np.zeros(diff.shape, dtype=complex)
    for k in range(-m.degree, m.degree + 1):
        out[diff == k] = m.w_hat(k)
    return out


def moment_matrix(m, d):
    """Gram matrix of 1, z, ..., z^d: G[a, b] = what(a - b)."""
    idx = np.arange(d + 1)
    return _density_matrix(m, idx, idx)


class HardyBasis:
    """Rows of `coeff` hold the monomial coefficients of p_0..p_d (lower tri)."""

    def __init__(self, measure, degree, coeff):
        self.measure = measure
        self.degree = degree
        self.coeff = coeff

    def gram_residual(self):
        # <p_j, p_i> = sum_{e,f} conj(coeff[i,f]) G[f,e] coeff[j,e]
        g = moment_matrix(self.measure, self.degree)
        c = self.coeff
        r = np.conj(c) @ g @ c.T - np.eye(self.degree + 1)
        return float(np.max(np.abs(r)))


def _cholesky_with_pivots(g):
    n = g.shape[0]
    low = np.zeros_like(g)
    for j in range(n):
        pivot = (g[j, j] - np.vdot(low[j, :j], low[j, :j])).real
        if pivot < 1e-12:
            raise ConditioningError(j, pivot)
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1 :, j] = (g[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j].conj()) / low[j, j]
    return low


def onb(m, d):
    """Orthonormalize the monomials through degree d in L^2(m)."""
    if d < 0:
        raise PreconditionError("degree must be >= 0")
    g = moment_matrix(m, d)
    low = _cholesky_with_pivots(g)
    inv = solve_triangular(low, np.eye(d + 1, dtype=complex), lower=True)
    coeff = inv.conj()  # row i: coefficients of p_i, leading entry positive
    return HardyBasis(m, d, coeff)


def truncated_toeplitz(phi, m, d):
    """Matrix <phi p_j, p_i>_m on the orthonormal basis, exact convolutions.

    Returns a read-only array; PreconditionError if an entry is not finite.
    """
    if phi.nvars != 1:
        raise PreconditionError("weighted truncations take one-variable symbols")
    band = phi.band()
    if band > d // 2:
        raise PreconditionError(f"band {band} exceeds d/2 = {d // 2}")
    basis = onb(m, d)
    c = basis.coeff
    lo_e, hi_e = -phi.deg_neg(), d + phi.deg_pos()
    exps = np.arange(lo_e, hi_e + 1)
    # U[e, j] = coefficient of z^e in phi * p_j
    u = np.zeros((exps.size, d + 1), dtype=complex)
    for (k,), cv in phi.terms():
        for j in range(d + 1):
            u[(np.arange(j + 1) + k) - lo_e, j] += cv * c[j, : j + 1]
    # W[b, e] = what(b - e), b = 0..d
    w = _density_matrix(m, np.arange(d + 1), exps)
    out = c.conj() @ (w @ u)
    if not np.isfinite(out).all():
        raise PreconditionError("weighted truncation has non-finite entries")
    out.setflags(write=False)
    return out


def shift_isometry_residual(m, d):
    """max |S* S - I| over columns 0..d-2, S the compressed multiplication by z."""
    s = truncated_toeplitz(LaurentPoly.variable(0, 1), m, d)
    g = s.conj().T @ s - np.eye(d + 1)
    return float(np.max(np.abs(g[: d - 1, : d - 1])))


def brown_halmos_residual(phi, m, window, degrees):
    """max |(S* X S - X)[:window, :window]| for each degree in the list.

    In exact arithmetic this vanishes identically once d exceeds the window
    (compressions of isometric multiplications fix compressed Toeplitz
    matrices on interior blocks), so the recorded values certify rounding
    levels rather than a convergence rate.
    """
    if window + phi.band() >= min(degrees):
        raise PreconditionError("window + band must stay below the smallest degree")
    out = []
    z = LaurentPoly.variable(0, 1)
    for d in degrees:
        x = truncated_toeplitz(phi, m, d)
        s = truncated_toeplitz(z, m, d)
        r = s.conj().T @ x @ s - x
        out.append((int(d), float(np.max(np.abs(r[:window, :window])))))
    return out
