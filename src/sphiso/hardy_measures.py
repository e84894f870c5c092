"""Weighted Hardy spaces on the circle for trig-polynomial densities.

A measure is dm = w dtheta/2pi with w a strictly positive trig polynomial,
held once as the Hermitian `LaurentPoly` `density`, what(0) = 1. Monomials
have Gram matrix G[a, b] = what(a - b), the Toeplitz matrix of w; a
Cholesky factorization G = L L* turns {1, z, ..., z^d} into the orthonormal
basis p_0..p_d, with coefficient rows C. Since <phi z^b, z^a>_m =
(w phi)^(a - b), the compression <phi p_j, p_i>_m is conj(C) T(w phi) C^T,
on `circle_calculus`'s Toeplitz builder, with w phi the exact product of
the two symbols. No quadrature anywhere. L is
inverted by LAPACK's `ztrtrs` from scipy's compiled wrappers, called as
`scipy.linalg.solve_triangular` would call it (see `sphiso.linalg`).
"""

from __future__ import annotations

import cmath

import numpy as np

from .circle_calculus import toeplitz_matrix
from .errors import ConditioningError, InvariantError, PreconditionError
from .linalg import _flapack
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
            store[k] = c
        if abs(store.get(0, 0j) - 1.0) > 1e-14:
            raise PreconditionError("density must be normalized: what(0) = 1")
        if store[0].imag != 0.0:
            raise PreconditionError("what(0) must be real")
        store.update({-k: c.conjugate() for k, c in store.items() if k})
        self.density = LaurentPoly(1, store)
        self.degree = self.density.deg_pos()
        self.min_density = float(min_density)
        n = max(_GRID, 4 * (1 + self.degree))
        lo = float(np.min(self.density_grid(n)))
        if lo < self.min_density:
            raise PreconditionError(
                f"density dips to {lo:.3e} on the {n}-point grid, below floor {self.min_density:.3e}"
            )
        self._density_min = lo
        # the orthonormal basis of each degree, factored once (`onb`)
        self._bases = {}

    def density_grid(self, n=_GRID):
        """w on the n-point grid of `symbols.eval_grid` (n >= 4 (1 + degree))."""
        vals = eval_grid(self.density, n)
        if float(np.max(np.abs(vals.imag))) > 1e-12:
            raise PreconditionError("density failed to be real on the grid")
        return vals.real

    def __repr__(self):
        return f"CircleMeasure(degree={self.degree}, min={self._density_min:.3g})"


def moment_matrix(m, d):
    """Gram matrix of 1, z, ..., z^d: G[a, b] = what(a - b)."""
    return toeplitz_matrix(m.density, d + 1)


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
        if not pivot >= 1e-12:  # a NaN pivot breaks down too
            raise ConditioningError(j, pivot)
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1 :, j] = (g[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j].conj()) / low[j, j]
    return low


def onb(m, d):
    """Orthonormalize the monomials through degree d in L^2(m).

    A measure never changes once built, so it keeps the basis of each degree
    it has been asked for, with read-only coefficients: the Gram matrix of a
    degree is factored once however many compressions use it."""
    if d < 0:
        raise PreconditionError("degree must be >= 0")
    basis = m._bases.get(d)
    if basis is None:
        g = moment_matrix(m, d)
        low = _cholesky_with_pivots(g)
        # low is C-ordered, so low.T is the Fortran-ordered upper triangle U and
        # L^-1 solves U^T X = I: solve_triangular(low, I, lower=True)'s own call
        inv, info = _flapack.ztrtrs(low.T, np.eye(d + 1, dtype=complex), lower=0, trans=1)
        if info != 0:
            raise InvariantError(f"ztrtrs returned info {info} on a pivoted Cholesky factor")
        coeff = inv.conj()  # row i: coefficients of p_i, leading entry positive
        coeff.setflags(write=False)
        basis = m._bases[d] = HardyBasis(m, d, coeff)
    return basis


def truncated_toeplitz(phi, m, d):
    """Matrix <phi p_j, p_i>_m on the orthonormal basis, exact in the
    coefficients: <phi z^b, z^a>_m = (w phi)^(a - b), so it is
    conj(C) T(w phi) C^T with C = onb(m, d).coeff.

    Returns a read-only array; PreconditionError if an entry is not finite.
    """
    phi._require_univariate()
    band = phi.band()
    if band > d // 2:
        raise PreconditionError(f"band {band} exceeds d/2 = {d // 2}")
    c = onb(m, d).coeff
    try:
        weighted = m.density * phi
    except PreconditionError as exc:  # a product coefficient overflowed
        raise PreconditionError("weighted truncation has non-finite entries") from exc
    out = c.conj() @ toeplitz_matrix(weighted, d + 1) @ c.T
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
