"""Norms and top eigenvalues shared by the operator models.

`op_norm` is the largest singular value of a dense matrix from a dense SVD,
for sizes of a few thousand at most.

`worst` is the one residual fold. It keeps a NaN, which `max(d, nan)`, being
`d`, would drop.

`band_max_eig` is the largest eigenvalue of a Hermitian band matrix in
LAPACK upper band storage, found without reducing the band to tridiagonal
form: it bisects on sigma and asks at each step whether the banded Cholesky
factorization (`zpbtrf`, O(N * kd^2)) of sigma*I - A succeeds, which it does
exactly when sigma lies above the spectrum, up to the factorization's
backward error. The top of a truncated Toeplitz spectrum clusters, which
slows Lanczos but not bisection: every step costs one factorization
whatever the gaps. The value returned is the last sigma that factored, so
it errs above the eigenvalue, never below by more than that backward error.
Half the steps are settled without a factorization: a Rayleigh quotient
from a few inverse-iteration solves through a factor already made brackets
the eigenvalue, and the bisection is replayed with every step outside that
bracket decided by it (see `band_max_eig`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvariantError, PreconditionError
from .record import note

__all__ = ["worst", "op_norm", "band_max_eig"]

# widenings of the upper end when sigma = ||A||_1 does not factor; one is
# enough for rounding in the norm itself, which is all that can cause it
_WIDENINGS = 4
# bisection stops at a bracket this wide, relative to ||A||_1, to estimate the
# eigenvalue by this many inverse-iteration solves through the upper end's factor
_COARSE = 1e-5
_INVERSE_STEPS = 6


def worst(values):
    """Largest of `values` (an iterable or an array): NaN when any value is
    NaN, 0.0 when there are none. Equal values resolve as `max` does."""
    if isinstance(values, np.ndarray):
        return float(values.max()) if values.size else 0.0
    it = iter(values)
    top = next(it, 0.0)
    for v in it:
        if v > top or v != v:
            top = v
    return top


def op_norm(mat):
    """Largest singular value, sqrt(max eig of A*A); 0.0 for an empty matrix."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError("expected a matrix")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


@lru_cache(maxsize=16)
def _start_vector(n):
    """A fixed pseudo-random start for inverse iteration, read-only."""
    x = np.random.default_rng(n).standard_normal(2 * n).view(complex)
    x.setflags(write=False)
    return x


def _rayleigh_quotient(factor, negated):
    """x*Ax / x*x, where x is a fixed start after _INVERSE_STEPS solves
    through `factor`, the banded Cholesky factor of some sigma*I - A, and
    `negated` holds -A in upper band storage. Ax comes from `zhbmv`, the
    inner products from `math.fsum` of the rounded products."""
    from scipy.linalg.blas import zhbmv
    from scipy.linalg.lapack import zpbtrs

    x = _start_vector(negated.shape[1])
    for _ in range(_INVERSE_STEPS):
        x = zpbtrs(factor, x[:, None])[0][:, 0]
        x /= np.abs(x).max()
    y = zhbmv(negated.shape[0] - 1, -1.0, negated, x)
    num = math.fsum(np.concatenate((x.real * y.real, x.imag * y.imag)).tolist())
    den = math.fsum(np.concatenate((x.real * x.real, x.imag * x.imag)).tolist())
    return num / den


def band_max_eig(ab):
    """Largest eigenvalue of the Hermitian N x N band matrix A stored in `ab`.

    `ab` has shape (kd + 1, N) with ab[kd + i - j, j] = A[i, j] for
    max(0, j - kd) <= i <= j (LAPACK upper band storage); the unused top-left
    corner is ignored and the diagonal's imaginary part is taken as zero.
    Bisection runs on [-||A||_1, ||A||_1] until the bracket is at most
    eps * ||A||_1 wide and returns its upper end, a sigma for which
    sigma*I - A factored. The result is within a small multiple of
    (kd + 1) * eps * ||A||_1 of the true eigenvalue. The factorizations
    made are noted as factorizations, one count per call.

    The bisection is replayed, not shortened. It runs plainly until the
    bracket is _COARSE * ||A||_1 wide; then _INVERSE_STEPS solves through the
    factor of its upper end (`zpbtrs`, no new factorization) turn a fixed
    start vector x towards the top eigenvector, and r = x*Ax / x*x is a
    Rayleigh quotient, so r <= lambda_max in exact arithmetic. The same
    bisection then goes on, but a midpoint below lower = r - m counts as
    failing and one at or above upper = r + 4 (kd + 1) eps ||A||_1 as
    factoring, once upper itself has factored; only the midpoints in
    between are factored. The margin m = 4 (kd + 2)^2 eps ||A||_1 covers two
    roundings, with e = eps / 2 the unit roundoff and kd the effective
    half-bandwidth min(kd, N - 1):
    - If zpbtrf completes on H = sigma*I - A, its factor R has R*R = H + E
      with |E| <= gamma_(kd+2) |R*| |R| (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Thm 10.3: the inner products of a band
      have at most kd + 1 terms). |R*| |R| has half-bandwidth kd and, by
      Cauchy-Schwarz on the columns of R, entries at most the largest
      diagonal entry of H + E, itself at most 2 ||A||_1 for a sigma inside
      [-||A||_1, ||A||_1]; so ||E||_2 <= 2 (kd + 2)(2 kd + 1) e ||A||_1 to
      first order, doubled for complex arithmetic, and forming sigma - a_ii
      adds 2 e ||A||_1. R*R is positive semidefinite, so sigma >=
      lambda_max - ||E||_2: a sigma further below lambda_max fails.
    - Ax comes from `zhbmv`, sums of at most 2 kd + 1 products, and the two
      inner products from `math.fsum`, correctly rounded, of rounded
      products: r is off by at most about 2 (kd + 4) e ||A||_1, again
      doubled for complex arithmetic.
    Both together stay below m. So every settled failure is one zpbtrf
    would report, and every settled success is one it would report as long
    as factoring succeeds at and above one threshold, which upper passed.
    The replay then visits the very midpoints of the plain bisection and
    returns its bits. If the final upper end was settled rather than
    factored, it is factored now, and if that fails the plain bisection
    runs on from the coarse bracket, so the value returned is always a
    sigma that factored. A wrong margin could only cost that fallback or
    the bit equality, never a value below the spectrum. Below
    ||A||_1 = tiny / eps the roundings are no longer relative, and the
    bisection stays plain.
    """
    from scipy.linalg.lapack import zpbtrf

    ab = np.asarray(ab, dtype=complex)
    if ab.ndim != 2 or ab.size == 0:
        raise PreconditionError("expected a nonempty band in upper storage")
    kd, n = ab.shape[0] - 1, ab.shape[1]
    mag = np.abs(ab)
    # column sums of |A|: the stored upper column plus the mirrored row
    norm1 = mag[kd].copy()
    for d in range(1, min(kd, n - 1) + 1):
        off = mag[kd - d, d:]
        norm1[d:] += off
        norm1[:-d] += off
    bound = float(norm1.max())
    if not np.isfinite(bound):
        raise PreconditionError("band entries must be finite")
    if bound == 0.0:
        note(factorizations=0)
        return 0.0

    shifted = np.asfortranarray(-ab)
    # work takes each factorization, held the last one that succeeded
    work, held = np.empty_like(shifted), np.empty_like(shifted)
    made = 0

    def factors(sigma):
        nonlocal work, held, made
        work[...] = shifted
        work[kd] += sigma
        info = zpbtrf(work, lower=0, overwrite_ab=1)[1]
        made += 1
        if info < 0:
            raise InvariantError(f"zpbtrf rejected argument {-info}")
        if info == 0:
            work, held = held, work
        return info == 0

    def bisect(lo, hi, width, lower=-math.inf, upper=math.inf):
        """(lo, hi, whether hi factored) once hi - lo <= width; a midpoint
        below lower fails and one at or above upper passes unfactored."""
        made_hi = True
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if mid < lower or mid >= upper:
                passes, made_mid = mid >= upper, False
            else:
                passes, made_mid = factors(mid), True
            if passes:
                hi, made_hi = mid, made_mid
            else:
                lo = mid
        return lo, hi, made_hi

    hi = bound
    for _ in range(_WIDENINGS):
        if factors(hi):
            break
        hi *= 2.0
    else:
        raise InvariantError(f"sigma*I - A did not factor at sigma = {hi / 2.0!r}")
    width = np.finfo(float).eps * bound
    lo, hi, _ = bisect(-bound, hi, _COARSE * bound)
    lower, upper = -math.inf, math.inf
    if width >= np.finfo(float).tiny:
        r = _rayleigh_quotient(held, shifted)
        k = min(kd, n - 1)
        lower = r - 4 * (k + 2) ** 2 * width
        upper = r + 4 * (k + 1) * width
        if not (lo < upper < hi and factors(upper)):
            upper = math.inf
    _, top, made_top = bisect(lo, hi, width, lower, upper)
    if not (made_top or factors(top)):
        _, top, _ = bisect(lo, hi, width)
    note(factorizations=made)
    return top
