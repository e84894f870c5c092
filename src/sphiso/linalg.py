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
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError, PreconditionError

__all__ = ["worst", "op_norm", "band_max_eig"]

# widenings of the upper end when sigma = ||A||_1 does not factor; one is
# enough for rounding in the norm itself, which is all that can cause it
_WIDENINGS = 4


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


def band_max_eig(ab):
    """Largest eigenvalue of the Hermitian N x N band matrix A stored in `ab`.

    `ab` has shape (kd + 1, N) with ab[kd + i - j, j] = A[i, j] for
    max(0, j - kd) <= i <= j (LAPACK upper band storage); the unused top-left
    corner is ignored and the diagonal's imaginary part is taken as zero.
    Bisection runs on [-||A||_1, ||A||_1] until the bracket is at most
    eps * ||A||_1 wide and returns its upper end, a sigma for which
    sigma*I - A factored. The result is within a small multiple of
    (kd + 1) * eps * ||A||_1 of the true eigenvalue.
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
        return 0.0

    shifted = np.asfortranarray(-ab)
    work = np.empty_like(shifted)

    def factors(sigma):
        work[...] = shifted
        work[kd] += sigma
        info = zpbtrf(work, lower=0, overwrite_ab=1)[1]
        if info < 0:
            raise InvariantError(f"zpbtrf rejected argument {-info}")
        return info == 0

    hi = bound
    for _ in range(_WIDENINGS):
        if factors(hi):
            break
        hi *= 2.0
    else:
        raise InvariantError(f"sigma*I - A did not factor at sigma = {hi / 2.0!r}")
    lo = -bound
    width = np.finfo(float).eps * bound
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if factors(mid):
            hi = mid
        else:
            lo = mid
    return hi
