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
Most steps are settled without a factorization: a caller's guess such as
the symbol's maximum, or else a coarse bisection, gives a first factor;
Rayleigh quotients through it and the factors made after it bracket the
eigenvalue, and the bisection is replayed with every step outside that
bracket decided by it (see `band_max_eig`).

The LAPACK and BLAS routines are scipy's own compiled f2py wrappers, the
extension modules `scipy.linalg._flapack` and `_fblas`, loaded from their
files (`_wrappers`). Importing the `scipy.linalg` package would run its
`__init__`, which pulls in scipy's array-API layer and through it
`numpy.f2py`, `numpy.testing` and `numpy.ma`: about half of the import of
`sphiso.cli`, for none of which sphiso has a use. The routines and the
OpenBLAS under them are the very ones `scipy.linalg.lapack` and
`scipy.linalg.blas` hand out, so the bits are the same.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .errors import InvariantError, PreconditionError
from .record import note

__all__ = ["worst", "op_norm", "band_max_eig"]

# widenings of the upper end when sigma = ||A||_1 does not factor; one is
# enough for rounding in the norm itself, which is all that can cause it
_WIDENINGS = 4
# coarse bracket width / ||A||_1, quotient solves and product runs, ladder rungs
_COARSE = 1e-5
_INVERSE_STEPS = 10
_RUN = 4
_RUNGS = 3
_CLOSER = 64.0


def _package_dir(name):
    """Folder of the installed top-level package `name`, found without
    importing it."""
    spec = importlib.util.find_spec(name)
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"package {name!r} is not installed")
    return spec.submodule_search_locations[0]


def _wrappers(name):
    """scipy's compiled extension module `scipy.linalg.<name>`, loaded from
    its file so that scipy/linalg/__init__.py never runs.

    It is registered in `sys.modules` under its real name, as an import
    would, so a later `import scipy.linalg` takes this same module; one that
    is already there is returned. There is no second route: a missing file
    raises ImportError naming it.
    """
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = os.path.join(_package_dir("scipy"), "linalg")
    finder = importlib.machinery.FileFinder(
        folder,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(full)
    if spec is None:
        raise ImportError(f"no compiled {full} in {folder}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_flapack = _wrappers("_flapack")
_fblas = _wrappers("_fblas")


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
    inner products from `math.fsum` of numpy's sums of _RUN real products."""
    x = _start_vector(negated.shape[1])
    for _ in range(_INVERSE_STEPS):
        x = _flapack.zpbtrs(factor, x[:, None])[0][:, 0]
        x /= np.abs(x).max()
    y = _fblas.zhbmv(negated.shape[0] - 1, -1.0, negated, x)
    u, runs = x.view(float), np.arange(0, 2 * x.size, _RUN)
    num = math.fsum(np.add.reduceat(u * y.view(float), runs).tolist())
    den = math.fsum(np.add.reduceat(u * u, runs).tolist())
    return num / den


def band_max_eig(ab, guess=math.nan):
    """Largest eigenvalue of the Hermitian N x N band matrix A stored in `ab`.

    `ab` has shape (kd + 1, N) with ab[kd + i - j, j] = A[i, j] for
    max(0, j - kd) <= i <= j (LAPACK upper band storage); the unused top-left
    corner is ignored and the diagonal's imaginary part is taken as zero.
    Bisection runs on [-||A||_1, ||A||_1] until the bracket is at most
    eps * ||A||_1 wide and returns its upper end, a sigma for which
    sigma*I - A factored. The result is within a small multiple of
    (kd + 1) * eps * ||A||_1 of the true eigenvalue. The factorizations
    made are noted as factorizations, one count per call.

    The bisection is replayed, not shortened: a midpoint below `lower`
    counts as failing and one at or above `upper`, the lowest sigma that
    factored, as factoring; only those in between are factored. They start
    at -||A||_1 and U, the upper end. `guess` is a place to factor first:
    inside (lower, upper) it becomes upper if it factors and lower if it
    fails, and a finite one at or above U takes U's factor. When none
    factored (NaN, the default, is no guess), a bisection to a bracket
    _COARSE * ||A||_1 wide, its midpoints below lower settled as failing,
    gives upper and its factor. Then a Rayleigh quotient r = x*Ax / x*x,
    x a fixed start after _INVERSE_STEPS solves through upper's factor
    (`zpbtrs`), is at most lambda_max in exact arithmetic; it raises lower
    to r - m, and a probe at r + 4 (kd + 1) eps ||A||_1 is tried. After one
    that factors, r itself is; after one that does not, a closer sigma
    r + (upper - r) / _CLOSER is, and its quotient starts the next rung, at
    most _RUNGS. Each is factored only inside (lower, upper), and sets upper
    if it factors and lower if it fails. From the symbol's maximum a solve
    takes about 10 factorizations, without a guess about 26. A failure
    settled below a sigma that failed, like a success settled at or above
    upper, relies on factoring succeeding at and above a single threshold
    and failing below it. The floor r - m relies on rounding alone:
    m = 4 (kd + 2)^2 eps ||A||_1 covers two roundings, with e = eps / 2 the
    unit roundoff and kd the effective half-bandwidth min(kd, N - 1):
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
    - y = Ax comes from `zhbmv`, sums of at most 2 kd + 1 products, off by
      2 (2 kd + 3) e |A| |x| (complex arithmetic doubled). x*y and x*x each
      sum 2N rounded real products in runs of _RUN = 4, in any order, and
      the run sums by `math.fsum`, correctly rounded: off by (_RUN + 1) e
      |x|*|y| (Higham, Sec. 3.1). With || |A| ||_2 <= ||A||_1, r is off by
      at most (4 kd + 2 _RUN + 9) e ||A||_1, the division included.
    Both together, (8 kd^2 + 24 kd + 29) e ||A||_1, stay below m. So every
    failure the floor settles is one zpbtrf would report, and with a single
    threshold the replay returns the plain bisection's bits. A final upper
    end that was settled is factored now, and if that fails the plain
    bisection runs on from where the replay began, so the value returned
    always factored: a wrong margin or a second threshold could cost only
    that fallback or the bit equality. Below ||A||_1 = tiny / eps the
    roundings are no longer relative; the bisection stays plain.
    """
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
        info = _flapack.zpbtrf(work, lower=0, overwrite_ab=1)[1]
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

    def narrow(sigma):
        """Factor sigma inside (lower, upper), move that end to it: passes or None."""
        nonlocal lower, upper
        if not lower < sigma < upper:
            return None
        passes = factors(sigma)
        lower, upper = (lower, sigma) if passes else (sigma, upper)
        return passes

    hi = bound
    for _ in range(_WIDENINGS):
        if factors(hi):
            break
        hi *= 2.0
    else:
        raise InvariantError(f"sigma*I - A did not factor at sigma = {hi / 2.0!r}")
    width = np.finfo(float).eps * bound
    lo, lower, upper = -bound, -bound, hi
    if width >= np.finfo(float).tiny:
        k = min(kd, n - 1)
        margin, step = 4 * (k + 2) ** 2 * width, 4 * (k + 1) * width
        if not (guess < math.inf and (guess >= hi or narrow(guess))):
            lo, hi, _ = bisect(lo, hi, _COARSE * bound, lower)
            upper = hi
        for _ in range(_RUNGS):
            r = _rayleigh_quotient(held, shifted)
            lower = max(lower, r - margin)
            if narrow(r + step):
                narrow(r)
                break
            if not narrow(r + (upper - r) / _CLOSER):
                break
    _, top, made_top = bisect(lo, hi, width, lower, upper)
    if not (made_top or top == upper or factors(top)):
        _, top, _ = bisect(lo, hi, width)
    note(factorizations=made)
    return top
