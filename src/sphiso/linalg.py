"""Operator norm of a dense complex matrix, shared by the operator models.

The norm is the largest singular value from a dense SVD. Intended sizes are
a few thousand at most.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = ["op_norm"]


def op_norm(mat):
    """Largest singular value, sqrt(max eig of A*A); 0.0 for an empty matrix."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError("expected a matrix")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])
