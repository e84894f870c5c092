"""Tensor model for the bidisc: sums of elementary tensors of circle elements.

The torus boundary of the bidisc carries the commuting pair T_{z_1} = T_z (x) 1,
T_{z_2} = 1 (x) T_z. These are isometries but their sum of squares is 2, not 1;
the scaled family {T_{z_j} / gamma} with gamma = sqrt(2) is the spherical
isometry attached to the domain, and Toeplitz operators for it are exactly the
solutions of

    sum_j T_{z_j}* X T_{z_j} = gamma^2 X.

Elements here are finite sums sum_i A_i (x) B_i with circle factors; the
gamma^2 residual is computed term by term inside the exact circle calculus,
so a pure-Toeplitz input cancels to the empty sum and the residual is zero
with no truncation involved. Norm brackets, when a residual survives, come
from truncations below (the factors' truncation norms for a single term,
the matricized sum otherwise) and factor-norm products above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_calculus import (
    ToeplitzElement,
    _upper_norm,
    adjoint,
    identity,
    mul,
    phi_map,
    truncation,
)
from .errors import PreconditionError, ResourceLimitError
from .linalg import op_norm

__all__ = [
    "TensorElement",
    "tensor_mul",
    "tensor_adjoint",
    "identity_tensor",
    "matricize",
    "norm_bracket",
    "gamma",
    "scaled_isometry_check",
    "IsometryReport",
    "gamma_equation_residual",
    "GammaReport",
]

_TERM_CAP = 4096


class TensorElement:
    """Finite sum of elementary tensors of circle elements (two factors).

    Construction merges terms whose right factors coincide structurally and
    drops terms with a zero factor, so algebraic cancellations that happen
    coefficient-exactly leave the empty sum.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = list(terms)
        if len(terms) > _TERM_CAP:
            raise ResourceLimitError(f"{len(terms)} tensor terms exceed the cap {_TERM_CAP}")
        grouped = {}
        order = []
        for a, b in terms:
            if not isinstance(a, ToeplitzElement) or not isinstance(b, ToeplitzElement):
                raise PreconditionError("tensor factors must be circle elements")
            key = b.merge_key()
            if key in grouped:
                left, right = grouped[key]
                grouped[key] = (left + a, right)
            else:
                grouped[key] = (a, b)
                order.append(key)
        kept = []
        for key in order:
            a, b = grouped[key]
            if _is_zero(a) or _is_zero(b):
                continue
            kept.append((a, b))
        self.terms = tuple(kept)

    @classmethod
    def elementary(cls, a, b):
        return cls([(a, b)])

    @classmethod
    def zero(cls):
        return cls([])

    def is_zero_sum(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement(list(self.terms) + list(other.terms))

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + other.scale(-1.0)

    def scale(self, c):
        return TensorElement([(a * c, b) for a, b in self.terms])

    def __repr__(self):
        return f"TensorElement({len(self.terms)} terms)"


def _is_zero(x):
    return x.symbol.is_zero() and x.corr_array.size == 0


def tensor_mul(x, y):
    products = []
    if len(x.terms) * len(y.terms) > _TERM_CAP:
        raise ResourceLimitError("tensor product would exceed the term cap")
    for a1, b1 in x.terms:
        for a2, b2 in y.terms:
            products.append((mul(a1, a2), mul(b1, b2)))
    return TensorElement(products)


def tensor_adjoint(x):
    return TensorElement([(adjoint(a), adjoint(b)) for a, b in x.terms])


def identity_tensor():
    return TensorElement.elementary(identity(), identity())


def matricize(x, n=32):
    """Dense compression at truncation n per factor (shape n^2 x n^2)."""
    out = np.zeros((n * n, n * n), dtype=complex)
    for a, b in x.terms:
        out += np.kron(truncation(a, n), truncation(b, n))
    return out


def norm_bracket(x, n=32):
    """[compression norm, sum of factor-norm products]; contains the norm.

    For a single term A (x) B the compression is A_n (x) B_n, whose singular
    values are the products of the factors' singular values, so the lower
    end is ||A_n|| ||B_n||, from two n x n SVDs instead of one n^2 x n^2.
    """
    if x.is_zero_sum():
        return 0.0, 0.0
    if len(x.terms) == 1:
        a, b = x.terms[0]
        lower = op_norm(truncation(a, n)) * op_norm(truncation(b, n))
    else:
        lower = op_norm(matricize(x, n))
    upper = 0.0
    for a, b in x.terms:
        upper += _upper_norm(a) * _upper_norm(b)
    return lower, upper


def gamma(n):
    """Scale of the polydisc coordinate tuple: max |zeta| over the torus orbit."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return math.sqrt(n)


@dataclass(frozen=True)
class IsometryReport:
    gamma_value: float
    residual: float
    exact_zero: bool
    unscaled_bracket: tuple


def scaled_isometry_check(n=2):
    """Verify sum_j (T_{z_j}/gamma)* (T_{z_j}/gamma) = 1 in the tensor algebra.

    Each factor product T_z* T_z collapses to the identity with no correction,
    so the check is exact cancellation, not a numerical comparison. The
    unscaled control sum_j T_{z_j}* T_{z_j} - 1 is the identity tensor; its
    norm bracket is unscaled_bracket.
    """
    if n != 2:
        raise PreconditionError("the tensor model carries two factors")
    from .symbols import LaurentPoly

    z = ToeplitzElement(LaurentPoly.variable(0, 1))
    coords = [
        TensorElement.elementary(z, identity()),
        TensorElement.elementary(identity(), z),
    ]
    acc = TensorElement.zero()
    for t in coords:
        acc = acc + tensor_mul(tensor_adjoint(t), t)
    control = norm_bracket(acc - identity_tensor())
    resid = acc.scale(1.0 / n) - identity_tensor()
    exact = resid.is_zero_sum()
    upper = 0.0 if exact else norm_bracket(resid)[1]
    return IsometryReport(gamma(n), upper, exact, control)


@dataclass(frozen=True)
class GammaReport:
    bracket: tuple
    verdict: str
    exact_zero: bool
    residual_terms: int


def gamma_equation_residual(x, trunc=32):
    """Residual of sum_j T_{z_j}* X T_{z_j} - gamma^2 X for the bidisc pair.

    The compression by T_{z_j} acts factorwise as the circle compression, so
    the residual stays inside the tensor class; pure Toeplitz inputs cancel
    exactly to the empty sum. Verdict TOEPLITZ when the bracket upper end
    is <= 1e-10.
    """
    contributions = []
    for a, b in x.terms:
        contributions.append((phi_map(a), b))
        contributions.append((a, phi_map(b)))
        contributions.append((a * (-2.0), b))
    r = TensorElement(contributions)
    if r.is_zero_sum():
        return GammaReport((0.0, 0.0), "TOEPLITZ", True, 0)
    br = norm_bracket(r, trunc)
    verdict = "TOEPLITZ" if br[1] <= 1e-10 else "NOT_TOEPLITZ"
    return GammaReport(br, verdict, False, len(r.terms))
