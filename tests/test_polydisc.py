import math

import numpy as np
import pytest

from sphiso import checks
from sphiso import circle_calculus as cc
from sphiso import polydisc as pd
from sphiso.checks import random_element, random_symbol
from sphiso.errors import PreconditionError, ResourceLimitError
from sphiso.linalg import op_norm
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)
T_Z = cc.make_toeplitz(Z)
T_ZBAR = cc.adjoint(T_Z)
I = cc.identity()
E00 = cc.finite_rank(np.array([[1.0]]))


def elem(a, b):
    return pd.TensorElement.elementary(a, b)


def tensor_equals(x, y, n=32, tol=1e-12):
    """Equality by truncated matricization; sound at these band widths."""
    d = pd.matricize(x - y, n)
    return float(np.max(np.abs(d))) <= tol if d.size else True


def rng_for(tag):
    return np.random.default_rng([211, tag])


def random_tensor(rng, nterms, corr=2):
    return pd.TensorElement(
        [(random_element(rng, 3, corr), random_element(rng, 3, corr)) for _ in range(nterms)]
    )


# ---------------------------------------------------------------------------
# scale factor


def test_gamma_values():
    assert pd.gamma(1) == 1.0
    assert pd.gamma(2) == math.sqrt(2.0)
    assert pd.gamma(4) == 2.0
    with pytest.raises(PreconditionError):
        pd.gamma(0)


# ---------------------------------------------------------------------------
# algebra


def test_mul_coordinates_commute():
    left = pd.tensor_mul(elem(T_Z, I), elem(I, T_Z))
    right = pd.tensor_mul(elem(I, T_Z), elem(T_Z, I))
    want = elem(T_Z, T_Z)
    assert tensor_equals(left, want)
    assert tensor_equals(right, want)
    # single exact term, not just truncation-equal
    assert len(left.terms) == 1
    assert cc.diff_max(left.terms[0][0], T_Z) == 0.0
    assert cc.diff_max(left.terms[0][1], T_Z) == 0.0


def test_mul_coordinate_isometry():
    t1 = elem(T_Z, I)
    got = pd.tensor_mul(pd.tensor_adjoint(t1), t1)
    assert tensor_equals(got, pd.identity_tensor())


def test_mul_mixed_defect():
    got = pd.tensor_mul(elem(T_Z, T_ZBAR), elem(T_ZBAR, T_Z))
    want = elem(cc.mul(T_Z, T_ZBAR), I)
    assert tensor_equals(got, want)
    flipped = pd.tensor_mul(elem(T_ZBAR, T_Z), elem(T_Z, T_ZBAR))
    assert tensor_equals(flipped, elem(I, cc.mul(T_Z, T_ZBAR)))


def test_mul_bilinear():
    rng = rng_for(1)
    x = random_tensor(rng, 2)
    y = random_tensor(rng, 2)
    z = random_tensor(rng, 2)
    lhs = pd.tensor_mul(x + y, z)
    rhs = pd.tensor_mul(x, z) + pd.tensor_mul(y, z)
    assert tensor_equals(lhs, rhs)


def test_mul_associative():
    rng = rng_for(2)
    for _ in range(5):
        x = random_tensor(rng, 2)
        y = random_tensor(rng, 2)
        z = random_tensor(rng, 2)
        lhs = pd.tensor_mul(pd.tensor_mul(x, y), z)
        rhs = pd.tensor_mul(x, pd.tensor_mul(y, z))
        assert tensor_equals(lhs, rhs, n=32, tol=1e-12)


def test_adjoint_reverses_products():
    rng = rng_for(3)
    x = random_tensor(rng, 2)
    y = random_tensor(rng, 2)
    lhs = pd.tensor_adjoint(pd.tensor_mul(x, y))
    rhs = pd.tensor_mul(pd.tensor_adjoint(y), pd.tensor_adjoint(x))
    assert tensor_equals(lhs, rhs)


def test_zero_factors_dropped():
    zero = cc.make_toeplitz(LaurentPoly.zero(1))
    assert pd.TensorElement([(zero, I), (I, zero)]).is_zero_sum()
    x = elem(T_Z, I)
    assert (x - x).is_zero_sum()


def test_term_cap():
    with pytest.raises(ResourceLimitError):
        pd.TensorElement([(I, I)] * 4097)
    big = pd.TensorElement(
        [(I, cc.make_toeplitz(Z**k)) for k in range(1, 71)]
    )
    with pytest.raises(ResourceLimitError):
        pd.tensor_mul(big, big)


def test_norm_bracket_cases():
    assert pd.norm_bracket(pd.TensorElement.zero()) == (0.0, 0.0)
    lo, up = pd.norm_bracket(pd.identity_tensor())
    assert abs(lo - 1.0) <= 1e-12 and up == 1.0
    lo, up = pd.norm_bracket(elem(T_Z, T_Z))
    assert lo <= up + 1e-12
    assert abs(lo - 1.0) <= 1e-12


def test_norm_bracket_single_term_is_the_factor_product():
    # singular values of A_n (x) B_n are products of the factors' ones, so
    # the factor route must agree with the SVD of the matricized term
    rng = rng_for(41)
    pairs = [(random_element(rng, 3, 3), random_element(rng, 3, 2)) for _ in range(4)]
    pairs += [(E00 * (-1.0), I), (T_Z + E00, T_ZBAR)]
    for a, b in pairs:
        x = elem(a, b)
        assert len(x.terms) == 1
        lo, up = pd.norm_bracket(x)
        assert abs(lo - op_norm(pd.matricize(x))) <= 1e-12
        assert lo <= up + 1e-12


def test_norm_bracket_sum_keeps_the_matricized_svd():
    x = random_tensor(rng_for(43), 2)
    assert len(x.terms) == 2
    assert pd.norm_bracket(x, 12)[0] == op_norm(pd.matricize(x, 12))


def inflate_op_norm(monkeypatch):
    honest = pd.op_norm
    monkeypatch.setattr(pd, "op_norm", lambda m: honest(m) + 1e-6)


def test_gamma_equation_check_fails_on_an_inflated_factor_norm(monkeypatch):
    params = dict(checks.DEFAULT_PARAMS, tensor_trials=2)
    assert checks.run_check("gamma_equation", params, 7).verdict
    inflate_op_norm(monkeypatch)
    rec = checks.run_check("gamma_equation", params, 7)
    assert not rec.verdict
    lo, up = rec.residuals["probe_bracket"]
    assert not lo <= 1.0 <= up


def test_scaled_isometry_check_fails_on_an_inflated_factor_norm(monkeypatch):
    params = dict(checks.DEFAULT_PARAMS)
    assert checks.run_check("scaled_isometry", params, 7).verdict
    inflate_op_norm(monkeypatch)
    rec = checks.run_check("scaled_isometry", params, 7)
    assert not rec.verdict
    assert rec.residuals["unscaled_bracket"][0] > 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the scaled spherical isometry


def test_scaled_isometry_exact():
    rep = pd.scaled_isometry_check(2)
    assert rep.gamma_value == math.sqrt(2.0)
    assert rep.residual == 0.0
    assert rep.exact_zero


def test_scaled_isometry_only_two_factors():
    with pytest.raises(PreconditionError):
        pd.scaled_isometry_check(3)


def test_unscaled_tuple_control():
    # without the 1/gamma^2 normalization the defect is exactly the identity
    coords = [elem(T_Z, I), elem(I, T_Z)]
    acc = pd.TensorElement.zero()
    for t in coords:
        acc = acc + pd.tensor_mul(pd.tensor_adjoint(t), t)
    resid = acc - pd.identity_tensor()
    assert not resid.is_zero_sum()
    lo, up = pd.norm_bracket(resid)
    assert abs(lo - 1.0) <= 1e-12
    assert up == 1.0


def test_per_factor_isometry():
    assert cc.diff_max(cc.mul(T_ZBAR, T_Z), I) == 0.0


# ---------------------------------------------------------------------------
# the gamma^2 equation


def test_gamma_equation_pure_tensors_cancel():
    rng = rng_for(4)
    for _ in range(10):
        terms = [
            (cc.make_toeplitz(random_symbol(rng, 3)), cc.make_toeplitz(random_symbol(rng, 3)))
            for _ in range(3)
        ]
        x = pd.TensorElement(terms)
        rep = pd.gamma_equation_residual(x)
        assert rep.exact_zero
        assert rep.verdict == "TOEPLITZ"
        assert rep.bracket == (0.0, 0.0)
        assert rep.residual_terms == 0


def test_gamma_equation_identity():
    rep = pd.gamma_equation_residual(pd.identity_tensor())
    assert rep.exact_zero and rep.verdict == "TOEPLITZ"


def test_gamma_equation_flags_rank_one():
    rep = pd.gamma_equation_residual(elem(E00, I))
    assert rep.verdict == "NOT_TOEPLITZ"
    assert not rep.exact_zero
    lo, up = rep.bracket
    assert lo <= 1.0 <= up + 1e-12
    assert abs(lo - 1.0) <= 1e-12


def test_gamma_equation_matches_direct_cp_map():
    # shortcut residual == gamma^2 (CP_scaled(X) - X) computed in the algebra
    t1, t2 = elem(T_Z, I), elem(I, T_Z)
    rng = rng_for(5)
    for _ in range(6):
        x = random_tensor(rng, 2)
        contributions = []
        for a, b in x.terms:
            contributions.append((cc.phi_map(a), b))
            contributions.append((a, cc.phi_map(b)))
            contributions.append((a * (-2.0), b))
        shortcut = pd.TensorElement(contributions)
        direct = pd.TensorElement.zero()
        for t in (t1, t2):
            direct = direct + pd.tensor_mul(pd.tensor_adjoint(t), pd.tensor_mul(x, t))
        direct = direct - x.scale(2.0)
        assert tensor_equals(shortcut, direct, n=32, tol=1e-12)


def test_gamma_equation_corrected_tensor_detected():
    rng = rng_for(6)
    x = random_tensor(rng, 2) + elem(E00, E00)
    rep = pd.gamma_equation_residual(x)
    assert rep.verdict == "NOT_TOEPLITZ"
    # several residual terms: the lower end is the matricized sum's norm
    assert rep.residual_terms >= 2
    lo, up = rep.bracket
    assert 0.0 < lo <= up
    # the planted corner term alone is flagged
    alone = pd.gamma_equation_residual(elem(E00, E00))
    assert alone.verdict == "NOT_TOEPLITZ"
