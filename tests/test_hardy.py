import math

import numpy as np
import pytest

from sphiso import checks
from sphiso import circle_calculus as cc
from sphiso import hardy_measures as hm
from sphiso.errors import ConditioningError, PreconditionError
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)
ZBAR = Z.conjugate()

LEB = hm.CircleMeasure({0: 1.0})
COSINE = hm.CircleMeasure({0: 1.0, 1: 0.4})  # w = 1 + 0.8 cos(theta)


# ---------------------------------------------------------------------------
# measures


def test_measure_coefficients():
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 3: 0.05})
    assert m.density.coeff(1) == 0.25 + 0.15j
    assert m.density.coeff(-1) == 0.25 - 0.15j
    assert m.density.coeff(2) == 0
    assert m.degree == 3


def test_measure_density_grid_mean():
    dens = COSINE.density_grid(512)
    assert abs(float(np.mean(dens)) - 1.0) <= 1e-12
    assert float(np.min(dens)) > 0.19


def test_measure_density_grid_values():
    theta = 2.0 * math.pi * np.arange(64) / 64
    assert np.max(np.abs(COSINE.density_grid(64) - (1.0 + 0.8 * np.cos(theta)))) <= 1e-15
    # a degree past the default grid's reach is sampled on a finer grid
    high = hm.CircleMeasure({0: 1.0, 300: 0.25})
    assert 0.5 - 1e-12 <= high._density_min < 0.51


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_measure_rejects_non_finite(bad):
    with pytest.raises(PreconditionError, match="finite"):
        hm.CircleMeasure({0: 1.0, 1: bad})


def test_measure_guards():
    with pytest.raises(PreconditionError):
        hm.CircleMeasure({0: 0.9})
    with pytest.raises(PreconditionError):
        hm.CircleMeasure({0: 1.0 + 0.1j})
    with pytest.raises(PreconditionError):
        hm.CircleMeasure({-1: 0.1, 0: 1.0})
    with pytest.raises(PreconditionError):
        # 1 + 1.2 cos(theta) goes negative
        hm.CircleMeasure({0: 1.0, 1: 0.6})


def test_moment_matrix_structure():
    g = hm.moment_matrix(COSINE, 4)
    assert np.array_equal(g, g.conj().T)
    assert g[3, 2] == 0.4 and g[2, 3] == 0.4 and g[0, 4] == 0


# ---------------------------------------------------------------------------
# orthonormal bases


def test_onb_lebesgue_is_monomials():
    basis = hm.onb(LEB, 12)
    assert np.array_equal(basis.coeff, np.eye(13))
    assert basis.gram_residual() == 0.0


def test_onb_cosine_first_polynomial():
    # w = 1 + cos(theta): p_1 is a normalized multiple of z - 1/2
    m = hm.CircleMeasure({0: 1.0, 1: 0.5}, min_density=0.0)
    basis = hm.onb(m, 1)
    want = np.array([-1.0 / math.sqrt(3.0), 2.0 / math.sqrt(3.0)])
    assert np.max(np.abs(basis.coeff[1] - want)) <= 1e-15
    assert basis.coeff[1, 1].real > 0
    assert basis.gram_residual() <= 1e-12


def test_onb_complex_measure_gram():
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    basis = hm.onb(m, 20)
    assert basis.gram_residual() <= 1e-10


def test_onb_inverts_as_solve_triangular_does():
    # onb calls ztrtrs as scipy.linalg.solve_triangular does for a C-ordered
    # lower factor, so the coefficients are the same bits
    from scipy.linalg import solve_triangular

    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    low = hm._cholesky_with_pivots(hm.moment_matrix(m, 20))
    want = solve_triangular(low, np.eye(21, dtype=complex), lower=True).conj()
    assert np.array_equal(hm.onb(m, 20).coeff, want)


def test_onb_factors_each_degree_of_a_measure_once(monkeypatch):
    # a measure keeps its bases: the weighted-Hardy check factors one Gram
    # matrix per (measure, degree), with the bits of a fresh factorization
    calls = []
    honest = hm._cholesky_with_pivots
    monkeypatch.setattr(hm, "_cholesky_with_pivots", lambda g: calls.append(len(g)) or honest(g))
    params = dict(checks.DEFAULT_PARAMS)
    checks._check_weighted_hardy(params, 1)
    # the weighted measure at each degree, Lebesgue measure at 24, one more at 20
    assert sorted(calls) == sorted([d + 1 for d in params["hardy_degrees"]] + [25, 21])
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    basis = hm.onb(m, 20)
    assert hm.onb(m, 20) is basis and not basis.coeff.flags.writeable
    fresh = hm.onb(hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1}), 20)
    assert fresh is not basis
    assert fresh.coeff.tobytes() == basis.coeff.tobytes()


def test_cholesky_breaks_down_on_a_nan_pivot():
    with pytest.raises(ConditioningError):
        hm._cholesky_with_pivots(np.array([[1.0, 0.5], [0.5, math.nan]], dtype=complex))


def test_onb_degree_guard():
    with pytest.raises(PreconditionError):
        hm.onb(LEB, -1)


def test_onb_conditioning_breakdown():
    # (1 + cos theta)^25: moments shrink like the central binomial ratios and
    # the Gram matrix is numerically rank deficient well before degree 35
    scale = math.comb(50, 25)
    coeffs = {j: math.comb(50, 25 - j) / scale for j in range(26)}
    m = hm.CircleMeasure(coeffs, min_density=-1e-12)
    with pytest.raises(ConditioningError) as ei:
        hm.onb(m, 35)
    assert 1 <= ei.value.degree <= 35
    assert ei.value.pivot < 1e-12


# ---------------------------------------------------------------------------
# compressed multiplications


def test_lebesgue_reproduces_circle_matrices():
    for phi in (Z, Z + ZBAR, (2.0 + 1.0j) + Z**2 - 0.5 * ZBAR):
        got = hm.truncated_toeplitz(phi, LEB, 16)
        want = cc.toeplitz_matrix(phi, 17)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [8, 32, 64])
def test_truncated_toeplitz_matches_quadrature(d):
    # <phi p_j, p_i>_m on N points, exact once N exceeds the trig degree
    # 2d + band + deg w of p_j conj(p_i) w phi: V^H diag(w phi) V / N with
    # V[t, j] = p_j(z_t); no Toeplitz matrix on this side
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    phi = (2.0 + 1.0j) * Z**2 + ZBAR
    n = 2 * d + phi.band() + m.degree + 1
    z = np.exp(2j * math.pi * np.arange(n) / n)
    v = z[:, None] ** np.arange(d + 1) @ hm.onb(m, d).coeff.T
    weight = m.density.eval_at(z) * phi.eval_at(z)
    want = v.conj().T @ (weight[:, None] * v) / n
    assert np.max(np.abs(hm.truncated_toeplitz(phi, m, d) - want)) <= 1e-13


def test_truncated_toeplitz_identity():
    got = hm.truncated_toeplitz(LaurentPoly.constant(1.0), COSINE, 10)
    assert np.max(np.abs(got - np.eye(11))) <= 1e-12


def test_truncated_toeplitz_hermitian():
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    x = hm.truncated_toeplitz(Z + ZBAR, m, 20)
    assert np.max(np.abs(x - x.conj().T)) <= 1e-12


def test_truncated_toeplitz_band_guard():
    with pytest.raises(PreconditionError):
        hm.truncated_toeplitz(Z**5, COSINE, 8)
    with pytest.raises(PreconditionError):
        hm.truncated_toeplitz(LaurentPoly.variable(0, 2), COSINE, 8)


def test_shift_columns_isometric():
    for d in (32, 64):
        assert hm.shift_isometry_residual(COSINE, d) <= 1e-10
    m = hm.CircleMeasure({0: 1.0, 1: 0.25 + 0.15j, 2: 0.1})
    assert hm.shift_isometry_residual(m, 48) <= 1e-10


def test_shift_preserves_interior_norms():
    d = 40
    s = hm.truncated_toeplitz(Z, COSINE, d)
    rng = np.random.default_rng(77)
    for _ in range(5):
        v = np.zeros(d + 1, dtype=complex)
        v[: d - 1] = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        assert abs(np.linalg.norm(s @ v) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# fixed-point residuals


def test_brown_halmos_lebesgue_exact():
    out = hm.brown_halmos_residual(Z + ZBAR, LEB, 8, [32, 64])
    assert [d for d, _ in out] == [32, 64]
    assert all(v == 0.0 for _, v in out)


def test_brown_halmos_weighted_nonincreasing():
    out = hm.brown_halmos_residual(Z + ZBAR, COSINE, 8, [32, 64, 128])
    vals = [v for _, v in out]
    assert all(v <= 1e-10 for v in vals)
    assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))


def test_brown_halmos_flags_planted_corner():
    d, window = 32, 8
    x = hm.truncated_toeplitz(Z + ZBAR, COSINE, d).copy()
    x[0, 0] += 1.0
    s = hm.truncated_toeplitz(Z, COSINE, d)
    r = s.conj().T @ x @ s - x
    assert np.max(np.abs(r[:window, :window])) >= 0.4


def test_brown_halmos_window_guard():
    with pytest.raises(PreconditionError):
        hm.brown_halmos_residual(Z + ZBAR, COSINE, 8, [8, 32])
