import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sphiso import checks
from sphiso import szego as sz
from sphiso.errors import PreconditionError, ResourceLimitError


def graded(text, n, d):
    return sz.toeplitz_graded(sz.SphereSymbol.from_text(text, nvars=n), n, d)


def identity(n, d):
    return sz.GradedOperator(n, d, {(a, a): 1.0 for a in sz.multiindices(n, d)})


def up(alpha, j):
    """alpha + e_j"""
    return alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]


def test_sphere_symbol_rejects_non_finite():
    key = ((1, 0), (0, 0))
    for bad in (math.inf, math.nan, complex(math.nan, 0.0)):
        with pytest.raises(PreconditionError, match="finite"):
            sz.SphereSymbol(2, {key: bad})


def test_sphere_symbol_from_text_keeps_both_sides():
    phi = sz.SphereSymbol.from_text("2*z1*zbar2 + z1*zbar2 - 0.5", nvars=3)
    assert phi.nvars == 3
    assert dict(phi.terms()) == {((1, 0, 0), (0, 1, 0)): 3.0, ((0, 0, 0), (0, 0, 0)): -0.5}
    assert sz.SphereSymbol.from_text("z*zbar").nvars == 1
    for bad, nvars in (("zbar^-1", None), ("z1*z2", 1), ("2z1", None)):
        with pytest.raises(PreconditionError):
            sz.SphereSymbol.from_text(bad, nvars=nvars)


# ---------------------------------------------------------------------------
# moments


def test_sphere_moment_values():
    assert sz.sphere_moment(2, (0, 0)) == 1
    assert sz.sphere_moment(5, (0,) * 5) == 1
    assert sz.sphere_moment(2, (1, 0)) == Fraction(1, 2)
    assert sz.sphere_moment(3, (2, 1, 0)) == Fraction(1, 30)
    assert sz.sphere_moment(1, (7,)) == 1


def test_sphere_moment_is_exact_rational():
    m = sz.sphere_moment(4, (5, 3, 2, 1))
    assert isinstance(m, Fraction)
    want = Fraction(
        math.factorial(3) * math.factorial(5) * math.factorial(3) * math.factorial(2),
        math.factorial(3 + 11),
    )
    assert m == want


def test_sphere_moment_guards():
    with pytest.raises(ResourceLimitError):
        sz.sphere_moment(2, (40, 21))
    with pytest.raises(PreconditionError):
        sz.sphere_moment(2, (1, -1))
    with pytest.raises(PreconditionError):
        sz.sphere_moment(2, (1, 0, 0))


def mc_sphere_moment(n, alpha, samples, rng):
    """Monte Carlo estimate of the moment: (mean, standard error).

    Uniform sphere points come from normalized complex Gaussians.
    """
    v = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vals = np.ones(samples)
    for j, a in enumerate(alpha):
        if a:
            vals = vals * np.abs(v[:, j]) ** (2 * a)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return mean, stderr


def test_sphere_moment_monte_carlo():
    # the sphere measure itself ties both exact routes to the integral
    for n, alpha, seed in [(2, (1, 0), 5), (3, (2, 1, 0), 6), (4, (0, 3, 1, 2), 7)]:
        mean, se = mc_sphere_moment(n, alpha, 100000, np.random.default_rng(seed))
        assert abs(mean - float(sz.stick_breaking_moment(n, alpha))) <= 3 * se


def test_stick_breaking_moment_equals_the_closed_form():
    # every alpha with n = 1..4 and entries 0..3: 340 in all
    alphas = [(n, a) for n in range(1, 5) for a in itertools.product(range(4), repeat=n)]
    assert len(alphas) == 340
    for n, alpha in alphas:
        exact = sz.stick_breaking_moment(n, alpha)
        assert isinstance(exact, Fraction)
        assert exact == sz.sphere_moment(n, alpha), (n, alpha)
    with pytest.raises(ResourceLimitError):
        sz.stick_breaking_moment(2, (40, 21))
    with pytest.raises(PreconditionError):
        sz.stick_breaking_moment(2, (1, 0, 0))


# ---------------------------------------------------------------------------
# the shift tuple


def test_tuple_circle_case():
    t = sz.szego_tuple(1, 6)
    assert t.weights == ({(k,): 1.0 for k in range(6)},)


def test_tuple_first_weight():
    t = sz.szego_tuple(2, 4)
    assert t.weights[0][(0, 0)] == math.sqrt(0.5)
    assert t.weights[1][(0, 0)] == math.sqrt(0.5)
    # T_j e_alpha = w_j(alpha) e_(alpha+e_j) is defined on degrees < d only
    assert all(set(w) == set(sz.multiindices(2, 3)) for w in t.weights)


def test_tuple_guards():
    with pytest.raises(PreconditionError):
        sz.szego_tuple(0, 4)
    with pytest.raises(PreconditionError):
        sz.szego_tuple(2, 0)
    with pytest.raises(ResourceLimitError):
        sz.szego_tuple(2, 61)


def test_tuple_isometry_interior():
    t = sz.szego_tuple(2, 10)
    for a in sz.multiindices(2, 9):
        assert abs(sum(w[a] ** 2 for w in t.weights) - 1.0) <= 1e-14
    assert sz.defect_report(t).interior_max <= 1e-14


def test_shifts_commute_below_top():
    # T_i T_j e_a = w_j(a) w_i(a+e_j) e_(a+e_i+e_j), defined for |a| <= d - 2
    t = sz.szego_tuple(3, 8)
    w = t.weights
    for i in range(3):
        for j in range(i + 1, 3):
            for a in sz.multiindices(3, 6):
                assert abs(w[i][a] * w[j][up(a, i)] - w[j][a] * w[i][up(a, j)]) <= 1e-14


def test_defect_circle_is_top_projection():
    rep = sz.defect_report(sz.szego_tuple(1, 8))
    assert rep.interior_max == 0.0
    assert rep.top_shell_min == rep.top_shell_max == -1.0
    assert rep.off_diagonal_max == 0.0
    assert rep.support_ok
    # sum_j T_j* T_j is exactly the identity below the top shell and 0 on it
    avg = sz._average(identity(1, 8).entries, sz.szego_tuple(1, 8))
    assert avg == {((k,), (k,)): 1.0 for k in range(8)}


def test_defect_sphere_shell():
    rep = sz.defect_report(sz.szego_tuple(2, 6))
    assert rep.interior_max <= 1e-14
    assert rep.top_shell_min == rep.top_shell_max == -1.0
    assert rep.support_ok
    # sum_j T_j* T_j lives on the diagonal below the top shell, so the defect
    # on the shell is -1 on its 7 diagonal entries and nothing else
    ident = identity(2, 6).entries
    avg = sz._average(ident, sz.szego_tuple(2, 6))
    assert set(avg) == {(a, a) for a in sz.multiindices(2, 5)}
    shell = {k: avg.get(k, 0j) - c for k, c in ident.items() if sum(k[1]) == 6}
    assert len(shell) == 7 and set(shell.values()) == {-1.0}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_average_matches_dense_products(n):
    # sum_j T_j^H X T_j with each T_j built densely from the closed-form weights
    d = 6
    idx = sz.multiindices(n, d)
    pos = {a: i for i, a in enumerate(idx)}
    rng = np.random.default_rng(40 + n)
    x = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal((len(idx), len(idx)))
    want = np.zeros_like(x)
    for j in range(n):
        t = np.zeros_like(x)
        for a in idx:
            if sum(a) < d:
                t[pos[up(a, j)], pos[a]] = math.sqrt((a[j] + 1) / (n + sum(a)))
        want += t.conj().T @ x @ t
    entries = {(b, a): x[pos[b], pos[a]] for b in idx for a in idx}
    got = np.zeros_like(x)
    for (b, a), c in sz._average(entries, sz.szego_tuple(n, d)).items():
        got[pos[b], pos[a]] = c
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# graded compressions


def test_graded_max_abs_keeps_nan():
    x = sz.GradedOperator(1, 2, {((0,), (0,)): 1.0, ((1,), (1,)): complex("nan")})
    assert math.isnan(x.max_abs()) and math.isnan(x.max_abs(degree_limit=1))
    assert x.max_abs(degree_limit=0) == 1.0


def test_toeplitz_graded_constant_is_identity():
    assert graded("1", 2, 6).entries == identity(2, 6).entries


def test_toeplitz_graded_matches_shift():
    t = sz.szego_tuple(2, 10)
    x = graded("z1", 2, 10)
    assert x.entries == {(up(a, 0), a): w for a, w in t.weights[0].items()}
    assert x.safe_degree == 9


def test_toeplitz_graded_mixed_diagonal():
    x = graded("z1*zbar1", 2, 8)
    assert x.entry((0, 0), (0, 0)) == 0.5
    assert x.safe_degree == 8


def test_toeplitz_graded_hermitian():
    for text in ("z1*zbar1 + 2", "z1*zbar2 + zbar1*z2", "z1^2*zbar1^2"):
        x = graded(text, 2, 8)
        for (b, a), c in x.entries.items():
            assert abs(x.entry(a, b) - c.conjugate()) <= 1e-14


def test_toeplitz_graded_band_guard():
    with pytest.raises(PreconditionError):
        graded("z1^4", 2, 6)
    with pytest.raises(PreconditionError):
        graded("z1^2*z2^2", 3, 6)


def test_multiindex_order():
    idx = sz.multiindices(2, 2)
    assert idx[0] == (0, 0)
    assert len(idx) == 6
    assert sorted(set(idx)) == sorted(idx)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_identity_circle():
    t = sz.szego_tuple(1, 8)
    rep = sz.fixed_point_residual(identity(1, 8), t)
    assert rep.interior_max == 0.0
    assert rep.boundary_max == 1.0


def test_fixed_point_identity_sphere():
    t = sz.szego_tuple(2, 10)
    rep = sz.fixed_point_residual(identity(2, 10), t)
    assert rep.interior_max <= 1e-14
    assert rep.boundary_max == 1.0
    assert rep.safe_degree == 10


def test_fixed_point_toeplitz_symbols():
    t = sz.szego_tuple(2, 10)
    for text in ("z1*zbar2 + zbar1*z2", "z1*zbar1", "1 + z2 + zbar2"):
        x = graded(text, 2, 10)
        rep = sz.fixed_point_residual(x, t)
        assert rep.interior_max <= 1e-10


def test_fixed_point_flags_rank_one():
    t = sz.szego_tuple(2, 10)
    e00 = sz.GradedOperator(2, 10, {((0, 0), (0, 0)): 1.0})
    rep = sz.fixed_point_residual(e00, t)
    assert rep.interior_max >= 0.4


def test_fixed_point_shape_guard():
    t = sz.szego_tuple(2, 10)
    with pytest.raises(PreconditionError):
        sz.fixed_point_residual(identity(2, 8), t)


def test_normal_extension_consistency():
    assert sz.normal_extension_defect(2, 4) <= 1e-12


# ---------------------------------------------------------------------------
# the szego_model check's exact moment test


def szego_params():
    return json.loads(json.dumps(checks.DEFAULT_PARAMS))


# the earlier Monte Carlo z-test read FAIL on both seeds at 3 sigma and
# passed them only under its Bonferroni bound
@pytest.mark.parametrize("seed", [44, 1337113213])
def test_szego_check_bonferroni_seeds_pass(seed):
    rec = checks.run_check("szego_model", szego_params(), seed)
    assert rec.verdict
    assert rec.residuals["moment_mismatches"] == 0
