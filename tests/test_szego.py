import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sphiso import checks
from sphiso import szego as sz
from sphiso.errors import PreconditionError, ResourceLimitError


def defect_operator(tup):
    acc = sz.GradedOperator.zero(tup.n, tup.d)
    for s in tup.shifts:
        acc = acc + s.adjoint().compose(s)
    return acc - sz.GradedOperator.identity_op(tup.n, tup.d)


def test_sphere_symbol_rejects_non_finite():
    key = ((1, 0), (0, 0))
    for bad in (math.inf, math.nan, complex(math.nan, 0.0)):
        with pytest.raises(PreconditionError, match="finite"):
            sz.SphereSymbol(2, {key: bad})


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
    assert len(t.shifts) == 1
    for (b, a), c in t.shifts[0].entries.items():
        assert c == 1.0
        assert b == (a[0] + 1,)


def test_tuple_first_weight():
    t = sz.szego_tuple(2, 4)
    assert t.shifts[0].entry((1, 0), (0, 0)) == math.sqrt(0.5)
    assert t.shifts[1].entry((0, 1), (0, 0)) == math.sqrt(0.5)
    assert t.shifts[0].entry((2, 0), (0, 0)) == 0


def test_tuple_guards():
    with pytest.raises(PreconditionError):
        sz.szego_tuple(0, 4)
    with pytest.raises(PreconditionError):
        sz.szego_tuple(2, 0)
    with pytest.raises(ResourceLimitError):
        sz.szego_tuple(2, 61)


def test_tuple_isometry_interior():
    diff = defect_operator(sz.szego_tuple(2, 10))
    worst = 0.0
    for (b, a), c in diff.entries.items():
        if sum(a) <= 9 and sum(b) <= 9:
            worst = max(worst, abs(c))
    assert worst <= 1e-14


def test_shifts_commute_below_top():
    t = sz.szego_tuple(3, 8)
    for i in range(3):
        for j in range(i + 1, 3):
            diff = t.shifts[i].compose(t.shifts[j]) - t.shifts[j].compose(t.shifts[i])
            worst = max(
                (abs(c) for (b, a), c in diff.entries.items() if sum(a) <= 6),
                default=0.0,
            )
            assert worst <= 1e-14


def test_defect_circle_is_top_projection():
    rep = sz.defect_report(sz.szego_tuple(1, 8))
    assert rep.interior_max == 0.0
    assert rep.top_shell_min == rep.top_shell_max == -1.0
    assert rep.off_diagonal_max == 0.0
    assert rep.support_ok
    diff = defect_operator(sz.szego_tuple(1, 8))
    assert diff.entries == {((8,), (8,)): (-1 + 0j)}


def test_defect_sphere_shell():
    rep = sz.defect_report(sz.szego_tuple(2, 6))
    assert rep.interior_max <= 1e-14
    assert rep.top_shell_min == rep.top_shell_max == -1.0
    assert rep.support_ok
    diff = defect_operator(sz.szego_tuple(2, 6))
    shell = {k for k, c in diff.entries.items() if sum(k[1]) == 6}
    assert len(shell) == 7
    assert all(b == a for b, a in shell)


# ---------------------------------------------------------------------------
# graded compressions


def test_graded_max_abs_keeps_nan():
    x = sz.GradedOperator(1, 2, {((0,), (0,)): 1.0, ((1,), (1,)): complex("nan")})
    assert math.isnan(x.max_abs()) and math.isnan(x.max_abs(degree_limit=1))
    assert x.max_abs(degree_limit=0) == 1.0


def test_toeplitz_graded_constant_is_identity():
    x = sz.toeplitz_graded("1", 2, 6)
    assert (x - sz.GradedOperator.identity_op(2, 6)).max_abs() == 0.0


def test_toeplitz_graded_matches_shift():
    t = sz.szego_tuple(2, 10)
    x = sz.toeplitz_graded("z1", 2, 10)
    assert (x - t.shifts[0]).max_abs() == 0.0
    assert x.safe_degree == 9


def test_toeplitz_graded_mixed_diagonal():
    x = sz.toeplitz_graded("z1*zbar1", 2, 8)
    assert x.entry((0, 0), (0, 0)) == 0.5
    assert x.safe_degree == 8


def test_toeplitz_graded_hermitian():
    for text in ("z1*zbar1 + 2", "z1*zbar2 + zbar1*z2", "z1^2*zbar1^2"):
        x = sz.toeplitz_graded(text, 2, 8)
        assert (x - x.adjoint()).max_abs() <= 1e-14


def test_toeplitz_graded_band_guard():
    with pytest.raises(PreconditionError):
        sz.toeplitz_graded("z1^4", 2, 6)
    with pytest.raises(PreconditionError):
        sz.toeplitz_graded("z1^2*z2^2", 3, 6)


def test_multiindex_order():
    idx = sz.multiindices(2, 2)
    assert idx[0] == (0, 0)
    assert len(idx) == 6
    assert sorted(set(idx)) == sorted(idx)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_identity_circle():
    t = sz.szego_tuple(1, 8)
    rep = sz.fixed_point_residual(sz.GradedOperator.identity_op(1, 8), t)
    assert rep.interior_max == 0.0
    assert rep.boundary_max == 1.0


def test_fixed_point_identity_sphere():
    t = sz.szego_tuple(2, 10)
    rep = sz.fixed_point_residual(sz.GradedOperator.identity_op(2, 10), t)
    assert rep.interior_max <= 1e-14
    assert rep.boundary_max == 1.0
    assert rep.safe_degree == 10


def test_fixed_point_toeplitz_symbols():
    t = sz.szego_tuple(2, 10)
    for text in ("z1*zbar2 + zbar1*z2", "z1*zbar1", "1 + z2 + zbar2"):
        x = sz.toeplitz_graded(text, 2, 10)
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
        sz.fixed_point_residual(sz.GradedOperator.identity_op(2, 8), t)


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
