import math
import subprocess
import sys

import numpy as np
import pytest

from sphiso import checks
from sphiso import circle_calculus as cc
from sphiso.checks import random_element, random_symbol
from sphiso.errors import PreconditionError
from sphiso.linalg import op_norm
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)
ZBAR = Z.conjugate()
ONE = LaurentPoly.constant(1.0)
ZERO = LaurentPoly.zero(1)

T_Z = cc.make_toeplitz(Z)
T_ZBAR = cc.make_toeplitz(ZBAR)


def rank_one(i, j, value=1.0):
    block = np.zeros((i + 1, j + 1), dtype=complex)
    block[i, j] = value
    return cc.finite_rank(block)


def rng_for(tag):
    return np.random.default_rng([97, tag])


# ---------------------------------------------------------------------------
# construction


def test_make_toeplitz_shift():
    m = cc.toeplitz_matrix(Z, 5)
    assert np.array_equal(m, np.eye(5, k=-1))


def test_make_toeplitz_identity():
    assert np.array_equal(cc.toeplitz_matrix(ONE, 4), np.eye(4))


def test_make_toeplitz_tridiagonal():
    m = cc.toeplitz_matrix(Z + ZBAR, 6)
    assert np.array_equal(m, np.eye(6, k=-1) + np.eye(6, k=1))


def test_correction_trimmed():
    x = cc.ToeplitzElement(Z, np.zeros((4, 4)))
    assert x.active_size == (0, 0)
    assert x.is_pure()
    y = cc.ToeplitzElement(Z, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert y.active_size == (2, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, math.inf)])
def test_correction_rejects_non_finite(bad):
    with pytest.raises(PreconditionError, match="finite"):
        cc.ToeplitzElement(Z, np.array([[1.0, bad]]))


def canonical_by_rows(arr):
    """The earlier `_canonical_correction`: finiteness test, flush by
    `np.where` and trim by one `np.any` per row and column."""
    a = np.asarray(arr, dtype=complex)
    if a.ndim != 2:
        raise PreconditionError("correction must be a matrix")
    if not np.isfinite(a).all():
        raise PreconditionError("correction entries must be finite")
    if a.size:
        m = np.max(np.abs(a))
        if m > 0.0:
            a = np.where(np.abs(a) < cc._FLUSH * m, 0.0, a)
        r = a.shape[0]
        while r > 0 and not np.any(a[r - 1, :]):
            r -= 1
        c = a.shape[1]
        while c > 0 and not np.any(a[:r, c - 1]):
            c -= 1
        a = a[:r, :c]
    if a.size == 0:
        a = np.zeros((0, 0), dtype=complex)
    return np.ascontiguousarray(a)


def correction_blocks():
    rng = np.random.default_rng(23)
    blocks = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((3, 4)), -np.zeros((2, 2))]
    for _ in range(40):
        r, c = rng.integers(1, 7, size=2)
        a = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        a *= 10.0 ** rng.integers(-300, 300)
        # zero rows and columns to trim, inside and at the end
        a[rng.random(r) < 0.3, :] = 0.0
        a[:, rng.random(c) < 0.3] = 0.0
        blocks.append(a)
    m = 2.0
    at = cc._FLUSH * m
    # entries on, just below and just above the flush threshold, and -0.0 parts
    edge = np.array(
        [
            [m, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)],
            [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), 0.0],
            [complex(-0.0, at / 2), 0.0, 0.0, 0.0],
        ]
    )
    blocks += [edge, edge[:, :3], edge.T, np.asfortranarray(edge)]
    blocks.append(np.array([[1.0, -0.0j], [complex(-0.0, -0.0), 0.0]]))  # only -0.0 below
    blocks.append(np.array([[1e308 + 1e308j, 1.0]]))  # finite, but its modulus overflows
    blocks.append(np.array([[5e-320, 0.0], [0.0, 0.0]]))  # the threshold underflows to 0
    return blocks


@pytest.mark.parametrize("block", correction_blocks(), ids=lambda b: str(b.shape))
def test_canonical_correction_matches_the_row_by_row_trim(block):
    got, want = cc._canonical_correction(block), canonical_by_rows(block)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, block)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.nan, 0.0)])
def test_canonical_correction_rejects_what_the_row_by_row_trim_rejects(bad):
    block = np.array([[1.0, 0.0], [bad, 2.0]])
    for canonical in (cc._canonical_correction, canonical_by_rows):
        with pytest.raises(PreconditionError, match="finite"):
            canonical(block)


def test_symbol_requires_one_variable():
    with pytest.raises(PreconditionError):
        cc.make_toeplitz(LaurentPoly.variable(0, 2))


# ---------------------------------------------------------------------------
# products


def test_mul_isometry():
    assert cc.diff_max(cc.mul(T_ZBAR, T_Z), cc.identity()) == 0.0


def test_mul_shift_defect():
    got = cc.mul(T_Z, T_ZBAR)
    want = cc.identity() + rank_one(0, 0, -1.0)
    assert cc.diff_max(got, want) == 0.0


def test_mul_degree_two():
    got = cc.mul(cc.make_toeplitz(Z**2), T_ZBAR)
    want = T_Z + rank_one(1, 0, -1.0)
    assert cc.diff_max(got, want) == 0.0


def product_truncation_oracle(x, y, n):
    """P_N (XY) P_N by widened dense matmul, independent of the convolution."""
    kx = n + x.symbol.deg_neg() + x.active_size[1]
    k = max(kx, n, *x.active_size, *y.active_size)
    a = cc.truncation(x, k)
    b = cc.truncation(y, k)
    return (a @ b)[:n, :n]


def test_mul_against_truncation_oracle():
    rng = rng_for(1)
    for _ in range(25):
        x = random_element(rng, 4, 3)
        y = random_element(rng, 4, 3)
        z = cc.mul(x, y)
        got = cc.truncation(z, 24)
        want = product_truncation_oracle(x, y, 24)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_adjoint_examples():
    assert cc.diff_max(cc.adjoint(T_Z), T_ZBAR) == 0.0
    proj = cc.identity() + rank_one(0, 0, -1.0)
    assert cc.diff_max(cc.adjoint(proj), proj) == 0.0


def test_adjoint_antihomomorphism():
    rng = rng_for(2)
    for _ in range(25):
        x = random_element(rng, 4, 3)
        y = random_element(rng, 4, 3)
        lhs = cc.adjoint(cc.mul(x, y))
        rhs = cc.mul(cc.adjoint(y), cc.adjoint(x))
        assert cc.diff_max(lhs, rhs) <= 1e-12


def test_adjoint_involution():
    rng = rng_for(3)
    x = random_element(rng, 5, 4)
    assert cc.diff_max(cc.adjoint(cc.adjoint(x)), x) == 0.0


# ---------------------------------------------------------------------------
# the averaging projection


def test_phi_map_fixes_pure():
    for phi in (Z, Z + ZBAR, Z**3 - 2.0 * ZBAR):
        x = cc.make_toeplitz(phi)
        assert cc.diff_max(cc.phi_map(x), x) == 0.0


def test_phi_map_kills_corner():
    assert cc.phi_map(rank_one(0, 0)).is_pure()
    assert cc.phi_map(rank_one(0, 0)).symbol.is_zero()


def test_phi_map_shifts_correction():
    got = cc.phi_map(T_Z + rank_one(1, 1))
    want = T_Z + rank_one(0, 0)
    assert cc.diff_max(got, want) == 0.0


def test_project_phi_examples():
    x = cc.identity() + rank_one(0, 0, -1.0)
    assert cc.diff_max(cc.project_phi(x), cc.identity()) == 0.0
    y = T_Z + rank_one(1, 0)
    assert cc.diff_max(cc.project_phi(y), T_Z) == 0.0


def test_project_phi_product_symbol():
    t = cc.make_toeplitz(Z + ZBAR)
    got = cc.project_phi(cc.mul(t, t))
    want = cc.make_toeplitz((Z + ZBAR) * (Z + ZBAR))
    assert cc.diff_max(got, want) == 0.0
    assert want.symbol == LaurentPoly.from_text("z^2 + 2 + zbar^2")


def test_project_phi_laws():
    rng = rng_for(4)
    for _ in range(25):
        x = random_element(rng, 5, 4)
        p = cc.project_phi(x)
        assert p.is_pure()
        assert cc.diff_max(cc.project_phi(p), p) == 0.0
        assert (cc.diff_max(p, x) == 0.0) == x.is_pure()
    assert cc.diff_max(cc.project_phi(cc.identity()), cc.identity()) == 0.0


def test_project_phi_hermiticity_preserving():
    rng = rng_for(5)
    g = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    x = cc.ToeplitzElement(Z + ZBAR, g + g.conj().T)
    p = cc.project_phi(x)
    assert cc.diff_max(cc.adjoint(p), p) == 0.0


def test_project_phi_positivity():
    # Phi(X* X) truncations stay positive semidefinite up to rounding
    rng = rng_for(6)
    for _ in range(10):
        x = random_element(rng, 4, 3)
        p = cc.project_phi(cc.mul(cc.adjoint(x), x))
        a = cc.truncation(p, 32)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-10
        w = np.linalg.eigvalsh(a)
        assert w[0] >= -1e-10


def test_averaging_identities_hand_case():
    x = T_Z + rank_one(0, 0)
    rep = cc.verify_averaging_identities(x, T_ZBAR)
    assert rep.max_pairwise_residual == 0.0
    assert rep.choi_effros_residual == 0.0
    assert rep.idempotent_residual == 0.0
    assert rep.unital_residual == 0.0
    assert rep.product_symbol == ONE
    # all three averaged products collapse to the identity
    e = cc.project_phi(cc.mul(cc.project_phi(x), cc.project_phi(T_ZBAR)))
    assert cc.diff_max(e, cc.identity()) == 0.0


def test_averaging_pure_fixed_points():
    t = cc.make_toeplitz(Z**2 + 0.5 * ZBAR)
    rep = cc.verify_averaging_identities(t, t)
    assert rep.max_pairwise_residual == 0.0
    assert rep.product_symbol == t.symbol * t.symbol


def test_averaging_kernel_elements():
    rep = cc.verify_averaging_identities(rank_one(0, 0), rank_one(0, 0))
    assert rep.max_pairwise_residual == 0.0
    assert rep.product_symbol.is_zero()


def test_averaging_random_pairs():
    rng = rng_for(7)
    for _ in range(20):
        x = random_element(rng, 5, 4)
        y = random_element(rng, 5, 4)
        rep = cc.verify_averaging_identities(x, y)
        assert rep.max_pairwise_residual <= 1e-12
        assert rep.choi_effros_residual == 0.0


# ---------------------------------------------------------------------------
# symbol map and semicommutators


def test_symbol_map_examples():
    assert cc.symbol_map(cc.mul(T_Z, T_ZBAR)) == ONE
    assert cc.symbol_map(rank_one(0, 0)).is_zero()
    got = cc.symbol_map(cc.mul(cc.make_toeplitz(ONE + Z), cc.make_toeplitz(ONE + ZBAR)))
    assert got == LaurentPoly.from_text("2 + z + zbar")


def test_symbol_map_multiplicative():
    rng = rng_for(8)
    for _ in range(25):
        x = random_element(rng, 6, 5)
        y = random_element(rng, 6, 5)
        prod = cc.symbol_map(cc.mul(x, y))
        want = cc.symbol_map(x) * cc.symbol_map(y)
        diff = prod - want
        assert all(abs(c) <= 1e-12 for c in diff.coeffs.values())


def test_semicommutator_examples():
    assert cc.semicommutator(ZBAR, Z).is_pure()
    assert cc.semicommutator(ZBAR, Z).symbol.is_zero()
    assert cc.diff_max(cc.semicommutator(Z, ZBAR), rank_one(0, 0, -1.0)) == 0.0
    got = cc.semicommutator(Z**2, ZBAR**2)
    want = rank_one(0, 0, -1.0) + rank_one(1, 1, -1.0)
    assert cc.diff_max(got, want) == 0.0


def semicommutator_loop(phi, psi):
    """C(phi, psi)[i, j] = -sum_{k <= -1} phihat(i - k) psihat(k - j), term by term."""
    out = np.zeros((phi.deg_pos(), psi.deg_neg()), dtype=complex)
    for i, j in np.ndindex(out.shape):
        out[i, j] = -sum(phi.coeff(i - k) * psi.coeff(k - j) for k in range(-psi.deg_neg(), 0))
    return out


def test_semicommutator_block_matches_defining_sum():
    rng = rng_for(21)
    pairs = [(Z, ONE), (ONE, ZBAR), (ZBAR, Z)]
    pairs += [(random_symbol(rng, 6), random_symbol(rng, 6)) for _ in range(20)]
    for phi, psi in pairs:
        got = cc._semicommutator_block(phi, psi)
        want = semicommutator_loop(phi, psi)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14


def test_semicommutator_support_box():
    rng = rng_for(9)
    for _ in range(25):
        phi = random_symbol(rng, 5)
        psi = random_symbol(rng, 5)
        s = cc.semicommutator(phi, psi)
        assert s.symbol.is_zero()
        r, c = s.active_size
        assert r <= phi.deg_pos()
        assert c <= psi.deg_neg()


def test_far_diagonal_recovers_symbol():
    phi = LaurentPoly.from_text("z + 2*zbar")
    rng = rng_for(10)
    f = rng.uniform(-1, 1, (3, 3)) + 0j
    x = cc.ToeplitzElement(phi, f)
    m = cc.truncation(x, 16)
    assert m[15, 14] == phi.coeff(1)
    assert m[14, 15] == phi.coeff(-1)
    assert m[15, 15] == 0.0


# ---------------------------------------------------------------------------
# Brown-Halmos fixed points and the commutant


def test_is_toeplitz_examples():
    assert cc.is_toeplitz(cc.make_toeplitz(Z**3 + 2.0 * ZBAR))
    assert not cc.is_toeplitz(cc.identity() + rank_one(0, 0, -1.0))
    prod = cc.mul(T_Z, T_ZBAR)
    assert not cc.is_toeplitz(prod)
    assert cc.is_toeplitz(cc.project_phi(prod))


def test_is_toeplitz_matches_correction():
    rng = rng_for(11)
    for _ in range(50):
        x = random_element(rng, 6, 5)
        assert cc.is_toeplitz(x) == (x.corr_array.size == 0)


def test_commutant_shift():
    rep = cc.commutant_character(T_Z, trunc=256)
    assert rep.classification == cc.ANALYTIC_TOEPLITZ
    assert rep.commutes_with_shift
    assert rep.lift is not None
    assert abs(rep.lift.sup_lower - 1.0) <= 1e-12
    assert abs(rep.lift.trunc_lower - 1.0) <= 1e-12


def test_commutant_backward_shift():
    rep = cc.commutant_character(T_ZBAR, trunc=256)
    assert rep.classification == cc.TOEPLITZ_NOT_ANALYTIC
    assert rep.toeplitz and not rep.xstarx_toeplitz
    assert not rep.commutes_with_shift
    assert rep.lift is None


def test_commutant_selfadjoint_symbol():
    rep = cc.commutant_character(cc.make_toeplitz(Z + ZBAR), trunc=256)
    assert rep.classification == cc.TOEPLITZ_NOT_ANALYTIC


def test_commutant_corrected_element():
    rep = cc.commutant_character(T_Z + rank_one(1, 1), trunc=256)
    assert rep.classification == cc.NOT_TOEPLITZ


def test_commutant_criteria_agree_on_random_inputs():
    # the internal assertion cross-checks (X, X*X) against commutation
    rng = rng_for(12)
    for _ in range(30):
        x = random_element(rng, 4, 3)
        rep = cc.commutant_character(x, trunc=128)
        analytic_pure = x.is_pure() and x.symbol.is_analytic()
        assert (rep.classification == cc.ANALYTIC_TOEPLITZ) == analytic_pure


BROKEN_INVARIANTS = """
import sys
from sphiso import circle_calculus as cc
from sphiso.errors import InvariantError
from sphiso.symbols import LaurentPoly

if __debug__:
    sys.exit("run me under python -O")
T_Z = cc.make_toeplitz(LaurentPoly.variable(0, 1))
# a compression that moves the symbol: the fixed-point test fails on a pure
# element while the structural test passes
phi_map, cc.phi_map = cc.phi_map, lambda x: cc.ToeplitzElement(x.symbol * 2.0)
try:
    cc.is_toeplitz(T_Z)
except InvariantError as exc:
    print("is_toeplitz:", exc)
else:
    sys.exit("is_toeplitz accepted disagreeing criteria")
cc.phi_map = phi_map
# a Toeplitz test that accepts everything disagrees with commutation
cc.is_toeplitz = lambda x: True
try:
    cc.commutant_character(cc.adjoint(T_Z), trunc=64)
except InvariantError as exc:
    print("commutant_character:", exc)
else:
    sys.exit("commutant_character accepted disagreeing criteria")
"""


def test_invariants_survive_optimized_mode(child_env):
    out = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_INVARIANTS],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "is_toeplitz: fixed-point and structural Toeplitz tests disagree" in out.stdout
    assert "commutant_character: commutant criteria disagree" in out.stdout


# ---------------------------------------------------------------------------
# truncation norms and the cross-section


def test_truncation_norm_closed_form_dense():
    phi = Z + ZBAR
    for n in (8, 64, 128):
        want = 2.0 * math.cos(math.pi / (n + 1))
        assert abs(cc.truncation_norm(phi, n) - want) <= 1e-10


def test_truncation_norm_closed_form_banded():
    phi = Z + ZBAR
    for n in (200, 500):
        want = 2.0 * math.cos(math.pi / (n + 1))
        assert abs(cc.truncation_norm(phi, n) - want) <= 1e-10


def test_truncation_norm_banded_matches_dense():
    phi = Z**2 + 0.5 * ZBAR - 0.25 * ONE
    n = 180
    dense = op_norm(cc.toeplitz_matrix(phi, n))
    assert abs(cc.truncation_norm(phi, n) - dense) <= 1e-10


def test_truncation_norm_band_wider_than_truncation():
    # terms at |k| >= N leave no entry in the N x N compression
    assert cc.truncation_norm(Z**5, 3) == 0.0
    assert cc.truncation_norm(Z**5 + 0.5 * ZBAR**4, 4) == 0.0
    phi = Z**5 + 2.0 * Z - 0.5 * ZBAR**3
    for n in (1, 2, 3, 4, 6):
        dense = op_norm(cc.toeplitz_matrix(phi, n))
        assert abs(cc.truncation_norm(phi, n) - dense) <= 1e-12


def norm_on_doubled_band(phi, n):
    """The truncation norm from A*A stored with 2 * band diagonals, most of
    them zero when the exponents lie on one side or are few."""
    import scipy.sparse

    a = scipy.sparse.csc_matrix(cc.toeplitz_matrix(phi, n))
    b = (a.getH() @ a).tocsc()
    u = min(2 * phi.band(), n - 1)
    band = np.zeros((u + 1, n), dtype=complex)
    for d in range(u + 1):
        band[u - d, d:] = b.diagonal(d)
    return float(np.sqrt(max(cc.band_max_eig(band), 0.0)))


@pytest.mark.parametrize(
    "text",
    [
        "z^3 - 0.5*z + (0.25+0.5j)",  # analytic: A*A has the symbol's band
        "zbar^3 + zbar",  # co-analytic
        "z^3 + z^6",  # gapped: bandwidth 3 of the doubled 12
        "(0.3-0.4j)*z^4",  # monomial: A*A is diagonal
        "z^2 + 0.5*zbar^3 - 0.25",
    ],
)
@pytest.mark.parametrize("n", [2, 4, 5, 64, 300])
def test_truncation_norm_stores_only_the_true_band(text, n):
    # the trimmed band must give the doubled band's norm bit for bit; at
    # n = 2, 4 and 5 some exponents have |k| >= N and drop out
    phi = LaurentPoly.from_text(text)
    assert cc.truncation_norm(phi, n) == norm_on_doubled_band(phi, n)


def test_truncation_norm_band_keeps_the_sparse_product_bits(monkeypatch):
    # the band summed from coefficient pairs equals, bit for bit, the one a
    # sparse A*A gives, whatever order the symbol's terms were inserted in
    import scipy.sparse

    bands = []
    monkeypatch.setattr(cc, "band_max_eig", lambda band, guess=math.nan: bands.append(band) or 1.0)
    rng = rng_for(29)
    for _ in range(200):
        terms = list(random_symbol(rng, int(rng.integers(1, 8))).terms())
        rng.shuffle(terms)
        phi = LaurentPoly(1, dict(terms))
        n = int(rng.choice([1, 3, 8, 64, 1024]))
        bands.clear()
        cc.truncation_norm(phi, n)
        if not bands:
            continue
        a = scipy.sparse.csc_matrix(cc.toeplitz_matrix(phi, n))
        b = (a.getH() @ a).tocsc()
        (band,) = bands
        u = band.shape[0] - 1
        want = np.zeros_like(band)
        for d in range(u + 1):
            want[u - d, d:] = b.diagonal(d)
        assert np.array_equal(band.view(np.uint64), want.view(np.uint64))


def test_truncation_norm_constant():
    assert cc.truncation_norm(LaurentPoly.constant(3.0 - 4.0j), 300) == 5.0


def test_truncation_requires_room_for_correction():
    x = T_Z + rank_one(4, 4)
    with pytest.raises(PreconditionError):
        cc.truncation(x, 3)


def test_cross_section_scalar_shift():
    rep = cc.cross_section_isometry(Z, [64, 128, 256, 512, 1024])
    assert rep.monotone and rep.gap <= 1e-3
    assert all(abs(v - 1.0) <= 1e-12 for v in rep.lower_bounds)
    assert abs(rep.sup_estimate - 1.0) <= 1e-12


def test_cross_section_cosine_converges():
    rep = cc.cross_section_isometry(Z + ZBAR, truncations=[64, 128, 256, 512, 1024])
    for n, lo in zip(rep.truncations, rep.lower_bounds):
        assert abs(lo - 2.0 * math.cos(math.pi / (n + 1))) <= 1e-10
    assert rep.monotone and rep.gap <= 1e-3
    assert abs(rep.lower_bounds[-1] - 2.0) <= 1e-3


def test_cross_section_block_diagonal():
    zero = LaurentPoly.zero(1)
    rep = cc.cross_section_isometry([[Z, zero], [zero, ZBAR]], truncations=[64, 128])
    assert rep.level == 2
    assert abs(rep.lower_bounds[-1] - 1.0) <= 1e-8
    assert abs(rep.sup_estimate - 1.0) <= 1e-8
    assert rep.monotone and rep.gap <= 1e-3


@pytest.mark.parametrize("k", [2, 3])
def test_block_truncation_norm_matches_the_dense_svd(k):
    # the top eigenvalue of the banded Hermitian dilation against op_norm of
    # the dense kN x kN block matrix, within 8 (kd + 1) eps times the band's
    # 1-norm; some entries are zero, some keep exponents past N
    rng = rng_for(60 + k)
    eps = np.finfo(float).eps
    for _ in range(12):
        n = int(rng.choice([1, 3, 8, 64]))
        block = [
            [
                random_symbol(rng, int(rng.integers(0, 4))) if rng.random() < 0.8 else ZERO
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        dense = np.block([[cc.toeplitz_matrix(p, n) for p in row] for row in block])
        w = min(max(p.band() for row in block for p in row), n - 1)
        kd = 2 * k * (w + 1) - 1
        norm1 = max(np.abs(dense).sum(axis=0).max(), np.abs(dense).sum(axis=1).max())
        got = cc._block_truncation_norm(block, n)
        assert abs(got - op_norm(dense)) <= 8 * (kd + 1) * eps * norm1


@pytest.mark.parametrize("cap", [100, 128])
def test_cross_section_check_keeps_the_block_within_the_cap(monkeypatch, cap):
    # the 2x2 block runs at the first truncations of the scalar run, never
    # past cross_section_truncation, so block_lower is read at a listed size
    real = cc.cross_section_isometry
    calls = []

    def spy(block, truncations):
        calls.append(list(truncations))
        return real(block, truncations)

    monkeypatch.setattr(cc, "cross_section_isometry", spy)
    params = dict(checks.DEFAULT_PARAMS, cross_section_truncation=cap)
    rec = checks.run_check("cross_section", params, 1)
    scalar, block = calls
    assert scalar == rec.residuals["truncations"]
    assert max(block) <= cap
    assert block[-1] in scalar


def test_cross_section_inconclusive_on_tight_budget():
    # 2 cos(pi / 9) = 1.879 at N = 8 leaves a gap of 0.12 to the sup
    rep = cc.cross_section_isometry(Z + ZBAR, truncations=[4, 8])
    assert rep.monotone and rep.gap >= 0.12


def test_cross_section_rejects_ragged_block():
    with pytest.raises(PreconditionError):
        cc.cross_section_isometry([[Z], [Z, Z]], [8])


def test_cross_section_rejects_two_variable_symbols():
    z1 = LaurentPoly.variable(0, 2)
    zero = LaurentPoly.zero(2)
    for block in ([[z1]], [[z1, zero], [zero, z1]]):
        with pytest.raises(PreconditionError, match="one-variable"):
            cc.cross_section_isometry(block, truncations=[8])
    with pytest.raises(PreconditionError, match="one-variable"):
        cc.truncation_norm(z1, 300)


def test_commutant_check_fails_on_an_inflated_truncation_norm(monkeypatch):
    # a top eigenvalue of A*A 1e-6 too large pushes the compression norm
    # above the symbol's sup where the two met: symbol 4 of seed 7 is a
    # monomial, whose compressions attain the sup exactly
    params = dict(checks.DEFAULT_PARAMS, commutant_symbols=5)
    honest = checks.run_check("commutant_lifting", params, 7)
    assert honest.verdict and honest.residuals["bracket_contained"]
    inflated = cc.band_max_eig
    monkeypatch.setattr(cc, "band_max_eig", lambda ab, guess=math.nan: inflated(ab, guess) + 1e-6)
    rec = checks.run_check("commutant_lifting", params, 7)
    assert not rec.verdict
    assert rec.residuals["bracket_contained"] is False


# ---------------------------------------------------------------------------
# exact sequence bookkeeping


def test_exact_sequence_report():
    # T_z T_zbar = I - P_0: symbol 1, a rank-one correction in the kernel of
    # the symbol map, which is multiplicative and a *-map on this pair
    p = cc.mul(T_Z, T_ZBAR)
    prod_sym = cc.symbol_map(T_Z) * cc.symbol_map(T_ZBAR)
    assert prod_sym == ONE
    assert cc.symbol_diff_max(cc.symbol_map(p), prod_sym) == 0.0
    assert cc.symbol_diff_max(cc.symbol_map(cc.adjoint(T_Z)), cc.symbol_map(T_Z).conjugate()) == 0.0
    assert int(np.linalg.matrix_rank(p.corr_array)) == 1
    assert (p - cc.make_toeplitz(prod_sym)).symbol.is_zero()
