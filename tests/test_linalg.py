import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from sphiso import checks, cli, record
from sphiso import circle_calculus as cc
from sphiso import hardy_measures as hm
from sphiso import linalg
from sphiso import spectra as sp
from sphiso.errors import InvariantError, PreconditionError
from sphiso.linalg import band_max_eig, op_norm, worst
from sphiso.symbols import LaurentPoly, sup_norm

FULL = Path(__file__).resolve().parent.parent / "scenarios" / "full.json"

Z = LaurentPoly.variable(0, 1)
COSINE = hm.CircleMeasure({0: 1.0, 1: 0.4})


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], 0.0),
        ([2.0, 5.0, 1.0], 5.0),
        ([-3.0, -1.0], -1.0),  # the largest value, not 0.0
        (iter([0.5, 0.25]), 0.5),
        (np.array([[1.0, 4.0], [2.0, 3.0]]), 4.0),
        (np.zeros((0, 3)), 0.0),
    ],
)
def test_worst_is_the_largest_value(values, expected):
    assert worst(values) == expected


@pytest.mark.parametrize("at", [0, 1, 2])
def test_worst_keeps_nan_wherever_it_stands(at):
    # max(d, nan) is d: a NaN after the first value vanishes from a max fold
    values = [1.0, 2.0, 3.0]
    values[at] = np.nan
    assert np.isnan(worst(values))
    assert np.isnan(worst(np.array(values)))
    assert np.isnan(worst(v for v in values))


def random_complex(rng, shape):
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


class TestTruncatedToeplitzMatrix:
    """The complex matrices the checks hand to op_norm come from
    truncated_toeplitz: read-only, with every entry finite."""

    def test_rejects_nonfinite(self):
        # finite coefficients whose products overflow past the float range
        for big in (1e308, -1e308, 1e308j):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                PreconditionError, match="non-finite"
            ):
                hm.truncated_toeplitz(LaurentPoly(1, {-1: big, 0: big, 1: big}), COSINE, 8)

    def test_entries_read_only(self):
        x = hm.truncated_toeplitz(Z, COSINE, 8)
        with pytest.raises(ValueError):
            x[0, 0] = 5.0


class TestOpNorm:
    def test_zero_and_identity(self):
        assert op_norm(np.zeros((3, 3))) == 0.0
        assert abs(op_norm(np.eye(5)) - 1.0) <= 1e-14

    def test_unitary(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(random_complex(rng, (6, 6)))
        assert abs(op_norm(q) - 1.0) <= 1e-12

    def test_self_consistency(self):
        # ||A|| = sqrt(max eig A*A), computed through the other code path
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_complex(rng, (7, 5))
            g = a.conj().T @ a
            assert np.max(np.abs(g - g.conj().T)) <= 1e-10
            want = np.sqrt(max(np.linalg.eigvalsh(g)))
            assert abs(op_norm(a) - want) <= 1e-10

    def test_submultiplicative(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            a = random_complex(rng, (5, 6))
            b = random_complex(rng, (6, 4))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10

    def test_adjoint_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = random_complex(rng, (6, 3))
            assert abs(op_norm(a) - op_norm(a.conj().T)) <= 1e-12


def hermitian_band(rng, n, kd):
    """A random Hermitian n x n matrix of half-bandwidth kd, dense."""
    a = np.zeros((n, n), dtype=complex)
    for d in range(min(kd, n - 1) + 1):
        v = random_complex(rng, n - d)
        if d == 0:
            a += np.diag(v.real)
        else:
            a += np.diag(v, d) + np.diag(v.conj(), -d)
    return a


def upper_band(a, kd):
    """LAPACK upper band storage: ab[kd + i - j, j] = a[i, j]."""
    n = a.shape[0]
    ab = np.zeros((kd + 1, n), dtype=complex)
    for d in range(min(kd, n - 1) + 1):
        ab[kd - d, d:] = np.diagonal(a, d)
    return ab


def factors(ab, sigma):
    m = -ab
    m[-1] += sigma
    return lapack.zpbtrf(m, lower=0)[1] == 0


def band_norm1(ab):
    """||A||_1 summed in band_max_eig's order, the stored upper column and
    then the mirrored row per diagonal, so that the brackets share bits."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    mag = np.abs(ab)
    norm1 = mag[kd].copy()
    for d in range(1, min(kd, n - 1) + 1):
        norm1[d:] += mag[kd - d, d:]
        norm1[:-d] += mag[kd - d, d:]
    return float(norm1.max())


def plain_bisection(ab):
    """The oracle: bisection on [-||A||_1, ||A||_1], the upper end widened
    while it does not factor, down to eps * ||A||_1, with every midpoint
    factored; band_max_eig must return the same bits."""
    bound = band_norm1(ab)
    if bound == 0.0:
        return 0.0
    hi = bound
    while not factors(ab, hi):
        hi *= 2.0
    lo = -bound
    while hi - lo > np.finfo(float).eps * bound:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if factors(ab, mid):
            hi = mid
        else:
            lo = mid
    return hi


def gram_band(psi, n):
    """The upper band of A*A, A = T_n(psi), as the truncation norm forms it."""
    bands = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "band_max_eig", lambda band, guess=np.nan: bands.append(band) or 1.0)
        cc.truncation_norm(psi, n)
    return bands[0]


def solve(ab, guess=np.nan):
    """(band_max_eig's value, its noted factorizations)."""
    with record.collect() as (notes, _):
        got = band_max_eig(ab, guess)
    return got, notes["factorizations"][0]


class TestBandMaxEig:
    """Against the dense solver: within 8 (kd + 1) eps ||A||_1, and the value
    returned is a sigma at which sigma*I - A factors. Against the plain
    bisection: the same bits, for every guess. On the random bands a solve
    noted 25.7 factorizations on average without a guess (at most 26
    asserted) and 8.8 from a guess 1e-5 above the top (at most 9)."""

    @staticmethod
    def assert_top(a, kd, made=None, guess=np.nan):
        ab = upper_band(a, kd)
        with record.collect() as (notes, _):
            got = band_max_eig(ab, guess)
        want = np.linalg.eigvalsh(a)[-1]
        tol = 8 * (kd + 1) * np.finfo(float).eps * np.max(np.abs(a).sum(axis=0))
        assert abs(got - want) <= tol
        assert factors(ab, got)
        assert got == plain_bisection(ab)
        (count,) = notes["factorizations"]
        if made is not None:
            made.append(count)
        return got

    def test_random_bands(self):
        rng = np.random.default_rng(29)
        made = []
        for trial in range(120):
            n = int(rng.integers(1, 301))
            kd = int(rng.integers(0, 13))
            a = hermitian_band(rng, n, kd)
            if trial % 3 == 0:
                # negative definite: the whole spectrum below zero
                a -= (np.abs(a).sum(axis=0).max() + 1.0) * np.eye(n)
                assert np.linalg.eigvalsh(a)[-1] < 0.0
            self.assert_top(a, kd, made)
        assert np.mean(made) <= 26

    def test_random_bands_from_a_close_guess(self):
        rng = np.random.default_rng(29)
        made = []
        for trial in range(120):
            n = int(rng.integers(1, 301))
            kd = int(rng.integers(0, 13))
            a = hermitian_band(rng, n, kd)
            if trial % 3 == 0:
                a -= (np.abs(a).sum(axis=0).max() + 1.0) * np.eye(n)
            top = plain_bisection(upper_band(a, kd))
            self.assert_top(a, kd, made, guess=top + 1e-5 * abs(top))
        assert np.mean(made) <= 9

    @staticmethod
    def assert_guesses_keep_the_bits(ab):
        """Guesses around the top, at +-||A||_1 and non-finite ones: the
        plain bisection's bits, and a guess that fails or goes unused costs
        no more factorizations than none."""
        top, bound = plain_bisection(ab), band_norm1(ab)
        _, blind = solve(ab)
        near = [top * (1.0 + s) for c in (1e-12, 1e-5, 1e-2) for s in (c, -c)]
        for guess in [*near, bound, -bound, np.nan, np.inf, -np.inf]:
            got, made = solve(ab, guess)
            assert got == top, guess
            if not np.isfinite(guess) or guess <= -bound:
                assert made == blind, guess
            elif guess < bound and not factors(ab, guess):
                assert made <= blind, guess

    def test_guesses_keep_the_bits_on_random_bands(self):
        rng = np.random.default_rng(37)
        for trial in range(40):
            n = int(rng.integers(1, 201))
            kd = int(rng.integers(0, 9))
            a = hermitian_band(rng, n, kd)
            if trial % 3 == 0:
                a -= (np.abs(a).sum(axis=0).max() + 1.0) * np.eye(n)
            self.assert_guesses_keep_the_bits(upper_band(a, kd))

    def test_clustered_top_from_the_symbol_maximum(self):
        # |z + z^3| peaks at z = 1 and z = -1, so the top eigenvalues of A*A,
        # A = T_1024(z + z^3), come in close pairs: a solve takes at most 30
        # factorizations without a guess (27 measured) and from the sup
        # squared (11 measured)
        ab = gram_band(Z + Z**3, 1024)
        self.assert_guesses_keep_the_bits(ab)
        top = plain_bisection(ab)
        _, blind = solve(ab)
        got, made = solve(ab, sup_norm(Z + Z**3, 16384)[0] ** 2)
        assert got == top and factors(ab, got)
        assert blind <= 30 and made <= 30

    @pytest.mark.parametrize("text", ["2*z^3", "(0.3+0.4j)*z^5", "z^2"])
    def test_diagonal_band_from_a_failed_guess(self, text):
        # A*A of a monomial c z^k is diagonal with top |c|^2 = ||A||_1, so
        # sigma = ||A||_1 does not factor, and the 16,384-point sup squared
        # lands an ulp below the top and fails too: the failed guess bounds
        # the bisection from below
        phi = LaurentPoly.from_text(text)
        ab = gram_band(phi, 1024)
        assert ab.shape[0] == 1
        guess, top = sup_norm(phi, 16384)[0] ** 2, plain_bisection(ab)
        assert guess < top and not factors(ab, guess)
        got, made = solve(ab, guess)
        assert got == top and made <= 16

    def test_band_wider_than_matrix(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5):
            self.assert_top(hermitian_band(rng, n, 12), 12)

    def test_one_by_one_and_scalar_diagonal(self):
        # sigma = ||A||_1 leaves sigma*I - A singular here, so the upper end
        # must widen once; at 1e-300 the bisection stays plain
        for c in (3.0, -2.5, 1e-300):
            assert band_max_eig(np.array([[c]])) >= c
            self.assert_top(np.array([[c]], dtype=complex), 0)
            self.assert_top(c * np.eye(7, dtype=complex), 2)

    def test_zero_matrix(self):
        # the only case returned without a factorization: exactly 0
        with record.collect() as (notes, _):
            assert band_max_eig(np.zeros((1, 1))) == 0.0
            assert band_max_eig(np.zeros((4, 50))) == 0.0
        assert notes == {"factorizations": [0, 0]}

    def test_clustered_top_of_z_plus_zbar(self):
        # T_N(z + zbar) has eigenvalues 2 cos(pi k / (N + 1)); its top ones
        # are 3e-5 apart at N = 1024
        n = 1024
        ab = np.zeros((2, n), dtype=complex)
        ab[0, 1:] = 1.0
        got = band_max_eig(ab)
        want = 2.0 * np.cos(np.pi / (n + 1))
        assert abs(got - want) <= 8 * 2 * np.finfo(float).eps * 2.0
        assert factors(ab, got)
        assert got == plain_bisection(ab)

    def test_rejects_bad_bands(self):
        for bad in (np.zeros((0, 4)), np.zeros((2, 0)), np.zeros(5)):
            with pytest.raises(PreconditionError):
                band_max_eig(bad)
        for v in (np.nan, np.inf):
            ab = np.ones((2, 6), dtype=complex)
            ab[1, 3] = v
            with pytest.raises(PreconditionError, match="finite"):
                band_max_eig(ab)

    def test_raises_when_no_shift_factors(self, monkeypatch):
        monkeypatch.setattr(linalg._flapack, "zpbtrf", lambda ab, lower, overwrite_ab: (ab, 1))
        with pytest.raises(InvariantError, match="did not factor"):
            band_max_eig(np.ones((2, 6), dtype=complex))


def test_full_scenario_guesses_keep_the_records(monkeypatch):
    # a guess only moves where a solve factors: full.json's eigen checks give
    # the same records when band_max_eig drops every guess. With the guesses
    # no solve takes more than 20 factorizations (18 measured) and the three
    # take at most 2,000 (1,878 measured)
    _, seed, _, params = cli.validate_scenario(json.loads(FULL.read_text()))
    ids = ("commutant_lifting", "numerical_range", "cross_section")
    guided = [checks.run_check(cid, params, seed) for cid in ids]
    made = [n for rec in guided for n in rec.decisions["factorizations"]]
    assert max(made) <= 20 and sum(made) <= 2000
    blind = linalg.band_max_eig
    monkeypatch.setattr(cc, "band_max_eig", lambda ab, guess=np.nan: blind(ab))
    monkeypatch.setattr(sp, "band_max_eig", lambda ab, guess=np.nan: blind(ab))
    for cid, rec in zip(ids, guided):
        again = checks.run_check(cid, params, seed)
        assert again.to_json() == rec.to_json()
        assert again.artifacts == rec.artifacts
