import numpy as np
import pytest

from sphiso import hardy_measures as hm
from sphiso.errors import PreconditionError
from sphiso.linalg import op_norm
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)
COSINE = hm.CircleMeasure({0: 1.0, 1: 0.4})


def random_complex(rng, shape):
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


class TestCMatrix:
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
