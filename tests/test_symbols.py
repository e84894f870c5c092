import math
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sphiso import checks, record, spectra
from sphiso import symbols as sy
from sphiso.errors import OnCurveError, PreconditionError
from sphiso.symbols import (
    _MEMO_BYTES,
    _TABLE_POINTS,
    Curve,
    LaurentPoly,
    _unit_powers,
    conv_hull,
    eval_grid,
    parse_terms,
    sup_norm,
    winding,
)

Z = LaurentPoly.variable(0, 1)
ZBAR = Z.conjugate()


def sym_close(a, b, tol=0.0):
    ca, cb = a.coeffs, b.coeffs
    return all(abs(ca.get(e, 0j) - cb.get(e, 0j)) <= tol for e in set(ca) | set(cb))


# ---------------------------------------------------------------------------
# algebra


def test_zero_and_constant():
    assert LaurentPoly.zero(1).is_zero()
    assert LaurentPoly.constant(0.0).is_zero()
    assert LaurentPoly.constant(2.0).coeff(0) == 2.0
    assert (Z - Z).is_zero()


def test_degrees_and_band():
    p = LaurentPoly.from_text("z^3 + 2*zbar^2 + 1")
    assert p.deg_pos() == 3
    assert p.deg_neg() == 2
    assert p.band() == 3
    assert not p.is_analytic()
    assert (Z ** 4).is_analytic()


def test_norm_bounds():
    p = LaurentPoly.from_text("2*z - 3*zbar^2")
    assert p.l1_norm() == 5.0
    assert p.derivative_l1_bound() == 8.0
    assert p.second_derivative_l1_bound() == 14.0


def test_mul_commutative_exactly():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = random_poly(rng)
        b = random_poly(rng)
        assert a * b == b * a  # complex products commute entrywise in IEEE


def test_mul_associative():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert sym_close((a * b) * c, a * (b * c), tol=1e-12)


def test_mul_oracle():
    got = LaurentPoly.from_text("1 + z") * LaurentPoly.from_text("1 + zbar")
    assert got == LaurentPoly.from_text("2 + z + zbar")


def convolution(a, b):
    """The product oracle: each pair of terms in insertion order, exponents
    added, each coefficient summed from 0j, then -0.0 parts cleaned and
    zeros dropped, as a constructed symbol keeps them."""
    out = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0j) + c1 * c2
    kept = {}
    for e, c in out.items():
        c = complex(c.real + 0.0, c.imag + 0.0)
        if c != 0:
            kept[e] = c
    return kept


def bits(terms):
    """Keys in order with the exact bits of both parts (-0.0 is not 0.0)."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in terms]


def random_terms(rng, nvars, count):
    return {
        tuple(int(k) for k in rng.integers(-3, 4, nvars)): complex(*rng.uniform(-1, 1, 2))
        for _ in range(count)
    }


@pytest.mark.parametrize("nvars", [1, 2])
def test_mul_is_the_dict_convolution_bit_for_bit(nvars):
    rng = np.random.default_rng(53 + nvars)
    for _ in range(40):
        a = LaurentPoly(nvars, random_terms(rng, nvars, int(rng.integers(1, 7))))
        b = LaurentPoly(nvars, random_terms(rng, nvars, int(rng.integers(1, 7))))
        assert bits((a * b).terms()) == bits(convolution(a, b).items())


def test_mul_cancels_to_an_exact_zero_and_cleans_negative_zero():
    # (1 + z)(1 - z): the z terms cancel exactly and drop out
    got = LaurentPoly.from_text("1 + z") * LaurentPoly.from_text("1 - z")
    assert bits(got.terms()) == [
        ((0,), "0x1.0000000000000p+0", "0x0.0p+0"),
        ((2,), "-0x1.0000000000000p+0", "0x0.0p+0"),
    ]
    # -1 * 1j has the real part -1 * 0 - 0 * 1 = -0.0, which the sum from 0j
    # turns to 0.0; in two variables x*y cancels against -(x*y)
    a, b = LaurentPoly(1, {1: -1.0}), LaurentPoly(1, {2: 1j, 0: -0.5})
    assert (-1.0 * 1j).real.hex() == "-0x0.0p+0"
    assert bits((a * b).terms()) == bits(convolution(a, b).items())
    assert (a * b).coeff(3).real.hex() == "0x0.0p+0"
    x, y = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
    pair = (x + y) * (x - y)
    assert bits(pair.terms()) == bits(convolution(x + y, x - y).items())
    assert set(pair.coeffs) == {(2, 0), (0, 2)}


@pytest.mark.parametrize("nvars", [1, 2])
def test_mul_overflow_raises(nvars):
    # finite factors whose product overflows to inf, or to nan through inf - inf
    big = LaurentPoly.monomial((1,) * nvars, 1e200)
    with pytest.raises(PreconditionError, match="finite"):
        big * big
    mixed = LaurentPoly(nvars, {(1,) * nvars: 1e200, (0,) * nvars: -1e200})
    with pytest.raises(PreconditionError, match="finite"):
        mixed * LaurentPoly(nvars, {(1,) * nvars: 1e200, (2,) * nvars: 1e200})


def test_conjugate_eval():
    rng = np.random.default_rng(47)
    ring = np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    for _ in range(10):
        p = random_poly(rng)
        d = np.abs(p.conjugate().eval_at(ring) - np.conj(p.eval_at(ring)))
        assert np.max(d) <= 1e-12 * (1.0 + p.l1_norm())


def test_pow():
    assert Z ** 0 == LaurentPoly.constant(1.0)
    assert Z ** 3 == LaurentPoly.monomial(3)
    with pytest.raises(PreconditionError):
        Z ** -1


def random_poly(rng, max_degree=4):
    n = int(rng.integers(1, 5))
    coeffs = {}
    for _ in range(n):
        e = int(rng.integers(-max_degree, max_degree + 1))
        coeffs[(e,)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LaurentPoly(1, coeffs)


# ---------------------------------------------------------------------------
# grids and winding


def test_eval_grid_fourth_roots():
    # smallest legal grid for z is 8; the fourth roots sit at alternate samples
    s = eval_grid(Z, 8)
    assert np.allclose(s[::2], [1.0, 1j, -1.0, -1j], atol=1e-15)


def test_eval_grid_constant():
    s = eval_grid(LaurentPoly.constant(2.5 - 1j), 8)
    assert np.all(s == 2.5 - 1j)


def test_eval_grid_cosine_extremes():
    s = eval_grid(Z + ZBAR, 360)
    assert np.max(np.abs(s.imag)) <= 1e-12
    assert abs(np.max(s.real) - 2.0) <= 1e-3
    assert abs(np.min(s.real) + 2.0) <= 1e-3


def test_eval_grid_too_coarse():
    with pytest.raises(PreconditionError):
        eval_grid(Z ** 3, 8)  # needs 4*(1+3)


def test_eval_grid_returns_read_only_samples():
    s = eval_grid(Z + 0.5 * ZBAR, 16)
    assert isinstance(s, np.ndarray) and s.shape == (16,)
    with pytest.raises(ValueError):
        s[0] = 0.0


def filled_eval(phi, pts):
    """The earlier LaurentPoly.eval_at: each term starts from a filled array
    and multiplies it by each power, term first at every array size (an
    explicit ufunc call, which numpy never reorders)."""
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for e, c in phi.terms():
        term = np.full(pts.shape[:-1], c, dtype=complex)
        for j, k in enumerate(e):
            if k:
                term = np.multiply(term, pts[..., j] ** k)
        out += term
    return out


def test_eval_at_scalar_coefficient_keeps_the_bits():
    # starting a term from the scalar coefficient gives the filled array's
    # bits, at sizes on both sides of 256 KiB, where numpy starts to reuse a
    # temporary operand: eval_at keeps the order term * power there too
    symbols = checks._suite_symbols(dict(checks.DEFAULT_PARAMS), 20260815)
    assert len(symbols) == 20
    for g in (512, 2048, 65536):
        ring = np.exp(1j * (2.0 * np.pi * np.arange(g) / g))
        for phi in symbols:
            assert phi.eval_at(ring).tobytes() == filled_eval(phi, ring[:, None]).tobytes()
    two = LaurentPoly.from_text("(0.3-0.7j)*z1^2*zbar2 + 1.5*z2^3 - (0.25+0.5j)*zbar1 + 0.125")
    for g in (64, 512):
        ring = np.exp(1j * (2.0 * np.pi * np.arange(g) / g))
        mesh = np.meshgrid(ring, ring, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        assert two.eval_at(pts).tobytes() == filled_eval(two, pts).tobytes()


finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, allow_subnormal=False, max_magnitude=1e6
)


@st.composite
def symbol_and_grid(draw):
    """A one-variable symbol and a legal grid: any size up to the table cut,
    the smallest one, or one just above the cut."""
    phi = LaurentPoly(1, draw(st.dictionaries(st.integers(-12, 12), finite_complex, max_size=7)))
    need = 4 * (1 + phi.band())
    g = draw(
        st.one_of(
            st.integers(need, _TABLE_POINTS),
            st.just(need),
            st.just(_TABLE_POINTS),
            st.integers(_TABLE_POINTS + 1, _TABLE_POINTS + 64),
        )
    )
    return phi, g


@settings(max_examples=300, deadline=None)
@given(symbol_and_grid())
@example((LaurentPoly.constant(2.5 - 1j), 4))
@example((LaurentPoly.constant(-0.0 + 3j), _TABLE_POINTS))
@example((LaurentPoly.monomial(-7, 1.5j), 32))
@example((LaurentPoly.monomial(12, 0.1 - 0.3j), _TABLE_POINTS))
@example((LaurentPoly.monomial(-1, 2.0), _TABLE_POINTS + 1))
@example((LaurentPoly(1, {0: 0.5, -3: 1 - 2j, 5: 0.25j, -12: 1e-6}), 1000))
@example((LaurentPoly.zero(), 4))
@example((LaurentPoly(1, {0: 0.5, -3: 1 - 2j, 5: 0.25j, 7: 0.3 + 0.7j}), 16384))
def test_eval_grid_tables_keep_the_bits(case):
    # the cached unit-root powers give eval_at's samples bit for bit, below
    # and above the cut where eval_grid stops using them; at 16,384 points
    # numpy reorders eval_at's products and a table would not keep its bits
    phi, g = case
    ring = np.exp(1j * (2.0 * np.pi * np.arange(g) / g))
    samples = eval_grid(phi, g)
    assert samples.shape == (g,) and not samples.flags.writeable
    assert np.array_equal(samples.view(np.uint64), phi.eval_at(ring).view(np.uint64))


def test_eval_grid_tables_only_for_full_one_variable_grids_to_the_cut():
    phi = Z**3 + (0.25 - 0.5j) * ZBAR**2 + 0.5
    _unit_powers.cache_clear()
    eval_grid(phi, _TABLE_POINTS + 1)
    eval_grid(LaurentPoly.from_text("(0.5-1j)*z1*zbar2 + 0.5"), 16)
    assert _unit_powers.cache_info().currsize == 0
    samples = eval_grid(phi, _TABLE_POINTS)
    # one table per nonzero exponent; the constant term needs none
    assert _unit_powers.cache_info().currsize == 2
    for k in (3, -2):
        table = _unit_powers(_TABLE_POINTS, k)
        assert not np.shares_memory(samples, table)
    assert _unit_powers.cache_info().hits == 2


def test_unit_power_tables_are_read_only_and_bounded():
    table = _unit_powers(64, 5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert _unit_powers(_TABLE_POINTS, 1).nbytes == _TABLE_POINTS * 16
    assert _unit_powers.cache_info().maxsize * _TABLE_POINTS * 16 <= 2 * 1024**2


def test_no_table_is_built_at_import(child_env):
    code = "import sphiso.symbols as s; print(s._unit_powers.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


# one symbol's coefficients, and the same in reversed order: an equal symbol
# whose samples sum the terms in another order, so round apart
ORDERED = {-3: 1 - 2j, 0: 0.5, 5: 0.25j, 7: 0.3 + 0.7j}
REVERSED = dict(reversed(list(ORDERED.items())))


def winding_or_on_curve(phi, lam, grid_size):
    try:
        return winding(phi, lam, grid_size)
    except OnCurveError:
        return "ON_CURVE"


def test_memoized_samples_are_those_of_a_fresh_symbol():
    phi = LaurentPoly(1, ORDERED)
    for g in (40, 512, 1000, _TABLE_POINTS):
        first = eval_grid(phi, g)
        assert eval_grid(phi, g) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        fresh = eval_grid(LaurentPoly(1, ORDERED), g)
        assert fresh is not first
        assert np.array_equal(fresh.view(np.uint64), first.view(np.uint64))
    # the answers of repeated queries are those on a fresh symbol too
    for lam in (4.0, 0.1 + 0.2j, 1.2 - 2.1j):
        for call in (
            lambda p: sup_norm(p, 512),
            lambda p: winding_or_on_curve(p, lam, 512),
            lambda p: winding_or_on_curve(p, lam, _TABLE_POINTS),
            lambda p: spectra.spectrum_membership(p, lam),
            lambda p: spectra.membership_batch(p, [lam, 3.0, -0.4j]).tolist(),
        ):
            assert call(phi) == call(phi) == call(LaurentPoly(1, ORDERED))


def test_memo_keeps_each_coefficient_order_its_own_bits():
    phi, psi = LaurentPoly(1, ORDERED), LaurentPoly(1, REVERSED)
    assert phi == psi and hash(phi) == hash(psi)
    for g in (512, _TABLE_POINTS):
        ring = np.exp(1j * (2.0 * np.pi * np.arange(g) / g))
        a, b = eval_grid(phi, g), eval_grid(psi, g)
        assert np.array_equal(a.view(np.uint64), phi.eval_at(ring).view(np.uint64))
        assert np.array_equal(b.view(np.uint64), psi.eval_at(ring).view(np.uint64))
        assert not np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_memo_holds_small_grids_within_its_bound():
    phi = LaurentPoly(1, ORDERED)
    big = eval_grid(phi, _TABLE_POINTS + 1)
    assert eval_grid(phi, _TABLE_POINTS + 1) is not big
    assert "grids" not in phi._memo
    eval_grid(phi, 512)
    eval_grid(phi, _TABLE_POINTS)
    assert list(phi._memo["grids"]) == [512, _TABLE_POINTS]
    assert 16 * (512 + _TABLE_POINTS) == _MEMO_BYTES == 40 * 1024
    # a third grid drops the oldest until the samples fit in 40 KiB again
    eval_grid(phi, 256)
    assert list(phi._memo["grids"]) == [_TABLE_POINTS, 256]
    eval_grid(phi, 1024)
    assert list(phi._memo["grids"]) == [256, 1024]
    # two-variable symbols memoize no samples
    two = LaurentPoly.from_text("(0.5-1j)*z1*zbar2 + 0.5")
    assert eval_grid(two, 16) is not eval_grid(two, 16)


def test_memo_leaves_equality_hash_and_pickles_alone():
    phi = LaurentPoly(1, ORDERED)
    fresh = LaurentPoly(1, ORDERED)
    plain = pickle.dumps(fresh)
    eval_grid(phi, 512)
    sup_norm(phi, _TABLE_POINTS)
    Curve(phi, 512).tol
    assert phi._memo
    assert phi == fresh and hash(phi) == hash(fresh)
    assert pickle.dumps(phi) == plain
    back = pickle.loads(pickle.dumps(phi))
    assert back == phi and list(back.terms()) == list(phi.terms())
    assert back._memo == {}
    samples = eval_grid(back, 512)
    assert np.array_equal(samples.view(np.uint64), eval_grid(phi, 512).view(np.uint64))
    assert back.l1_norm() == phi.l1_norm() and back.band() == phi.band()


def test_memoized_scalars_match_their_sums():
    phi = LaurentPoly(1, ORDERED)
    terms = ORDERED.items()
    for _ in range(2):
        assert phi.band() == 7
        assert phi.l1_norm() == float(sum(abs(c) for c in ORDERED.values()))
        assert phi.derivative_l1_bound() == float(sum(abs(k) * abs(c) for k, c in terms))
        assert phi.second_derivative_l1_bound() == float(sum(k * k * abs(c) for k, c in terms))
    two = LaurentPoly.from_text("z1*zbar2^3")
    assert two.band() == 3
    for _ in range(2):
        with pytest.raises(PreconditionError):
            two.derivative_l1_bound()


def test_a_query_burst_samples_each_grid_once(monkeypatch):
    # one burst shaped like a symbol-queries block: a sup bracket and three
    # windings on the 512-point grid, three memberships and a batch on the
    # 2048-point one. Each grid is summed from the tables once, and the
    # scalar bounds once
    calls = []
    powers = sy._unit_powers
    monkeypatch.setattr(sy, "_unit_powers", lambda g, k: calls.append(g) or powers(g, k))
    sums = []
    memoized = LaurentPoly._memoized
    monkeypatch.setattr(
        LaurentPoly, "_memoized", lambda self, key, compute: memoized(
            self, key, lambda: sums.append(key) or compute()
        )
    )
    phi = LaurentPoly(1, ORDERED)
    lams = [4.0 + 0j, 0.1 + 0.2j, -0.3 + 0.1j]
    sup_norm(phi, 512)
    for lam in lams:
        winding_or_on_curve(phi, lam, 512)
    for lam in lams:
        spectra.spectrum_membership(phi, lam, 2048)
    spectra.membership_batch(phi, lams * 4, 2048)
    # one table per nonzero exponent of ORDERED, per grid
    assert calls == [512] * 3 + [2048] * 3
    assert sorted(sums) == sorted(["band", "grids", "l1", "d1", "d2"])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_laurent_poly_rejects_non_finite(bad):
    with pytest.raises(PreconditionError, match="finite"):
        LaurentPoly(1, {-1: bad})
    with pytest.raises(PreconditionError, match="finite"):
        Z * bad


def test_laurent_poly_rejects_overflow():
    with pytest.raises(PreconditionError, match="finite"):
        LaurentPoly.from_text("1e400*z")
    with pytest.raises(PreconditionError, match="finite"):
        Z * 1e308 + Z * 1e308


def test_winding_oracles():
    assert winding(Z, 0.0) == 1
    assert winding(Z, 2.0) == 0
    assert winding(Z ** 2, 0.0) == 2
    assert winding(ZBAR, 0.0) == -1
    assert winding(Z + ZBAR, 1j) == 0


def test_winding_on_curve():
    with pytest.raises(OnCurveError) as exc:
        winding(Z, 1.0)
    assert exc.value.distance <= exc.value.tolerance


def test_winding_additive_under_products():
    cases = [
        (Z + 0.2, Z ** 2 + 3.0),
        (ZBAR + 0.1, Z + 0.2),
        (Z ** 2 + 0.5j, ZBAR ** 3 + 4.0),
    ]
    for a, b in cases:
        assert winding(a * b, 0.0) == winding(a, 0.0) + winding(b, 0.0)


def test_curve_tolerance_scales_with_grid():
    # tol is 10 * spacing * (l1 bound on phi'), sag spacing^2 * (l1 bound on
    # phi'') / 8: halving the spacing halves the one and quarters the other
    for phi, g in ((Z, 512), (Z**2 + 0.5 * ZBAR, 2048)):
        curve, finer = Curve(phi, g), Curve(phi, 2 * g)
        assert finer.tol == curve.tol / 2.0
        assert curve.tol == 10.0 * (2.0 * np.pi / g) * phi.derivative_l1_bound()
        assert finer.sag == curve.sag / 4.0
        assert curve.sag == (2.0 * np.pi / g) ** 2 * phi.second_derivative_l1_bound() / 8.0
    with pytest.raises(PreconditionError):
        Curve(LaurentPoly.from_text("z1*zbar2"), 16)


def test_curve_refine_sizes_notes_and_samples_lazily():
    phi = Z**3 + 0.5 * ZBAR
    curve = Curve(phi, 512)
    with record.collect() as (notes, _):
        # a loose target: the floor wins
        floor = curve.refine(1e-3, 4096, 1, 65536, "fine")
        # the least multiple of the step whose sag is below the target
        stepped = curve.refine(2e-9, 512, 512, 300_000, "refined")
        # past the cap: the largest multiple of the step within it
        clamped = curve.refine(2e-9, 512, 512, 30_000, "sup_grid")
    assert floor.size == 4096 and floor.sag < 1e-3
    assert stepped.size % 512 == 0 and stepped.sag < 2e-9
    assert Curve(phi, stepped.size - 512).sag >= 2e-9
    assert clamped.size == 512 * (30_000 // 512) and clamped.sag > 2e-9
    assert notes == {
        "fine_size": [4096],
        "fine_clamped": [False],
        "refined_size": [stepped.size],
        "refined_clamped": [False],
        "sup_grid_size": [clamped.size],
        "sup_grid_clamped": [True],
    }
    # no curve is sampled until its samples are read, and then only once
    assert all("samples" not in vars(c) for c in (curve, floor, stepped, clamped))
    assert stepped.phi is phi and stepped.samples is stepped.samples
    assert np.array_equal(stepped.samples, eval_grid(phi, stepped.size))


def test_curve_refine_clamps_a_need_too_large_for_an_integer():
    # the sag target needs about 5e79 points: the cap clamps the need
    # before it is rounded up
    with record.collect() as (notes, _):
        clamped = Curve(1e150 * Z, 512).refine(2e-9, 512, 512, 300_000, "x")
    assert clamped.size == 299_520
    assert notes == {"x_size": [299_520], "x_clamped": [True]}


# ---------------------------------------------------------------------------
# sup norms


def test_sup_norm_shift():
    lo, up = sup_norm(Z)
    assert abs(lo - 1.0) <= 1e-12
    assert up == 1.0


def test_sup_norm_cosine():
    lo, up = sup_norm(Z + ZBAR, grid_size=720)
    assert abs(lo - 2.0) <= 1e-4
    assert up == 2.0


def test_sup_norm_brackets_a_large_symbol():
    # the grid max rounds past the l1 sum by far more than 1e-12 in absolute
    # terms; relative to the norm it stays within rounding
    phi = LaurentPoly.from_text("1e20*z + 0.3*zbar^2")
    lo, up = sup_norm(phi)
    assert lo <= up == phi.l1_norm()
    assert lo >= up * (1.0 - 1e-12)


def test_sup_norm_analytic_cubic():
    lo, up = sup_norm(LaurentPoly.from_text("1 + z + z^2"), grid_size=720)
    assert abs(lo - 3.0) <= 1e-3
    assert up == 3.0


# ---------------------------------------------------------------------------
# convex hulls


def test_hull_square():
    h = conv_hull([1.0, 1j, -1.0, -1j])
    assert h.kind == "polygon"
    assert sorted(h.vertices.tolist(), key=lambda v: (v.real, v.imag)) == [
        (-1 + 0j),
        -1j,
        1j,
        (1 + 0j),
    ]
    got = h.membership_batch([0.0, 0.49 + 0.49j, 1.0 + 1.0j], 1e-12)
    assert got.tolist() == [True, True, False]


def test_hull_point_and_segment():
    p = conv_hull([2.0 + 1j])
    assert p.kind == "point" and p.outside_distance(2.0 + 1j)[0] == 0.0
    s = conv_hull([0.0, 1.0, 0.5])  # collinear
    assert s.kind == "segment"
    assert s.outside_distance(0.25)[0] <= 1e-12
    assert abs(s.outside_distance(0.5 + 1j)[0] - 1.0) <= 1e-14
    with pytest.raises(PreconditionError):
        conv_hull([])


def lp_in_hull(points, lam):
    """Exact membership: feasibility of a convex combination."""
    a_eq = np.vstack([points.real, points.imag, np.ones(points.size)])
    res = linprog(
        np.zeros(points.size),
        A_eq=a_eq,
        b_eq=[lam.real, lam.imag, 1.0],
        bounds=[(0, None)] * points.size,
        method="highs",
    )
    return res.status == 0


def test_hull_membership_against_lp():
    rng = np.random.default_rng(53)
    pts = rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)
    h = conv_hull(pts)
    queries = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
    for q, got in zip(queries, h.membership_batch(queries, 1e-9)):
        want = lp_in_hull(pts, q)
        if got != want:
            # only a genuinely borderline point may disagree
            assert h.outside_distance(q)[0] <= 1e-7
        else:
            assert got == want


def test_hull_membership_one_sided_safety():
    # points on the boundary itself are never rejected
    h = conv_hull([1.0, 1j, -1.0, -1j])
    t = np.linspace(0.0, 1.0, 11)
    assert h.membership_batch((1 - t) * 1.0 + t * 1j, 1e-9).all()


def test_hull_outside_distance_bounds_the_distance():
    # the exact distance to a convex polygon: 0 inside, else the distance to
    # its boundary; outside_distance never rises above it
    rng = np.random.default_rng(61)
    pts = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    h = conv_hull(pts)
    v = h.vertices
    e = np.roll(v, -1) - v
    q = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    rel = (np.conj(e)[None, :] * (q[:, None] - v[None, :])).imag
    inside = (rel >= 0).all(axis=1)
    t = np.clip(((q[:, None] - v) * np.conj(e)).real / np.abs(e) ** 2, 0.0, 1.0)
    boundary = np.abs(q[:, None] - (v + t * e)).min(axis=1)
    exact = np.where(inside, 0.0, boundary)
    assert inside.any() and (~inside).any()
    assert np.all(h.outside_distance(q) <= exact + 1e-15)
    assert np.all(h.outside_distance(q)[inside] == 0.0)
    # point and segment hulls are exact
    assert np.array_equal(conv_hull([2.0 + 1j]).outside_distance(q), np.abs(q - (2.0 + 1j)))
    nearest = np.clip(q.real, 0.0, 1.0)
    assert np.array_equal(conv_hull([0.0, 1.0, 0.5]).outside_distance(q), np.abs(q - nearest))


def brute_hull(points):
    """The hull's vertex set by definition: the distinct points that are no
    convex combination of two others, found by testing every pair's
    supporting line."""
    pts = np.unique(np.asarray(points, dtype=complex)).tolist()
    if len(pts) <= 2:
        return set(pts)
    keep = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            # Python floats: the side of b itself is exactly 0
            dx, dy = b.real - a.real, b.imag - a.imag
            side = [dx * (p.imag - a.imag) - dy * (p.real - a.real) for p in pts]
            if min(side) >= 0 or max(side) <= 0:
                # a and b span a supporting line: keep its two extreme points
                on = [p for p, s in zip(pts, side) if s == 0]
                along = sorted(on, key=lambda p: (p.real, p.imag))
                keep.update([along[0], along[-1]])
    return keep


@pytest.mark.parametrize("kind", ["random", "collinear", "duplicated", "lattice"])
def test_conv_hull_matches_the_brute_force_hull(kind):
    rng = np.random.default_rng(23)
    for _ in range(20):
        if kind == "random":
            pts = rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30)
        elif kind == "collinear":
            pts = (1 + 2j) + (0.5 - 1j) * rng.integers(-5, 6, 12)
        elif kind == "duplicated":
            base = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
            pts = base[rng.integers(0, rng.integers(1, 7), 25)]
        else:  # small integer points: many on the hull's edges
            pts = rng.integers(-2, 3, 25) + 1j * rng.integers(-2, 3, 25)
        h = conv_hull(pts)
        v = h.vertices.tolist()
        assert len(v) == len(set(v)) and set(v) == brute_hull(pts)
        if len(v) >= 3:
            # counterclockwise: every turn along the closed chain is strictly left
            a, b, c = np.array(v), np.roll(v, -1), np.roll(v, -2)
            assert (((b - a).conjugate() * (c - b)).imag > 0).all()
        assert h.kind == {1: "point", 2: "segment"}.get(len(v), "polygon")


def test_hull_large_circle_set():
    rng = np.random.default_rng(59)
    pts = np.exp(2j * np.pi * rng.uniform(0, 1, 60001))
    h = conv_hull(pts)
    assert h.kind == "polygon"
    assert np.max(np.abs(np.abs(h.vertices) - 1.0)) <= 1e-12
    assert h.outside_distance(0.0)[0] == 0.0


# ---------------------------------------------------------------------------
# text format


def test_parse_examples():
    p = LaurentPoly.from_text("2.5*z1^3*zbar2")
    assert p.nvars == 2
    assert p.coeff((3, -1)) == 2.5
    q = LaurentPoly.from_text("(1.5-2j)*z^2")
    assert q.coeff(2) == 1.5 - 2j
    r = LaurentPoly.from_text("z - z")
    assert r.is_zero()


def test_parse_terms_keeps_sides_apart():
    (t,) = parse_terms("z1*zbar1")
    assert t.zpow == (1,) and t.zbarpow == (1,)


def test_parse_errors():
    for bad in ("", "z0", "2*", "z^", "z^x", "(1+2j", "@", "+"):
        with pytest.raises(PreconditionError):
            LaurentPoly.from_text(bad)
    # two factors side by side are not a sum
    for bad, at in (("2z", 1), ("2 z", 2), ("z z", 2), ("z1z2", 2), ("z^2 3", 4), ("(1+2j) zbar", 7)):
        with pytest.raises(PreconditionError, match=f"expected '\\*', '\\+' or '-' before position {at}$"):
            parse_terms(bad)
        with pytest.raises(PreconditionError):
            LaurentPoly.from_text(bad)


def test_parse_reads_a_trailing_space_like_a_leading_one():
    for text in (" z", "z ", "z\t", " (1-2j)*zbar^2 - 3 \n"):
        assert parse_terms(text) == parse_terms(text.strip())
        assert LaurentPoly.from_text(text) == LaurentPoly.from_text(text.strip())


def test_from_text_arity_checks():
    with pytest.raises(PreconditionError):
        LaurentPoly.from_text("z1*z2", nvars=1)
    assert LaurentPoly.from_text("3.0", nvars=2).nvars == 2
    # parse_terms widens every term to nvars, or to the arity of the text
    assert [t.zpow for t in parse_terms("z + 2*zbar3^0")] == [(1, 0, 0), (0, 0, 0)]
    assert [t.zbarpow for t in parse_terms("zbar", nvars=3)] == [(1, 0, 0)]
    with pytest.raises(PreconditionError, match="text uses 2 variables, nvars=1 given"):
        parse_terms("z1*z2", nvars=1)


_WS = st.sampled_from(["", "", " ", "  ", "\t"])
_FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def factor_text(draw):
    """(text, coefficient factor or None, variable (bar, index, power) or None)."""
    kind = draw(st.sampled_from(["int", "real", "imag", "paren", "var"]))
    if kind == "int":
        text = str(draw(st.integers(0, 10**6)))
        return text, float(text), None
    if kind == "real":
        text = repr(draw(_FLOATS))
        return text, float(text), None
    if kind == "imag":
        text = repr(draw(_FLOATS)) + draw(st.sampled_from("jJ"))
        return text, complex(text), None
    if kind == "paren":
        c = draw(st.complex_numbers(allow_nan=False, allow_infinity=False))
        return "(" + repr(c).strip("()") + ")", c, None
    bar = draw(st.booleans())
    index = draw(st.integers(0, 3))  # 0 writes the bare z or zbar
    text = ("zbar" if bar else "z") + (str(index) if index else "")
    power = 1
    if draw(st.booleans()):
        power = draw(st.integers(-12, 12))
        neg = "-" if power < 0 else ""
        text += draw(_WS) + "^" + draw(_WS) + neg + draw(_WS) + str(abs(power))
    return text, None, (bar, max(index, 1) - 1, power)


@st.composite
def symbol_text(draw):
    """Text built from the grammar, with the RawTerm fields it must parse to."""
    text, terms = draw(_WS), []
    for k in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=1 if k else 0, max_size=3))
        text += "".join(sg + draw(_WS) for sg in signs)
        coeff = complex(-1.0 if signs.count("-") % 2 else 1.0)
        pows = ({}, {})
        for j in range(draw(st.integers(1, 4))):
            if j:
                text += draw(_WS) + "*" + draw(_WS)
            ftext, value, var = draw(factor_text())
            text += ftext
            if var is None:
                coeff *= value
            else:
                bar, index, power = var
                pows[bar][index] = pows[bar].get(index, 0) + power
        terms.append((complex(coeff.real + 0.0, coeff.imag + 0.0), pows))
        text += draw(_WS)
    arity = 1 + max((i for _, pows in terms for side in pows for i in side), default=0)
    expected = [
        (repr(c), *(tuple(side.get(i, 0) for i in range(arity)) for side in pows))
        for c, pows in terms
    ]
    return text, expected


@settings(max_examples=400, deadline=None)
@given(symbol_text())
def test_parse_terms_follows_the_grammar(case):
    text, expected = case
    got = [(repr(t.coeff), t.zpow, t.zbarpow) for t in parse_terms(text)]
    assert got == expected
    # a '*' turned into a space leaves two factors side by side
    for at in (i for i, ch in enumerate(text) if ch == "*"):
        with pytest.raises(PreconditionError, match="expected '\\*', '\\+' or '-'"):
            parse_terms(text[:at] + " " + text[at + 1 :])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-8, 8), finite_complex, max_size=6))
def test_text_round_trip(coeffs):
    p = LaurentPoly(1, coeffs)
    assert LaurentPoly.from_text(p.to_text(), nvars=1) == p


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), finite_complex, max_size=5
    )
)
def test_text_round_trip_two_vars(coeffs):
    p = LaurentPoly(2, coeffs)
    assert LaurentPoly.from_text(p.to_text(), nvars=2) == p
