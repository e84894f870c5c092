import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sphiso import checks, record
from sphiso.errors import OnCurveError, PreconditionError
from sphiso.symbols import (
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
    """The earlier LaurentPoly.eval_at: each term starts from a filled array."""
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for e, c in phi.terms():
        term = np.full(pts.shape[:-1], c, dtype=complex)
        for j, k in enumerate(e):
            if k:
                term = term * pts[..., j] ** k
        out += term
    return out


def test_eval_at_scalar_coefficient_keeps_the_bits():
    # starting a term from the scalar coefficient gives the filled array's
    # bits, at sizes on both sides of numpy's temporary reuse (256 KiB)
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


def test_hull_distance_bound_brackets_the_distance():
    # the exact distance to a convex polygon: 0 inside, else the distance to
    # its boundary; distance_bound never falls below it, outside_distance never
    # rises above it
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
    upper = h.distance_bound(q)
    assert np.all(upper >= exact - 1e-15)
    assert np.all(h.outside_distance(q) <= exact + 1e-15)
    assert np.all(upper[inside] == 0.0)
    # point and segment hulls are exact both ways
    for small in ([2.0 + 1j], [0.0, 1.0, 0.5]):
        hs = conv_hull(small)
        assert np.array_equal(hs.distance_bound(q), hs.outside_distance(q))


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


def test_from_text_arity_checks():
    with pytest.raises(PreconditionError):
        LaurentPoly.from_text("z1*z2", nvars=1)
    assert LaurentPoly.from_text("3.0", nvars=2).nvars == 2


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
