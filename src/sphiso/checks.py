"""Named verification checks behind the scenario runner.

Each check exercises one theorem-level claim on seeded random inputs and
returns a record with residual magnitudes, never a bare boolean. Randomness
is split per (seed, stream, trial), each runner drawing from its own fixed
stream numbers, so records are independent of execution order and thread
count; reports built from them serialize to canonical JSON, byte-stable for
a fixed seed. A runner returns (residuals, verdict); the choices its
kernels note and the CSV tables it writes reach the record through
`record.collect`. Residuals are folded by `linalg.worst`;
a record holding a NaN or an infinity fails, and reads it as a string.

`run_checks` runs a suite's checks concurrently on forked worker processes,
one per check up to the CPUs this process may run on. Forked workers inherit
the modules imported so far, any patched kernel and the warm table caches;
a module a check imports lazily is imported afresh in each worker, which is
why no spectra check imports `scipy.spatial` and why the pool imports, before
it forks, the numpy submodules that numpy loads on first use. Each worker
first pins every bundled OpenBLAS it can find to one thread (`_pin_blas`),
so that the workers' BLAS pools do not oversubscribe the CPUs. Checks are
submitted in reverse registry order and come back in registry order, each
with its wall time inside its worker. A run stays in this process when there
is one check or one CPU, when `fork` is not a start method here, or when a
profiler or tracer is set.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from . import circle_calculus as circle
from . import hardy_measures as hardy
from . import polydisc
from . import record
from . import spectra
from . import szego
from .errors import UsageError
from .linalg import _package_dir, worst
from .symbols import LaurentPoly

__all__ = [
    "CheckRecord",
    "RunReport",
    "REGISTRY",
    "SUITES",
    "DEFAULT_PARAMS",
    "suite_check_ids",
    "run_check",
    "run_checks",
    "explain",
    "canonical_json",
    "report_json",
    "random_symbol",
    "random_correction",
    "random_element",
    "spectra_suite_symbols",
]

def canonical_json(obj):
    """Deterministic serialization: sorted keys, tight separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _rng(seed, stream, trial):
    return np.random.default_rng([int(seed), int(stream), int(trial)])


@dataclass
class CheckRecord:
    check_id: str
    tag: str
    inputs_digest: str
    residuals: dict
    verdict: bool
    artifacts: dict = field(default_factory=dict, repr=False, compare=False)
    decisions: dict = field(default_factory=dict, repr=False, compare=False)

    def to_json(self):
        return {
            "id": self.check_id,
            "tag": self.tag,
            "inputs_digest": self.inputs_digest,
            "residuals": self.residuals,
            "verdict": "pass" if self.verdict else "fail",
        }


@dataclass
class RunReport:
    scenario: dict
    checks: list
    version: str
    timing: dict
    workers: int

    @property
    def all_pass(self):
        return all(r.verdict for r in self.checks)

    def failing_ids(self):
        return [r.check_id for r in self.checks if not r.verdict]


def report_json(report):
    """report.json content. Timing stays out: it goes to the manifest so the
    report bytes depend on the seed alone."""
    return {
        "version": report.version,
        "scenario": report.scenario,
        "checks": [r.to_json() for r in report.checks],
    }


# ---------------------------------------------------------------------------
# random inputs (shared with the test suite)


def _unit_coeff(rng):
    c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    while abs(c) < 0.05:
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return c


def random_symbol(rng, max_degree, analytic=False, min_terms=1):
    lo = 0 if analytic else -max_degree
    exps = list(range(lo, max_degree + 1))
    count = int(rng.integers(min_terms, len(exps) + 1))
    picks = rng.choice(len(exps), size=count, replace=False)
    coeffs = {}
    for i in sorted(int(p) for p in picks):
        coeffs[(exps[i],)] = _unit_coeff(rng)
    return LaurentPoly(1, coeffs)


def random_correction(rng, max_size):
    r = int(rng.integers(1, max_size + 1))
    c = int(rng.integers(1, max_size + 1))
    while True:
        block = rng.uniform(-1.0, 1.0, (r, c)) + 1j * rng.uniform(-1.0, 1.0, (r, c))
        if np.max(np.abs(block)) >= 0.05:
            return block


def random_element(rng, max_degree, max_correction, kind="mixed"):
    """kind: pure | corrected | mixed (coin flip)."""
    phi = random_symbol(rng, max_degree)
    corrected = kind == "corrected" or (kind == "mixed" and rng.uniform() < 0.5)
    if corrected:
        return circle.ToeplitzElement(phi, random_correction(rng, max_correction))
    return circle.ToeplitzElement(phi)


def spectra_suite_symbols(seed, count, max_degree):
    """Deterministic nonconstant symbols shared by the spectral checks."""
    return [
        random_symbol(_rng(seed, 60, i), max_degree, min_terms=2) for i in range(count)
    ]


def _suite_symbols(params, seed):
    extras = [LaurentPoly.from_text(t) for t in params["symbols"]]
    drawn = spectra_suite_symbols(
        seed, params["spectra_symbols"], params["spectra_degree"]
    )
    return extras + drawn


# ---------------------------------------------------------------------------
# check runners


def _check_algebra_closure(params, seed):
    trials = params["trials"]
    tol = params["tolerances"]["identity"]
    deg, corr = params["max_degree"], params["max_correction"]
    mult, star = [], []
    boxes_ok = True
    for t in range(trials):
        rng = _rng(seed, 1, t)
        x = random_element(rng, deg, corr)
        y = random_element(rng, deg, corr)
        z = circle.mul(x, y)
        sx, adj = circle.symbol_map(x), circle.symbol_map(circle.adjoint(x))
        mult.append(circle.symbol_diff_max(circle.symbol_map(z), sx * circle.symbol_map(y)))
        star.append(circle.symbol_diff_max(adj, sx.conjugate()))
        s = circle.semicommutator(x.symbol, y.symbol)
        r, c = s.active_size
        boxes_ok = boxes_ok and r <= x.symbol.deg_pos() and c <= y.symbol.deg_neg()
    worst_mult, worst_star = worst(mult), worst(star)
    verdict = worst_mult <= tol and worst_star <= tol and boxes_ok
    return {
        "trials": trials,
        "multiplicative_worst": worst_mult,
        "star_worst": worst_star,
        "semicommutator_box_ok": boxes_ok,
    }, verdict


def _check_averaging(params, seed):
    trials = params["trials"]
    tol = params["tolerances"]["identity"]
    deg, corr = params["max_degree"], params["max_correction"]
    reps = []
    for t in range(trials):
        rng = _rng(seed, 2, t)
        x = random_element(rng, deg, corr)
        y = random_element(rng, deg, corr)
        reps.append(circle.verify_averaging_identities(x, y))
    pair = worst(r.max_pairwise_residual for r in reps)
    choi = worst(r.choi_effros_residual for r in reps)
    idem = worst(r.idempotent_residual for r in reps)
    unital = worst(r.unital_residual for r in reps)
    verdict = pair <= tol and choi == 0.0 and idem <= tol and unital == 0.0
    return {
        "trials": trials,
        "pairwise_worst": pair,
        "choi_effros_worst": choi,
        "idempotent_worst": idem,
        "unital_worst": unital,
    }, verdict


def _check_brown_halmos(params, seed):
    planted = params["planted"]
    mixed = params["elements"] - 2 * planted
    deg, corr = params["max_degree"], params["max_correction"]
    false_verdicts = 0
    fixed = []
    i = 0
    for kind, count in (("pure", planted), ("corrected", planted), ("mixed", mixed)):
        for _ in range(count):
            rng = _rng(seed, 3, i)
            i += 1
            x = random_element(rng, deg, corr, kind)
            expected = x.corr_array.size == 0
            got = circle.is_toeplitz(x)
            if got != expected:
                false_verdicts += 1
            if expected:
                fixed.append(circle.diff_max(circle.phi_map(x), x))
    return {
        "elements": params["elements"],
        "planted_pure": planted,
        "planted_corrected": planted,
        "false_verdicts": false_verdicts,
        "fixed_point_worst": worst(fixed),
    }, false_verdicts == 0


def _check_commutant(params, seed):
    count = params["commutant_symbols"]
    trunc = params["commutant_truncation"]
    gap_tol = params["tolerances"]["gap"]
    deg, corr = params["max_degree"], params["max_correction"]
    accepted = 0
    gaps = []
    contained = True
    for t in range(count):
        rng = _rng(seed, 4, t)
        psi = random_symbol(rng, deg, analytic=True)
        rep = circle.commutant_character(circle.ToeplitzElement(psi), trunc=trunc)
        lift = rep.lift
        if rep.classification == circle.ANALYTIC_TOEPLITZ and lift is not None:
            accepted += 1
            gaps.append(lift.gap)
            contained = contained and (
                lift.trunc_lower <= lift.sup_lower + 1e-12
                and lift.sup_lower <= lift.sup_upper + 1e-12
            )
    rejected = 0
    for t in range(count):
        rng = _rng(seed, 41, t)
        if t % 2 == 0:
            base = random_symbol(rng, deg)
            k = -int(rng.integers(1, deg + 1))
            phi = base + LaurentPoly.monomial(k, _unit_coeff(rng))
            while phi.is_analytic():  # cancellation is measure zero; redraw
                phi = base + LaurentPoly.monomial(k, _unit_coeff(rng))
            x = circle.ToeplitzElement(phi)
        else:
            x = circle.ToeplitzElement(
                random_symbol(rng, deg), random_correction(rng, corr)
            )
        rep = circle.commutant_character(x, trunc=min(trunc, 256))
        if rep.classification != circle.ANALYTIC_TOEPLITZ:
            rejected += 1
    worst_gap = worst(gaps)
    verdict = (
        accepted == count and rejected == count and contained and worst_gap <= gap_tol
    )
    return {
        "symbols": count,
        "accepted": accepted,
        "rejected": rejected,
        "bracket_contained": contained,
        "gap_worst": worst_gap,
        "truncation": trunc,
    }, verdict


def cross_section_sizes(cap):
    """The truncations cross_section compares: 64, 128, ... <= cap."""
    return [64 << k for k in range((cap // 64).bit_length())]


def _check_cross_section(params, seed):
    tol_closed = params["tolerances"]["closed_form"]
    tol_block = params["tolerances"]["block"]
    phi = LaurentPoly.from_text("z + zbar")
    sizes = cross_section_sizes(params["cross_section_truncation"])
    scalar = circle.cross_section_isometry(phi, truncations=sizes)
    norms = scalar.lower_bounds
    worst_closed = worst(
        abs(got - 2.0 * math.cos(math.pi / (n + 1))) for n, got in zip(sizes, norms)
    )
    final_gap = abs(norms[-1] - 2.0)
    closed = final_gap <= params["tolerances"]["gap"] and scalar.monotone
    z = LaurentPoly.variable(0, 1)
    zero = LaurentPoly.zero(1)
    block = circle.cross_section_isometry(
        [[z, zero], [zero, z.conjugate()]], truncations=sizes[:3]
    )
    block_low = block.lower_bounds[-1]
    block_sup = block.sup_estimate
    verdict = (
        worst_closed <= tol_closed
        and closed
        and abs(block_low - 1.0) <= tol_block
        and abs(block_sup - 1.0) <= tol_block
    )
    lines = [f"{n},{v!r}" for n, v in zip(sizes, norms)]
    record.artifact("cross_section.csv", "\r\n".join(["truncation,norm", *lines, ""]))
    return {
        "closed_form_worst": worst_closed,
        "final_gap": final_gap,
        "scalar_verdict": "PASS" if closed else "INCONCLUSIVE",
        "block_lower": block_low,
        "block_sup": block_sup,
        "truncations": sizes,
    }, verdict


def _check_hartman_wintner(params, seed):
    symbols = _suite_symbols(params, seed)
    grid = params["grid_size"]
    counterexamples = 0
    certified = 0
    for i, phi in enumerate(symbols):
        rep = spectra.hartman_wintner_check(
            phi, grid_size=grid, probes=params["probes"], seed=[seed, 61, i]
        )
        counterexamples += len(rep.counterexamples)
        certified += rep.probes_certified
    return {
        "symbols": len(symbols),
        "probes_certified": certified,
        "counterexamples": counterexamples,
    }, counterexamples == 0


def _check_convex_bound(params, seed):
    symbols = _suite_symbols(params, seed)
    grid = params["grid_size"]
    counterexamples = 0
    tols = []
    for i, phi in enumerate(symbols):
        rep = spectra.convex_bound_check(phi, params["lambda_points"], grid_size=grid)
        counterexamples += len(rep.counterexamples)
        tols.append(rep.tol_on_curve)
        if i == 0:
            record.artifact("spectrum_0.csv", spectra.report_csv(rep))
    return {
        "symbols": len(symbols),
        "lambda_points": params["lambda_points"] ** 2,
        "counterexamples": counterexamples,
        "tolerance_worst": worst(tols),
    }, counterexamples == 0


def _check_numerical_range(params, seed):
    symbols = _suite_symbols(params, seed)
    take = symbols[: min(8, len(symbols))]
    thetas = [2.0 * math.pi * k / params["nr_thetas"] for k in range(params["nr_thetas"])]
    trunc = params["nr_truncation"]
    violations = 0
    margins = []
    for phi in take:
        rep = spectra.numerical_range_support(circle.ToeplitzElement(phi), thetas, trunc)
        violations += len(rep.counterexamples)
        margins.extend(h - b for h, b in zip(rep.support_values, rep.bounds))
    rng = _rng(seed, 62, 0)
    corrected = circle.ToeplitzElement(
        random_symbol(rng, 3), random_correction(rng, 3)
    )
    rep = spectra.numerical_range_support(corrected, thetas, trunc)
    violations += len(rep.counterexamples)
    return {
        "symbols": len(take) + 1,
        "thetas": params["nr_thetas"],
        "truncation": trunc,
        "violations": violations,
        "support_margin_worst": worst(margins),
    }, violations == 0


def _random_sphere_symbol(rng, n, max_band, max_terms=4):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        g = tuple(int(v) for v in rng.integers(0, 2, n))
        d = tuple(int(v) for v in rng.integers(0, 2, n))
        if sum(g) > max_band or sum(d) > max_band:
            continue
        terms[(g, d)] = terms.get((g, d), 0j) + _unit_coeff(rng)
    if not terms:
        terms[((0,) * n, (0,) * n)] = 1.0
    return szego.SphereSymbol(n, terms)


def _check_szego(params, seed):
    d = params["sphere_degree"]
    tol_int = params["tolerances"]["interior"]
    tol_id = params["tolerances"]["identity"]
    interior, shell, fixed, planted, ext = [], [], [], [], []
    support_ok = True
    mismatches = 0
    for n in params["sphere_dims"]:
        tup = szego.szego_tuple(n, d)
        rep = szego.defect_report(tup)
        interior.append(rep.interior_max)
        shell += [abs(rep.top_shell_min + 1.0), abs(rep.top_shell_max + 1.0)]
        support_ok = support_ok and rep.support_ok

        for t in range(params["mc_alphas"]):
            rng = _rng(seed, 70 + n, t)
            alpha = tuple(int(v) for v in rng.integers(0, 4, n))
            mismatches += szego.sphere_moment(n, alpha) != szego.stick_breaking_moment(n, alpha)

        for t in range(params["sphere_symbols"]):
            rng = _rng(seed, 75 + n, t)
            phi = _random_sphere_symbol(rng, n, max_band=min(2, d // 2))
            op = szego.toeplitz_graded(phi, n, d)
            frep = szego.fixed_point_residual(op, tup)
            fixed.append(frep.interior_max)

        zero_idx = (0,) * n
        plant = szego.GradedOperator(n, d, {(zero_idx, zero_idx): 1.0})
        base = szego.toeplitz_graded(_random_sphere_symbol(_rng(seed, 78, n), n, 1), n, d)
        prep = szego.fixed_point_residual(base + plant, tup)
        planted.append(prep.interior_max)

        ext.append(szego.normal_extension_defect(n, min(d, 6)))
    interior_worst, top_dev, fixed_worst = worst(interior), worst(shell), worst(fixed)
    planted_min, ext_worst = float(np.min(planted)), worst(ext)
    verdict = (
        interior_worst <= tol_id
        and top_dev <= tol_id
        and support_ok
        and mismatches == 0
        and fixed_worst <= tol_int
        and planted_min >= 0.4
        and ext_worst <= tol_id
    )
    return {
        "dims": list(params["sphere_dims"]),
        "degree": d,
        "isometry_interior_worst": interior_worst,
        "top_shell_deviation": top_dev,
        "moment_mismatches": mismatches,
        "fixed_point_worst": fixed_worst,
        "planted_interior_min": planted_min,
        "extension_defect_worst": ext_worst,
    }, verdict


def _random_tensor(rng, terms, max_degree):
    pairs = []
    for _ in range(terms):
        a = circle.make_toeplitz(random_symbol(rng, max_degree))
        b = circle.make_toeplitz(random_symbol(rng, max_degree))
        pairs.append((a, b))
    return polydisc.TensorElement(pairs)


def _check_gamma_equation(params, seed):
    exact_fails = 0
    for t in range(params["tensor_trials"]):
        rng = _rng(seed, 8, t)
        x = _random_tensor(rng, int(rng.integers(1, 4)), 3)
        rep = polydisc.gamma_equation_residual(x)
        if not rep.exact_zero:
            exact_fails += 1
    e00 = circle.finite_rank(np.array([[1.0 + 0j]]))
    probe = polydisc.TensorElement.elementary(e00, circle.identity())
    prep = polydisc.gamma_equation_residual(probe)
    lo, up = prep.bracket
    contains_one = lo <= 1.0 + 1e-12 and up >= 1.0 - 1e-12
    verdict = exact_fails == 0 and contains_one and prep.verdict == "NOT_TOEPLITZ"
    return {
        "trials": params["tensor_trials"],
        "exact_failures": exact_fails,
        "probe_bracket": [lo, up],
        "probe_verdict": prep.verdict,
    }, verdict


def _check_scaled_isometry(params, seed):
    rep = polydisc.scaled_isometry_check(2)
    lo, up = rep.unscaled_bracket
    verdict = (
        rep.exact_zero
        and rep.residual == 0.0
        and abs(lo - 1.0) <= 1e-12
        and abs(up - 1.0) <= 1e-12
    )
    return {
        "gamma": rep.gamma_value,
        "scaled_residual": rep.residual,
        "scaled_exact": rep.exact_zero,
        "unscaled_bracket": [lo, up],
    }, verdict


def _check_weighted_hardy(params, seed):
    degrees = list(params["hardy_degrees"])
    window = params["hardy_window"]
    tol_iso = params["tolerances"]["isometry"]
    slack = params["tolerances"]["monotone_slack"]
    m = hardy.CircleMeasure({0: 1.0, 1: 0.4})
    iso_worst = worst(hardy.shift_isometry_residual(m, d) for d in degrees)
    phi = LaurentPoly.from_text("z + zbar")
    bh = hardy.brown_halmos_residual(phi, m, window, degrees)
    vals = [v for _, v in bh]
    nonincreasing = all(vals[i + 1] <= vals[i] + slack for i in range(len(vals) - 1))

    leb = hardy.CircleMeasure({0: 1.0})
    diffs = []
    for text in ("z", "z + zbar", "(2+1j)*z^2 + zbar"):
        p = LaurentPoly.from_text(text)
        a = hardy.truncated_toeplitz(p, leb, 24)
        # entry by entry, not by the Toeplitz builder the compression runs on
        b = np.array([[p.coeff(i - j) for j in range(25)] for i in range(25)])
        diffs.append(worst(np.abs(a - b)))
    circle_diff = worst(diffs)

    m2 = hardy.CircleMeasure({0: 1.0, 1: 0.25, 2: 0.1})
    basis = hardy.onb(m2, 20)
    gram = basis.gram_residual()
    verdict = (
        iso_worst <= tol_iso
        and worst(vals) <= tol_iso
        and nonincreasing
        and circle_diff == 0.0
        and gram <= params["tolerances"]["gram"]
    )
    return {
        "degrees": degrees,
        "isometry_worst": iso_worst,
        "brown_halmos": {str(d): v for d, v in bh},
        "nonincreasing": nonincreasing,
        "lebesgue_reproduction_diff": circle_diff,
        "gram_residual": gram,
    }, verdict


def _check_determinism(params, seed):
    sub = dict(params)
    sub["trials"] = min(5, params["trials"])
    record.note(rerun_trials=sub["trials"])
    first = [
        run_check("algebra_closure", sub, seed).to_json(),
        run_check("thm2_1_identities", sub, seed).to_json(),
    ]
    second = [
        run_check("algebra_closure", sub, seed).to_json(),
        run_check("thm2_1_identities", sub, seed).to_json(),
    ]
    equal = canonical_json(first) == canonical_json(second)
    return {"bytes_equal": equal, "reruns": 2}, equal


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    tag: str
    suites: tuple
    model: str
    criterion: str
    runner: object


REGISTRY = {
    s.check_id: s
    for s in [
        CheckSpec(
            "algebra_closure",
            "Thm3.1(3-4)",
            ("circle",),
            "exact product of symbol-plus-correction elements on the circle",
            "symbol map multiplicative and *-preserving within the identity "
            "tolerance; semicommutator symbol cancels with its block inside "
            "the degree box",
            _check_algebra_closure,
        ),
        CheckSpec(
            "thm2_1_identities",
            "Thm2.1, Thm2.3",
            ("circle",),
            "averaging projection onto Toeplitz elements via shift compressions",
            "Phi(Phi(X)Y), Phi(X Phi(Y)), Phi(Phi(X)Phi(Y)) agree within the "
            "identity tolerance; the induced product equals the Toeplitz "
            "operator of the product symbol exactly; Phi idempotent, unital",
            _check_averaging,
        ),
        CheckSpec(
            "brown_halmos",
            "Thm3.1(1)",
            ("circle",),
            "fixed-point test X = T_z* X T_z against the structural correction",
            "zero false verdicts on planted pure and planted corrected "
            "elements plus a random mix",
            _check_brown_halmos,
        ),
        CheckSpec(
            "commutant_lifting",
            "Thm2.9(3f), Thm3.1(2)",
            ("circle",),
            "commutant of the shift: X and X*X Toeplitz vs commutation, with "
            "norm evidence for the symbol lift",
            "analytic symbols classify ANALYTIC_TOEPLITZ, others are "
            "rejected, and [truncation lower, l1 upper] contains the sup "
            "estimate with gap below the gap tolerance",
            _check_commutant,
        ),
        CheckSpec(
            "cross_section",
            "Thm2.9(3d)",
            ("circle",),
            "compression norms against the sup of the symbol, scalar and 2x2: "
            "the scalar norm from the band of A*A, the block norm as the top "
            "eigenvalue of the banded Hermitian dilation [[0, T], [T*, 0]], "
            "both by the banded Cholesky bisection",
            "z + zbar reproduces 2cos(pi/(N+1)) within the closed-form "
            "tolerance and closes on 2 within the gap tolerance; the diagonal "
            "block gives both sides 1 within the block tolerance",
            _check_cross_section,
        ),
        CheckSpec(
            "hartman_wintner",
            "Thm3.1(3)",
            ("spectra",),
            "essential-range inclusion in the spectrum by winding certificates: "
            "random probes near the sampled curve are certified inside it on a "
            "fine grid (sag <= 1e-5, at most 65536 points), by "
            "integer crossing numbers found on large inputs from the rank of "
            "each vertex among the sorted scanlines, and farther than "
            "max(2e-4, 4 sag) from the fine polyline, bit for bit as a scan "
            "of all its edges measures it",
            "no certified probe reads OUTSIDE on the working grid",
            _check_hartman_wintner,
        ),
        CheckSpec(
            "convex_bound",
            "Thm3.1(3)",
            ("spectra",),
            "spectrum inside the convex hull of the essential range: the "
            "working curve is sampled once; crossing numbers per row of the "
            "grid covering its range box; a lambda is accepted inside the "
            "hull of the working samples by crossing number, or near it by "
            "boundary distance at a tolerance of 1e-8 for winding lambdas and "
            "the working curve tolerance on top for ON_CURVE ones; the "
            "distance to a convex set is convex, so only the outermost lambda "
            "of each status on each row is measured, and a row with an end "
            "that fails is measured lambda by lambda",
            "every non-OUTSIDE lambda on the covering grid passes hull "
            "membership at the certified tolerance; no counterexamples",
            _check_convex_bound,
        ),
        CheckSpec(
            "numerical_range",
            "Thm3.1(3)",
            ("spectra",),
            "support function of the truncated numerical range: the top "
            "eigenvalue of each hermitian part, a band matrix (the symbol's "
            "band, widened to k - 1 by a k x k correction), by bisection "
            "with one banded Cholesky factorization per step, reading the "
            "upper end of the final bracket (a shift that factored); a "
            "Rayleigh quotient from inverse iteration settles the steps far "
            "from it without a factorization, replaying the same bisection",
            "h(theta) stays below the symbol sup plus correction norm within "
            "sag + 1e-8 for all sampled directions",
            _check_numerical_range,
        ),
        CheckSpec(
            "szego_model",
            "Def2.5, Thm3.1(1), Ex3.2",
            ("szego",),
            "graded shifts on the sphere monomial basis with exact moments, "
            "recomputed in rationals as stick-breaking Beta integrals",
            "interior isometry defect and extension cross-check within "
            "tolerance; both moment routes agree exactly on every alpha "
            "tested; planted perturbation leaves interior residual >= 0.4",
            _check_szego,
        ),
        CheckSpec(
            "gamma_equation",
            "Ex4.3",
            ("polydisc",),
            "gamma^2 fixed-point equation for the bidisc coordinate pair",
            "pure tensor sums cancel to the empty sum exactly; the rank-one "
            "probe leaves a residual bracket containing 1",
            _check_gamma_equation,
        ),
        CheckSpec(
            "scaled_isometry",
            "Def2.5, Ex4.3",
            ("polydisc",),
            "gamma-scaled coordinates form a spherical isometry on the torus",
            "scaled sum collapses to the identity exactly; the unscaled "
            "control misses by norm 1",
            _check_scaled_isometry,
        ),
        CheckSpec(
            "weighted_hardy",
            "Thm3.1",
            ("measures",),
            "orthonormal polynomial model of H^2 for trig-polynomial weights",
            "interior shift isometry within tolerance, windowed fixed-point "
            "residuals S*XS - X within the isometry tolerance and "
            "nonincreasing up to rounding, Lebesgue reproduces the circle "
            "entries exactly",
            _check_weighted_hardy,
        ),
        CheckSpec(
            "determinism",
            "plumbing",
            ("circle",),
            "rerun of seeded checks inside one process",
            "identical canonical JSON for identical seeds",
            _check_determinism,
        ),
    ]
}

SUITES = ("circle", "szego", "polydisc", "measures", "spectra", "all")

DEFAULT_PARAMS = {
    "trials": 100,
    "max_degree": 6,
    "max_correction": 5,
    "elements": 200,
    "planted": 50,
    "commutant_symbols": 50,
    "commutant_truncation": 1024,
    "cross_section_truncation": 1024,
    "spectra_symbols": 20,
    "spectra_degree": 5,
    "lambda_points": 200,
    "grid_size": 512,
    "probes": 100,
    "nr_thetas": 16,
    "nr_truncation": 256,
    "sphere_dims": [2, 3],
    "sphere_degree": 10,
    "sphere_symbols": 10,
    "mc_samples": 100000,
    "mc_alphas": 10,
    "tensor_trials": 20,
    "hardy_degrees": [32, 64, 128],
    "hardy_window": 8,
    "symbols": [],
    "tolerances": {
        "identity": 1e-12,
        "interior": 1e-10,
        "isometry": 1e-10,
        "gram": 1e-10,
        "gap": 1e-3,
        "closed_form": 1e-10,
        "block": 1e-8,
        "monotone_slack": 1e-13,
    },
}


def suite_check_ids(suite):
    if suite == "all":
        return list(REGISTRY)
    return [cid for cid, s in REGISTRY.items() if suite in s.suites]


def run_check(check_id, params, seed):
    spec = REGISTRY.get(check_id)
    if spec is None:
        raise UsageError(f"unknown check id {check_id!r}")
    with record.collect() as (notes, artifacts):
        residuals, verdict = spec.runner(params, seed)
    digest = _digest({"seed": int(seed), "check": check_id, "params": params})
    return CheckRecord(
        check_id,
        spec.tag,
        digest,
        _plain(residuals),
        bool(verdict) and _finite(residuals),
        artifacts,
        _plain(notes),
    )


def _timed_check(check_id, params, seed):
    """(record, wall seconds) of one check; the unit of work of a pool worker."""
    import time

    t0 = time.perf_counter()
    rec = run_check(check_id, params, seed)
    return rec, time.perf_counter() - t0


def _worker_count(checks_to_run):
    """One worker per check, at most one per CPU this process may run on."""
    import os

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(checks_to_run, cpus)


# each bundled OpenBLAS, as (package, library file pattern, thread setter)
_BLAS_SETTERS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _blas_setters():
    """The thread setter of each OpenBLAS numpy and scipy bundle in their
    `<package>.libs` folder, looked up once without importing either
    package; what it cannot find is skipped."""
    import ctypes
    import glob
    import os

    found = []
    for package, pattern, setter in _BLAS_SETTERS:
        root = os.path.dirname(_package_dir(package))
        for path in glob.glob(os.path.join(root, f"{package}.libs", pattern)):
            try:
                fn = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [ctypes.c_int], None
            found.append(fn)
    return tuple(found)


def _pin_blas():
    """Pool initializer: set each bundled OpenBLAS to one thread."""
    for fn in _blas_setters():
        fn(1)


def _pool_results(ids, params, seed, workers):
    """Run ids on a pool of forked workers; return their (record, seconds)
    in the order of ids, or raise what the first of them in that order
    raised, once every worker has stopped."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    _blas_setters()  # looked up before the first pool: a worker only calls them
    # numpy imports these on first use (np.random, and numpy.ma for np.unique);
    # imported here, once, so that no forked worker imports them afresh
    import numpy.ma
    import numpy.random
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_pin_blas) as pool:
        # Reverse registry order: each suite's longest checks (numerical_range
        # on spectra, commutant_lifting on circle) come late in it. Submitted
        # last, numerical_range would start only after hartman_wintner and
        # then run alone on one CPU while the other idles.
        futures = {cid: pool.submit(_timed_check, cid, params, seed) for cid in reversed(ids)}
        try:
            return [futures[cid].result() for cid in ids]
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise


def run_checks(suite, params, seed, scenario_echo=None):
    """Run a suite's checks, on forked workers when more than one CPU is
    available (see the module docstring); records and timing come in
    registry order."""
    import sys

    ids = suite_check_ids(suite)
    workers = _worker_count(len(ids))
    if sys.getprofile() is not None or sys.gettrace() is not None:
        workers = 1  # a profiler or tracer cannot see into a worker
    elif workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers > 1:
        results = _pool_results(ids, params, seed, workers)
    else:
        results = [_timed_check(cid, params, seed) for cid in ids]
    timing = {rec.check_id: seconds for rec, seconds in results}
    records = [rec for rec, _ in results]
    return RunReport(scenario_echo or {}, records, __version__, timing, workers)


def explain(check_id):
    spec = REGISTRY.get(check_id)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise UsageError(f"unknown check id {check_id!r}; available: {known}")
    return (
        f"{spec.check_id} [{spec.tag}]\n"
        f"  model: {spec.model}\n"
        f"  pass:  {spec.criterion}\n"
    )


def _finite(obj):
    """False when a residual payload holds a NaN or an infinity."""
    if isinstance(obj, (dict, list, tuple)):
        return all(map(_finite, obj.values() if isinstance(obj, dict) else obj))
    return not isinstance(obj, (float, np.floating, complex)) or bool(np.isfinite(obj))


def _plain(obj):
    """Coerce residual payloads to canonical-JSON-safe plain types; a
    non-finite float becomes the string "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, complex):
        return [_plain(obj.real), _plain(obj.imag)]
    return str(obj)
