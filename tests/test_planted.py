"""Every check fails on a planted wrong answer, through `checks.run_check`.

Each check with a float residual has one kernel it calls patched to return
NaN; a hand-written `max` fold would drop that NaN and let the check pass.
`determinism` gets reruns that differ, and `hartman_wintner` and
`convex_bound` keep the wrong answers their `spectra` tests plant. A second
table plants finite wrong answers that no NaN-keeping fold catches; only the
check's own gate can. Every record must FAIL and still serialize to canonical
JSON.
"""

import dataclasses
import itertools
import math
import types
from fractions import Fraction

import pytest

from sphiso import checks, cli
from sphiso import circle_calculus as cc
from sphiso import hardy_measures as hm
from sphiso import polydisc as pd
from sphiso import spectra as sp
from sphiso import szego as sz
from sphiso.symbols import Hull, conv_hull

# every check at small sizes; validated like a scenario file
_, _, _, PARAMS = cli.validate_scenario(
    {
        "parameters": {
            "trials": 4,
            "max_degree": 3,
            "max_correction": 3,
            "elements": 12,
            "planted": 3,
            "commutant_symbols": 3,
            "commutant_truncation": 128,
            "cross_section_truncation": 128,
            "spectra_symbols": 2,
            "spectra_degree": 3,
            "lambda_points": 30,
            "probes": 10,
            "nr_thetas": 4,
            "nr_truncation": 64,
            "sphere_dims": [2],
            "sphere_degree": 6,
            "sphere_symbols": 2,
            "mc_samples": 2000,
            "mc_alphas": 2,
            "tensor_trials": 3,
            "hardy_degrees": [16, 32],
            "hardy_window": 4,
        }
    }
)
SEED = 31


def _nan(*args, **kwargs):
    return math.nan


def _nan_for_runner(mp):
    # is_toeplitz's own fixed-point test rightly raises InvariantError on a
    # NaN; the runner's fold over the fixed-point residuals is the target
    view = types.SimpleNamespace(**vars(cc))
    view.diff_max = _nan
    mp.setattr(checks, "circle", view)


def _outside_probe(mp):
    honest = sp._classify

    def planted(samples, tol, lams):
        codes = honest(samples, tol, lams)
        codes[0] = 2
        return codes

    mp.setattr(sp, "_classify", planted)


def _shrunken_hull(mp):
    def shrunk(points):
        v = conv_hull(points).vertices
        c = v.mean()
        return Hull(c + 0.99 * (v - c))

    mp.setattr(sp, "conv_hull", shrunk)


def _drifting_residual(mp):
    # state that survives between reruns: each call drifts by 1e-16 more, so
    # every run stays within tolerance but no two reruns agree
    honest, calls = cc.symbol_diff_max, itertools.count()
    mp.setattr(cc, "symbol_diff_max", lambda a, b: honest(a, b) + 1e-16 * next(calls))


PLANTS = {
    "algebra_closure": lambda mp: mp.setattr(cc, "symbol_diff_max", _nan),
    "thm2_1_identities": lambda mp: mp.setattr(cc, "diff_max", _nan),
    "brown_halmos": _nan_for_runner,
    "commutant_lifting": lambda mp: mp.setattr(cc, "band_max_eig", _nan),
    "cross_section": lambda mp: mp.setattr(cc, "band_max_eig", _nan),
    "hartman_wintner": _outside_probe,
    "convex_bound": _shrunken_hull,
    "numerical_range": lambda mp: mp.setattr(sp, "band_max_eig", _nan),
    "szego_model": lambda mp: mp.setattr(sz, "normal_extension_defect", _nan),
    "gamma_equation": lambda mp: mp.setattr(pd, "op_norm", _nan),
    "scaled_isometry": lambda mp: mp.setattr(pd, "op_norm", _nan),
    "weighted_hardy": lambda mp: mp.setattr(hm, "shift_isometry_residual", _nan),
    "determinism": _drifting_residual,
}


def _large_fixed_point_residual(mp):
    # finite and nonincreasing, but S*XS - X should vanish to rounding
    def planted(phi, m, window, degrees):
        return [(d, 5.0 - d / 1000.0) for d in degrees]

    mp.setattr(hm, "brown_halmos_residual", planted)


def _biased_moment(mp):
    # a 0.2% error in the closed form; the Monte Carlo z-test passed it
    honest = sz.sphere_moment
    mp.setattr(sz, "sphere_moment", lambda n, alpha: honest(n, alpha) * Fraction(1002, 1000))


FINITE_PLANTS = {
    "szego_model": _biased_moment,
    "weighted_hardy": _large_fixed_point_residual,
}


def test_every_plant_names_a_check():
    assert set(PLANTS) | set(FINITE_PLANTS) <= set(checks.REGISTRY)


@pytest.mark.parametrize("check_id", list(checks.REGISTRY))
def test_check_fails_on_its_plant(check_id, monkeypatch):
    plant = PLANTS[check_id]  # a check without a plant fails here
    assert checks.run_check(check_id, PARAMS, SEED).verdict
    plant(monkeypatch)
    rec = checks.run_check(check_id, PARAMS, SEED)
    assert not rec.verdict
    checks.canonical_json(rec.to_json())


@pytest.mark.parametrize("check_id", list(FINITE_PLANTS))
def test_check_fails_on_a_finite_plant(check_id, monkeypatch):
    assert checks.run_check(check_id, PARAMS, SEED).verdict
    FINITE_PLANTS[check_id](monkeypatch)
    rec = checks.run_check(check_id, PARAMS, SEED)
    assert not rec.verdict
    checks.canonical_json(rec.to_json())


def test_a_nan_residual_reads_nan_in_the_record(monkeypatch):
    monkeypatch.setattr(cc, "diff_max", _nan)
    rec = checks.run_check("thm2_1_identities", PARAMS, SEED)
    assert not rec.verdict
    assert rec.residuals["pairwise_worst"] == "nan"
    assert rec.residuals["choi_effros_worst"] == "nan"


def test_a_non_finite_residual_fails_a_passing_runner(monkeypatch):
    spec = checks.REGISTRY["scaled_isometry"]
    cases = [(math.inf, "inf"), (-math.inf, "-inf"), (complex(1, math.nan), [1.0, "nan"])]
    for value, text in cases:
        runner = lambda params, seed, v=value: ({"value": v, "ok": 1.0}, True)
        monkeypatch.setitem(
            checks.REGISTRY, spec.check_id, dataclasses.replace(spec, runner=runner)
        )
        rec = checks.run_check(spec.check_id, PARAMS, SEED)
        assert not rec.verdict
        assert rec.to_json()["residuals"] == {"value": text, "ok": 1.0}
        checks.canonical_json(rec.to_json())


class _ReadLog(dict):
    """A parameter dict that logs each key read from it."""

    def __init__(self, data, log, prefix=""):
        super().__init__(data)
        self.log, self.prefix = log, prefix

    def __getitem__(self, key):
        self.log.add(self.prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(self.prefix + key)
        return super().get(key, default)


# szego_model no longer samples its moments, but the benchmark's scenario
# still passes mc_samples, so the schema keeps the key
UNREAD = {"mc_samples"}


def test_every_parameter_is_read():
    log = set()
    params = _ReadLog(PARAMS, log)
    dict.__setitem__(params, "tolerances", _ReadLog(PARAMS["tolerances"], log, "tolerances."))
    for check_id in checks.REGISTRY:
        assert checks.run_check(check_id, params, SEED).verdict
    keys = {k for k in checks.DEFAULT_PARAMS if k != "tolerances"}
    keys |= {f"tolerances.{k}" for k in checks.DEFAULT_PARAMS["tolerances"]}
    assert keys - log == UNREAD
