"""Tests of the benchmark itself, on reduced inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import queries  # noqa: E402
import run  # noqa: E402
import sphiso.cli  # noqa: E402
from tracing import LAYERS, Tracer, summarize  # noqa: E402

SMALL = {
    "trials": 3,
    "max_degree": 3,
    "max_correction": 3,
    "elements": 8,
    "planted": 2,
    "commutant_symbols": 3,
    "commutant_truncation": 256,
    "cross_section_truncation": 256,
    "spectra_symbols": 2,
    "spectra_degree": 1,
    "lambda_points": 20,
    "grid_size": 64,
    "probes": 5,
    "nr_thetas": 4,
    "nr_truncation": 64,
    "sphere_dims": [2],
    "sphere_degree": 4,
    "sphere_symbols": 2,
    "mc_samples": 2000,
    "mc_alphas": 2,
    "tensor_trials": 2,
    "hardy_degrees": [8, 16],
    "hardy_window": 4,
}


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"name": "small", "seed": 3, "suite": "all", "parameters": SMALL}))
    return path


def _report(out):
    (run_dir,) = out.iterdir()
    return (run_dir / "report.json").read_bytes()


def test_traced_calls_match_cprofile(scenario, tmp_path):
    tracer = Tracer().install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        rc = sphiso.cli.main(["run", str(scenario), "--out", str(tmp_path / "out")])
        queries.run_block(sphiso, queries.make_block(5, 0)[:3], queries.Tally())
        profile.disable()
    finally:
        tracer.uninstall()
    assert rc == 0
    tracer.dump(tmp_path / "spans.npz")
    spans, _ = summarize(tmp_path / "spans.npz")

    ncalls = {
        (filename, line, name): nc
        for (filename, line, name), (_, nc, *_) in pstats.Stats(profile).stats.items()
    }
    checked = 0
    for span, original in tracer.wrapped.items():
        code = original.__code__
        expect = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert spans[span]["calls"] == expect, span
        checked += expect > 0
    # the run reached the public functions of every layer
    assert checked > 40
    called_layers = {name.split(".")[0] for name, s in spans.items() if s["calls"]}
    assert called_layers == set(LAYERS)


def test_report_bytes_identical_with_tracing(scenario, tmp_path):
    assert sphiso.cli.main(["run", str(scenario), "--out", str(tmp_path / "plain")]) == 0
    tracer = Tracer().install()
    try:
        assert sphiso.cli.main(["run", str(scenario), "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert len(tracer.start) > 0
    assert _report(tmp_path / "plain") == _report(tmp_path / "traced")


def test_uninstall_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("sphiso")}
    tracer = Tracer().install()
    assert sphiso.spectra.eval_grid is not before["sphiso.spectra"]["eval_grid"]
    assert sphiso.circle_calculus.op_norm is not before["sphiso.circle_calculus"]["op_norm"]
    tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("sphiso")}
    assert after == before


def test_planted_wrong_answer_is_a_failed_query(monkeypatch):
    block = queries.make_block(11, 1)
    honest = queries.Tally()
    queries.run_block(sphiso, block, honest)
    assert honest.failed == 0 and honest.verified > 0

    real = sphiso.spectra.spectrum_membership
    flip = {queries.OUTSIDE: queries.WINDING_NONZERO, queries.WINDING_NONZERO: queries.OUTSIDE}

    def wrong(phi, lam, *args):
        answer = real(phi, lam, *args)
        return flip.get(answer, answer)

    monkeypatch.setattr(sphiso.spectra, "spectrum_membership", wrong)
    planted = queries.Tally()
    queries.run_block(sphiso, block, planted)
    assert planted.attempted == honest.attempted
    assert planted.failed > 0
    assert planted.failed + planted.verified + planted.unverified == planted.attempted


def test_planted_on_curve_everywhere_fails(monkeypatch):
    def always_on_curve(phi, lams, *args):
        return np.array([queries.ON_CURVE] * len(lams), dtype=object)

    monkeypatch.setattr(sphiso.spectra, "membership_batch", always_on_curve)
    tally = queries.Tally()
    block = queries.make_block(11, 1)
    queries.run_block(sphiso, block, tally)
    assert tally.failed == len(block)
    assert tally.answers["outside"]["failed"] > 0
    assert tally.answers["inside"]["failed"] > 0


def test_oracle_checks_every_lambda_kind():
    tally = queries.Tally()
    queries.run_block(sphiso, queries.make_block(11, 1), tally)
    for kind in queries.KINDS:
        answers = tally.answers[kind]
        assert answers["failed"] == 0
        assert answers["verified"] > 0.9 * (answers["verified"] + answers["unverified"]), kind


def test_oracle_on_curve_band():
    oracle = queries.Oracle({1: 1.0})  # the unit circle, |phi'| = 1
    tol = 10 * 2 * np.pi / 512
    assert oracle.on_curve(1.0 + 0.9 * tol, 512) is True
    assert oracle.on_curve(1.0 + 1.02 * tol, 512) is False
    assert oracle.on_curve(1.0 + 0.97 * tol, 512) is None
    assert oracle.judge(0.5, 1, 512, status=False) == "verified"
    assert oracle.judge(0.5, queries.ON_CURVE, 512) != "verified"


def test_query_raising_other_than_on_curve_fails(monkeypatch):
    def broken(phi, lam, *args):
        raise RuntimeError("planted")

    monkeypatch.setattr(sphiso.symbols, "winding", broken)
    tally = queries.Tally()
    block = queries.make_block(2, 1)[:4]
    queries.run_block(sphiso, block, tally)
    assert tally.failed == 3 * len(block)


def test_oracle_winding():
    assert queries.oracle_winding({1: 1.0}, 0.0) == 1
    assert queries.oracle_winding({1: 1.0}, 2.0) == 0
    assert queries.oracle_winding({-1: 1.0}, 0.1j) == -1
    assert queries.oracle_winding({2: 1.0, -1: 0.1}, 0.0) == 2
    assert queries.oracle_winding({1: 1.0}, 1.0 + 1e-9) is None


def test_blocks_repeat_for_a_seed():
    a, b = queries.make_block(4, 2), queries.make_block(4, 2)
    assert a == b
    assert a != queries.make_block(5, 2)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_scenario_suites_run_every_check_but_szego_model():
    from sphiso import checks

    for suite, ids in run.SUITES.items():
        assert ids == checks.suite_check_ids(suite), suite
    assert sorted(run.CHECK_IDS) == sorted(set(checks.REGISTRY) - {"szego_model"})
