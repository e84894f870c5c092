"""Acceptance gate: one test per criterion, run at full scale.

Each test drives the corresponding registered check with the default
(criterion-scale) parameters and asserts the stated residual bounds, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from sphiso import checks, circle_calculus, cli, symbols

SEED = 20260815
PARAMS = json.loads(json.dumps(checks.DEFAULT_PARAMS))
SMOKE = Path(__file__).resolve().parent.parent / "scenarios" / "smoke.json"


def run(check_id):
    t0 = time.perf_counter()
    rec = checks.run_check(check_id, PARAMS, SEED)
    return rec, time.perf_counter() - t0


def test_criterion_01_algebra_closure():
    rec, elapsed = run("algebra_closure")
    r = rec.residuals
    assert rec.verdict
    assert r["trials"] == 100
    assert r["multiplicative_worst"] <= 1e-12
    assert r["star_worst"] <= 1e-12
    assert r["semicommutator_box_ok"]
    # the semicommutator's symbol part cancels exactly on the same pairs
    for t in range(100):
        rng = checks._rng(SEED, 1, t)
        x = checks.random_element(rng, PARAMS["max_degree"], PARAMS["max_correction"])
        y = checks.random_element(rng, PARAMS["max_degree"], PARAMS["max_correction"])
        s = circle_calculus.semicommutator(x.symbol, y.symbol)
        assert s.symbol.is_zero()
    assert elapsed < 5.0
    print(f"PASS criterion 1: algebra closure, worst {r['multiplicative_worst']:.3e}")


def test_criterion_02_averaging_identities():
    rec, _ = run("thm2_1_identities")
    r = rec.residuals
    assert rec.verdict
    assert r["trials"] == 100
    assert r["pairwise_worst"] <= 1e-12
    assert r["idempotent_worst"] <= 1e-12
    assert r["unital_worst"] == 0.0
    assert r["choi_effros_worst"] == 0.0
    print(f"PASS criterion 2: averaging identities, pairwise {r['pairwise_worst']:.3e}")


def test_criterion_03_brown_halmos():
    rec, _ = run("brown_halmos")
    r = rec.residuals
    assert rec.verdict
    assert r["elements"] == 200
    assert r["planted_pure"] == 50 and r["planted_corrected"] == 50
    assert r["false_verdicts"] == 0
    assert r["fixed_point_worst"] == 0.0
    print("PASS criterion 3: Brown-Halmos, zero false verdicts on 200 elements")


def test_criterion_04_commutant_lifting():
    rec, _ = run("commutant_lifting")
    r = rec.residuals
    assert rec.verdict
    assert r["symbols"] == 50
    assert r["accepted"] == 50 and r["rejected"] == 50
    assert r["bracket_contained"]
    assert r["truncation"] == 1024
    assert r["gap_worst"] <= 1e-3
    print(f"PASS criterion 4: commutant lifting, gap {r['gap_worst']:.3e}")


def test_criterion_05_cross_section():
    rec, _ = run("cross_section")
    r = rec.residuals
    assert rec.verdict
    assert r["closed_form_worst"] <= 1e-10
    assert 1024 in r["truncations"]
    assert r["final_gap"] <= 1e-3
    assert r["scalar_verdict"] == "PASS"
    assert abs(r["block_lower"] - 1.0) <= 1e-8
    assert abs(r["block_sup"] - 1.0) <= 1e-8
    print(f"PASS criterion 5: cross-section, closed form {r['closed_form_worst']:.3e}")


def test_criterion_06_spectral_inclusions():
    hw, t_hw = run("hartman_wintner")
    cb, t_cb = run("convex_bound")
    assert hw.verdict and cb.verdict
    assert hw.residuals["symbols"] == 20
    assert hw.residuals["counterexamples"] == 0
    assert cb.residuals["lambda_points"] == 200 * 200
    assert cb.residuals["counterexamples"] == 0
    assert t_hw + t_cb < 30.0
    print(f"PASS criterion 6: spectral inclusions in {t_hw + t_cb:.1f}s")


def test_criterion_07_szego_model():
    rec, _ = run("szego_model")
    r = rec.residuals
    assert rec.verdict
    assert r["dims"] == [2, 3] and r["degree"] == 10
    assert r["isometry_interior_worst"] <= 1e-12
    assert r["top_shell_deviation"] <= 1e-12
    assert r["moment_mismatches"] == 0
    assert r["fixed_point_worst"] <= 1e-10
    assert r["planted_interior_min"] >= 0.4
    assert r["extension_defect_worst"] <= 1e-12
    print(f"PASS criterion 7: Szego model, moment mismatches {r['moment_mismatches']}")


def test_criterion_08_polydisc_gamma_equation():
    ge, _ = run("gamma_equation")
    si, _ = run("scaled_isometry")
    rg, rs = ge.residuals, si.residuals
    assert ge.verdict and si.verdict
    assert rg["trials"] == 20 and rg["exact_failures"] == 0
    lo, up = rg["probe_bracket"]
    assert lo <= 1.0 <= up + 1e-12
    assert rg["probe_verdict"] == "NOT_TOEPLITZ"
    assert rs["scaled_residual"] == 0.0 and rs["scaled_exact"]
    assert abs(rs["unscaled_bracket"][0] - 1.0) <= 1e-12
    print("PASS criterion 8: gamma^2 equation, 20 pure sums cancel exactly")


def test_criterion_09_weighted_hardy():
    rec, _ = run("weighted_hardy")
    r = rec.residuals
    assert rec.verdict
    assert r["degrees"] == [32, 64, 128]
    assert r["isometry_worst"] <= 1e-10
    assert r["nonincreasing"]
    assert r["lebesgue_reproduction_diff"] == 0.0
    assert r["gram_residual"] <= 1e-10
    print(f"PASS criterion 9: weighted Hardy, isometry {r['isometry_worst']:.3e}")


def test_criterion_10_deterministic_reports(tmp_path):
    for sub in ("a", "b"):
        code = cli.main(["run", str(SMOKE), "--out", str(tmp_path / sub)])
        assert code == 0
    (run_a,) = (tmp_path / "a").iterdir()
    (run_b,) = (tmp_path / "b").iterdir()
    bytes_a = (run_a / "report.json").read_bytes()
    bytes_b = (run_b / "report.json").read_bytes()
    assert bytes_a == bytes_b
    print("PASS criterion 10: rerun report.json byte-identical")


# every check at small sizes, so two fresh interpreters finish in seconds
REDUCED = {
    "name": "reduced",
    "seed": 31,
    "suite": "all",
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
    },
}


def test_criterion_10_reports_identical_across_processes(tmp_path, child_env):
    scenario = tmp_path / "reduced.json"
    scenario.write_text(json.dumps(REDUCED))
    reports = []
    # the last run is optimized: no check may lean on an assert
    for flags, hash_seed in (([], "0"), ([], "12345"), (["-O"], "0")):
        out = tmp_path / f"run-{len(reports)}"
        done = subprocess.run(
            [sys.executable, *flags, "-m", "sphiso", "run", str(scenario), "--out", str(out)],
            env=dict(child_env, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        (run_dir,) = out.iterdir()
        reports.append((run_dir / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert len(json.loads(reports[0])["checks"]) == len(checks.REGISTRY)
    print("PASS criterion 10: report.json byte-identical across PYTHONHASHSEED 0 and 12345 and -O")


def test_reports_do_not_depend_on_the_table_cache(tmp_path, monkeypatch):
    # a warm cache of unit-root power tables and a cleared one give the same
    # report bytes: the cached samples carry eval_at's bits. Those runs stay
    # in this process, whose cache they use; a run on forked workers, which
    # leaves this process's cache as it was, gives the same bytes too
    scenario = tmp_path / "reduced.json"
    scenario.write_text(json.dumps(REDUCED))
    reports = []
    for label in ("first", "warm", "cleared", "pool"):
        workers = 2 if label == "pool" else 1
        monkeypatch.setattr(checks, "_worker_count", lambda n, w=workers: min(n, w))
        if label == "cleared":
            symbols._unit_powers.cache_clear()
        hits = symbols._unit_powers.cache_info().hits
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / label)]) == 0
        if label != "pool":
            assert symbols._unit_powers.cache_info().hits > hits
        (run_dir,) = (tmp_path / label).iterdir()
        assert json.loads((run_dir / "manifest.json").read_text())["workers"] == workers
        reports.append((run_dir / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2] == reports[3]


# prints one canonical record per line: each check of the scenario in argv[1],
# in reverse registry order, in an interpreter that has run nothing before
REVERSE_RUN = """
import json, sys
from sphiso import checks, cli
_, seed, suite, params = cli.validate_scenario(json.loads(sys.argv[1]))
for cid in reversed(checks.suite_check_ids(suite)):
    rec = checks.run_check(cid, params, seed)
    print(checks.canonical_json([rec.to_json(), rec.decisions, rec.artifacts]))
"""


def test_records_do_not_depend_on_check_order(child_env, monkeypatch):
    # the suite in registry order in this process, the suite on two forked
    # workers, each check alone from a cleared table cache, and the suite in
    # reverse order in a fresh interpreter give the same records bit for
    # bit, with the same notes and tables: no cache carries state from one
    # check, or from an earlier test, to the next. Both suite runs time
    # every check, in registry order
    _, seed, suite, params = cli.validate_scenario(REDUCED)
    ids = checks.suite_check_ids(suite)
    assert len(ids) == len(checks.REGISTRY)

    def record_bytes(recs):
        return [checks.canonical_json([r.to_json(), r.decisions, r.artifacts]) for r in recs]

    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(checks, "_worker_count", lambda n, w=workers: min(n, w))
        report = checks.run_checks(suite, params, seed)
        assert report.workers == workers
        assert list(report.timing) == ids
        runs.append(record_bytes(report.checks))
    forward, pooled = runs
    alone = []
    for cid in ids:
        symbols._unit_powers.cache_clear()
        alone.append(checks.run_check(cid, params, seed))
    done = subprocess.run(
        [sys.executable, "-c", REVERSE_RUN, json.dumps(REDUCED)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert pooled == forward
    assert record_bytes(alone) == forward
    assert done.stdout.splitlines()[::-1] == forward
