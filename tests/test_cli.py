import csv
import io
import json
import math

import pytest

from sphiso import checks, cli, spectra
from sphiso.errors import UsageError

SMALL = {
    "name": "unit",
    "seed": 7,
    "suite": "circle",
    "parameters": {
        "trials": 5,
        "max_degree": 3,
        "max_correction": 3,
        "elements": 12,
        "planted": 3,
        "commutant_symbols": 4,
        "commutant_truncation": 256,
        "cross_section_truncation": 256,
    },
}


def write_scenario(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_dirs(tmp_path):
    return sorted((tmp_path / "runs").iterdir())


# ---------------------------------------------------------------------------
# scenario validation


def test_validate_defaults():
    name, seed, suite, params = cli.validate_scenario({})
    assert (name, seed, suite) == ("scenario", 0, "all")
    assert params == checks.DEFAULT_PARAMS


def test_validate_rejects(tmp_path, capsys):
    cases = [
        ({"seed": True}, ".seed"),
        ({"seed": -1}, ".seed"),
        ({"seed": 2**64}, ".seed"),
        ({"name": ""}, ".name"),
        ({"suite": "nope"}, ".suite"),
        ({"parameters": {"bogus": 3}}, "bogus"),
        ({"parameters": {"trials": 0}}, ".parameters.trials"),
        ({"parameters": {"trials": True}}, ".parameters.trials"),
        ({"parameters": {"hardy_degrees": []}}, ".parameters.hardy_degrees"),
        ({"parameters": {"hardy_degrees": [8, 0]}}, ".parameters.hardy_degrees"),
        ({"parameters": {"elements": 10, "planted": 8}}, ".parameters.elements"),
        ({"parameters": {"grid_size": 8}}, ".parameters.grid_size"),
        ({"parameters": {"symbols": ["z +"]}}, ".parameters.symbols[0]"),
        ({"parameters": {"symbols": ["z1*z2"]}}, "one-variable"),
        ({"parameters": {"symbols": ["z^40"]}}, "band too large"),
        # the band rule reads the run's nr_truncation wherever the key stands
        ({"parameters": {"symbols": ["z^30"], "nr_truncation": 64}}, ".symbols[0]: band too large"),
        # and the grid rule the run's grid_size
        (
            {"parameters": {"symbols": ["z", "z^128"], "nr_truncation": 1024}},
            ".parameters.symbols[1]: band 128 needs grid_size >= 516",
        ),
        # the sampled curve or its sag bound would overflow
        ({"parameters": {"symbols": ["z", "1e308*z + 1e308*z^2"]}}, ".symbols[1]: coefficients too large"),
        ({"parameters": {"symbols": ["1e306*z^20"]}}, ".symbols[0]: coefficients too large"),
        # finite, but squared distances between samples overflow past ~1.3e154
        (
            {"parameters": {"symbols": ["1e160*z + 0.5e160*zbar^2"]}},
            ".symbols[0]: coefficients too large, the l1 norm exceeds 1e150",
        ),
        ({"parameters": {"symbols": ["1e307*z"]}}, ".symbols[0]: coefficients too large"),
        # each of these passed validation and then crashed its check
        ({"parameters": {"cross_section_truncation": 32}}, ".parameters.cross_section_truncation"),
        ({"parameters": {"nr_truncation": 8}}, ".parameters.nr_truncation"),
        ({"parameters": {"hardy_degrees": [4]}}, ".parameters.hardy_degrees"),
        ({"parameters": {"lambda_points": 1}}, ".parameters.lambda_points"),
        ({"parameters": {"sphere_degree": 1}}, ".parameters.sphere_degree"),
        ({"parameters": {"tolerances": {"identity": 0}}}, "tolerances must be > 0"),
        ({"parameters": {"tolerances": {"other": 1e-6}}}, "unknown tolerance"),
        ({"parameters": {"tolerances": {"gap": float("inf")}}}, "gap: tolerances must be finite"),
        ({"parameters": {"tolerances": {"gap": float("nan")}}}, "gap: tolerances must be finite"),
        ({"parameters": {"tolerances": {"gap": 10**400}}}, "gap: tolerances must be finite"),
        # tolerances belong under parameters; a top-level key must not pass silently
        ({"tolerances": {"gap": 1e-9}}, ".tolerances: unknown key"),
        ({"extra": 1}, ".extra: unknown key"),
    ]
    for obj, needle in cases:
        with pytest.raises(UsageError) as ei:
            cli.validate_scenario(obj)
        assert needle in str(ei.value), (obj, str(ei.value))
    # json.loads reads the non-standard literals Infinity and NaN as floats
    for literal in ("Infinity", "NaN"):
        path = tmp_path / f"{literal}.json"
        path.write_text('{"parameters": {"tolerances": {"identity": %s}}}' % literal)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "parameters.tolerances.identity: tolerances must be finite" in err, err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_an_overflowing_symbol(tmp_path, capsys):
    # this scenario used to validate, then die in a pool worker on the
    # overflowing samples of the convex bound
    params = {"symbols": ["1e308*z + 1e308*z^2"], "spectra_symbols": 1, "lambda_points": 20, "probes": 5}
    scenario = write_scenario(tmp_path, {"suite": "spectra", "parameters": params})
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "parameters.symbols[0]: coefficients too large" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_validate_parameter_kinds():
    # a parameter's kind follows the type of its default
    counts = [k for k, v in checks.DEFAULT_PARAMS.items() if isinstance(v, int)]
    lists = [
        k for k, v in checks.DEFAULT_PARAMS.items() if isinstance(v, list) and k != "symbols"
    ]
    assert len(counts) == 21
    assert lists == ["sphere_dims", "hardy_degrees"]
    for key in counts:
        for bad in (0, True, 2.0, [1]):
            with pytest.raises(UsageError, match=f"{key}: expected an integer >= 1"):
                cli.validate_scenario({"parameters": {key: bad}})
    good = {"sphere_dims": [2, 3], "hardy_degrees": [16, 32]}
    for key in lists:
        for bad in ([], 3, [1, 0], [True], [1.0]):
            with pytest.raises(UsageError, match=f"{key}: expected a nonempty list"):
                cli.validate_scenario({"parameters": {key: bad}})
        _, _, _, params = cli.validate_scenario({"parameters": {key: good[key]}})
        assert params[key] == good[key]


def test_validate_cross_section_cap_meets_the_gap():
    # z + zbar's truncation at n has norm 2 cos(pi / (n + 1)); caps 64-127
    # compare at 64 alone, which misses 2 by 2.3e-3, above the default gap
    for cap in (64, 100, 127):
        with pytest.raises(UsageError, match="cross_section_truncation: .*, 64, misses"):
            cli.validate_scenario({"parameters": {"cross_section_truncation": cap}})
    _, _, _, params = cli.validate_scenario({"parameters": {"cross_section_truncation": 128}})
    assert params["cross_section_truncation"] == 128
    # the rule reads the run's gap tolerance
    loose = {"cross_section_truncation": 64, "tolerances": {"gap": 3e-3}}
    assert cli.validate_scenario({"parameters": loose})[3]["cross_section_truncation"] == 64
    tight = {"cross_section_truncation": 256, "tolerances": {"gap": 1e-9}}
    with pytest.raises(UsageError, match="cross_section_truncation: .*, 256, misses"):
        cli.validate_scenario({"parameters": tight})
    # and each cap passes or fails its check as validation said, on seed 1
    for cap in (127, 128):
        record = checks.run_check(
            "cross_section", dict(checks.DEFAULT_PARAMS, cross_section_truncation=cap), 1
        )
        assert record.verdict == (cap == 128)


def test_validate_tolerance_override():
    _, _, _, params = cli.validate_scenario(
        {"parameters": {"tolerances": {"gap": 0.01}}}
    )
    assert params["tolerances"]["gap"] == 0.01
    assert params["tolerances"]["identity"] == 1e-12


# ---------------------------------------------------------------------------
# run


def test_run_writes_artifacts(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SMALL)
    code = cli.main(["run", scenario, "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert code == 0
    (rundir,) = run_dirs(tmp_path)
    assert (rundir / "report.json").is_file()
    assert (rundir / "manifest.json").is_file()
    assert (rundir / "cross_section.csv").is_file()
    for cid in checks.suite_check_ids("circle"):
        assert f"PASS {cid}" in out
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["name"] == "unit"
    assert manifest["report"] == "report.json"

    report = json.loads((rundir / "report.json").read_text())
    assert [c["id"] for c in report["checks"]] == checks.suite_check_ids("circle")
    assert all(c["verdict"] == "pass" for c in report["checks"])
    # canonical bytes: serializing the parsed object reproduces the file
    assert checks.canonical_json(report) == (rundir / "report.json").read_text()


def test_run_reports_are_reproducible(tmp_path):
    scenario = write_scenario(tmp_path, SMALL)
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 0
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 0
    first, second = run_dirs(tmp_path)
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


def test_run_seed_changes_report(tmp_path):
    scenario = write_scenario(tmp_path, SMALL)
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 0
    assert cli.main(["run", scenario, "--seed", "8", "--out", str(tmp_path / "runs")]) == 0
    first, second = run_dirs(tmp_path)
    assert (first / "report.json").read_bytes() != (second / "report.json").read_bytes()


SPECTRA = {
    "name": "small-spectra",
    "seed": 3,
    "suite": "spectra",
    "parameters": {
        "spectra_symbols": 3,
        "lambda_points": 40,
        "probes": 20,
        "nr_thetas": 8,
        "nr_truncation": 128,
    },
}

# canonical records of this scenario's two winding checks, as written before
# the manifest carried the numerical decisions
SPECTRA_RECORDS = [
    '{"id":"hartman_wintner","inputs_digest":"f50749b8151c989e","residuals":'
    '{"counterexamples":0,"probes_certified":60,"symbols":3},"tag":"Thm3.1(3)",'
    '"verdict":"pass"}',
    '{"id":"convex_bound","inputs_digest":"282b22090d10b1a2","residuals":'
    '{"counterexamples":0,"lambda_points":1600,"symbols":3,'
    '"tolerance_worst":1.6612108175850935},"tag":"Thm3.1(3)","verdict":"pass"}',
]


def test_run_decisions_go_to_manifest_only(tmp_path):
    scenario = write_scenario(tmp_path, SPECTRA)
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 0
    (rundir,) = run_dirs(tmp_path)
    raw = (rundir / "report.json").read_text()
    report = json.loads(raw)
    assert [checks.canonical_json(c) for c in report["checks"][:2]] == SPECTRA_RECORDS
    manifest = json.loads((rundir / "manifest.json").read_text())
    decisions = manifest["decisions"]
    assert isinstance(manifest["workers"], int) and manifest["workers"] >= 1
    # no noted key is a key of the report, nor occurs in it at all
    noted = {key for check in decisions.values() for key in check}
    for key in {"decisions", "workers"} | noted:
        assert key not in raw

    # convex_bound notes nothing
    assert set(decisions) == {"hartman_wintner", "numerical_range"}
    hw = decisions["hartman_wintner"]
    assert set(hw) == {"fine_size", "fine_clamped", "probes_kept", "clearance_fallbacks"}
    assert len(hw["fine_size"]) == len(hw["fine_clamped"]) == 3
    assert len(hw["clearance_fallbacks"]) == 3
    assert all(isinstance(n, int) and n >= 0 for n in hw["clearance_fallbacks"])
    assert all(2048 <= n <= 65536 for n in hw["fine_size"])
    assert hw["probes_kept"] == [20, 20, 20]
    nr = decisions["numerical_range"]
    assert set(nr) == {"sup_points", "sup_sag", "band"}
    assert len(nr["sup_points"]) == len(nr["sup_sag"]) == len(nr["band"]) == 4
    # the 4096-point grid and a few resampled arcs, each within the sag target
    assert all(4096 < n < 40_000 for n in nr["sup_points"])
    assert all(0.0 <= sag <= 2e-9 for sag in nr["sup_sag"])
    # the pure symbols' own bands, then the corrected element's symbol band
    # widened to k - 1 by its k x k corner
    seed, degree = SPECTRA["seed"], checks.DEFAULT_PARAMS["spectra_degree"]
    drawn = checks.spectra_suite_symbols(seed, 3, degree)
    rng = checks._rng(seed, 62, 0)
    symbol, corner = checks.random_symbol(rng, 3), checks.random_correction(rng, 3)
    widened = max(symbol.band(), max(corner.shape) - 1)
    assert nr["band"] == [phi.band() for phi in drawn] + [widened]


def test_run_notes_the_determinism_rerun_trials(tmp_path):
    # determinism reruns its checks at no more than 5 trials; the cut goes
    # to the manifest and never to the report
    obj = dict(SMALL, parameters=dict(SMALL["parameters"], trials=7))
    scenario = write_scenario(tmp_path, obj)
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 0
    (rundir,) = run_dirs(tmp_path)
    raw = (rundir / "report.json").read_text()
    decisions = json.loads((rundir / "manifest.json").read_text())["decisions"]
    assert decisions["determinism"] == {"rerun_trials": [5]}
    assert "rerun_trials" not in raw
    (record,) = [c for c in json.loads(raw)["checks"] if c["id"] == "determinism"]
    assert record["verdict"] == "pass"


def test_run_writes_a_nan_residual_and_exits_1(tmp_path, monkeypatch, capsys):
    # a kernel that returns NaN fails its check; the report still writes
    monkeypatch.setattr(spectra, "band_max_eig", lambda ab: math.nan)
    scenario = write_scenario(tmp_path, SPECTRA)
    assert cli.main(["run", scenario, "--out", str(tmp_path / "runs")]) == 1
    assert "failing checks: numerical_range" in capsys.readouterr().err
    (rundir,) = run_dirs(tmp_path)
    raw = (rundir / "report.json").read_text()
    verdicts = {c["id"]: c["verdict"] for c in json.loads(raw)["checks"]}
    assert verdicts == {"hartman_wintner": "pass", "convex_bound": "pass", "numerical_range": "fail"}
    nr = json.loads(raw)["checks"][2]["residuals"]
    assert nr["support_margin_worst"] == "nan" and nr["violations"] == 4 * 8
    assert checks.canonical_json(json.loads(raw)) == raw


def test_run_suite_override(tmp_path, capsys):
    obj = dict(SMALL)
    obj["parameters"] = dict(SMALL["parameters"], hardy_degrees=[16, 24], hardy_window=4)
    scenario = write_scenario(tmp_path, obj)
    code = cli.main(["run", scenario, "--suite", "measures", "--out", str(tmp_path / "runs")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS weighted_hardy" in out
    (rundir,) = run_dirs(tmp_path)
    report = json.loads((rundir / "report.json").read_text())
    assert [c["id"] for c in report["checks"]] == ["weighted_hardy"]


def test_run_spectrum_csv_bytes_match_per_value_repr(tmp_path, capsys):
    # spectrum_0.csv is written as it was when each coordinate had its own repr
    params = {"spectra_symbols": 2, "lambda_points": 30, "probes": 10}
    obj = {"name": "csv", "seed": 3, "suite": "spectra", "parameters": params}
    assert cli.main(["run", write_scenario(tmp_path, obj), "--out", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    (rundir,) = run_dirs(tmp_path)
    _, seed, _, full = cli.validate_scenario(obj)
    phi = checks._suite_symbols(full, seed)[0]
    rep = spectra.convex_bound_check(phi, 30, full["grid_size"])
    out = io.StringIO(newline="")
    rows = [("lambda_re", "lambda_im", "status")]
    for lam, st in zip(rep.lams.tolist(), rep.statuses.tolist()):
        rows.append((repr(lam.real), repr(lam.imag), st))
    csv.writer(out).writerows(rows)
    assert (rundir / "spectrum_0.csv").read_bytes() == out.getvalue().encode()


def test_run_failing_tolerance_exits_one(tmp_path, capsys):
    # the truncation-vs-sup gap is structurally positive at finite truncation,
    # 3.4e-4 at commutant_truncation 256, so a gap tolerance of 1e-5 must fail
    # the commutant check; cross_section's last truncation, 1024, misses norm
    # 2 by 9.4e-6, within it (a tighter gap is a usage error, tested above)
    obj = dict(SMALL)
    obj["parameters"] = dict(
        SMALL["parameters"], cross_section_truncation=1024, tolerances={"gap": 1e-5}
    )
    scenario = write_scenario(tmp_path, obj)
    code = cli.main(["run", scenario, "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL commutant_lifting" in captured.out
    assert "PASS cross_section" in captured.out
    assert "failing checks:" in captured.err


def test_run_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert cli.main(["run", missing]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    zero_tol = write_scenario(
        tmp_path,
        {"parameters": {"tolerances": {"identity": 0}}},
        name="zero.json",
    )
    assert cli.main(["run", zero_tol]) == 2
    assert "tolerances" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# explain


def test_explain_known_check(capsys):
    assert cli.main(["explain", "thm2_1_identities"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("thm2_1_identities [Thm2.1")
    assert "model:" in out and "pass:" in out


def test_explain_every_registered_check(capsys):
    for cid in checks.suite_check_ids("all"):
        assert cli.main(["explain", cid]) == 0
        assert cid in capsys.readouterr().out


def test_explain_szego_states_the_exact_moment_check(capsys):
    assert cli.main(["explain", "szego_model"]) == 0
    out = capsys.readouterr().out
    assert "stick-breaking" in out and "agree exactly" in out
    assert "Monte Carlo" not in out and "Bonferroni" not in out


def test_explain_unknown_check(capsys):
    assert cli.main(["explain", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "available:" in err


# ---------------------------------------------------------------------------
# symbol-eval


def test_symbol_eval(capsys):
    assert cli.main(["symbol-eval", "z + 0.5*zbar^2"]) == 0
    out = capsys.readouterr().out
    assert "degrees:  [-2, 1]" in out
    assert "l1 norm:  1.5" in out
    assert "winding about 0:" in out


def test_symbol_eval_on_curve_winding(capsys):
    assert cli.main(["symbol-eval", "1 + z"]) == 0
    out = capsys.readouterr().out
    assert "winding about 0: undefined" in out


def test_symbol_eval_analytic_degrees(capsys):
    assert cli.main(["symbol-eval", "z"]) == 0
    assert "degrees:  [0, 1]" in capsys.readouterr().out


def test_symbol_eval_two_variables(capsys):
    assert cli.main(["symbol-eval", "z1*zbar2 + 0.5"]) == 0
    out = capsys.readouterr().out
    assert "sup |phi|: in [1.5, 1.5] (512-point grid)" in out
    assert "degrees" not in out
    assert "winding" not in out


def test_symbol_eval_errors(capsys):
    assert cli.main(["symbol-eval", "z +"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert cli.main(["symbol-eval", "1e400*z"]) == 2
    assert "coefficients must be finite" in capsys.readouterr().err
    assert cli.main(["symbol-eval", "z^3", "--grid", "8"]) == 2
    assert "--grid must be >=" in capsys.readouterr().err


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("symbol-eval sampled an oversized grid")


@pytest.mark.parametrize(
    "argv",
    [
        ["z", "--grid", "100000000000"],
        ["z1 + z2 + z3 + z4 + z5"],  # 512^5 points at the default grid
        ["z1 + z2 + z3"],  # 512^3
        ["z1 + z2", "--grid", "2049"],
    ],
)
def test_symbol_eval_refuses_a_grid_too_large_to_sample(argv, capsys, monkeypatch):
    # grid ** nvars is bounded before any sample is taken
    monkeypatch.setattr(cli, "sup_norm", _refuse_to_sample)
    monkeypatch.setattr(cli, "winding", _refuse_to_sample)
    assert cli.main(["symbol-eval", *argv]) == 2
    assert "torus points, more than 4194304" in capsys.readouterr().err


def test_symbol_eval_takes_a_grid_at_the_sample_bound(capsys, monkeypatch):
    # 2048^2 = 2^22 points pass; a stub bracket spares the test sampling them
    monkeypatch.setattr(cli, "sup_norm", lambda phi, grid_size: (2.0, 2.0))
    assert cli.main(["symbol-eval", "z1 + z2", "--grid", "2048"]) == 0
    assert "(2048-point grid)" in capsys.readouterr().out


def test_symbol_eval_rejects_a_huge_symbol_as_a_usage_error(capsys):
    # the sup bracket holds at 1e200; the winding's curve refuses an l1 norm
    # past 1e150, which reads as a usage error, not a traceback
    assert cli.main(["symbol-eval", "1e200*z"]) == 2
    captured = capsys.readouterr()
    assert "sup |phi|: in [1e+200, 1e+200]" in captured.out
    assert "error: cannot evaluate symbol: coefficients too large" in captured.err
