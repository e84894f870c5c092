"""The byte-matrix diff, fed synthetic reports; no run is started."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bytematrix.py"
spec = importlib.util.spec_from_file_location("bytematrix", TOOL)
bytematrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bytematrix)


def report(gap, verdict, nan=math.nan):
    checks = [
        {"id": "algebra_closure", "residuals": {"star_worst": 0.0, "trials": 5}, "verdict": "pass"},
        {"id": "commutant_lifting", "residuals": {"gap_worst": gap, "odd": nan}, "verdict": verdict},
    ]
    return json.dumps({"checks": checks, "scenario": {"seed": 3}, "version": "0.1.0"})


def test_diff_names_a_moved_residual_by_its_path():
    moved, flipped = bytematrix.diff_reports(report(0.25, "pass"), report(0.375, "pass"))
    # a NaN on both sides has not moved
    assert moved == [
        {"path": "checks.commutant_lifting.residuals.gap_worst", "old": 0.25, "new": 0.375, "rel": 0.5}
    ]
    assert flipped == []
    assert bytematrix.diff_reports(report(2.0, "pass"), report(2.0, "pass")) == ([], [])


def test_diff_flags_a_flipped_verdict():
    moved, flipped = bytematrix.diff_reports(report(1e-15, "pass"), report(0.2, "fail"))
    paths = [m["path"] for m in moved]
    assert paths == [
        "checks.commutant_lifting.residuals.gap_worst",
        "checks.commutant_lifting.verdict",
    ]
    assert flipped == [
        {"path": "checks.commutant_lifting.verdict", "old": "pass", "new": "fail", "rel": None}
    ]


def test_compare_counts_files_and_reads_csv_cells():
    old = {
        ("full", "report.json"): report(1.0, "pass").encode(),
        ("full", "spectrum_0.csv"): b"lambda_re,lambda_im,status\r\n0.5,0.0,ON_CURVE\r\n",
        ("full", "cross_section.csv"): b"truncation,norm\r\n64,1.5\r\n",
    }
    new = dict(old)
    new["full", "spectrum_0.csv"] = b"lambda_re,lambda_im,status\r\n0.5,0.0,OUTSIDE\r\n"
    new["full", "cross_section.csv"] = b"truncation,norm\r\n64,1.25\r\n"
    summary = bytematrix.compare(old, new)
    assert (summary["files"], summary["identical"]) == (3, 1)
    assert summary["flipped"] == [] and summary["missing"] == []
    assert summary["moved"] == [
        {"run": "full", "file": "cross_section.csv", "path": "[0][norm]", "old": 1.5, "new": 1.25,
         "rel": 1 / 6},
        {"run": "full", "file": "spectrum_0.csv", "path": "[0][status]", "old": "ON_CURVE",
         "new": "OUTSIDE", "rel": None},
    ]


def test_matrix_holds_eighteen_runs():
    runs = bytematrix.matrix()
    assert len(runs) == len({label for label, _, _ in runs}) == 18
    assert ("full-spectra-20", "full.json", ["--suite", "spectra", "--seed", "20"]) in runs
