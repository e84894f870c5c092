"""The recorder: what a check notes and the tables it writes reach its own
record, and nothing is kept outside `record.collect`."""

import csv
import dataclasses
import io

from sphiso import checks, record
from sphiso import circle_calculus as cc
from sphiso import spectra as sp
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)


def csv_text(rows):
    """The oracle of every CSV artifact: rows as `csv.writer` writes them."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def test_note_and_artifact_do_nothing_outside_collect():
    record.note(size=1)
    record.artifact("t.csv", "a\r\n")
    assert sp.numerical_range_support(Z, [0.0], 64).verdict
    with record.collect() as (notes, artifacts):
        pass
    assert notes == {} and artifacts == {}


def test_inner_collect_keeps_its_own():
    with record.collect() as (outer, outer_tables):
        record.note(size=1, clamped=False)
        with record.collect() as (inner, inner_tables):
            record.note(size=2)
            record.artifact("inner.csv", "x\r\n")
        record.note(size=3, clamped=True)
    assert outer == {"size": [1, 3], "clamped": [False, True]} and outer_tables == {}
    assert inner == {"size": [2]} and inner_tables == {"inner.csv": "x\r\n"}


def test_a_check_run_inside_a_check_keeps_its_notes(monkeypatch):
    # determinism reruns algebra_closure through run_check: what the inner
    # runs note and write stays in their records, and the outer one keeps
    # the notes made before and after them
    def noisy(runner, tag):
        def run(params, seed):
            record.note(by=tag)
            record.artifact(f"{tag}.csv", f"{tag}\r\n")
            out = runner(params, seed)
            record.note(by=tag)
            return out

        return run

    for cid in ("determinism", "algebra_closure"):
        spec = checks.REGISTRY[cid]
        monkeypatch.setitem(
            checks.REGISTRY, cid, dataclasses.replace(spec, runner=noisy(spec.runner, cid))
        )
    params = dict(checks.DEFAULT_PARAMS, trials=2)
    inner = checks.run_check("algebra_closure", params, 3)
    assert inner.decisions == {"by": ["algebra_closure", "algebra_closure"]}
    assert inner.artifacts == {"algebra_closure.csv": "algebra_closure\r\n"}
    outer = checks.run_check("determinism", params, 3)
    assert outer.verdict
    assert outer.decisions == {"by": ["determinism", "determinism"], "rerun_trials": [2]}
    assert outer.artifacts == {"determinism.csv": "determinism\r\n"}


def test_artifacts_reach_the_record():
    # each table is the text csv.writer makes of its rows; cross_section
    # notes one factorization count per truncation norm (scalar and block),
    # convex_bound notes nothing
    params = dict(
        checks.DEFAULT_PARAMS,
        cross_section_truncation=128,
        spectra_symbols=1,
        lambda_points=10,
    )
    cross = checks.run_check("cross_section", params, 5)
    sizes = cross.residuals["truncations"]
    norms = cc.cross_section_isometry(Z + Z.conjugate(), sizes).lower_bounds
    want = csv_text([("truncation", "norm")] + [(str(n), repr(v)) for n, v in zip(sizes, norms)])
    assert cross.artifacts == {"cross_section.csv": want}
    assert list(cross.decisions) == ["factorizations"]
    assert len(cross.decisions["factorizations"]) == 2 * len(sizes)

    hull = checks.run_check("convex_bound", params, 5)
    assert list(hull.artifacts) == ["spectrum_0.csv"]
    (phi,) = checks._suite_symbols(params, 5)
    rep = sp.convex_bound_check(phi, 10, grid_size=params["grid_size"])
    rows = [("lambda_re", "lambda_im", "status")]
    rows += [(repr(v.real), repr(v.imag), st) for v, st in zip(rep.lams.tolist(), rep.statuses)]
    assert hull.artifacts["spectrum_0.csv"] == csv_text(rows)
    assert len(rows) == 1 + 10 * 10
    assert hull.decisions == {}
