"""The recorder: what a check notes and the tables it writes reach its own
record, and nothing is kept outside `record.collect`."""

import dataclasses

from sphiso import checks, record
from sphiso import spectra as sp
from sphiso.symbols import LaurentPoly

Z = LaurentPoly.variable(0, 1)


def test_note_and_artifact_do_nothing_outside_collect():
    record.note(size=1)
    record.artifact("t.csv", [("a",)])
    assert sp.numerical_range_support(Z, [0.0], 64).verdict
    with record.collect() as (notes, artifacts):
        pass
    assert notes == {} and artifacts == {}


def test_inner_collect_keeps_its_own():
    with record.collect() as (outer, outer_tables):
        record.note(size=1, clamped=False)
        with record.collect() as (inner, inner_tables):
            record.note(size=2)
            record.artifact("inner.csv", [("x",)])
        record.note(size=3, clamped=True)
    assert outer == {"size": [1, 3], "clamped": [False, True]} and outer_tables == {}
    assert inner == {"size": [2]} and inner_tables == {"inner.csv": [("x",)]}


def test_a_check_run_inside_a_check_keeps_its_notes(monkeypatch):
    # determinism reruns algebra_closure through run_check: what the inner
    # runs note and write stays in their records, and the outer one keeps
    # the notes made before and after them
    def noisy(runner, tag):
        def run(params, seed):
            record.note(by=tag)
            record.artifact(f"{tag}.csv", [(tag,)])
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
    assert inner.artifacts == {"algebra_closure.csv": [("algebra_closure",)]}
    outer = checks.run_check("determinism", params, 3)
    assert outer.verdict
    assert outer.decisions == {"by": ["determinism", "determinism"], "rerun_trials": [2]}
    assert outer.artifacts == {"determinism.csv": [("determinism",)]}


def test_artifacts_reach_the_record():
    params = dict(
        checks.DEFAULT_PARAMS,
        cross_section_truncation=128,
        spectra_symbols=1,
        lambda_points=10,
    )
    cross = checks.run_check("cross_section", params, 5)
    (rows,) = cross.artifacts.values()
    assert list(cross.artifacts) == ["cross_section.csv"] and cross.decisions == {}
    assert rows[0] == ("truncation", "norm")
    assert [n for n, _ in rows[1:]] == [str(n) for n in cross.residuals["truncations"]]

    hull = checks.run_check("convex_bound", params, 5)
    assert list(hull.artifacts) == ["spectrum_0.csv"]
    rows = hull.artifacts["spectrum_0.csv"]
    assert rows[0] == ("lambda_re", "lambda_im", "status") and len(rows) == 1 + 10 * 10
    assert hull.decisions == {}
