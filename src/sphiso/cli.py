"""Command line entry points: scenario runner, check explainer, symbol eval.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error.
A run writes runs/<name>-<timestamp>/ with manifest.json (timing, versions,
paths, and per check the numerical choices it and its kernels noted: grid
sizes, whether a cap clamped them, probes kept, rerun trials), report.json
(canonical bytes, a pure function of the scenario), and the CSV artifacts
the checks wrote.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

from . import checks
from .errors import ArityError, OnCurveError, PreconditionError, UsageError
from .symbols import Curve, LaurentPoly, parse_terms, sup_norm, winding

_SUITE_NAMES = checks.SUITES

# symbol-eval samples grid ** nvars torus points; past this many (64 MiB of
# complex samples) it refuses rather than run out of memory
_EVAL_POINTS = 1 << 22


def validate_scenario(obj, origin="scenario"):
    """Return (name, seed, suite, params) or raise UsageError naming the field.

    Each parameter's kind comes from its default in `checks.DEFAULT_PARAMS`:
    an int is a count >= 1, a list of ints a nonempty list of counts;
    `symbols` and `tolerances` have their own rules.
    """
    if not isinstance(obj, dict):
        raise UsageError(f"{origin}: expected a JSON object")
    for key in obj:
        if key not in ("name", "seed", "suite", "parameters"):
            raise UsageError(f"{origin}.{key}: unknown key")
    name = obj.get("name", "scenario")
    if not isinstance(name, str) or not name:
        raise UsageError(f"{origin}.name: expected a nonempty string")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise UsageError(f"{origin}.seed: expected a 64-bit integer")
    suite = obj.get("suite", "all")
    if suite not in _SUITE_NAMES:
        raise UsageError(
            f"{origin}.suite: {suite!r} is not one of {', '.join(_SUITE_NAMES)}"
        )
    raw = obj.get("parameters", {})
    if not isinstance(raw, dict):
        raise UsageError(f"{origin}.parameters: expected a JSON object")
    params = json.loads(json.dumps(checks.DEFAULT_PARAMS))
    for key, value in raw.items():
        where = f"{origin}.parameters.{key}"
        if key not in params:
            raise UsageError(f"{where}: unknown parameter")
        default = checks.DEFAULT_PARAMS[key]
        if key == "tolerances":
            if not isinstance(value, dict):
                raise UsageError(f"{where}: expected a JSON object")
            for tk, tv in value.items():
                if tk not in params["tolerances"]:
                    raise UsageError(f"{where}.{tk}: unknown tolerance")
                if not isinstance(tv, (int, float)) or isinstance(tv, bool) or tv <= 0:
                    raise UsageError(f"{where}.{tk}: tolerances must be > 0")
                try:
                    tv = float(tv)
                except OverflowError:  # an integer beyond the float range
                    tv = math.inf
                if not math.isfinite(tv):
                    raise UsageError(f"{where}.{tk}: tolerances must be finite")
                params["tolerances"][tk] = tv
        elif key == "symbols":
            if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
                raise UsageError(f"{where}: expected a list of symbol strings")
            params[key] = list(value)
        elif isinstance(default, list):
            if (
                not isinstance(value, list)
                or not value
                or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in value)
            ):
                raise UsageError(f"{where}: expected a nonempty list of integers >= 1")
            params[key] = list(value)
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise UsageError(f"{where}: expected an integer >= 1")
            params[key] = value
    # each extra symbol meets the rules of the code that runs it: the parser's
    # arity, Curve's l1 bound and eval_grid's grid on the spectra grid, and
    # numerical_range_support's trunc >= 4*(band + correction), no correction
    for i, text in enumerate(params["symbols"]):
        where = f"{origin}.parameters.symbols[{i}]"
        try:
            phi = LaurentPoly.from_text(text, nvars=1)
            Curve(phi, params["grid_size"]).samples
        except (PreconditionError, ValueError) as exc:
            raise UsageError(f"{where}: {exc}") from exc
        if 4 * phi.band() > params["nr_truncation"]:
            raise UsageError(f"{where}: band too large for this run")
    deg = params["spectra_degree"]
    for key, least, why in [
        ("elements", 2 * params["planted"], "2 * planted"),
        ("grid_size", 4 * (1 + deg), "4 * (1 + spectra_degree)"),
        ("lambda_points", 2, "to cover the range box"),
        ("cross_section_truncation", 64, "the smallest truncation compared"),
        # numerical_range also checks a cubic with a 3 x 3 correction
        ("nr_truncation", 4 * max(deg, 6), "4 * max(spectra_degree, 6)"),
        # the window plus the band of z + zbar must stay below every degree
        ("hardy_degrees", params["hardy_window"] + 2, "hardy_window + 2"),
        ("sphere_degree", 2, "twice the band of the planted symbol"),
    ]:
        value = params[key]
        if (min(value) if isinstance(value, list) else value) < least:
            raise UsageError(f"{origin}.parameters.{key}: must be >= {least} ({why})")
    # cross_section compares z + zbar's truncations with the norm 2 of its
    # Toeplitz operator; at size n the truncation's norm is 2 cos(pi / (n + 1)),
    # so a last size missing 2 by more than the gap tolerance fails every seed
    n = checks.cross_section_sizes(params["cross_section_truncation"])[-1]
    miss = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
    if miss > params["tolerances"]["gap"]:
        raise UsageError(
            f"{origin}.parameters.cross_section_truncation: its largest truncation "
            f"compared, {n}, misses norm 2 by {miss:.3g} > tolerances.gap"
        )
    return name, seed, suite, params


def _load_scenario(path):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read scenario {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    return obj


def _run_dir(root, name):
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(root) / f"{name}-{stamp}"
    out, k = base, 1
    while out.exists():
        out = Path(f"{base}-{k}")
        k += 1
    out.mkdir(parents=True)
    return out


def cmd_run(args):
    obj = _load_scenario(args.scenario)
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.suite is not None:
        obj["suite"] = args.suite
    name, seed, suite, params = validate_scenario(obj, origin=Path(args.scenario).name)

    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    t0 = time.perf_counter()
    echo = {"name": name, "seed": seed, "suite": suite, "parameters": params}
    report = checks.run_checks(suite, params, seed, scenario_echo=echo)
    elapsed = time.perf_counter() - t0

    outdir = _run_dir(args.out, name)
    (outdir / "report.json").write_text(checks.canonical_json(checks.report_json(report)))
    import numpy
    import scipy

    manifest = {
        "name": name,
        "started": started,
        "elapsed_seconds": elapsed,
        "timing": report.timing,
        "workers": report.workers,
        "decisions": {r.check_id: r.decisions for r in report.checks if r.decisions},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "version": report.version,
        "report": "report.json",
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for record in report.checks:
        for fname, text in record.artifacts.items():
            with open(outdir / fname, "w", newline="") as fh:
                fh.write(text)

    for record in report.checks:
        mark = "PASS" if record.verdict else "FAIL"
        print(f"{mark} {record.check_id} [{record.tag}]")
    print(f"report: {outdir / 'report.json'}")
    if report.all_pass:
        return 0
    print("failing checks: " + ", ".join(report.failing_ids()), file=sys.stderr)
    return 1


def cmd_explain(args):
    print(checks.explain(args.check), end="")
    return 0


def cmd_symbol_eval(args):
    # eval_grid takes at least 4 points a variable, so no text of more than
    # `most` variables can be sampled; the parser refuses one before it widens
    # any term to the text's largest variable index
    most = (_EVAL_POINTS.bit_length() - 1) // 2
    try:
        parse_terms(args.expr, most)
        phi = LaurentPoly.from_text(args.expr)
    except ArityError as exc:
        raise UsageError(
            f"text uses {exc.used} variables: any grid samples at least 4^{exc.used} "
            f"torus points, more than {_EVAL_POINTS}"
        ) from exc
    except (PreconditionError, ValueError) as exc:
        raise UsageError(f"cannot parse symbol: {exc}") from exc
    grid = args.grid
    if grid**phi.nvars > _EVAL_POINTS:
        raise UsageError(
            f"--grid {grid} samples {grid}^{phi.nvars} torus points, more than {_EVAL_POINTS}"
        )
    try:
        lo, up = sup_norm(phi, grid_size=grid)  # eval_grid refuses a short grid here
        print(f"symbol:   {phi.to_text()}")
        print(f"nvars:    {phi.nvars}")
        if phi.nvars == 1:
            print(f"degrees:  [{-phi.deg_neg()}, {phi.deg_pos()}]")
        print(f"l1 norm:  {phi.l1_norm()!r}")
        print(f"sup |phi|: in [{lo!r}, {up!r}] ({grid}-point grid)")
        if phi.nvars == 1:
            try:
                print(f"winding about 0: {winding(phi, 0.0, grid_size=grid)}")
            except OnCurveError:
                print("winding about 0: undefined (0 lies on the sampled curve)")
    except PreconditionError as exc:
        raise UsageError(f"cannot evaluate symbol: {exc}") from exc
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphiso",
        description="verification suite for Toeplitz operators of spherical isometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write a report")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--suite", choices=_SUITE_NAMES, default=None, help="override the suite")
    p_run.add_argument("--out", default="runs", help="directory for run artifacts")
    p_run.set_defaults(fn=cmd_run)

    p_explain = sub.add_parser("explain", help="describe a named check")
    p_explain.add_argument("check", help="check id, e.g. thm2_1_identities")
    p_explain.set_defaults(fn=cmd_explain)

    p_eval = sub.add_parser("symbol-eval", help="parse a symbol and report norms")
    p_eval.add_argument("expr", help='symbol text, e.g. "z + 0.5*zbar^2"')
    p_eval.add_argument("--grid", type=int, default=512, help="sample grid size")
    p_eval.set_defaults(fn=cmd_symbol_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
