"""Run sphiso's byte matrix on two trees and list every value that moved.

    python tools/bytematrix.py --against <rev> [--summary FILE]

The revision is exported with `git archive` into a temporary directory and
compared with the working tree this script lives in, uncommitted changes
included. Both trees run the same matrix, with the working tree's scenario
files, one run at a time, each in a fresh interpreter whose PYTHONPATH is the
tree's `src/`:

- scenarios/full.json and scenarios/smoke.json as they are
- smoke.json with --suite all
- full.json with --suite all and --seed 1 to 5
- full.json with --suite spectra and --seed 11 to 20

That is 18 runs and 43 files: each run's report.json, spectrum_0.csv and
cross_section.csv, where the run writes them. For each file that differs,
every moved value is printed by its path (a check's record by its id, a CSV
cell by row and column), with the old value, the new value and the relative
change, and every verdict that flips is flagged. The summary JSON (by default
bytematrix.json in the current directory) holds the same lists. The exit
status is 0 when every file is byte-identical, 1 when any differs, and 2 when
a run fails to produce its report. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("report.json", "spectrum_0.csv", "cross_section.csv")


def matrix():
    """(label, scenario file name, extra `sphiso run` arguments) of each run."""
    runs = [("full", "full.json", []), ("smoke", "smoke.json", [])]
    runs.append(("smoke-all", "smoke.json", ["--suite", "all"]))
    for suite, seeds in (("all", range(1, 6)), ("spectra", range(11, 21))):
        for s in seeds:
            runs.append((f"full-{suite}-{s}", "full.json", ["--suite", suite, "--seed", str(s)]))
    return runs


def export(rev, dest):
    """Extract the tree of rev into dest with `git archive`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_tree(tree, work):
    """{(label, file name): bytes} of the matrix run on tree, under work."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    out = {}
    for label, scenario, extra in matrix():
        where = Path(work) / label
        cmd = [sys.executable, "-m", "sphiso", "run", str(ROOT / "scenarios" / scenario)]
        proc = subprocess.run(
            cmd + extra + ["--out", str(where)], cwd=tree, env=env, capture_output=True, text=True
        )
        dirs = sorted(where.iterdir()) if where.is_dir() else []
        if proc.returncode not in (0, 1) or len(dirs) != 1:
            raise RuntimeError(f"{label} on {tree}: exit {proc.returncode}\n{proc.stderr}")
        for name in FILES:
            path = dirs[0] / name
            if path.exists():
                out[label, name] = path.read_bytes()
    return out


def _same(old, new):
    """Equal values of one type, NaN equal to NaN."""
    if type(old) is not type(new):
        return False
    return old == new or (isinstance(old, float) and math.isnan(old) and math.isnan(new))


def _relative(old, new):
    """|new - old| / |old| for two numbers (inf when old is 0), else None."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers:
        return None
    if _same(old, new) or old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _leaves(value, path=""):
    """{path: leaf} of a JSON value; a list of records with ids is keyed by id."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value and all(isinstance(v, dict) and "id" in v for v in value):
        items = ((v["id"], v) for v in value)
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, child in items:
        step = f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
        out.update(_leaves(child, path + step))
    return out or {path: value}


def diff_reports(old, new):
    """(moved, flipped) between two report.json texts: moved lists
    {path, old, new, rel} for every leaf that differs or exists on one side
    only (a missing side reads None), flipped the moved leaves whose last
    key is verdict."""
    a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    moved = []
    for path in sorted(a.keys() | b.keys()):
        was, now = a.get(path), b.get(path)
        if path not in a or path not in b or not _same(was, now):
            moved.append({"path": path, "old": was, "new": now, "rel": _relative(was, now)})
    flipped = [m for m in moved if m["path"].rsplit(".", 1)[-1] == "verdict"]
    return moved, flipped


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def diff_csv(old, new):
    """moved cells between two CSV texts, as {path, old, new, rel}: the path
    is [row][column name], row 0 being the first after the header."""
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    header = b[0] if b else []
    moved = []
    for r in range(max(len(a), len(b)) - 1):
        x = a[r + 1] if r + 1 < len(a) else []
        y = b[r + 1] if r + 1 < len(b) else []
        for c in range(max(len(x), len(y))):
            was = _cell(x[c]) if c < len(x) else None
            now = _cell(y[c]) if c < len(y) else None
            if not _same(was, now):
                name = header[c] if c < len(header) else c
                rel = _relative(was, now)
                moved.append({"path": f"[{r}][{name}]", "old": was, "new": now, "rel": rel})
    if a[:1] != b[:1]:
        moved.insert(0, {"path": "[header]", "old": a[:1], "new": b[:1], "rel": None})
    return moved


def compare(old_files, new_files):
    """The summary of two runs of the matrix: counts, moved values per file
    and flipped verdicts, each entry tagged with its run and file."""
    summary = {"files": 0, "identical": 0, "missing": [], "moved": [], "flipped": []}
    for label, name in sorted(old_files.keys() | new_files.keys()):
        summary["files"] += 1
        was, now = old_files.get((label, name)), new_files.get((label, name))
        where = {"run": label, "file": name}
        if was is None or now is None:
            summary["missing"].append(dict(where, side="old" if was is None else "new"))
        elif was == now:
            summary["identical"] += 1
        elif name == "report.json":
            moved, flipped = diff_reports(was, now)
            summary["moved"] += [dict(where, **m) for m in moved]
            summary["flipped"] += [dict(where, **m) for m in flipped]
        else:
            summary["moved"] += [dict(where, **m) for m in diff_csv(was.decode(), now.decode())]
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--summary", default="bytematrix.json", help="where to write the summary")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bytematrix-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        export(args.against, base)
        try:
            old_files = run_tree(base, Path(tmp) / "old")
            new_files = run_tree(ROOT, Path(tmp) / "new")
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    summary = dict(against=args.against, runs=len(matrix()), **compare(old_files, new_files))
    for m in summary["moved"]:
        rel = "n/a" if m["rel"] is None else f"{m['rel']:.3g}"
        print(f"moved {m['run']}/{m['file']} {m['path']}: {m['old']!r} -> {m['new']!r} (rel {rel})")
    for m in summary["flipped"]:
        print(f"FLIPPED {m['run']}/{m['file']} {m['path']}: {m['old']!r} -> {m['new']!r}")
    for m in summary["missing"]:
        print(f"missing on the {m['side']} side: {m['run']}/{m['file']}")
    print(
        f"{summary['identical']} of {summary['files']} files byte-identical over "
        f"{summary['runs']} runs; {len(summary['moved'])} values moved, "
        f"{len(summary['flipped'])} verdicts flipped"
    )
    Path(args.summary).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if summary["identical"] == summary["files"] else 1


if __name__ == "__main__":
    sys.exit(main())
