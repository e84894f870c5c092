"""A suite's checks on a pool of forked workers.

`checks.run_checks` runs a suite's checks concurrently on forked workers
when more than one CPU is available. These tests force two workers through
the private worker-count helper, so they exercise the pool on a one-CPU
host too.
"""

import dataclasses
import inspect
import multiprocessing
import pickle
import subprocess
import sys

import pytest

from sphiso import checks, errors

PARAMS = {**checks.DEFAULT_PARAMS, "tensor_trials": 2}
SEED = 5

INSTANCES = [
    errors.PreconditionError("symbol must be univariate"),
    errors.ArityError(3, 1),
    errors.OnCurveError(1.25e-9, 3.5e-8),
    errors.ConditioningError(3, 1e-20),
    errors.ResourceLimitError("too many terms"),
    errors.InvariantError("two routes disagree"),
    errors.UsageError("scenario.seed: expected a 64-bit integer"),
]


def _workers(monkeypatch, count):
    monkeypatch.setattr(checks, "_worker_count", lambda n: min(n, count))


def _raising(monkeypatch, check_id, exc):
    def runner(params, seed):
        raise exc

    spec = checks.REGISTRY[check_id]
    monkeypatch.setitem(checks.REGISTRY, check_id, dataclasses.replace(spec, runner=runner))


def test_every_error_type_survives_pickling():
    defined = {
        obj
        for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    assert {type(e) for e in INSTANCES} == defined
    for exc in INSTANCES:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_a_worker_error_surfaces_as_in_process(exc, monkeypatch):
    # the first check of the suite raises; the pool gives back the same
    # error as the plain loop, and leaves no worker behind
    _raising(monkeypatch, "gamma_equation", exc)
    caught = []
    for count in (1, 2):
        _workers(monkeypatch, count)
        with pytest.raises(type(exc)) as info:
            checks.run_checks("polydisc", PARAMS, SEED)
        caught.append(info.value)
        assert multiprocessing.active_children() == []
    local, pooled = caught
    assert type(pooled) is type(local)
    assert str(pooled) == str(local) == str(exc)
    assert vars(pooled) == vars(local)


def test_no_worker_outlives_a_run(monkeypatch):
    _workers(monkeypatch, 2)
    report = checks.run_checks("polydisc", PARAMS, SEED)
    assert report.workers == 2 and report.all_pass
    assert multiprocessing.active_children() == []


def test_a_profiled_run_stays_in_process(monkeypatch):
    _workers(monkeypatch, 2)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report = checks.run_checks("polydisc", PARAMS, SEED)
    finally:
        sys.setprofile(None)
    assert report.workers == 1
    # the profiler saw the runners themselves
    assert {"_check_gamma_equation", "_check_scaled_isometry"} <= seen


def test_import_does_not_load_multiprocessing(child_env):
    code = "import sys, sphiso.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_no_worker_imports_a_module(child_env):
    # a module first imported in a forked worker is imported afresh in every
    # worker of every run, so the parent imports all that the checks use;
    # each worker writes its line with one os.write, atomic on a pipe below
    # PIPE_BUF bytes, so the two workers' lines never interleave
    code = (
        "import os, sys\n"
        "from sphiso import checks\n"
        "checks._worker_count = lambda n: min(n, 2)\n"
        "timed = checks._timed_check\n"
        "def watched(cid, params, seed):\n"
        "    before = set(sys.modules)\n"
        "    out = timed(cid, params, seed)\n"
        "    os.write(1, f'{cid} {sorted(set(sys.modules) - before)}\\n'.encode())\n"
        "    return out\n"
        "checks._timed_check = watched\n"
        "params = dict(checks.DEFAULT_PARAMS, tensor_trials=2, spectra_symbols=2, lambda_points=40)\n"
        f"assert checks.run_checks('all', params, {SEED}).workers == 2\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sorted(line.split()[0] for line in lines) == sorted(checks.suite_check_ids("all"))
    assert [line for line in lines if not line.endswith(" []")] == []


def test_a_pinned_worker_runs_one_blas_thread(child_env):
    # the pool initializer sets each bundled OpenBLAS it finds to one thread,
    # whatever the environment asked for
    code = (
        "import ctypes, glob, importlib, os\n"
        "from sphiso import checks\n"
        "checks._pin_blas()\n"
        "for package, pattern, setter in checks._BLAS_SETTERS:\n"
        "    root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))\n"
        "    for path in glob.glob(os.path.join(root, package + '.libs', pattern)):\n"
        "        lib = ctypes.CDLL(path)\n"
        "        getter = getattr(lib, setter.replace('set_', 'get_'), None)\n"
        "        if getter is not None:\n"
        "            print(getter())\n"
    )
    env = dict(child_env, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    counts = done.stdout.split()
    if not counts:
        pytest.skip("no bundled OpenBLAS with a thread setter here")
    assert counts == ["1"] * len(counts)
