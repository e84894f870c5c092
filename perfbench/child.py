"""One fresh interpreter of the benchmark: import sphiso, run one pass.

Usage: python3 child.py SPEC.json

SPEC holds "mode" (setup, scenario or queries), "result" (where to write the
result JSON) and the mode's inputs: for a scenario pass, the scenario file,
the suites to run and the output directory. The parent starts this script with
PYTHONPATH pointing at the checkout's src/, so `import sphiso` loads the code
under test, and reads the monotonic clock (shared by all processes) right
after the import to measure set-up time. Every interpreter samples the
reference kernel of calibrate.py right after the import, and a queries pass
samples it again after every block.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


SETUP_SAMPLES = 3


def scenario_pass(sphiso, spec):
    """Run the scenario through the CLI in this process, once per suite, and
    time the runs together. Suite S writes under OUT/S."""
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer().install()
    run = {"rc": {}}
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            for suite in spec["suites"]:
                argv = ["run", spec["scenario"], "--suite", suite, "--out", f"{spec['out']}/{suite}"]
                run["rc"][suite] = sphiso.cli.main(argv)
    except Exception:
        run["error"] = traceback.format_exc()
    run["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace"])
    return run


def queries_pass(sphiso, spec, ref):
    """Closed loop, one client: warm-up block, then timed blocks.

    The reference kernel runs once after every block.
    """
    import queries

    warm = queries.Tally()
    queries.run_block(sphiso, queries.make_block(spec["seed"], 0), warm)
    samples = []
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer().install()
    tally = queries.Tally()
    busy = []
    started = time.perf_counter()
    index = 1
    while True:
        if spec.get("blocks") is not None:
            if index > spec["blocks"]:
                break
        elif index > 2 and time.perf_counter() - started >= spec["seconds"]:
            break
        busy.append(queries.run_block(sphiso, queries.make_block(spec["seed"], index), tally) / 1e9)
        index += 1
        samples.append(ref.sample())
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace"])
    total = queries.Tally()
    total.add(warm)
    total.add(tally)
    return {
        "block_seconds": busy,
        "latencies_ns": tally.latencies_ns,
        "attempted": total.attempted,
        "failed": total.failed,
        "verified": total.verified,
        "unverified": total.unverified,
        "answers": total.answers,
        "warmup_queries": warm.attempted,
        "errors": total.errors,
        "reference_ns": samples,
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import sphiso.cli

    ready_ns = time.monotonic_ns()
    import numpy
    import scipy
    from calibrate import Reference

    ref = Reference()
    ref.sample()  # warm-up
    result = {
        "ready_ns": ready_ns,
        "setup_reference_ns": [ref.sample() for _ in range(SETUP_SAMPLES)],
        "sphiso_file": sphiso.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if spec["mode"] == "scenario":
        result.update(scenario_pass(sphiso, spec))
    elif spec["mode"] == "queries":
        result.update(queries_pass(sphiso, spec, ref))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
