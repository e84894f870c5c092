"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was built on is shared: the same pass ran anywhere
from 30 to 48 s, and thread CPU time moved with wall time, so the slowdown
is not time spent off the CPU. A kernel that does not depend on sphiso,
sampled on the same thread next to the timed work, slows down with it. A
time is scaled by REFERENCE_NS / (median kernel time), which reads as the
time the work would have taken on a machine where the kernel takes
REFERENCE_NS. A change to sphiso does not touch the kernel, so it moves the
scaled times as much as the raw ones.

The kernel mixes small numpy calls with Python overhead (polynomial roots
and evaluations, as in a symbol query) with a complex sweep, a sort-based
unique and a dense Hermitian eigensolve. It calibrates symbol queries and
interpreter set-up. A scenario pass is not scaled: sampled before and after
the pass, or during it from a timer, a kernel's time varied more than the
pass's own time did (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_NS = 40_000_000  # about the kernel's time on a quiet 2-vCPU x86_64 VM


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20051117)
        self.polys = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in rng.integers(3, 25, size=120)]
        self.lams = rng.normal(size=120) + 1j * rng.normal(size=120)
        self.ring = np.exp(2j * np.pi * np.arange(256) / 256)
        self.samples = np.exp(2j * np.pi * rng.uniform(size=1024))
        self.sweep_lams = rng.normal(size=256) + 1j * rng.normal(size=256)
        self.keys = np.round(rng.normal(size=400_000) * 3e4)
        a = rng.normal(size=(256, 256))
        self.herm = a + a.T

    def work(self):
        acc = 0.0
        for poly, lam in zip(self.polys, self.lams):
            acc += np.count_nonzero(np.abs(np.roots(poly)) < 1.0)
            acc += np.abs(np.polyval(poly, self.ring) - lam).min()
        rel = self.samples[None, :] - self.sweep_lams[:, None]
        acc += np.angle(np.roll(rel, -1, axis=1) / rel).sum() + np.abs(rel).min(axis=1).sum()
        acc += np.unique(self.keys).size
        acc += np.linalg.eigvalsh(self.herm)[0]
        return acc

    def sample(self):
        """Run the kernel once; return its wall time in ns."""
        t0 = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - t0
