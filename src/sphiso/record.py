"""What a check decided and what tables it wrote, gathered off the report.

Kernels call `note` for each numerical choice they make (a grid size, a cap
clamp, a band width, the factorizations of an eigenvalue solve) and check
runners call `artifact` with the text of each CSV table. `checks.run_check`
gathers both inside `collect`, so they reach manifest.json and the run
directory without riding on report types or return values. Outside
`collect` both calls do nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["note", "artifact", "collect"]

_ACTIVE = ContextVar("sphiso_record", default=None)


def note(**values):
    """Append each value to the list under its key."""
    active = _ACTIVE.get()
    if active is not None:
        for key, value in values.items():
            active[0].setdefault(key, []).append(value)


def artifact(name, text):
    """Store text as the file called name. The checks pass CSV text, made
    where the table is computed, so a pool worker sends back one string and
    the run writes it as it is."""
    active = _ACTIVE.get()
    if active is not None:
        active[1][name] = text


@contextmanager
def collect():
    """Yield (notes, artifacts), filled by the calls made inside. An inner
    collect keeps its own and leaves the outer one untouched."""
    active = ({}, {})
    token = _ACTIVE.set(active)
    try:
        yield active
    finally:
        _ACTIVE.reset(token)
