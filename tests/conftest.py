import os
from pathlib import Path

import pytest

import sphiso


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this sphiso."""
    src = str(Path(sphiso.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
