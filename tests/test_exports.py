"""Every name a module exports must exist, so `import *` cannot break."""

import importlib
import pkgutil

import pytest

import sphiso

MODULES = ["sphiso"] + [
    f"sphiso.{m.name}" for m in pkgutil.iter_modules(sphiso.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
