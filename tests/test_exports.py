import importlib
import pkgutil

import pytest

import shmev

MODULES = ["shmev", *(f"shmev.{m.name}" for m in pkgutil.iter_modules(shmev.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is deleted fails here
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []
