import importlib
import pkgutil

import pytest

import stablevar

MODULES = ["stablevar"] + [
    f"stablevar.{info.name}" for info in pkgutil.iter_modules(stablevar.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
