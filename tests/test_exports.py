import importlib
import pkgutil

import pytest

import seqideal

MODULES = ["seqideal"] + [
    f"seqideal.{m.name}" for m in pkgutil.iter_modules(seqideal.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
