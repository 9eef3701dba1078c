import ast
import importlib
import pkgutil
from pathlib import Path

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


def _seqideal_imports(module: str) -> set[str]:
    """The seqideal modules that seqideal.<module> imports anywhere in
    its source, read from the AST ("seqideal" for the package itself)."""
    path = Path(seqideal.__file__).with_name(f"{module}.py")
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:  # the package is flat
            modules = [node.module] if node.module else [a.name for a in node.names]
            names += [f"seqideal.{m}" for m in modules]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    parts = [n.split(".") for n in names]
    return {p[1] if len(p) > 1 else p[0] for p in parts if p[0] == "seqideal"}


def test_import_graph():
    # the packed GF(2) layout lives in field, which every layer imports,
    # so the oracles share no code with the engine or the Rueppel loops
    assert _seqideal_imports("field") == set()
    oracles = _seqideal_imports("oracles")
    assert "field" in oracles and "bivariate" in oracles
    assert not oracles & {"vop_engine", "rueppel", "cli", "seqideal"}
    assert {"field", "vop_engine"} <= _seqideal_imports("rueppel")
