"""Every name a `cliffrb` module, or the shared test oracle module
`tests/oracles.py`, imports is used in that module.

No linter is part of the toolchain, so this is a small stdlib `ast` check.
Package `__init__.py` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cliffrb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES.append(TESTS / "oracles.py")


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []
