"""Every name a `cliffrb` module, the shared test oracle module
`tests/oracles.py` or a test module imports is used in that module, every
module-level private name (`_x`) a `cliffrb` module defines is referenced
somewhere in `cliffrb`, and every module-level public name serves the
library, the CLI or the benchmark rather than only the tests.

No linter is part of the toolchain, so this is a small stdlib `ast` check.
Package `__init__.py` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cliffrb"
PERFBENCH = TESTS.parent / "perfbench"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
MODULES.append(TESTS / "oracles.py")
MODULES += sorted(TESTS.glob("test_*.py"))


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


def private_definitions(tree):
    """Module-level `_x` names (not dunders) bound by def, class or
    assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def references(tree):
    """Names read, attributes accessed and names imported anywhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_unreferenced_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    used = set().union(*(references(t) for t in trees.values()))
    unused = sorted((name, d) for name, t in trees.items()
                    for d in private_definitions(t) if d not in used)
    assert unused == []


def public_definitions(tree):
    """Module-level public names bound by def or class."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def click_commands(tree):
    """Functions decorated with `@click.group()` or `@<group>.command(...)`."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr in ("command", "group")
                for d in node.decorator_list):
            out.add(node.name)
    return out


def dotted_string_parts(tree):
    """Each part of every dotted string constant (metric names such as
    `stabilizer.deterministic_z_outcome.calls`)."""
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "." in node.value
            for part in node.value.split(".")}


def test_no_test_only_public_names():
    """A public def or class serves something when code in `src/` outside
    its own definition references it, when `__init__.__all__` exports it,
    when it is a click command, or when `perfbench/` names it (also as a
    part of a dotted metric string); test helpers live in tests/."""
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    init = trees.pop("__init__.py")
    served = exported_names(init) | click_commands(trees["cli.py"])
    for p in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(p.read_text())
        served |= references(tree) | dotted_string_parts(tree)
    for tree in trees.values():
        for node in tree.body:
            served |= references(node) - {getattr(node, "name", None)}
    unserved = sorted((name, d) for name, t in trees.items()
                      for d in public_definitions(t) - served)
    assert unserved == []


def foreign_private_reads(tree):
    """(line, `owner._x`) for each private attribute (not a dunder) read
    through a name other than `self`, `cls` or an imported module."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree)
               if isinstance(node, ast.Import)  # or `from . import module`
               or isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    owners = modules | {"self", "cls"}
    return sorted((node.lineno, f"{ast.unparse(node.value)}.{node.attr}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in owners))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_reads_through_other_objects(path):
    """A class's private state is read only by its own methods: another
    object's `_x` goes through that object's public methods."""
    assert foreign_private_reads(ast.parse(path.read_text())) == []
