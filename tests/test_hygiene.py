"""Source hygiene, read from the syntax trees of ``src/transdim/*.py`` with
the standard library alone: no module imports a name it never reads, and no
private module-level name outlives its last reference in ``src/``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "transdim"
MODULE_FILES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree):
    """Every identifier the module reads: loaded names and attribute names."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_the_source_tree_is_found():
    assert "rjmcmc.py" in [path.name for path in MODULE_FILES]


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda path: path.name)
def test_no_unused_import(path):
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    assert sorted(imported - _read_names(tree) - _exports(tree)) == []


def test_every_private_module_name_is_referenced_in_src():
    trees = {path.name: _parse(path) for path in MODULE_FILES}
    used = set().union(*map(_read_names, trees.values()))
    orphans = [f"{file}: {name}" for file, tree in trees.items()
               for name in _module_level_names(tree)
               if name.startswith("_") and not name.startswith("__") and name not in used]
    assert orphans == []
