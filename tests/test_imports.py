"""Every name a module imports is used in that module.

The package's ``__init__.py`` imports names only to re-export them, so it
is skipped.  A name counts as used if it is read anywhere in the module,
including inside a string annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tancat"


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations such as "Fraction | int" name types too
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [f"{path.name}:{line}: {name}" for name, line in _imported(tree) if name not in used]


def test_source_modules_have_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    problems = [msg for path in modules for msg in unused_imports(path)]
    assert problems == []


def test_guard_flags_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import json\nfrom typing import List, Dict\n\nx: 'List[int]' = []\ny = 'Dict'\n")
    assert unused_imports(path) == ["sample.py:1: json", "sample.py:2: Dict"]
