"""Static hygiene of ``src/treatalloc``, read with ``ast``: no unused import,
and no module-level private function or class that only tests reach."""

import ast
from pathlib import Path

import treatalloc

SRC = Path(treatalloc.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads, string annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                read |= _names_read(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return read


def _bound_by_imports(tree: ast.AST) -> dict[str, int]:
    """Name each import binds -> its line; ``from __future__`` is exempt."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def test_no_unused_imports():
    unused = [f"{name}:{line} {bound}" for name, tree in TREES.items()
              for bound, line in _bound_by_imports(tree).items()
              if bound not in _names_read(tree)]
    assert unused == []


def test_every_private_definition_is_used_in_src():
    used = set()
    for tree in TREES.values():
        used |= _names_read(tree)
        for node in ast.walk(tree):  # module._name, and from .module import _name
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in TREES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []
