"""Static hygiene of ``src/treatalloc``, read with ``ast``: no unused import,
no module-level private function or class that only tests reach, and the
layering of the modules' top-level imports."""

import ast
import graphlib
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


def _package_imports(tree: ast.Module) -> set[str]:
    """Package modules a module imports at its top level (the CLI's lazy
    imports inside its verbs are not layering)."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    return imported


IMPORTS = {name.removesuffix(".py"): _package_imports(tree) for name, tree in TREES.items()}


def test_module_imports_form_a_dag():
    graphlib.TopologicalSorter(IMPORTS).prepare()  # raises CycleError on a cycle


def test_solver_imports_only_exceptions():
    # the prediction matrix, and with it the ground truth, sits below ``data``
    assert IMPORTS["solver"] == {"exceptions"}
