"""Static hygiene of ``src/treatalloc``, read with ``ast``: no unused import,
no module-level function or class that only tests reach, the layering of the
modules' top-level imports, and test-side references (``tests/oracles.py``)
that use only the package's public names."""

import ast
import graphlib
import re
from pathlib import Path

import treatalloc

SRC = Path(treatalloc.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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


def test_model_does_not_import_gradients():
    # a gradient enters the model as the plain (d_revenue, d_cost) pair every kernel returns
    assert "gradients" not in IMPORTS["model"]


def _stages_files(tree: ast.AST) -> bool:
    """Whether a module renames files into place or makes or removes temp files."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                f"{node.value.id}.{node.attr}" in ("os.replace", "os.rename", "shutil.rmtree"):
            return True
        if isinstance(node, ast.Import) and any(a.name == "tempfile" for a in node.names) or \
                isinstance(node, ast.ImportFrom) and node.module == "tempfile":
            return True
    return False


def test_only_the_cli_commits_outputs():
    # a verb's outputs are staged and committed together by ``cli._outputs``;
    # a writer that renames or stages its own file would commit it alone
    assert {name for name, tree in TREES.items() if _stages_files(tree)} == {"cli.py"}


def test_one_block_size():
    # probes, sweeps and training blocks share ``solver.BLOCK_ROWS``; ``model`` imports it
    assigned = [name for name, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "BLOCK_ROWS"
                and isinstance(node.ctx, ast.Store)]
    assert assigned == ["solver.py"]


def _calls_of(name: str, tree: ast.AST, scope: str = ""):
    """(enclosing qualified name, first argument's source) of every call of ``name``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls_of(name, node, f"{scope}{node.name}.")
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
            yield scope.rstrip("."), ast.unparse(node.args[0]) if node.args else None
        yield from _calls_of(name, node, scope)


def test_one_trusted_path_past_the_checks():
    # a dataset or outcome matrix skips its constructor's checks only where the
    # package has just made its arrays: ``RctDataset._owning`` (which ``take``
    # and ``generate_synthetic`` share), the generator's truth, the model's output
    calls = sorted((name, *call) for name, tree in TREES.items()
                   for call in _calls_of("_unchecked", tree))
    assert calls == [("data.py", "RctDataset._owning", "cls"),
                     ("data.py", "generate_synthetic", "CounterfactualMatrix"),
                     ("model.py", "_predictions", "PredictionMatrix")]


def _grid_loops(tree: ast.AST):
    """Name of every function that loops, or builds a comprehension, over one
    of its ``LambdaGrid`` parameters; a nested function's loop over its
    enclosing function's grid counts for the enclosing one."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            grids = {a.arg for a in fn.args.args + fn.args.kwonlyargs
                     if a.annotation is not None and ast.unparse(a.annotation) == "LambdaGrid"}
            if any(isinstance(node, (ast.For, ast.comprehension))
                   and ast.unparse(node.iter).removesuffix(".values") in grids
                   for node in ast.walk(fn)):
                yield fn.name


def test_one_loop_over_the_multiplier_grid():
    # the decision cores run the grid through ``losses._per_multiplier``; the
    # references the kernels are checked against live in ``tests/oracles.py``
    loops = sorted((name, fn) for name in ("losses.py", "gradients.py")
                   for fn in _grid_loops(TREES[name]))
    assert loops == [("losses.py", "_per_multiplier")]


def _references(tree: ast.AST) -> set[str]:
    """``_names_read``, plus every attribute read and every name imported."""
    refs = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


# public definitions that only the tests read, each kept for its reason
TEST_READ_API = {
    "dual_value": "the bound of test_01's duality sandwich",
    "policy_learning_loss": "the temperature-1 surrogate that test_04 and test_05 name",
    "max_entropy_loss": "the tempered surrogate of test_05's bitwise equivalence",
    "bootstrap_policy_se": "an estimator of the package's API that no CLI verb runs",
}


def test_every_public_definition_is_read_outside_the_tests():
    # the references only tests read live with them (``tests/oracles.py``); a
    # public definition is read by other package code, named by the benchmark
    # or in the README's code, or listed above. The export table is no reader.
    named = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        named |= _references(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL):
        named.update(re.findall(r"\w+", code))
    nodes = [node for name, tree in TREES.items() if name != "__init__.py" for node in tree.body]
    refs = [(node, _references(node)) for node in nodes]
    unread = {node.name for node in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named
              and not any(node.name in read for other, read in refs if other is not node)}
    assert unread == set(TEST_READ_API)


def test_oracles_read_no_private_name_of_the_package():
    # a reference that shares a private kernel with what it checks shares its defects
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    private = [f"{node.lineno} {alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("treatalloc")
               for alias in node.names if alias.name.startswith("_")]
    private += [f"{node.lineno} .{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")]
    assert private == []
