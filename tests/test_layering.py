"""The package's modules import one another in layers.

Each policy has one home module, and the package-relative imports form exactly
the graph ``LAYERS`` gives:
subspaces (the rank policy and its cut) <- core (the block data model, its
analysis, the named hypotheses and the error types) <- {invertibility, inverses,
generators, mmio} <- cli, with ``__init__`` re-exporting all but cli.  So the
inverse constructors check their hypotheses in core without importing the
ladder, and a new import between modules, or a new module, fails here.  Every
package-relative import sits at module level, where a reader sees what a
module depends on; a function-level import is how a cycle usually hides, so
both are checked on the parsed source of every ``src/dsaddle/*.py`` module.
The ladder decides only: the analysis in core holds every decomposition it reads.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import dsaddle

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dsaddle"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(node):
    """The package modules a relative import statement names, else []."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _graph():
    return {name: {target for node in ast.walk(tree) for target in _imported(node)}
            for name, tree in MODULES.items()}


# module -> the package modules it imports: 20 edges
_ALL_BUT_CLI = {"subspaces", "core", "invertibility", "inverses", "generators", "mmio"}
LAYERS = {
    "subspaces": set(),
    "core": {"subspaces"},
    "invertibility": {"core", "subspaces"},
    "inverses": {"core", "subspaces"},
    "generators": {"core", "subspaces"},
    "mmio": {"core"},
    "cli": _ALL_BUT_CLI,
    "__init__": _ALL_BUT_CLI,
}


def test_modules_found():
    assert set(MODULES) == set(LAYERS)


def test_imports_are_the_layers():
    assert _graph() == LAYERS


def test_no_function_level_package_import():
    nested = [f"{name}.{fn.name}"
              for name, tree in MODULES.items()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if _imported(node)]
    assert nested == []


def test_all_is_what_init_imports():
    """__all__ names each name __init__ imports, once, and a star import binds each."""
    imported = [alias.asname or alias.name for node in ast.walk(MODULES["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert len(dsaddle.__all__) == len(set(dsaddle.__all__))
    assert set(imported) == set(dsaddle.__all__)
    namespace = {}
    exec("from dsaddle import *", namespace)
    assert set(dsaddle.__all__) <= set(namespace)


def test_relative_imports_have_no_cycle():
    try:
        TopologicalSorter(_graph()).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# the helpers of dsaddle.subspaces that run a decomposition of their input
DECOMPOSING_HELPERS = {"_SymEig", "_SVD", "_singular_values", "_spectral_norm", "matrix_rank",
                       "is_nonsingular"}


def test_invertibility_decides_only():
    """invertibility calls no numpy.linalg function but a vector norm (no
    decomposition, solve or 2-norm) and imports no decomposing helper."""
    tree = MODULES["invertibility"]
    calls = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and ast.unparse(node.func.value) in ("np.linalg", "numpy.linalg")
             and (node.func.attr != "norm" or len(node.args) > 1 or node.keywords)]
    assert calls == []
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "subspaces"
                for alias in node.names}
    assert imported & DECOMPOSING_HELPERS == set()
