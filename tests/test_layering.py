"""The package's modules import one another in layers.

Every package-relative import sits at module level, where a reader sees what a
module depends on, and those imports form a chain with no cycle:
subspaces <- core <- {invertibility, generators, mmio}, invertibility <-
inverses, and cli over them all; file I/O depends on core alone.  A
function-level import is how a cycle usually hides, so both are checked on
the parsed source of every ``src/dsaddle/*.py`` module.  The ladder decides
only: the analysis in core holds every decomposition it reads.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

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


def test_modules_found():
    assert {"core", "invertibility", "inverses", "subspaces"} <= set(MODULES)


def test_no_function_level_package_import():
    nested = [f"{name}.{fn.name}"
              for name, tree in MODULES.items()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if _imported(node)]
    assert nested == []


def test_relative_imports_have_no_cycle():
    graph = {name: {target for node in ast.walk(tree) for target in _imported(node)}
             for name, tree in MODULES.items()}
    try:
        TopologicalSorter(graph).prepare()
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
