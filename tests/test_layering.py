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
Each public name is declared once, in the ``__all__`` of the module that defines
it; ``__init__`` star-imports those modules and concatenates their lists, so no
module re-exports another's name and no name is public twice.
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


def _defined(tree):
    """The names a module's top level binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)}
    return names


def test_init_reexports_each_modules_all():
    """__init__ imports modules and their star exports only; each star-imported
    module's __all__ names what its own top level defines, no name is in two
    lists, dsaddle.__all__ is their concatenation, and a star import binds each."""
    starred = []
    for node in ast.walk(MODULES["__init__"]):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, ast.unparse(node)
            if node.module:
                assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)
                starred.append(node.module)
            else:
                assert all(alias.name in MODULES and not alias.asname for alias in node.names)
    lists = {}
    for name in starred:
        assert "__all__" in _defined(MODULES[name]), name
        lists[name] = getattr(dsaddle, name).__all__
        assert set(lists[name]) <= _defined(MODULES[name]), name
    flat = [public for names in lists.values() for public in names]
    assert len(flat) == len(set(flat))
    assert dsaddle.__all__ == flat
    namespace = {}
    exec("from dsaddle import *", namespace)
    assert set(flat) <= set(namespace)


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
