"""Static checks: every name a package module imports is used in that module,
every module-level helper is used somewhere in the package, the package
imports nothing beyond the standard library and its declared dependency, and
the modules that multiply extended-precision matrices keep off numpy's
generic-loop products and swap rows and columns by slices, and every rank
decision goes through ``numeric.nullspace``."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ptbundle"


def unused_imports(source: str) -> list[str]:
    """Imported names that no Name node of the module refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a import b, c as d\nnp.eye(d)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# pyproject.toml's only dependency; scipy, mpmath and the test tools are not
DECLARED = {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported that are neither stdlib nor declared."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - DECLARED)


def test_guard_finds_foreign_imports():
    source = ("import os.path\nimport numpy.linalg\nfrom scipy.linalg import hessenberg\n"
              "from . import numeric\nfrom .words import Word\nimport mpmath as mp\n")
    assert foreign_imports(source) == ["mpmath", "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def module_private_names(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``_name`` definitions: functions, classes, assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def referenced_names(node: ast.AST) -> list[str]:
    """Names a node refers to: a name, an attribute or a ``from`` import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each module-level helper that no code outside its
    own definition refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [(node, name) for tree in trees.values() for node in ast.walk(tree)
                  for name in referenced_names(node)]
    found = []
    for module, tree in trees.items():
        for name, definition in module_private_names(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in inside for node, ref in references):
                found.append(f"{module}:{name}")
    return sorted(found)


def test_guard_finds_unreferenced_helpers():
    sources = {
        "m": "_dead = 1\n_used = 2\ndef _self_calls():\n    return _self_calls()\n"
             "def _imported():\n    pass\nprint(_used)\n",
        "n": "from .m import _imported\n",
    }
    assert unreferenced_helpers(sources) == ["m:_dead", "m:_self_calls"]


def test_no_unreferenced_helpers():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == []


# The modules whose products can have long double operands, where ``@`` runs
# numpy's generic loop and ``np.dot`` forms the same sums about twice as
# fast; np.kron and np.polydiv have the broadcast helper ``_kron2`` and
# ``poly_quotient`` in their place.  No product there is of stacks, so
# ``@`` has no use in them, not even for the complex128 normal equations
# of ``solve_traces``, which are formed one start at a time.
EXTENDED_MODULES = ("numeric.py", "alexander.py", "holonomy.py")


def generic_products(source: str) -> list[str]:
    """``line: what`` for each ``@`` and each ``kron`` or ``polydiv`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in ("kron", "polydiv"):
            found.append((node.lineno, node.attr))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_guard_finds_generic_products():
    source = ("import numpy as np\n"
              "def solve_traces(a):\n    return a @ a\n"
              "def lift(a, b):\n    a @= b\n    return np.kron(a, b) @ b\n"
              "q = np.polydiv([1.0], [1.0])[0]\n")
    assert generic_products(source) == ["3: @", "5: @", "6: @", "6: kron", "7: polydiv"]


@pytest.mark.parametrize("name", EXTENDED_MODULES)
def test_extended_modules_use_dot_products(name):
    assert generic_products((PACKAGE / name).read_text()) == []


# In the same modules a row or column swap is two slice copies: swapping a
# row and a column of a 17 x 17 long double matrix by list-literal fancy
# indexing takes about 15 us, by slices about 4.6 us (numpy 2.4 on x86-64).


def _list_indexed(node: ast.AST) -> bool:
    """Whether node is x[[...]], or x[..., [...], ...] with a list among its indices."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    return any(isinstance(part, ast.List)
               for part in (index.elts if isinstance(index, ast.Tuple) else [index]))


def fancy_swaps(source: str) -> list[int]:
    """Lines that assign a list-indexed read to a list-indexed target, as the
    swaps ``x[[i, j]] = x[[j, i]]`` and ``x[:, [i, j]] = x[:, [j, i]]`` do."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assign) and _list_indexed(node.value)
                  and any(_list_indexed(target) for target in node.targets))


def test_guard_finds_fancy_swaps():
    source = ("a[[k, p]] = a[[p, k]]\n"
              "a[:, [k + 1, p]] = a[:, [p, k + 1]]\n"
              "rows = a[[1, 0, 2]]\n"
              "a[[5, 10], range(2)] = -1.0\n"
              "row = a[k].copy()\n"
              "a[k], a[p] = a[p], row\n")
    assert fancy_swaps(source) == [1, 2]


@pytest.mark.parametrize("name", EXTENDED_MODULES)
def test_extended_modules_swap_by_slices(name):
    assert fancy_swaps((PACKAGE / name).read_text()) == []


# One rank rule decides every kernel: ``numeric.nullspace`` is the only
# caller of np.linalg.svd.


def svd_calls(sources: dict[str, str]) -> list[str]:
    """``module:line`` for each ``svd`` attribute or import outside
    ``numeric.nullspace``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = {id(node) for func in ast.walk(tree)
                   if module == "numeric" and isinstance(func, ast.FunctionDef)
                   and func.name == "nullspace" for node in ast.walk(func)}
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree) if id(node) not in allowed
                  and "svd" in referenced_names(node)]
    return sorted(found)


def test_guard_finds_svd_calls():
    sources = {
        "numeric": "import numpy as np\ndef nullspace(m):\n    return np.linalg.svd(m)\n"
                   "def rank(m):\n    return len(np.linalg.svd(m)[1])\n",
        "holonomy": "from numpy.linalg import svd\nu, s, vh = np.linalg.svd(m)\n",
    }
    assert svd_calls(sources) == ["holonomy:1", "holonomy:2", "numeric:5"]


def test_svd_only_in_nullspace():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert svd_calls(sources) == []
