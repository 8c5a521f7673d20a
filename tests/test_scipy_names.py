"""The library uses scipy through its public names only.

``src/`` is parsed, not imported.  A name is private where it, or a
module on its dotted path, starts with ``_``: ``_compute_lwork`` or
``scipy.linalg._decomp``.  Such a name may change or go in any scipy
release, so none may be imported from a ``scipy`` module or read off one,
by its full dotted path or through a name that an import bound to a
``scipy`` module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mobiusflux"


def _private(dotted: str) -> bool:
    return any(part.startswith("_") for part in dotted.split("."))


def private_scipy_names(package=PACKAGE) -> list:
    """``module: name`` of each private scipy name that a module of package imports or reads."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # local names bound to a scipy module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "scipy":
                        modules.add(alias.asname or "scipy")
                        found += [f"{path.stem}: {alias.name}"] if _private(alias.name) else []
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    modules.add(alias.asname or alias.name)
                    found += [f"{path.stem}: {name}"] if _private(name) else []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = ast.unparse(node)
                if dotted.split(".")[0] in modules and node.attr.startswith("_"):
                    found.append(f"{path.stem}: {dotted}")
    return found


def test_no_private_scipy_name_is_used():
    assert private_scipy_names() == []


def test_the_guard_sees_a_private_scipy_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "import scipy.linalg as la\n"
        "import scipy.sparse\n"
        "from scipy.linalg import eigh\n"
        "from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs\n"
        "from scipy.sparse import _sputils as util\n\n"
        "np._private, eigh(np.eye(2)), la.eigh, la._decomp.eigh, scipy.sparse._base\n"
        "util.isdense\n")
    (tmp_path / "b.py").write_text("import scipy._lib\nfrom ._local import _name\n")
    assert sorted(private_scipy_names(tmp_path)) == [
        "a: la._decomp", "a: scipy.linalg.lapack._compute_lwork", "a: scipy.sparse._base",
        "a: scipy.sparse._sputils", "b: scipy._lib"]
