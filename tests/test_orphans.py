"""Every name the library defines is used by the library, or kept for a stated reason.

``src/`` is parsed, not imported.  A module-level function or class must
be named (``Name``), a method called by its attribute name
(``x.name(...)``) and a property read by it (``x.name``) somewhere in
``src/`` outside its own definition and outside ``__init__.py``, whose
re-exports use nothing.  A method is held to calls because a data field
of the same name (``LoopPath.sites``) is read, not called.  A name with no
such reference is an orphan: delete it, move what a test still needs
into the tests, or put it on ``KEEP`` with the reason.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mobiusflux"
TRACING = ROOT / "perfbench" / "tracing.py"

KEEP = {
    "detect_minima": "the library's analysis of a sweep, which the tests and the benchmark run",
    "parse_sweep_csv": "the CSV contract: the reader of what the sweep writes",
    "matvec": "SparseHermitian.matvec, which the benchmark's tracer counts",
}


def _traced():
    """The names the benchmark's tracer wraps, read from perfbench/tracing.py."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name for names in module.TRACED.values() for name in names}


def _definitions(tree):
    """(name, node, kind) of each module-level function and class ("name"), each method
    ("call") and each property ("attribute")."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, "name"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    read = any("property" in ast.unparse(d) for d in item.decorator_list)
                    yield item.name, item, "attribute" if read else "call"


def orphans(package=PACKAGE) -> list:
    """``module.name`` of each definition in package with no reference outside itself."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    keep = set(KEEP) | _traced()
    refs = {"name": {}, "attribute": {}, "call": {}}  # each kind's referring nodes, by id
    for module, tree in trees.items():
        if module != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs["name"].setdefault(node.id, set()).add(id(node))
                elif isinstance(node, ast.Attribute):
                    refs["attribute"].setdefault(node.attr, set()).add(id(node))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    refs["call"].setdefault(node.func.attr, set()).add(id(node))
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, definition, kind in _definitions(tree):
            if name in keep or (name.startswith("__") and name.endswith("__")):
                continue
            used = refs[kind].get(name, set())
            if kind == "name":  # a module-level name is also read as a module's attribute
                used = used | refs["attribute"].get(name, set())
            if used <= {id(node) for node in ast.walk(definition)}:
                found.append(f"{module}.{name}")
    return found


def test_every_library_name_has_a_caller_or_a_reason():
    assert orphans() == []


def test_the_guard_sees_an_orphan(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import unused, used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "class Box:\n    def read(self):\n        return self.read\n\n"
        "    def write(self):\n        return used()\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def sites(self):\n        return []\n\n\n"
        "Box().write()\nBox().size\nBox().sites[0]\n")
    assert orphans(tmp_path) == ["a.unused", "a.read", "a.sites"]
