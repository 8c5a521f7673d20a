"""The names the benchmark's traced and untraced runs use must exist in the package.

``perfbench/tracing.py`` wraps each ``TRACED[layer]`` function of
``mobiusflux.<layer>`` and counts ``SparseHermitian.matvec``; a change that
deletes or renames one of them fails here, not only in a traced run.  So
does one that moves the operator from the first parameter of a traced
eigensolver function, where the traced run reads its dimension.
``perfbench/workloads.py``, which every run drives, is parsed, not run:
each ``<layer>.<name>`` it reads must exist, and each keyword it passes
must be a parameter of the callee.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_layer():
    tracing = _tracing()
    assert set(tracing.TRACED) <= set(tracing.LAYERS)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"mobiusflux.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mobiusflux.{layer}.{name}"


def test_the_counted_matvec_exists():
    from mobiusflux.hamiltonian import SparseHermitian

    assert callable(SparseHermitian.matvec)


def test_traced_eigensolver_functions_take_the_operator_first():
    from mobiusflux import eigensolver

    for name in _tracing().TRACED["eigensolver"]:
        first = next(iter(inspect.signature(getattr(eigensolver, name)).parameters))
        assert first == "h", f"mobiusflux.eigensolver.{name} takes {first!r} first"


def _workload_reads():
    """Each ``<layer>.<name>`` node of workloads.py, with the call it is the callee of, if any."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    layers = {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "mobiusflux"
              for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return layers, [(node, calls.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in layers]


def test_every_name_the_workloads_read_exists_and_takes_their_keywords():
    layers, reads = _workload_reads()
    assert {"cli", "eigensolver", "experiments", "gauge", "hamiltonian", "lattice",
            "verify"} <= layers
    assert reads
    for node, call in reads:
        where = f"mobiusflux.{node.value.id}.{node.attr} (workloads.py line {node.lineno})"
        module = importlib.import_module(f"mobiusflux.{node.value.id}")
        assert hasattr(module, node.attr), where
        if call is None:
            continue
        params = inspect.signature(getattr(module, node.attr)).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for keyword in call.keywords:
            assert keyword.arg is None or keyword.arg in params, f"{where} takes no {keyword.arg!r}"
