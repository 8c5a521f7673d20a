"""The names the benchmark's traced run wraps must exist in the package.

``perfbench/tracing.py`` wraps each ``TRACED[layer]`` function of
``mobiusflux.<layer>`` and counts ``SparseHermitian.matvec``; a change that
deletes or renames one of them fails here, not only in a traced run.  So
does one that moves the operator from the first parameter of a traced
eigensolver function, where the traced run reads its dimension.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
