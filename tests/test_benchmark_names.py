"""The names the benchmark's traced and untraced runs use must exist in the package.

``perfbench/tracing.py`` wraps each ``TRACED[layer]`` function of
``mobiusflux.<layer>`` and counts ``SparseHermitian.matvec``; a change that
deletes or renames one of them fails here, not only in a traced run.  So
does one that moves the operator from the first parameter of a traced
eigensolver function, where the traced run reads its dimension, or that
moves or renames an argument or attribute a ``Tracer._after_*`` hook reads.
``perfbench/workloads.py``, which every run drives, is parsed, not run:
each ``<layer>.<name>`` it reads must exist, and each keyword it passes
must be a parameter of the callee.  Each name in ``VERIFY_CHECKS`` must
be a check of ``verify.CHECKS``, the table of every ``check_*`` function.
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


def _hook_params(fn, **arguments):
    """The arguments as the tracer hands them to a hook: in signature order, defaults filled."""
    bound = inspect.signature(fn).bind(**arguments)
    bound.apply_defaults()
    return tuple(bound.arguments.values())


def test_the_tracer_hooks_read_what_their_calls_pass():
    from mobiusflux import gauge, hamiltonian, verify
    from mobiusflux.lattice import MOEBIUS, build_lattice, center_loop

    def first(fn, count):
        return list(inspect.signature(fn).parameters)[:count]

    assert first(hamiltonian.restrict, 2) == ["h", "iso"]
    assert first(gauge.wilson_loop, 2) == ["field", "loop"]
    assert first(verify.run_verification, 2) == ["seed", "broken_seam"]
    tracer = _tracing().Tracer
    lat = build_lattice(6, 3, MOEBIUS)
    field = gauge.uniform_flux_field(lat, 0.3)
    h = hamiltonian.assemble(lat, field, hamiltonian.HoppingParams())
    iso = hamiltonian.sector_isometry(lat, hamiltonian.EVEN)
    restricted = _hook_params(hamiltonian.restrict, h=h, iso=iso)
    assert tracer._after_restrict(restricted, None) == {"sector": "even", "n": lat.n_sites}
    walked = _hook_params(gauge.wilson_loop, field=field, loop=center_loop(lat))
    assert tracer._after_wilson_loop(walked, None) == {"links": lat.nx}
    broken = _hook_params(verify.run_verification, broken_seam=True)
    assert tracer._after_run_verification(broken, []) == {"broken": True, "seconds": {}}


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


def test_the_check_table_is_each_check_function_once_in_definition_order():
    from mobiusflux import verify

    defined = [(name.removeprefix("check_"), value) for name, value in vars(verify).items()
               if name.startswith("check_") and inspect.isfunction(value)]
    assert list(verify.CHECKS) == defined
    # a subset: a new check needs no benchmark edit
    assert set(_tracing().VERIFY_CHECKS) <= {name for name, _ in verify.CHECKS}
