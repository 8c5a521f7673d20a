"""Span tracing around the program's public functions, for the traced run.

``Tracer.install`` replaces each traced function, in every package module
that holds a reference to it, with a wrapper that records a span: name,
start, end, enclosing span and benchmark op.  That covers the module
globals through which ``experiments``, ``verify``, ``gauge`` and ``cli``
call each other.  ``SparseHermitian.matvec`` only gets a counter, since a
span per product would cost more than the product.  Spans stay in memory
until ``write_spans``; ``per_layer_metrics`` turns them into the
benchmark's per-layer figures.  The untraced run never imports this
module.

A layer's self time is the time in its traced functions minus their
traced children.  Untraced helpers count with their caller: the
``lattice.neighbor`` steps inside ``gauge.face_curvature`` are gauge
time here, because a span per step would cost more than the step.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import itertools
import statistics
from pathlib import Path
from time import perf_counter

LAYERS = ("lattice", "gauge", "hamiltonian", "eigensolver", "experiments", "verify", "cli")

TRACED = {
    "lattice": ("build_lattice", "walk_loop", "center_loop", "offset_loop", "homology_class",
                "cut_complement_of_center"),
    "gauge": ("uniform_flux_field", "apply_gauge_transform", "add_face_flux", "face_curvature",
              "wilson_loop", "stokes_defect", "lift_field"),
    "hamiltonian": ("assemble", "restrict", "sector_isometry"),
    "eigensolver": ("solve", "dense_eigh", "lanczos_lowest"),
    "experiments": ("flux_sweep", "persistent_current", "detect_minima",
                    "ladder_periodicity_test", "annulus_equivalence_check"),
    "verify": ("run_verification",),
    "cli": ("main", "render_sweep_csv", "parse_sweep_csv"),
}

VERIFY_CHECKS = ("flatness", "gauge_invariance", "homology_invariance", "loop_doubling",
                 "flux_periodicity", "reflection_symmetry", "sector_completeness",
                 "annulus_equivalence", "ladder_periodicity", "stokes_defect",
                 "solver_cross_validation")
BASELINE = "baseline"  # op id of the fixed-size pass that follows the workload

# span fields; a span is a tuple of plain values, which the garbage collector
# stops tracking, so a long traced run does not slow every collection
SID, NAME, START, END, PARENT, OP, MATVECS, ATTRS = range(8)


class Tracer:
    """In-memory spans of one process; install once, before the timed ops."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.matvecs = 0
        self._next_id = itertools.count().__next__

    def begin_op(self, op) -> None:
        self.op = op

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mobiusflux.{layer}") for layer in LAYERS}
        modules["package"] = importlib.import_module("mobiusflux")
        wrappers = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    setattr(module, attr, wrappers[id(value)])
        sparse = modules["hamiltonian"].SparseHermitian
        matvec = sparse.matvec

        def counted_matvec(h, v):
            self.matvecs += 1
            return matvec(h, v)

        sparse.matvec = counted_matvec

    def _wrap(self, name: str, fn):
        spans, stack, next_id = self.spans, self.stack, self._next_id
        after = getattr(self, "_after_" + name.split(".")[1], None)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            matvecs = self.matvecs
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, self.matvecs - matvecs, None))
                raise
            end = perf_counter()
            stack.pop()
            attrs = None
            if after is not None:  # arguments in signature order, however they were passed
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = after(tuple(bound.arguments.values()), result)
            spans.append((sid, name, start, end, parent, self.op, self.matvecs - matvecs, attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- attributes recorded after a call (kept out of the span's time) ----

    @staticmethod
    def _after_assemble(params, h):
        return {"n": h.n}

    @staticmethod
    def _after_restrict(params, h):
        full, iso = params[:2]
        return {"sector": iso.parity, "n": full.n}

    @staticmethod
    def _after_eigen(params, result):
        return {"n": params[0].n}

    _after_solve = _after_dense_eigh = _after_lanczos_lowest = _after_eigen

    @staticmethod
    def _after_wilson_loop(params, result):
        return {"links": len(params[1].steps)}

    @staticmethod
    def _after_flux_sweep(params, records):
        return {"points": len(records)}

    @staticmethod
    def _after_run_verification(params, results):
        return {"broken": bool(params[1]), "seconds": {r.name: r.seconds for r in results}}

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out)
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "op", "matvecs"))
            for span in sorted(self.spans):
                writer.writerow(span[:ATTRS])


def _self_times(spans) -> list:
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _tag_solve_sectors(spans) -> None:
    """Add each ``eigensolver.solve`` span's sector to its attributes.

    A sector solve is called on what the caller's ``restrict`` just
    returned (flux_sweep, verify, cli), so its sector is that of the
    sibling span right before it; any other solve is a full-lattice one.
    """
    latest = {}  # parent id -> index of its latest child so far
    for idx, span in enumerate(spans):
        before = latest.get(span[PARENT])
        latest[span[PARENT]] = idx
        if span[NAME] == "eigensolver.solve":
            sector = "full"
            if before is not None and spans[before][NAME] == "hamiltonian.restrict":
                sector = (spans[before][ATTRS] or {}).get("sector", "full")
            spans[idx] = span[:ATTRS] + ({**(span[ATTRS] or {}), "sector": sector},)


def per_layer_metrics(tracer: Tracer, workload, baseline, baseline_ops: int) -> dict:
    """Per-layer figures, each from the workload's spans where it has any.

    ``workload`` and ``baseline`` are the summed ``Outcome`` of the traced
    ops and of the baseline pass's small ops.  A layer the workload never
    calls is read from the fixed-size baseline pass instead, so every
    workload reports every metric; so are ``complete_ratio`` and
    ``nonconverged`` when the workload checks no spectrum.

    The end-to-end figure each layer should move:

    * ``eigensolver.solve.*`` and ``dense_eigh``: ops_per_s_at_ref on
      acceptance_sweep;
    * ``lanczos_lowest`` and ``matvecs_per_solve``: ops_per_s_at_ref and
      op_ms_tail_at_ref on iterative_spectrum; ``complete_ratio`` and
      ``nonconverged``: its failed count;
    * ``hamiltonian.*``: acceptance_sweep by a few percent;
    * ``gauge.*``, ``lattice.*`` and ``verify.*``: no workload; they are
      read from the baseline pass's run_verification on 6 x 5 lattices;
    * ``experiments.*``: acceptance_sweep;
    * ``cli.*``: acceptance_sweep and iterative_spectrum, slightly.
    """
    spans = sorted(tracer.spans)  # by id, so a span's index is its id
    _tag_solve_sectors(spans)
    own = _self_times(spans)
    by_source = {True: {}, False: {}}
    for idx, span in enumerate(spans):
        by_source[span[OP] == BASELINE].setdefault(span[NAME], []).append(idx)

    def attrs(idx) -> dict:  # spans that raised, or have no hook, carry none
        return spans[idx][ATTRS] or {}

    def pick(name, baseline_only=False, **want):
        """Spans of ``name`` whose attributes match ``want``, workload first."""
        for from_baseline in (False, True):
            if from_baseline or not baseline_only:
                idxs = [i for i in by_source[from_baseline].get(name, [])
                        if all(attrs(i).get(k) == v for k, v in want.items())]
                if idxs:
                    return idxs
        return []

    def dur_ms(idx):
        return (spans[idx][END] - spans[idx][START]) * 1e3

    def p50(idxs, value=dur_ms):
        return statistics.median(value(i) for i in idxs) if idxs else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for sector in ("full", "even", "odd"):
        put(f"eigensolver.solve.{sector}.ms_p50", p50(pick("eigensolver.solve", sector=sector)),
            "ms")
    put("eigensolver.dense_eigh.ms_p50", p50(pick("eigensolver.dense_eigh")), "ms")
    lanczos = pick("eigensolver.lanczos_lowest")
    put("eigensolver.lanczos_lowest.ms_p50", p50(lanczos), "ms")
    put("eigensolver.matvecs_per_solve",
        sum(spans[i][MATVECS] for i in lanczos) / max(1, len(lanczos)), "count")

    checked = workload if workload.spectra else baseline
    put("eigensolver.complete_ratio", checked.complete / max(1, checked.spectra), "ratio")
    put("eigensolver.nonconverged", checked.nonconverged, "count")

    put("hamiltonian.assemble.ms_p50", p50(pick("hamiltonian.assemble")), "ms")
    restricts = pick("hamiltonian.restrict")
    put("hamiltonian.restrict.ms_p50", p50(restricts), "ms")
    restrict_set = set(restricts)
    inner_iso = [i for i in pick("hamiltonian.sector_isometry") if spans[i][PARENT] in restrict_set]
    put("hamiltonian.sector_isometry.calls_per_restrict",
        len(inner_iso) / max(1, len(restricts)), "count")

    put("gauge.apply_gauge_transform.ms_p50", p50(pick("gauge.apply_gauge_transform")), "ms")
    curv = pick("gauge.face_curvature")
    put("gauge.face_curvature.us_per_face",
        sum(dur_ms(i) for i in curv) * 1e3 / max(1, len(curv)), "us")
    wilson = pick("gauge.wilson_loop")
    put("gauge.wilson_loop.us_per_link",
        sum(dur_ms(i) for i in wilson) * 1e3
        / max(1, sum(attrs(i).get("links", 0) for i in wilson)), "us")
    for name in ("gauge.stokes_defect", "gauge.lift_field", "lattice.walk_loop",
                 "lattice.cut_complement_of_center"):
        put(f"{name}.ms_p50", p50(pick(name)), "ms")

    sweeps = pick("experiments.flux_sweep")
    put("experiments.flux_sweep.self_ms_per_point",
        sum(own[i] for i in sweeps) * 1e3 / max(1, sum(attrs(i).get("points", 0) for i in sweeps)),
        "ms")
    put("experiments.detect_minima.ms", p50(pick("experiments.detect_minima")), "ms")

    suites = pick("verify.run_verification", broken=False)
    for check in VERIFY_CHECKS:
        timed = [i for i in suites if check in attrs(i)["seconds"]]
        put(f"verify.{check}.ms", p50(timed, lambda i: attrs(i)["seconds"][check] * 1e3), "ms")

    put("cli.main.self_ms", p50(pick("cli.main"), lambda i: own[i] * 1e3), "ms")
    put("cli.render_sweep_csv.ms", p50(pick("cli.render_sweep_csv")), "ms")

    # the ROADMAP baseline rows, always from the fixed-size pass
    put("hamiltonian.assemble.n432.ms_p50", p50(pick("hamiltonian.assemble", True, n=432)), "ms")
    put("hamiltonian.restrict.n432.ms_p50", p50(pick("hamiltonian.restrict", True, n=432)), "ms")
    for sector, n in (("full", 432), ("even", 240), ("odd", 192)):
        put(f"eigensolver.dense_eigh.{sector}.n432.ms_p50",
            p50(pick("eigensolver.dense_eigh", True, n=n)), "ms")
    for n in (432, 1200):
        rows = pick("eigensolver.lanczos_lowest", True, n=n)
        put(f"eigensolver.lanczos_lowest.n{n}.ms_p50", p50(rows), "ms")
        put(f"eigensolver.lanczos_lowest.n{n}.matvecs",
            statistics.median(spans[i][MATVECS] for i in rows) if rows else 0, "count")

    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span[NAME].startswith(layer + ".")]
        from_workload = [i for i in mine if spans[i][OP] != BASELINE]
        idxs, ops = (from_workload, workload.attempted) if from_workload else (
            [i for i in mine if spans[i][OP] == BASELINE], baseline_ops)
        put(f"{layer}.self_ms_per_op", sum(own[i] for i in idxs) * 1e3 / max(1, ops), "ms")
    return out
